import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deo.errors import (
    DimensionMismatchError,
    DuplicateIdError,
    EmptyInputError,
    ZeroVectorError,
)
from deo.index import SEARCH_BLOCK, FlatIndex, RankedList, rrf_fuse, trec_lines, write_trec_run
from deo.store import EmbeddingStore, load_store
from deo.vecmath import ZERO_NORM_EPS, l2_normalize


def build_random_index(rng, n, d):
    ids = [f"doc{i:04d}" for i in range(n)]
    vectors = rng.normal(size=(n, d))
    return FlatIndex.build(zip(ids, vectors)), ids, vectors


def brute_force_topk(ids, vectors, query, k):
    """Independent reference: plain loops and python sorting."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = []
    for doc_id, vec in zip(ids, vectors):
        v = np.asarray(vec, dtype=np.float64)
        scored.append((doc_id, float(np.dot(v / np.linalg.norm(v), q))))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [doc_id for doc_id, _ in scored[:k]]


def test_build_single_record():
    index = FlatIndex.build([("a", [1.0, 0.0])])
    assert len(index) == 1
    assert index.dim == 2


def test_build_rejects_duplicates_zero_vectors_and_mismatches():
    with pytest.raises(DuplicateIdError):
        FlatIndex.build([("a", [1.0, 0.0]), ("a", [0.0, 1.0])])
    with pytest.raises(ZeroVectorError):
        FlatIndex.build([("a", [0.0, 0.0])])
    with pytest.raises(DimensionMismatchError):
        FlatIndex.build([("a", [1.0, 0.0]), ("b", [1.0, 0.0, 0.0])])
    with pytest.raises(EmptyInputError):
        FlatIndex.build([])


def test_build_is_deterministic():
    rng = np.random.default_rng(0)
    records = [(f"d{i}", rng.normal(size=4)) for i in range(30)]
    a = FlatIndex.build(records)
    b = FlatIndex.build(records)
    assert a.doc_ids == b.doc_ids
    assert np.array_equal(a.unit_vectors(), b.unit_vectors())


def test_search_identity_query():
    rng = np.random.default_rng(1)
    index, ids, vectors = build_random_index(rng, 50, 8)
    result = index.search(vectors[17], k=1)
    assert result.doc_ids[0] == ids[17]
    assert math.isclose(result.scores[0], 1.0, abs_tol=1e-12)


def test_search_tie_break_by_doc_id():
    v = [0.6, 0.8]
    index = FlatIndex.build([("zzz", v), ("aaa", v), ("mmm", [1.0, 0.0])])
    result = index.search(v, k=3)
    assert result.doc_ids[:2] == ("aaa", "zzz")
    assert result.scores[0] == result.scores[1]


def test_search_k_larger_than_corpus():
    index = FlatIndex.build([("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
    assert len(index.search([1.0, 1.0], k=10)) == 2


def test_search_validates_inputs():
    index = FlatIndex.build([("a", [1.0, 0.0])])
    with pytest.raises(ValueError):
        index.search([1.0, 0.0], k=0)
    with pytest.raises(DimensionMismatchError):
        index.search([1.0, 0.0, 0.0], k=1)
    with pytest.raises(ZeroVectorError):
        index.search([0.0, 0.0], k=1)


def test_search_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(5, 300))
        d = int(rng.integers(2, 32))
        index, ids, vectors = build_random_index(rng, n, d)
        query = rng.normal(size=d)
        k = int(rng.integers(1, 15))
        assert list(index.search(query, k).doc_ids) == brute_force_topk(
            ids, vectors, query, k
        )


def test_build_errors_name_the_doc():
    with pytest.raises(ZeroVectorError, match="'b'"):
        FlatIndex.build([("a", [1.0, 0.0]), ("b", [0.0, 0.0])])
    with pytest.raises(ValueError, match="'c'"):
        FlatIndex.build(zip("abc", [[1.0, 0.0], [0.0, 1.0], [np.inf, 1.0]]))
    with pytest.raises(ValueError, match="'b'"):
        FlatIndex.build(zip("ab", [[1.0, 0.0], [1e200, 1e200]]))  # norm overflows
    # the first bad row is reported, though a later one is non-finite
    with pytest.raises(ZeroVectorError, match="'b'"):
        FlatIndex.build(zip("abc", [[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(DuplicateIdError, match="'a'"):
        FlatIndex.build(zip("aba", np.eye(3)))


def test_build_checks_dimensions_then_rows_then_ids():
    # a later record of the wrong dimension is reported before a bad row
    with pytest.raises(DimensionMismatchError, match="'c'"):
        FlatIndex.build(zip("abc", [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0, 0.0]]))
    # a bad row is reported before an earlier duplicate id
    with pytest.raises(ZeroVectorError, match="'b'"):
        FlatIndex.build(zip("aab", [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))


def test_from_store_errors_name_the_doc():
    with pytest.raises(EmptyInputError):
        FlatIndex.from_store(EmbeddingStore(dim=2))
    # the first bad row is reported, though a later one is non-finite
    with pytest.raises(ZeroVectorError, match="'b'"):
        FlatIndex.from_store(store_of("abc", np.array([[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]])))
    with pytest.raises(ValueError, match="'c'"):
        FlatIndex.from_store(store_of("abc", np.array([[1.0, 0.0], [0.0, 1.0], [np.inf, 1.0]])))


def _exact_results(results):
    return [(r.doc_ids, r.scores) for r in results]


@st.composite
def corpus_and_queries(draw):
    """A corpus with exact duplicate rows under shuffled ids, and a batch of
    queries, some of them copies of corpus rows (so ties reach the top)."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 40))
    batch = draw(st.sampled_from([1, 2, SEARCH_BLOCK - 1, SEARCH_BLOCK, SEARCH_BLOCK + 1,
                                  2 * SEARCH_BLOCK + 2]))
    k = draw(st.integers(1, n + 3))
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d))
    duplicates = rng.integers(0, n, size=n // 3)
    # scaled by a power of two, a copy normalizes to the very same unit row
    vectors[rng.integers(0, n, size=n // 3)] = vectors[duplicates] * 2.0 ** rng.integers(-2, 3)
    ids = [f"doc{i:04d}" for i in rng.permutation(n)]
    queries = rng.normal(size=(batch, d))
    copied = rng.random(batch) < 0.3
    queries[copied] = vectors[rng.integers(0, n, size=int(copied.sum()))]
    return ids, vectors, queries, k


@settings(derandomize=True, deadline=None, max_examples=40)
@given(corpus_and_queries())
@example((["b", "a", "c"], np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
          np.array([[1.0, 0.1]]), 3))
def test_search_many_equals_single_searches(case):
    ids, vectors, queries, k = case
    index = FlatIndex.build(zip(ids, vectors))
    batched = index.search_many(queries, k)
    assert len(batched) == len(queries)
    # bit for bit: same ids, same float scores, alone or in any batch
    assert _exact_results(batched) == _exact_results(index.search(q, k) for q in queries)
    for query, result in zip(queries, batched):
        assert list(result.doc_ids) == brute_force_topk(ids, vectors, query, k)
        assert len(result) == min(k, len(ids))


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_search_many_ignores_batch_order(seed):
    rng = np.random.default_rng(seed)
    n, d = 300, 24  # 300 rows leave a partial BLAS tile at the corpus edge
    index = FlatIndex.build(zip([f"d{i}" for i in range(n)], rng.normal(size=(n, d))))
    queries = rng.normal(size=(2 * SEARCH_BLOCK + 5, d))
    perm = rng.permutation(len(queries))
    forward = _exact_results(index.search_many(queries, 10))
    shuffled = _exact_results(index.search_many(queries[perm], 10))
    assert [forward[i] for i in perm] == shuffled


def test_search_many_names_the_first_bad_query():
    index = FlatIndex.build([("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
    # every row is checked before any is searched; the first bad one is named
    with pytest.raises(ZeroVectorError, match="^query 1 "):
        index.search_many([[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]], 1)
    with pytest.raises(ValueError, match="^query 2 "):
        index.search_many(np.array([[1.0, 0.0], [0.0, 1.0], [np.inf, 1.0]]), 1)
    # the shape is checked once, and a query is never reshaped
    for queries in (np.ones((2, 3)), np.ones(2), [[[1.0, 0.0]]]):
        with pytest.raises(DimensionMismatchError):
            index.search_many(queries, 1)
    with pytest.raises(DimensionMismatchError):
        index.search([[1.0, 0.0]], 1)
    assert index.search_many(np.empty((0, 2)), 3) == []


def float64_oracle(ids, vectors, query, k):
    """Float64 reference with no screening: every row normalized on its own by
    l2_normalize, scored with one fixed-order sum, sorted by (-score, id)."""
    units = np.stack([l2_normalize(row) for row in vectors])
    scores = np.add.reduce(units * l2_normalize(query), axis=1).tolist()
    ranked = sorted(zip(ids, scores), key=lambda pair: (-pair[1], pair[0]))[:k]
    return tuple(doc_id for doc_id, _ in ranked), tuple(score for _, score in ranked)


def store_of(ids, vectors):
    """The rows as every command indexes them: a store's float32 matrix."""
    store = EmbeddingStore(dim=vectors.shape[1])
    for doc_id, row in zip(ids, vectors):
        store.add(doc_id, row)
    return store


def assert_ranks_like_oracle(ids, vectors, queries, k):
    index = FlatIndex.from_store(store_of(ids, vectors))
    batched = _exact_results(index.search_many(queries, k))
    assert batched == _exact_results(index.search(q, k) for q in queries)
    assert batched == [float64_oracle(ids, vectors, q, k) for q in queries]


@st.composite
def float32_corpus_and_queries(draw):
    """A float32 corpus with exact duplicates and near-ties (copies one float32
    ulp apart in one component) under shuffled ids, and a batch of queries,
    some of them copies of corpus rows (so the ties reach the top)."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 40))
    batch = draw(st.sampled_from([1, SEARCH_BLOCK - 1, SEARCH_BLOCK, SEARCH_BLOCK + 1]))
    k = draw(st.one_of(st.integers(1, 4), st.integers(1, n + 3)))
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)).astype(np.float32)
    vectors[rng.integers(0, n, size=n // 4)] = vectors[rng.integers(0, n, size=n // 4)]
    near = rng.integers(0, n, size=n // 3)
    component = rng.integers(0, d, size=len(near))
    copies = vectors[near]
    copies[np.arange(len(near)), component] = np.nextafter(
        copies[np.arange(len(near)), component], np.float32(np.inf))
    vectors[rng.integers(0, n, size=len(near))] = copies
    ids = [f"doc{i:04d}" for i in rng.permutation(n)]
    queries = rng.normal(size=(batch, d))
    copied = rng.random(batch) < 0.5
    queries[copied] = vectors[rng.integers(0, n, size=int(copied.sum()))]
    return ids, vectors, queries, k


@settings(derandomize=True, deadline=None, max_examples=60)
@given(float32_corpus_and_queries())
def test_float32_search_matches_float64_oracle(case):
    # the float32 screen only picks candidates: ids, float scores and tie
    # order are those of an all-float64 brute force, alone or in any batch
    assert_ranks_like_oracle(*case)


@pytest.mark.parametrize("scale", ["near_float32_max", "just_above_zero_norm_eps"])
def test_float32_extreme_norms_rank_like_oracle(scale):
    rng = np.random.default_rng(8)
    n, d = 150, 16
    vectors = rng.normal(size=(n, d))
    extreme = rng.permutation(n)[:50]
    if scale == "near_float32_max":
        # each component near float32's maximum, so the norm overflows float32
        big = float(np.finfo(np.float32).max)
        vectors[extreme] = np.sign(vectors[extreme]) * big * rng.uniform(0.5, 1.0, size=(50, d))
    else:
        units = vectors[extreme] / np.linalg.norm(vectors[extreme], axis=1, keepdims=True)
        vectors[extreme] = units * ZERO_NORM_EPS * rng.uniform(1.5, 3.0, size=(50, 1))
    vectors = vectors.astype(np.float32)
    assert np.isfinite(vectors).all()
    ids = [f"doc{i:04d}" for i in rng.permutation(n)]
    queries = np.concatenate([rng.normal(size=(40, d)), vectors[extreme[:30]]])
    for k in (1, 5, 60, n):
        assert_ranks_like_oracle(ids, vectors, queries, k)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(float32_corpus_and_queries())
def test_from_store_matches_build(case):
    ids, vectors, queries, _ = case
    stored = FlatIndex.from_store(store_of(ids, vectors))
    built = FlatIndex.build(zip(ids, vectors))
    assert stored.doc_ids == built.doc_ids == ids
    units = stored.unit_vectors()
    assert units.tobytes() == built.unit_vectors().tobytes()
    # each row has the bits l2_normalize gives it on its own
    for unit, row in zip(units, vectors):
        assert unit.tobytes() == l2_normalize(row).tobytes()
    for k in sorted({1, 5, len(ids)}):
        assert (_exact_results(stored.search_many(queries, k))
                == _exact_results(built.search_many(queries, k)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(float32_corpus_and_queries(), st.lists(st.text(max_size=4), min_size=300, max_size=300,
                                              unique=True))
def test_from_store_on_a_v3_store_matches_build(tmp_path_factory, case, names):
    # the stored norms and id rank are the bits build computes, so rankings
    # match to the last tie, under ids of any order
    ids, vectors, queries, _ = case
    ids = [names[int(i[3:])] for i in ids]
    path = tmp_path_factory.mktemp("v3") / "s.bin"
    store_of(ids, vectors).save_binary(path)
    stored = FlatIndex.from_store(load_store(path))
    built = FlatIndex.build(zip(ids, vectors))
    assert stored._norms.tobytes() == built._norms.tobytes()
    assert np.array_equal(stored._id_rank, built._id_rank)
    for k in sorted({1, 5, len(ids)}):
        assert (_exact_results(stored.search_many(queries, k))
                == _exact_results(built.search_many(queries, k)))


def test_from_store_keeps_the_store_matrix_without_a_float64_copy():
    rng = np.random.default_rng(9)
    n, d = 8192, 256
    store = EmbeddingStore(dim=d)
    for i, row in enumerate(rng.normal(size=(n, d))):
        store.add(f"doc{i:05d}", row)
    tracemalloc.start()
    try:
        index = FlatIndex.from_store(store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8 / 2
    # the store's matrix, id list and id -> row map, none of them copied
    assert np.shares_memory(index._matrix, store.matrix)
    assert index._doc_ids is store._ids and index._positions is store._index
    assert np.array_equal(index.vector("doc00007"), l2_normalize(store.get("doc00007")))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_build_copies_its_records(dtype):
    rng = np.random.default_rng(10)
    vectors = rng.normal(size=(50, 8)).astype(dtype)
    index = FlatIndex.build(zip([f"d{i}" for i in range(50)], vectors))
    queries = rng.normal(size=(5, 8))
    results, units = _exact_results(index.search_many(queries, 7)), index.unit_vectors()
    vectors[:] = rng.normal(size=(50, 8))
    assert _exact_results(index.search_many(queries, 7)) == results
    assert np.array_equal(index.unit_vectors(), units)


def test_search_scale_invariant():
    rng = np.random.default_rng(3)
    index, _, _ = build_random_index(rng, 100, 6)
    q = rng.normal(size=6)
    assert index.search(q, 10).doc_ids == index.search(3.7 * q, 10).doc_ids


def test_index_vector_access():
    index = FlatIndex.build([("a", [2.0, 0.0])])
    assert np.allclose(index.vector("a"), [1.0, 0.0])
    assert "a" in index
    assert "b" not in index
    with pytest.raises(KeyError):
        index.vector("b")


def test_ranked_list_rank_of():
    rl = RankedList(doc_ids=("a", "b"), scores=(0.9, 0.5))
    assert rl.rank_of("a") == 1
    assert rl.rank_of("b") == 2
    assert rl.rank_of("c") is None
    with pytest.raises(ValueError):
        RankedList(doc_ids=("a",), scores=(0.9, 0.5))


def test_rrf_single_list():
    rl = RankedList(doc_ids=("a", "b", "c"), scores=(0.9, 0.8, 0.7))
    fused = rrf_fuse([rl], k=3)
    assert fused.doc_ids == ("a", "b", "c")
    for rank, score in enumerate(fused.scores, start=1):
        assert math.isclose(score, 1.0 / (60.0 + rank), abs_tol=1e-15)


def test_rrf_doubly_ranked_doc_wins():
    # rank 1 in one list scores 1/61; rank 2 in both scores 2/62 > 1/61
    list_a = RankedList(doc_ids=("solo", "both"), scores=(0.9, 0.8))
    list_b = RankedList(doc_ids=("other", "both"), scores=(0.9, 0.8))
    fused = rrf_fuse([list_a, list_b], k=3)
    assert fused.doc_ids[0] == "both"
    assert math.isclose(fused.scores[0], 2.0 / 62.0, abs_tol=1e-15)
    assert math.isclose(dict(fused.items())["solo"], 1.0 / 61.0, abs_tol=1e-15)


def test_rrf_shared_rank_one():
    list_a = RankedList(doc_ids=("top", "x"), scores=(0.9, 0.1))
    list_b = RankedList(doc_ids=("top", "y"), scores=(0.9, 0.1))
    fused = rrf_fuse([list_a, list_b], k=1)
    assert math.isclose(fused.scores[0], 2.0 / 61.0, abs_tol=1e-15)


def test_rrf_permutation_invariant_and_tie_break():
    rng = np.random.default_rng(5)
    lists = []
    for _ in range(4):
        ids = list(rng.permutation([f"d{i}" for i in range(10)]))[:6]
        lists.append(RankedList(doc_ids=tuple(ids), scores=tuple(range(6, 0, -1))))
    a = rrf_fuse(lists, k=10)
    b = rrf_fuse(list(reversed(lists)), k=10)
    assert a.doc_ids == b.doc_ids
    assert np.allclose(a.scores, b.scores, atol=1e-15)

    tie_a = RankedList(doc_ids=("zed", "amp"), scores=(0.9, 0.8))
    tie_b = RankedList(doc_ids=("amp", "zed"), scores=(0.9, 0.8))
    fused = rrf_fuse([tie_a, tie_b], k=2)
    assert fused.doc_ids == ("amp", "zed")  # equal scores, id ascending


def test_rrf_requires_input():
    with pytest.raises(EmptyInputError):
        rrf_fuse([], k=3)


def test_write_trec_run(tmp_path):
    results = {
        "q2": RankedList(doc_ids=("a",), scores=(0.25,)),
        "q1": RankedList(doc_ids=("b", "a"), scores=(0.5, 0.125)),
    }
    path = tmp_path / "out.run"
    write_trec_run(path, results, run_tag="sys")
    lines = path.read_text().splitlines()
    assert lines == [
        "q1 Q0 b 1 0.500000 sys",
        "q1 Q0 a 2 0.125000 sys",
        "q2 Q0 a 1 0.250000 sys",
    ]
    # search prints each query's ranking through the same formatter
    assert path.read_text() == (trec_lines("q1", results["q1"], "sys")
                                + trec_lines("q2", results["q2"], "sys"))
    assert trec_lines("q3", RankedList(doc_ids=(), scores=()), "sys") == ""
