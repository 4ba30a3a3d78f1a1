import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deo.benchmark import (
    BenchmarkConfig,
    QueryPipeline,
    SweepConfig,
    parse_metric_spec,
    report_timestamp,
    run_benchmark,
    sweep,
)
from deo.errors import (
    ConfigError,
    DimensionMismatchError,
    FormatError,
    MissingDecompositionError,
    MissingEmbeddingError,
    ZeroVectorError,
)
from deo.index import FlatIndex, rrf_fuse
from deo.optimizer import DecompositionEmbeddings, OptimizationConfig, optimize_query_embedding
from deo.store import EmbeddingStore


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


DOCS = {
    "d_alpha1": unit([1.0, 0.0, 0.0, 0.0]),
    "d_alpha2": unit([0.9, 0.1, 0.0, 0.0]),
    "d_beta": unit([0.0, 1.0, 0.0, 0.0]),
    "d_mix": unit([1.0, 1.0, 0.0, 0.0]),
    "d_gamma": unit([0.0, 0.0, 1.0, 0.0]),
}

QUERY_VECS = {
    "q1": unit([0.6, 0.55, 0.0, 0.02]),
    "q2": unit([0.8, 0.05, 0.0, 0.1]),
    "q3": unit([0.05, 0.0, 0.95, 0.0]),
    "alpha things": unit([0.95, 0.05, 0.0, 0.0]),
    "beta things": unit([0.0, 1.0, 0.0, 0.0]),
    "gamma stuff": unit([0.0, 0.0, 1.0, 0.0]),
}

CACHE_ROWS = [
    {"query_id": "q1", "query": "alpha topics excluding beta",
     "positives": ["alpha things"], "negatives": ["beta things"], "model": "test-model"},
    {"query_id": "q2", "query": "alpha only",
     "positives": ["alpha things"], "negatives": [], "model": "test-model"},
    {"query_id": "q3", "query": "gamma ghost",
     "positives": ["gamma stuff"], "negatives": [], "model": "test-model"},
]

QUERIES = {"q1": "alpha topics excluding beta", "q2": "alpha only", "q3": "gamma ghost"}

QRELS_TEXT = (
    "q1 0 d_alpha1 2\n"
    "q1 0 d_alpha2 1\n"
    "q1 0 d_beta 0\n"
    "q2 0 d_alpha1 1\n"
    "q3 0 d_gamma 0\n"
)


def build_env(tmp_path: Path, extra_cfg: str = "", systems: str = "baseline, deo, avg_only, rrf_only"):
    corpus = EmbeddingStore(dim=4, model="test-enc")
    for doc_id, vec in DOCS.items():
        corpus.add(doc_id, vec)
    corpus.save_jsonl(tmp_path / "corpus.emb.jsonl")

    qstore = EmbeddingStore(dim=4, model="test-enc")
    for key, vec in QUERY_VECS.items():
        qstore.add(key, vec)
    qstore.save_jsonl(tmp_path / "queries.emb.jsonl")

    with open(tmp_path / "queries.jsonl", "w") as fh:
        for qid, text in QUERIES.items():
            fh.write(json.dumps({"id": qid, "text": text}) + "\n")
    (tmp_path / "qrels.txt").write_text(QRELS_TEXT)
    with open(tmp_path / "cache.jsonl", "w") as fh:
        for row in CACHE_ROWS:
            fh.write(json.dumps(row) + "\n")

    cfg_text = (
        "corpus_store = corpus.emb.jsonl\n"
        "queries = queries.jsonl\n"
        "qrels = qrels.txt\n"
        "query_store = queries.emb.jsonl\n"
        "cache = cache.jsonl\n"
        f"systems = {systems}\n"
        "metrics = ndcg@10, map@100, recall@5\n"
        "offline = true\n"
        "model = test-model\n"
        + extra_cfg
    )
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(cfg_text)
    return BenchmarkConfig.from_file(cfg_path)


# -- config parsing -------------------------------------------------------


def test_config_resolves_relative_paths(tmp_path):
    cfg = build_env(tmp_path)
    assert cfg.corpus_store == str(tmp_path / "corpus.emb.jsonl")
    assert cfg.qrels == str(tmp_path / "qrels.txt")
    assert cfg.systems == ("baseline", "deo", "avg_only", "rrf_only")
    assert cfg.metrics == ("ndcg@10", "map@100", "recall@5")
    assert len(cfg.config_hash) == 12
    assert all(c in "0123456789abcdef" for c in cfg.config_hash)


def test_config_absolute_paths_kept(tmp_path):
    cfg = build_env(tmp_path)
    mapping = {
        "corpus_store": cfg.corpus_store,
        "queries": cfg.queries,
        "qrels": cfg.qrels,
    }
    reparsed = BenchmarkConfig.from_mapping(mapping, base_dir="/nowhere")
    assert reparsed.corpus_store == cfg.corpus_store


def test_config_rejects_unknown_system():
    with pytest.raises(ConfigError):
        BenchmarkConfig(corpus_store="a", queries="b", qrels="c", systems=("bm25",))


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown benchmark key"):
        BenchmarkConfig.from_mapping(
            {"corpus_store": "a", "queries": "b", "qrels": "c", "bogus": "1"}
        )


def test_config_missing_required(tmp_path):
    with pytest.raises(ConfigError, match="missing required"):
        BenchmarkConfig.from_mapping({"corpus_store": "a"})


def test_config_folds_flat_optimizer_keys(tmp_path):
    expected = OptimizationConfig(lambda_o=1.0, steps=3)
    cfg = BenchmarkConfig(corpus_store="a", queries="b", qrels="c", lambda_o=1.0, steps=3)
    assert cfg.optimizer == expected
    assert build_env(tmp_path, extra_cfg="lambda_o = 1.0\nsteps = 3\n").optimizer == expected


def test_parse_metric_spec():
    assert parse_metric_spec("ndcg@10") == ("ndcg", 10)
    assert parse_metric_spec("MAP@100") == ("map", 100)
    for bad in ("ndcg", "bleu@4", "ndcg@x", "ndcg@0"):
        with pytest.raises(ConfigError):
            parse_metric_spec(bad)


def test_search_depth():
    cfg = BenchmarkConfig(corpus_store="a", queries="b", qrels="c",
                          metrics=("ndcg@10", "map@100"))
    assert cfg.search_depth == 100
    assert BenchmarkConfig(corpus_store="a", queries="b", qrels="c",
                           metrics=("ndcg@10",), depth=7).search_depth == 7


def test_report_timestamp_pinned(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert report_timestamp() == "1970-01-01T00:00:00Z"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
    assert report_timestamp() == "1970-01-02T00:00:00Z"


# -- resolver -------------------------------------------------------------


class CountingEmbedClient:
    def __init__(self, dim=4):
        self.calls = 0
        self.batches = []
        self.dim = dim

    def embed(self, texts):
        self.calls += 1
        self.batches.append(list(texts))
        return [np.full(self.dim, 0.5) for _ in texts]


def test_resolver_store_hits(tmp_path):
    # the query store is searched by id first, then by text
    store = EmbeddingStore(dim=4)
    store.add("q1", DOCS["d_gamma"])
    store.add("some text", DOCS["d_beta"])
    store.save_jsonl(tmp_path / "q.emb.jsonl")
    pipeline = QueryPipeline(str(tmp_path / "q.emb.jsonl"))
    index = FlatIndex.build(DOCS.items())
    rankings = {query_id: ranking for _, query_id, ranking in pipeline.rank(
        index, ["baseline"], [("q1", "some text"), ("q2", "some text")], 1, OptimizationConfig())}
    assert rankings["q1"].doc_ids == ("d_gamma",)
    assert rankings["q2"].doc_ids == ("d_beta",)
    np.testing.assert_array_equal(pipeline._vector("unused", record_id="q1"), DOCS["d_gamma"])


def test_resolver_offline_miss_names_text():
    pipeline = QueryPipeline()
    with pytest.raises(MissingEmbeddingError, match="mystery"):
        pipeline._vector("mystery")


def test_resolver_online_memoizes():
    # a text is fetched once, however often it is prefetched or read
    client = CountingEmbedClient()
    pipeline = QueryPipeline(embed_client=client)
    for _ in range(2):
        pipeline._prefetch([("q1", "t"), ("q2", "t")], subqueries=False)
    v1 = pipeline._vector("t")
    v2 = pipeline._vector("t")
    np.testing.assert_array_equal(v1, v2)
    assert client.batches == [["t"]]
    # returned arrays are copies; mutating one must not poison the memo
    v1[0] = 99.0
    np.testing.assert_array_equal(pipeline._vector("t"), v2)


@pytest.mark.parametrize("by_id, fetched", [(True, ["new"]), (False, ["unknown", "new"])])
def test_prefetch_fetches_what_the_store_lacks(tmp_path, by_id, fetched):
    # the store is read by id, then by text; an ad-hoc query (not by_id) is
    # its own id. Only what the store lacks goes to the endpoint, and a text
    # shared by two queries once
    store = EmbeddingStore(dim=4)
    for key in ("q1", "alpha only", "alpha things"):
        store.add(key, DOCS["d_gamma"])
    store.save_jsonl(tmp_path / "q.emb.jsonl")
    (tmp_path / "cache.jsonl").write_text(json.dumps(CACHE_ROWS[0]) + "\n")
    client = CountingEmbedClient()
    pipeline = QueryPipeline(str(tmp_path / "q.emb.jsonl"), str(tmp_path / "cache.jsonl"),
                             embed_client=client, batch_size=2)
    pairs = [("q1", "unknown"), ("q2", "alpha only"), ("q3", "new"), ("q4", "new")]
    text = CACHE_ROWS[0]["query"]
    pairs, last = (pairs, ("q0", text)) if by_id else ([(t, t) for _, t in pairs], (text, text))
    pipeline._prefetch(pairs, subqueries=False)
    pipeline._prefetch([last])
    assert client.batches == [fetched, [text, "beta things"]]


def test_resolver_offline_ignores_client(tmp_path):
    # an offline benchmark never hands its pipeline the embedding client
    cfg = build_env(tmp_path, systems="baseline")
    EmbeddingStore(dim=4).save_jsonl(tmp_path / "queries.emb.jsonl")
    client = CountingEmbedClient()
    with pytest.raises(MissingEmbeddingError):
        run_benchmark(cfg, embed_client=client)
    assert client.calls == 0


# -- benchmark run --------------------------------------------------------


def test_report_structure_and_flagging(tmp_path):
    cfg = build_env(tmp_path)
    report = run_benchmark(cfg)
    assert set(report.aggregates) == {"baseline", "deo", "avg_only", "rrf_only"}
    assert set(report.per_query["deo"]) == {"ndcg@10", "map@100", "recall@5"}
    # q3 has no relevant docs: present per query, excluded from aggregates
    assert report.metadata["queries_without_relevant"] == ["q3"]
    for system in cfg.systems:
        for metric in cfg.metrics:
            values = report.per_query[system][metric]
            assert set(values) == {"q1", "q2", "q3"}
            assert values["q3"] == 0.0
            expected = (values["q1"] + values["q2"]) / 2.0
            assert abs(report.aggregates[system][metric] - expected) < 1e-12


def test_baseline_matches_direct_search(tmp_path):
    cfg = build_env(tmp_path, systems="baseline")
    report = run_benchmark(cfg)
    index = FlatIndex.build((d, v) for d, v in DOCS.items())
    from deo.metrics import ndcg_at_k, load_qrels
    qrels = load_qrels(tmp_path / "qrels.txt")
    for qid in QUERIES:
        ranking = index.search(QUERY_VECS[qid], k=cfg.search_depth)
        expected = ndcg_at_k(ranking, qrels.get(qid, {}), 10)
        assert report.per_query["baseline"]["ndcg@10"][qid] == expected


def test_fusion_systems_match_manual_composition(tmp_path):
    cfg = build_env(tmp_path, extra_cfg="run_dir = runs\n")
    run_benchmark(cfg)
    index = FlatIndex.build((d, v) for d, v in DOCS.items())
    depth = cfg.search_depth

    avg_lines = (tmp_path / "runs" / "avg_only.run").read_text().splitlines()
    rrf_lines = (tmp_path / "runs" / "rrf_only.run").read_text().splitlines()

    # q1 decomposes into one positive and one negative
    fused = np.mean([QUERY_VECS["q1"], QUERY_VECS["alpha things"], QUERY_VECS["beta things"]],
                    axis=0)
    expected_avg = index.search(fused, k=depth).doc_ids
    got_avg = tuple(l.split()[2] for l in avg_lines if l.startswith("q1 "))
    assert got_avg == expected_avg

    lists = [index.search(QUERY_VECS["alpha things"], k=depth),
             index.search(QUERY_VECS["beta things"], k=depth)]
    expected_rrf = rrf_fuse(lists, k=depth, k_rrf=60.0).doc_ids
    got_rrf = tuple(l.split()[2] for l in rrf_lines if l.startswith("q1 "))
    assert got_rrf == expected_rrf


def test_rrf_only_without_subqueries_ranks_like_baseline(tmp_path):
    # a cached decomposition with nothing to fuse degrades to the plain query
    cfg = build_env(tmp_path, systems="baseline, rrf_only", extra_cfg="run_dir = runs\n")
    rows = [dict(row, positives=[], negatives=[]) if row["query_id"] == "q2" else row
            for row in CACHE_ROWS]
    (tmp_path / "cache.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    report = run_benchmark(cfg)

    def q2_lines(system):
        lines = (tmp_path / "runs" / f"{system}.run").read_text().splitlines()
        return [line.rsplit(" ", 1)[0] for line in lines if line.startswith("q2 ")]

    assert q2_lines("rrf_only") == q2_lines("baseline") != []
    assert (report.per_query["rrf_only"]["ndcg@10"]["q2"]
            == report.per_query["baseline"]["ndcg@10"]["q2"])


def test_deo_improves_negation_query(tmp_path):
    # q1 mixes the wanted topic with an unwanted one; pushing away from the
    # negative sub-query must rank the relevant docs above the mixed ones
    cfg = build_env(tmp_path, systems="baseline, deo")
    report = run_benchmark(cfg)
    assert (report.per_query["deo"]["ndcg@10"]["q1"]
            > report.per_query["baseline"]["ndcg@10"]["q1"])


def test_deo_zero_steps_equals_baseline(tmp_path):
    cfg = build_env(tmp_path, systems="baseline, deo", extra_cfg="steps = 0\n")
    report = run_benchmark(cfg)
    for metric in cfg.metrics:
        assert report.per_query["deo"][metric] == report.per_query["baseline"][metric]


def test_offline_missing_decomposition(tmp_path):
    cfg = build_env(tmp_path)
    trimmed = [r for r in CACHE_ROWS if r["query_id"] != "q2"]
    with open(tmp_path / "cache.jsonl", "w") as fh:
        for row in trimmed:
            fh.write(json.dumps(row) + "\n")
    with pytest.raises(MissingDecompositionError, match="q2"):
        run_benchmark(cfg)


class ScriptedChatClient:
    def __init__(self, model):
        self.model = model
        self.calls = 0

    def complete(self, prompt, system=None):
        self.calls += 1
        return '{"positives": ["alpha things"], "negatives": ["beta things"]}'


@pytest.mark.parametrize("client_model, calls", [("test-model", 0), ("other-model", 3)])
def test_online_run_without_model_matches_client_model(tmp_path, client_model, calls):
    # the cache holds test-model entries; online, only the client's model hits
    cfg = replace(build_env(tmp_path), model="", offline=False)
    chat = ScriptedChatClient(client_model)
    run_benchmark(cfg, chat_client=chat)
    assert chat.calls == calls


def test_rank_rejects_an_unknown_system_before_any_request():
    embed, chat = CountingEmbedClient(), ScriptedChatClient("test-model")
    pipeline = QueryPipeline(chat_client=chat, embed_client=embed)
    rankings = pipeline.rank(FlatIndex.build(DOCS.items()), ["deo", "bm25"],
                             [("q1", "alpha")], 1, OptimizationConfig())
    with pytest.raises(ConfigError, match="unknown system 'bm25'"):
        next(rankings)
    assert (embed.calls, chat.calls) == (0, 0)


def test_offline_missing_subquery_embedding(tmp_path):
    cfg = build_env(tmp_path)
    qstore = EmbeddingStore(dim=4, model="test-enc")
    for key, vec in QUERY_VECS.items():
        if key != "beta things":
            qstore.add(key, vec)
    qstore.save_jsonl(tmp_path / "queries.emb.jsonl")
    with pytest.raises(MissingEmbeddingError, match="beta things"):
        run_benchmark(cfg)


FLAWS = ("ok", "zero", "zero_subquery", "nan", "no_decomposition", "no_embedding", "wrong_dim")
# q1's and q2's flaws. A wrong-dimension vector comes from an endpoint, so it
# cannot be paired with an embedding that no endpoint provides.
FLAW_PAIRS = [(a, b) for a in FLAWS for b in FLAWS
              if a != b and {a, b} != {"no_embedding", "wrong_dim"}]


def seen_error(system, flaw):
    """The error a query with this flaw raises when `system` ranks it, or
    None when the system never reads what is wrong with it."""
    if flaw == "zero":  # only a searched or normalized own vector is divided by its norm
        return ZeroVectorError if system in ("baseline", "deo") else None
    if flaw == "zero_subquery":  # deo normalizes its inputs, rrf_only searches it
        return ZeroVectorError if system in ("deo", "rrf_only") else None
    if flaw == "no_decomposition":
        return None if system == "baseline" else MissingDecompositionError
    return {"ok": None, "nan": ValueError, "no_embedding": MissingEmbeddingError,
            "wrong_dim": DimensionMismatchError}[flaw]


class FiveDimEmbedClient:
    """An endpoint whose vectors are longer than the query store's."""

    def embed(self, texts):
        return [np.full(5, 0.5) for _ in texts]


def flawed_env(case, flaws, systems):
    """build_env where q1 and q2 have `flaws`. A zero_subquery query gets one
    more negative, "<query id> ghost", whose stored vector is zero."""
    flaw_of = dict(zip(("q1", "q2"), flaws))
    cfg = replace(build_env(case, systems=systems), offline="wrong_dim" not in flaws)
    qstore = EmbeddingStore(dim=4, model="test-enc")
    for key, vec in QUERY_VECS.items():
        flaw = flaw_of.get(key, "ok")
        if flaw not in ("no_embedding", "wrong_dim"):
            qstore.add(key, {"zero": np.zeros(4), "nan": np.full(4, np.nan)}.get(flaw, vec))
    rows = []
    for row in CACHE_ROWS:
        flaw = flaw_of.get(row["query_id"])
        if flaw == "zero_subquery":
            ghost = f"{row['query_id']} ghost"
            row = dict(row, negatives=[*row["negatives"], ghost])
            qstore.add(ghost, np.zeros(4))
        if flaw != "no_decomposition":
            rows.append(row)
    qstore.save_jsonl(case / "queries.emb.jsonl")
    (case / "cache.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    return cfg


@pytest.mark.parametrize("system", ["baseline", "deo", "avg_only", "rrf_only"])
def test_first_bad_query_raises_first(tmp_path, monkeypatch, system):
    # q1 and q2 each have one flaw (or none); the first query whose flaw the
    # system reads raises its error, naming the query (and a zero sub-query
    # by its text), in one block or one block per query
    for flaws in FLAW_PAIRS:
        case = tmp_path / "-".join(flaws)
        case.mkdir()
        cfg = flawed_env(case, flaws, system)
        errors = [(qid, flaw, seen_error(system, flaw)) for qid, flaw in zip(("q1", "q2"), flaws)
                  if seen_error(system, flaw)]
        for block in (64, 1):
            monkeypatch.setattr("deo.index.SEARCH_BLOCK", block)
            if not errors:
                run_benchmark(cfg, embed_client=FiveDimEmbedClient())
                continue
            with pytest.raises(Exception) as info:
                run_benchmark(cfg, embed_client=FiveDimEmbedClient())
            query_id, flaw, error = errors[0]
            assert type(info.value) is error, (flaws, block, info.value)
            if error is not DimensionMismatchError:
                assert f"'{query_id}'" in str(info.value), (flaws, block, info.value)
            if flaw == "zero_subquery":
                assert f"sub-query '{query_id} ghost'" in str(info.value), (flaws, block)


@pytest.mark.parametrize("block", [1, 64])
def test_all_systems_raise_what_ranking_them_in_turn_raises(tmp_path, monkeypatch, block):
    # one eval ranks the four systems together, block by block, yet raises
    # what running them one after another raises: the first bad query of
    # the first system that has one. So with q1 lacking its decomposition
    # and q2's vector zero, baseline's q2 wins over deo's q1.
    monkeypatch.setattr("deo.index.SEARCH_BLOCK", block)
    for flaws in FLAW_PAIRS:
        case = tmp_path / "-".join(flaws)
        case.mkdir()
        cfg = flawed_env(case, flaws, "baseline, deo, avg_only, rrf_only")
        expected = None
        for system in cfg.systems:
            try:
                run_benchmark(replace(cfg, systems=(system,)), embed_client=FiveDimEmbedClient())
            except Exception as exc:  # noqa: BLE001 - any error is compared below
                expected = exc
                break
        if expected is None:
            run_benchmark(cfg, embed_client=FiveDimEmbedClient())
            continue
        with pytest.raises(Exception) as info:
            run_benchmark(cfg, embed_client=FiveDimEmbedClient())
        assert (type(info.value), str(info.value)) == (type(expected), str(expected)), flaws


@pytest.mark.parametrize("system", ["deo", "rrf_only"])
def test_an_empty_sub_query_text_is_named(tmp_path, system):
    # a row is named by its sub-query text even when that text is ""
    cfg = build_env(tmp_path, systems=system)
    qstore = EmbeddingStore(dim=4, model="test-enc")
    for key, vec in QUERY_VECS.items():
        qstore.add(key, vec)
    qstore.add("", np.zeros(4))
    rows = [dict(row, negatives=[*row["negatives"], ""]) if row["query_id"] == "q1" else row
            for row in CACHE_ROWS]
    qstore.save_jsonl(tmp_path / "queries.emb.jsonl")
    (tmp_path / "cache.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ZeroVectorError, match="^query 'q1' sub-query '' has norm"):
        run_benchmark(cfg)


@st.composite
def ranking_cases(draw):
    """Queries with ragged K and M in 0..3 (K = M = 0 included), vectors that
    share an all -0.0 column or not, settings that reach zero steps and
    unnormalized inputs, and a search block small enough to split them."""
    n_queries = draw(st.integers(1, 7))
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=n_queries, max_size=n_queries))
    cfg = OptimizationConfig(steps=draw(st.sampled_from([20, 0, 3])),
                             lambda_n=draw(st.sampled_from([1.0, 3.0])),
                             normalize_inputs=draw(st.booleans()))
    return (shapes, cfg, draw(st.sampled_from([4, 8])), draw(st.booleans()),
            draw(st.sampled_from([1, 2, 3, 64])), draw(st.sampled_from([1, 5, 40])),
            draw(st.integers(0, 2**32 - 1)))


def reference_ranking(index, system, own, positives, negatives, k, cfg):
    """One query ranked on its own, the way each system is defined."""
    inputs = DecompositionEmbeddings.from_vectors(own, positives, negatives)
    if system == "deo":
        return index.search(optimize_query_embedding(inputs, cfg)[0], k)
    if system == "avg_only":
        return index.search(inputs.rows.mean(axis=0), k)
    if system == "rrf_only" and len(inputs.rows) > 1:
        return rrf_fuse([index.search(v, k) for v in inputs.rows[1:]], k=k, k_rrf=60.0)
    return index.search(own, k)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(ranking_cases())
def test_rank_equals_per_query_reference(case):
    shapes, cfg, d, negative_zero, block, k, seed = case
    rng = np.random.default_rng(seed)

    def vector():
        # float32 values, so the store gives back exactly these bits
        v = rng.normal(size=d).astype(np.float32).astype(np.float64)
        if negative_zero:
            v[0] = -0.0
        return v

    index = FlatIndex.build((f"d{i:02d}", vector()) for i in range(30))
    queries = [(f"q{i}", f"query {i}") for i in range(len(shapes))]
    store = EmbeddingStore(dim=d)
    vectors, rows = {}, []
    for (query_id, text), (n_pos, n_neg) in zip(queries, shapes):
        positives = [f"{text} +{j}" for j in range(n_pos)]
        negatives = [f"{text} -{j}" for j in range(n_neg)]
        for key in (query_id, *positives, *negatives):
            vectors[key] = vector()
            store.add(key, vectors[key])
        rows.append({"query_id": query_id, "query": text, "positives": positives,
                     "negatives": negatives, "model": "m"})
    with tempfile.TemporaryDirectory() as tmp:
        store.save_jsonl(Path(tmp) / "q.emb.jsonl")
        (Path(tmp) / "cache.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        pipeline = QueryPipeline(str(Path(tmp) / "q.emb.jsonl"), str(Path(tmp) / "cache.jsonl"),
                                 model="m")
    for system in ("baseline", "deo", "avg_only", "rrf_only"):
        with mock.patch("deo.index.SEARCH_BLOCK", block):
            ranked = [(query_id, ranking) for _, query_id, ranking
                      in pipeline.rank(index, [system], queries, k, cfg)]
        expected = [(query_id, reference_ranking(
            index, system, vectors[query_id], [vectors[t] for t in row["positives"]],
            [vectors[t] for t in row["negatives"]], k, cfg)) for (query_id, _), row in zip(queries, rows)]
        # float.hex tells -0.0 from 0.0
        assert [(q, r.doc_ids, [s.hex() for s in r.scores]) for q, r in ranked] == \
            [(q, r.doc_ids, [s.hex() for s in r.scores]) for q, r in expected], system


def test_rrf_only_fuses_each_querys_own_lists(tmp_path):
    # one search_many call carries every sub-query of every query; each
    # query must fuse exactly its own sub-query rankings
    cfg = build_env(tmp_path, systems="rrf_only", extra_cfg="run_dir = runs\n")
    run_benchmark(cfg)
    index = FlatIndex.build(DOCS.items())
    depth = cfg.search_depth
    lines = (tmp_path / "runs" / "rrf_only.run").read_text().splitlines()
    for row in CACHE_ROWS:
        lists = [index.search(QUERY_VECS[t], k=depth)
                 for t in [*row["positives"], *row["negatives"]]]
        expected = rrf_fuse(lists, k=depth, k_rrf=60.0)
        got = [l.split() for l in lines if l.startswith(row["query_id"] + " ")]
        assert [g[2] for g in got] == list(expected.doc_ids)
        assert [g[4] for g in got] == [f"{score:.6f}" for score in expected.scores]


def test_qrels_unknown_doc_rejected(tmp_path):
    cfg = build_env(tmp_path)
    (tmp_path / "qrels.txt").write_text(QRELS_TEXT + "q1 0 d_missing 1\n")
    with pytest.raises(FormatError, match="d_missing"):
        run_benchmark(cfg)


def test_qrels_unknown_doc_with_zero_rel_allowed(tmp_path):
    cfg = build_env(tmp_path)
    (tmp_path / "qrels.txt").write_text(QRELS_TEXT + "q1 0 d_gone 0\n")
    run_benchmark(cfg)  # judged-irrelevant strays are tolerated


def test_run_files_one_per_system(tmp_path):
    cfg = build_env(tmp_path, extra_cfg="run_dir = runs\n")
    run_benchmark(cfg)
    names = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert names == ["avg_only.run", "baseline.run", "deo.run", "rrf_only.run"]
    first = (tmp_path / "runs" / "baseline.run").read_text().splitlines()[0]
    fields = first.split()
    assert len(fields) == 6
    assert fields[1] == "Q0"
    assert fields[3] == "1"
    assert fields[5] == "baseline"


def test_report_deterministic_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg = build_env(tmp_path)
    a = run_benchmark(cfg).to_json()
    b = run_benchmark(cfg).to_json()
    assert a == b
    obj = json.loads(a)
    assert obj["metadata"]["timestamp"] == "1970-01-01T00:00:00Z"
    assert obj["metadata"]["config_hash"] == cfg.config_hash


def test_csv_shape_and_values(tmp_path):
    cfg = build_env(tmp_path)
    report = run_benchmark(cfg)
    lines = report.to_csv().splitlines()
    assert lines[0] == "system,query_id,metric,value"
    n_sys, n_q, n_m = len(cfg.systems), len(QUERIES), len(cfg.metrics)
    assert len(lines) == 1 + n_sys * (n_q * n_m + n_m)
    all_rows = [l for l in lines if ",ALL," in l]
    assert len(all_rows) == n_sys * n_m
    sys_name, _, metric, value = all_rows[0].split(",")
    assert float(value) == report.aggregates[sys_name][metric]


# -- sweep ----------------------------------------------------------------


def write_sweep_cfg(tmp_path, body):
    path = tmp_path / "sweep.cfg"
    path.write_text(body)
    return path


def test_sweep_singleton_matches_run_benchmark(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    bench = build_env(tmp_path, systems="baseline, deo")
    sweep_path = write_sweep_cfg(
        tmp_path,
        (tmp_path / "bench.cfg").read_text(),
    )
    sweep_cfg = SweepConfig.from_file(sweep_path)
    assert sweep_cfg.lambdas == ((0.2, 1.0, 1.0),)
    assert sweep_cfg.steps_list == (20,)
    reports, csv_text = sweep(sweep_cfg)
    assert len(reports) == 1
    direct = run_benchmark(bench)
    assert reports[0].aggregates == direct.aggregates
    assert reports[0].per_query == direct.per_query
    lines = csv_text.splitlines()
    assert lines[0] == "lambda_o,lambda_p,lambda_n,steps,ndcg@10,map@100,recall@5"
    assert len(lines) == 2


def test_sweep_grid_order_and_csv(tmp_path):
    build_env(tmp_path, systems="baseline, deo")
    body = (tmp_path / "bench.cfg").read_text() + (
        "lambdas = 0.2:1:1; 1:1:0.5\n"
        "steps_list = 0, 20\n"
        "sweep_csv = out/sweep.csv\n"
    )
    sweep_cfg = SweepConfig.from_file(write_sweep_cfg(tmp_path, body))
    assert sweep_cfg.lambdas == ((0.2, 1.0, 1.0), (1.0, 1.0, 0.5))
    assert sweep_cfg.steps_list == (0, 20)
    assert sweep_cfg.sweep_csv == str(tmp_path / "out" / "sweep.csv")

    reports, csv_text = sweep(sweep_cfg)
    assert len(reports) == 4
    lines = csv_text.splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("0.2,1.0,1.0,0,")
    assert lines[2].startswith("0.2,1.0,1.0,20,")
    assert lines[3].startswith("1.0,1.0,0.5,0,")
    assert (tmp_path / "out" / "sweep.csv").read_text() == csv_text

    # steps=0 grid points reduce to the unoptimized query exactly
    for i in (0, 2):
        assert (reports[i].per_query["deo"]["ndcg@10"]
                == reports[i].per_query["baseline"]["ndcg@10"])

    # csv deo aggregates match the corresponding reports
    for i, line in enumerate(lines[1:]):
        got = float(line.split(",")[4])
        assert got == reports[i].aggregates["deo"]["ndcg@10"]


def test_sweep_requires_deo_system(tmp_path):
    build_env(tmp_path, systems="baseline")
    sweep_cfg = SweepConfig.from_file(write_sweep_cfg(tmp_path, (tmp_path / "bench.cfg").read_text()))
    with pytest.raises(ConfigError, match="deo"):
        sweep(sweep_cfg)


def test_sweep_bad_lambda_shapes(tmp_path):
    build_env(tmp_path, systems="baseline, deo")
    base = (tmp_path / "bench.cfg").read_text()
    with pytest.raises(ConfigError, match="lambda"):
        SweepConfig.from_file(write_sweep_cfg(tmp_path, base + "lambdas = 1:2\n"))
    with pytest.raises(ConfigError, match="lambdas"):
        SweepConfig.from_file(write_sweep_cfg(tmp_path, base + "lambdas = a:b:c\n"))
    with pytest.raises(ConfigError, match="steps_list"):
        SweepConfig.from_file(write_sweep_cfg(tmp_path, base + "steps_list = 1.5\n"))
