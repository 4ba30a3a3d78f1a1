import itertools
import math

import pytest

from deo.errors import FormatError
from deo.index import RankedList
from deo.metrics import (
    average_precision_at_k,
    load_qrels,
    mean_over_queries,
    ndcg_at_k,
    recall_at_k,
)


def ranking_of(*doc_ids):
    n = len(doc_ids)
    return RankedList(doc_ids=tuple(doc_ids), scores=tuple(float(n - i) for i in range(n)))


# -- qrels parsing -------------------------------------------------------


def test_load_qrels(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\nq1 0 d2 0\n\nq2 0 d1 2\n")
    qrels = load_qrels(path)
    assert qrels == {"q1": {"d1": 1, "d2": 0}, "q2": {"d1": 2}}


def test_load_qrels_rejects_bad_lines(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("q1 0 d1\n")
    with pytest.raises(FormatError, match="short.txt:1"):
        load_qrels(short)
    non_int = tmp_path / "nonint.txt"
    non_int.write_text("q1 0 d1 high\n")
    with pytest.raises(FormatError, match="nonint.txt:1"):
        load_qrels(non_int)


# -- nDCG ---------------------------------------------------------------


def test_ndcg_single_relevant_positions():
    judgments = {"gold": 1}
    # rank 1 is exact; rank 6 is the 1/log2(7) landmark
    assert ndcg_at_k(ranking_of("gold", "x1", "x2"), judgments, 10) == 1.0
    ranking = ranking_of("x1", "x2", "x3", "x4", "x5", "gold")
    assert math.isclose(ndcg_at_k(ranking, judgments, 10), 1.0 / math.log2(7.0), rel_tol=1e-12)


def test_ndcg_miss_and_no_relevant():
    assert ndcg_at_k(ranking_of("a", "b"), {"gold": 1}, 10) == 0.0
    assert ndcg_at_k(ranking_of("a", "b"), {}, 10) == 0.0
    assert ndcg_at_k(ranking_of("a", "b"), {"a": 0}, 10) == 0.0


def test_ndcg_gain_is_binary():
    # relevance 3 scores the same as relevance 1
    ranking = ranking_of("a", "b")
    assert ndcg_at_k(ranking, {"b": 3}, 10) == ndcg_at_k(ranking, {"b": 1}, 10)


def test_ndcg_perfect_prefix_is_one():
    judgments = {"a": 1, "b": 2, "c": 1}
    assert math.isclose(
        ndcg_at_k(ranking_of("c", "a", "b", "x"), judgments, 10), 1.0, rel_tol=1e-12
    )


def test_ndcg_ideal_truncates_at_k():
    judgments = {f"d{i}": 1 for i in range(5)}
    ranking = ranking_of("d0", "d1", "x")
    # k=2: DCG = IDCG over min(5, 2) relevant slots
    assert math.isclose(ndcg_at_k(ranking, judgments, 2), 1.0, rel_tol=1e-12)


def test_ndcg_validates_k():
    with pytest.raises(ValueError):
        ndcg_at_k(ranking_of("a"), {"a": 1}, 0)


# -- MAP ------------------------------------------------------------------


def test_map_hand_values():
    assert average_precision_at_k(ranking_of("gold", "x"), {"gold": 1}, 100) == 1.0
    assert average_precision_at_k(ranking_of("x", "gold"), {"gold": 1}, 100) == 0.5
    assert average_precision_at_k(ranking_of("x", "y"), {}, 100) == 0.0


def test_map_exhaustive_small_instances():
    """Brute-force check on every permutation / relevance pattern of 4 docs."""
    docs = ["a", "b", "c", "d"]
    for perm in itertools.permutations(docs):
        for bits in itertools.product([0, 1], repeat=4):
            judgments = {doc: rel for doc, rel in zip(docs, bits)}
            relevant = {doc for doc, rel in judgments.items() if rel}
            k = 3
            # independent reference from the definition
            hits = 0
            total = 0.0
            for rank, doc in enumerate(perm[:k], start=1):
                if doc in relevant:
                    hits += 1
                    total += hits / rank
            expected = total / min(len(relevant), k) if relevant else 0.0
            got = average_precision_at_k(ranking_of(*perm), judgments, k)
            assert math.isclose(got, expected, abs_tol=1e-15)


# -- recall ---------------------------------------------------------------


def test_recall_values():
    judgments = {"gold": 1}
    assert recall_at_k(ranking_of("x", "y", "gold", "z"), judgments, 5) == 1.0
    assert recall_at_k(ranking_of("a", "b", "c", "d", "e", "gold"), judgments, 5) == 0.0
    two = {"g1": 1, "g2": 1}
    assert recall_at_k(ranking_of("g1", "x", "y", "z", "w"), two, 5) == 0.5
    assert recall_at_k(ranking_of("a"), {}, 5) == 0.0


def test_mean_over_queries():
    assert mean_over_queries({}) == 0.0
    assert mean_over_queries({"a": 1.0, "b": 0.0}) == 0.5

