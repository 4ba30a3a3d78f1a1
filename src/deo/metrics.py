"""Ranking-quality metrics: nDCG, MAP and recall.

Relevance is binary throughout: a judgment > 0 counts as relevant and
contributes gain 1. Queries with no relevant documents score 0 rather than
raising; callers decide whether to exclude them from aggregates.
"""

from __future__ import annotations

import math

from .errors import FormatError
from .index import RankedList

Qrels = dict[str, dict[str, int]]


def load_qrels(path) -> Qrels:
    """Parse TREC qrels lines: query_id 0 doc_id relevance."""
    qrels: Qrels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            query_id, _, doc_id, rel = parts
            try:
                relevance = int(rel)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: relevance {rel!r} is not an integer")
            qrels.setdefault(query_id, {})[doc_id] = relevance
    return qrels


def _relevant_ids(judgments: dict[str, int]) -> set[str]:
    return {doc_id for doc_id, rel in judgments.items() if rel > 0}


def ndcg_at_k(ranking: RankedList, judgments: dict[str, int], k: int = 10) -> float:
    """Normalized discounted cumulative gain at cutoff k, binary gain.

    DCG = sum over retrieved relevant docs of 1 / log2(rank + 1); the ideal
    places min(|relevant|, k) relevant docs at the top. A single relevant doc
    at rank r gives log2(2) / log2(r + 1). Returns 0.0 when nothing is
    relevant.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    relevant = _relevant_ids(judgments)
    if not relevant:
        return 0.0
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, doc_id in enumerate(ranking.doc_ids[:k], start=1)
        if doc_id in relevant
    )
    idcg = sum(1.0 / math.log2(rank + 1) for rank in range(1, min(len(relevant), k) + 1))
    return dcg / idcg


def average_precision_at_k(
    ranking: RankedList, judgments: dict[str, int], k: int = 100
) -> float:
    """AP@k normalized by min(|relevant|, k)."""
    if k <= 0:
        raise ValueError("k must be positive")
    relevant = _relevant_ids(judgments)
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, doc_id in enumerate(ranking.doc_ids[:k], start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / min(len(relevant), k)


def recall_at_k(ranking: RankedList, judgments: dict[str, int], k: int = 5) -> float:
    """Fraction of relevant documents retrieved in the top k."""
    if k <= 0:
        raise ValueError("k must be positive")
    relevant = _relevant_ids(judgments)
    if not relevant:
        return 0.0
    retrieved = set(ranking.doc_ids[:k])
    return len(relevant & retrieved) / len(relevant)


def mean_over_queries(per_query: dict[str, float]) -> float:
    """Unweighted mean; empty input returns 0.0."""
    if not per_query:
        return 0.0
    return sum(per_query.values()) / len(per_query)

