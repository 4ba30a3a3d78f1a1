"""Output checks: a brute-force ranking oracle and run-file parsing.

The oracle is independent of the library: float64 cosine over the raw
stored float32 vectors, ties broken by ascending doc id.
"""

from __future__ import annotations

import numpy as np

TIE_EPS = 1e-9
SCORE_EPS = 1e-6  # run files print scores with six decimals
ORACLE_CHUNK = 16384


def parse_trec(lines) -> dict[str, list[tuple[str, float]]]:
    """TREC run lines -> query id -> [(doc id, score)] in rank order.

    Raises ValueError on a malformed line or a rank out of sequence.
    """
    rankings: dict[str, list[tuple[str, float]]] = {}
    for line in lines:
        if not line.strip():
            continue
        qid, q0, doc_id, rank, score, _tag = line.split()
        ranking = rankings.setdefault(qid, [])
        if q0 != "Q0" or int(rank) != len(ranking) + 1:
            raise ValueError(f"malformed run line {line!r}")
        ranking.append((doc_id, float(score)))
    return rankings


def read_trec(path: str) -> dict[str, list[tuple[str, float]]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trec(fh)


class Oracle:
    """Exact cosine scores of query vectors against the corpus."""

    def __init__(self, ids: list[str], matrix: np.ndarray):
        self.ids = ids
        self.position = {doc_id: i for i, doc_id in enumerate(ids)}
        self._matrix = matrix  # float32 rows as stored
        self._norms = np.linalg.norm(matrix.astype(np.float64), axis=1)

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """(q, d) query vectors -> (q, n) float64 cosine scores."""
        q = np.asarray(queries, dtype=np.float64)
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        out = np.empty((q.shape[0], len(self.ids)))
        for start in range(0, len(self.ids), ORACLE_CHUNK):
            block = self._matrix[start:start + ORACLE_CHUNK].astype(np.float64)
            out[:, start:start + ORACLE_CHUNK] = (block @ q.T).T
        return out / self._norms

    def top_k(self, scores: np.ndarray, k: int) -> list[str]:
        """Ids of the k best docs for one score row, ties by ascending id."""
        k = min(k, len(self.ids))
        kth = scores[np.argpartition(-scores, k - 1)[:k]].min()
        # every doc tied with the k-th best is a candidate for the last places
        candidates = np.nonzero(scores >= kth)[0]
        order = sorted(candidates, key=lambda i: (-scores[i], self.ids[i]))
        return [self.ids[i] for i in order[:k]]


def ranking_errors(ranking: list[tuple[str, float]], scores: np.ndarray,
                   oracle: Oracle, k: int) -> list[str]:
    """Ways in which a returned top-k deviates from the oracle.

    Docs whose oracle scores differ by at most TIE_EPS count as tied when
    their order differs from the oracle's, so float rounding alone cannot
    fail a ranking; exact ties must still come in ascending id order.
    """
    want = oracle.top_k(scores, k)
    got = [doc_id for doc_id, _ in ranking]
    if len(got) != len(want):
        return [f"returned {len(got)} docs, expected {len(want)}"]
    errors = []
    if len(set(got)) != len(got):
        errors.append("duplicate doc ids")
    for rank, (doc_id, printed) in enumerate(ranking, start=1):
        pos = oracle.position.get(doc_id)
        if pos is None:
            errors.append(f"rank {rank}: unknown doc {doc_id}")
            continue
        exact = scores[pos]
        if abs(exact - scores[oracle.position[want[rank - 1]]]) > TIE_EPS:
            errors.append(f"rank {rank}: {doc_id} scores {exact:.9f}, oracle has "
                          f"{want[rank - 1]} there")
        elif abs(printed - exact) > SCORE_EPS:
            errors.append(f"rank {rank}: printed score {printed} but cosine is {exact:.9f}")
    for (a, _), (b, _) in zip(ranking, ranking[1:]):
        pa, pb = oracle.position.get(a), oracle.position.get(b)
        if pa is not None and pb is not None and scores[pa] == scores[pb] and a > b:
            errors.append(f"tie between {a} and {b} not in ascending id order")
    return errors
