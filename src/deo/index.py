"""Exact cosine retrieval over an in-memory corpus, plus rank fusion.

Document vectors are unit-normalized once at build time. Queries are scored
in blocks of SEARCH_BLOCK rows, one matrix product per block against the
whole corpus; that product only picks candidates, whose final scores are
recomputed one query at a time, so a query ranks the same alone or in any
batch. Ties are broken by ascending doc id to keep every ranking
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DuplicateIdError, EmptyInputError, ZeroVectorError
from .vecmath import ZERO_NORM_EPS, as_vector, l2_normalize

# Queries scored per matrix product in FlatIndex.search_many.
SEARCH_BLOCK = 64


@dataclass(frozen=True)
class RankedList:
    """Scored documents in rank order (best first). Ranks are 1-based."""

    doc_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.doc_ids) != len(self.scores):
            raise ValueError("doc_ids and scores must have equal length")

    def __len__(self) -> int:
        return len(self.doc_ids)

    def rank_of(self, doc_id: str) -> int | None:
        """1-based rank of doc_id, or None if absent."""
        try:
            return self.doc_ids.index(doc_id) + 1
        except ValueError:
            return None

    def items(self):
        return zip(self.doc_ids, self.scores)


class FlatIndex:
    """Brute-force cosine index. Exact by construction, no ANN structures."""

    def __init__(self, doc_ids: list[str], matrix: np.ndarray):
        self._doc_ids = list(doc_ids)
        self._matrix = matrix
        self._positions: dict[str, int] = {}
        for i, doc_id in enumerate(self._doc_ids):
            if self._positions.setdefault(doc_id, i) != i:
                raise DuplicateIdError(f"duplicate doc id {doc_id!r}")
        # integer tie-break key: each row's place in ascending doc id order
        n = len(self._doc_ids)
        self._id_rank = np.empty(n, dtype=np.int64)
        self._id_rank[sorted(range(n), key=self._doc_ids.__getitem__)] = np.arange(n)

    @classmethod
    def build(cls, records) -> "FlatIndex":
        """Build from an iterable of (doc_id, vector) pairs.

        Same checks and vectors as from_matrix, plus DimensionMismatchError
        for a record whose dimension differs from the first one's.
        """
        doc_ids: list[str] = []
        rows: list[np.ndarray] = []
        for doc_id, vec in records:
            row = np.asarray(vec, dtype=np.float64)
            if row.ndim != 1:
                raise DimensionMismatchError(f"doc {doc_id!r} is not a 1-D vector")
            if rows and row.shape[0] != rows[0].shape[0]:
                raise DimensionMismatchError(
                    f"doc {doc_id!r} has dimension {row.shape[0]}, expected {rows[0].shape[0]}"
                )
            doc_ids.append(doc_id)
            rows.append(row)
        return cls.from_matrix(doc_ids, rows)

    @classmethod
    def from_matrix(cls, doc_ids, vectors) -> "FlatIndex":
        """Build from ids and an (n, d) matrix whose rows are their vectors.

        Rows are unit-normalized with the same arithmetic as l2_normalize.
        Duplicate ids raise DuplicateIdError, a NaN or Inf component
        ValueError and a zero row ZeroVectorError, each naming the doc.
        """
        doc_ids = list(doc_ids)
        if not doc_ids:
            raise EmptyInputError("cannot build an index from zero documents")
        unit = np.array(vectors, dtype=np.float64)
        if unit.ndim != 2 or unit.shape[0] != len(doc_ids):
            raise DimensionMismatchError(
                f"expected an ({len(doc_ids)}, d) matrix, got shape {unit.shape}"
            )
        finite = np.isfinite(unit).all(axis=1)
        if not finite.all():
            doc_id = doc_ids[int(np.argmin(finite))]
            raise ValueError(f"doc {doc_id!r} has NaN or Inf components")
        # row @ row is the dot product np.linalg.norm takes for one vector, so
        # each row gets the bits l2_normalize would give it
        norms = np.sqrt(np.fromiter((row @ row for row in unit), np.float64, len(doc_ids)))
        zero = norms <= ZERO_NORM_EPS
        if zero.any():
            pos = int(np.argmax(zero))
            raise ZeroVectorError(
                f"doc {doc_ids[pos]!r} has norm {norms[pos]:g} and cannot be normalized"
            )
        unit /= norms[:, None]
        return cls(doc_ids, unit)

    def __len__(self) -> int:
        return len(self._doc_ids)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def doc_ids(self) -> list[str]:
        return list(self._doc_ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._positions

    def vector(self, doc_id: str) -> np.ndarray:
        """Stored unit vector for doc_id."""
        try:
            pos = self._positions[doc_id]
        except KeyError:
            raise KeyError(f"doc id {doc_id!r} not in index") from None
        return self._matrix[pos].copy()

    def unit_vectors(self) -> np.ndarray:
        """Copy of the full (n, d) unit-vector matrix, row order = doc_ids."""
        return self._matrix.copy()

    def search(self, query, k: int = 10) -> RankedList:
        """Top-k by cosine similarity; ties broken by ascending doc id."""
        return self.search_many([query], k)[0]

    def search_many(self, queries, k: int = 10) -> list[RankedList]:
        """search() for each query of an iterable, in order.

        Each query is normalized as it is taken from the iterable, so a bad
        query raises before later ones are produced.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        units = [self._unit_query(q) for q in queries]
        results: list[RankedList] = []
        for start in range(0, len(units), SEARCH_BLOCK):
            block = np.stack(units[start : start + SEARCH_BLOCK])
            for q, scores in zip(block, block @ self._matrix.T):
                results.append(self._top_k(q, scores, k))
        return results

    def _unit_query(self, query) -> np.ndarray:
        q = l2_normalize(query)
        if q.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"query has dimension {q.shape[0]}, index has {self.dim}"
            )
        return q

    def _top_k(self, q: np.ndarray, approx: np.ndarray, k: int) -> RankedList:
        # The block product's last bits depend on the block's shape and on
        # the row's place in it (BLAS kernels differ at tile edges), so it
        # only picks candidates: every doc within rounding error of the k-th
        # best, which takes in all docs tied with it. Their scores are then
        # recomputed from q alone, one fixed-order sum per doc, and sorted by
        # (-score, id rank).
        n = len(self._doc_ids)
        if k < n:
            kth = np.partition(approx, n - k)[n - k]
            # Any two summation orders of d products of unit vectors differ
            # by at most d * eps, so a true top-k doc lies at most 2 * d * eps
            # below kth; the slack doubles that.
            slack = 4 * self.dim * np.finfo(np.float64).eps
            candidates = np.flatnonzero(approx >= kth - slack)
            rows = self._matrix[candidates]
        else:
            candidates, rows = np.arange(n), self._matrix
        scores = np.add.reduce(rows * q, axis=1)
        order = np.lexsort((self._id_rank[candidates], -scores))[:k]
        return RankedList(
            doc_ids=tuple(self._doc_ids[i] for i in candidates[order]),
            scores=tuple(scores[order].tolist()),
        )


def fuse_mean(vectors) -> np.ndarray:
    """Element-wise mean of the given vectors (simple embedding fusion)."""
    rows = [as_vector(v) for v in vectors]
    if not rows:
        raise EmptyInputError("fuse_mean requires at least one vector")
    dim = rows[0].shape[0]
    for r in rows[1:]:
        if r.shape[0] != dim:
            raise DimensionMismatchError("fuse_mean inputs must share one dimension")
    return np.stack(rows).mean(axis=0)


def rrf_fuse(ranked_lists, k: int = 10, k_rrf: float = 60.0) -> RankedList:
    """Reciprocal-rank fusion of several ranked lists.

    Each document scores sum(1 / (k_rrf + rank)) over the lists it appears
    in, with 1-based ranks. Ties break by ascending doc id.
    """
    lists = list(ranked_lists)
    if not lists:
        raise EmptyInputError("rrf_fuse requires at least one ranked list")
    if k <= 0:
        raise ValueError("k must be positive")
    scores: dict[str, float] = {}
    for rl in lists:
        for rank, doc_id in enumerate(rl.doc_ids, start=1):
            scores[doc_id] = scores.get(doc_id, 0.0) + 1.0 / (k_rrf + rank)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return RankedList(
        doc_ids=tuple(doc_id for doc_id, _ in ordered),
        scores=tuple(score for _, score in ordered),
    )


def write_trec_run(path, results: dict[str, RankedList], run_tag: str) -> None:
    """Write rankings in six-column TREC run format, scores with 6 decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        for query_id in sorted(results):
            for rank, (doc_id, score) in enumerate(results[query_id].items(), start=1):
                fh.write(f"{query_id} Q0 {doc_id} {rank} {score:.6f} {run_tag}\n")
