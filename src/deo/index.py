"""Exact cosine retrieval over an in-memory corpus, plus rank fusion.

Document vectors are unit-normalized once at build time, so scoring a query
is a single matrix-vector product. Ties are broken by ascending doc id to
keep every ranking deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DuplicateIdError, EmptyInputError
from .vecmath import as_vector, l2_normalize


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
        # lexsort key; object dtype keeps arbitrary-length ids comparable
        self._id_array = np.array(self._doc_ids, dtype=object)
        self._positions = {doc_id: i for i, doc_id in enumerate(self._doc_ids)}

    @classmethod
    def build(cls, records) -> "FlatIndex":
        """Build from an iterable of (doc_id, vector) pairs.

        Vectors are unit-normalized here; zero vectors raise ZeroVectorError
        and duplicate ids raise DuplicateIdError.
        """
        doc_ids: list[str] = []
        rows: list[np.ndarray] = []
        seen: set[str] = set()
        dim: int | None = None
        for doc_id, vec in records:
            if doc_id in seen:
                raise DuplicateIdError(f"duplicate doc id {doc_id!r}")
            seen.add(doc_id)
            unit = l2_normalize(as_vector(vec))
            if dim is None:
                dim = unit.shape[0]
            elif unit.shape[0] != dim:
                raise DimensionMismatchError(
                    f"doc {doc_id!r} has dimension {unit.shape[0]}, expected {dim}"
                )
            doc_ids.append(doc_id)
            rows.append(unit)
        if not doc_ids:
            raise EmptyInputError("cannot build an index from zero documents")
        return cls(doc_ids, np.stack(rows))

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
        if k <= 0:
            raise ValueError("k must be positive")
        q = l2_normalize(as_vector(query))
        if q.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"query has dimension {q.shape[0]}, index has {self.dim}"
            )
        scores = self._matrix @ q
        order = np.lexsort((self._id_array, -scores))[: min(k, len(self._doc_ids))]
        return RankedList(
            doc_ids=tuple(self._doc_ids[i] for i in order),
            scores=tuple(float(scores[i]) for i in order),
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
