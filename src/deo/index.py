"""Exact cosine retrieval over an in-memory corpus, plus rank fusion.

The index keeps the corpus vectors plus one float64 norm per row:
FlatIndex.build copies its records to float64, and FlatIndex.from_store
scores a store's read-only float32 matrix in place, taking a v3 store's
stored norms and id rank instead of recomputing them. Queries are scored in
blocks of SEARCH_BLOCK rows, one matrix product in the corpus dtype per block
against the whole corpus; that product only picks candidates, whose final
scores are recomputed in float64 one query at a time, so a query ranks the
same alone or in any batch. Ties are broken by ascending doc id to keep every
ranking deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DuplicateIdError, EmptyInputError
from .ioutil import atomic_write_text
from .store import id_rank
from .vecmath import check_norms, raw_row_norms, row_norms

# Queries scored per matrix product in FlatIndex.search_many.
SEARCH_BLOCK = 64
# A float32 corpus with a row norm above this is screened in float64, because
# a float32 product of that row with a unit query could overflow.
FLOAT32_SCREEN_MAX_NORM = float(np.finfo(np.float32).max) / 2


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

    def __init__(self, doc_ids: list[str], positions: dict[str, int], matrix: np.ndarray,
                 norms: np.ndarray, rank: np.ndarray | None = None):
        self._doc_ids = doc_ids
        self._positions = positions  # doc id -> row
        self._matrix = matrix  # float64 rows, or a store's float32 matrix
        self._norms = norms  # float64 L2 norm of each row
        # integer tie-break key: each row's place in ascending doc id order
        self._id_rank = id_rank(doc_ids) if rank is None else rank

    @classmethod
    def build(cls, records) -> "FlatIndex":
        """Build from an iterable of (doc_id, vector) pairs, copied to float64.

        Raises DimensionMismatchError for a record that is not 1-D or not of
        the first one's dimension, then EmptyInputError, then the first bad
        row's error as in row_norms, naming its doc, then DuplicateIdError.
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
        if not doc_ids:
            raise EmptyInputError("cannot build an index from zero documents")
        matrix = np.array(rows)
        norms = row_norms(matrix, lambda i: f"doc {doc_ids[i]!r}")
        positions: dict[str, int] = {}
        for i, doc_id in enumerate(doc_ids):
            if positions.setdefault(doc_id, i) != i:
                raise DuplicateIdError(f"duplicate doc id {doc_id!r}")
        return cls(doc_ids, positions, matrix, norms)

    @classmethod
    def from_store(cls, store) -> "FlatIndex":
        """Index an EmbeddingStore in place: its read-only float32 matrix,
        its id list, its id -> row map and, loaded from a v3 file, its norms
        and id rank are used without a copy, so the store must not change
        afterwards. Raises EmptyInputError for an empty store, then the
        first bad row's error as in row_norms, naming its doc."""
        if not len(store):
            raise EmptyInputError("cannot build an index from zero documents")
        matrix = store.matrix
        norms = store.stored_norms()
        if norms is None:
            norms = raw_row_norms(matrix)
        check_norms(norms, lambda i: f"doc {store._ids[i]!r}")
        if norms.max() > FLOAT32_SCREEN_MAX_NORM:
            # a float32 product with such a row could overflow; screen in float64
            matrix = matrix.astype(np.float64)
        return cls(store._ids, store._index, matrix, norms, store._id_rank)

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
        """Unit vector of doc_id, as l2_normalize gives it."""
        try:
            pos = self._positions[doc_id]
        except KeyError:
            raise KeyError(f"doc id {doc_id!r} not in index") from None
        return self._unit_rows(pos)

    def unit_vectors(self) -> np.ndarray:
        """The full (n, d) float64 unit-vector matrix, row order = doc_ids."""
        return self._unit_rows(slice(None))

    def _unit_rows(self, rows) -> np.ndarray:
        # float64 row divided by its norm: the bits l2_normalize gives a row
        return self._matrix[rows].astype(np.float64, copy=False) / self._norms[rows, None]

    def search(self, query, k: int = 10) -> RankedList:
        """Top-k by cosine similarity; ties broken by ascending doc id."""
        return self.search_many([query], k)[0]

    def search_many(self, queries, k: int = 10) -> list[RankedList]:
        """search() for each row of an (R, d) array or each vector of a
        sequence, in order.

        All rows are normalized with one row_norms call, so the first bad row
        raises, naming it as query i (its 0-based place in `queries`).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"queries of shape {queries.shape} do not match index dimension {self.dim}"
            )
        units = queries / row_norms(queries, lambda i: f"query {i}")[:, None]
        results: list[RankedList] = []
        for start in range(0, len(units), SEARCH_BLOCK):
            block = units[start : start + SEARCH_BLOCK]
            screen = block.astype(self._matrix.dtype, copy=False) @ self._matrix.T
            screen = screen / self._norms
            for q, scores in zip(block, screen):
                results.append(self._top_k(q, scores, k))
        return results

    def _top_k(self, q: np.ndarray, approx: np.ndarray, k: int) -> RankedList:
        # The screen is computed in the corpus dtype, and its last bits depend
        # on the block's shape and the row's place in it (BLAS kernels differ
        # at tile edges), so it only picks candidates: every doc within
        # rounding error of the k-th best, which takes in all docs tied with
        # it. Their scores are then recomputed in float64 from q alone, one
        # fixed-order sum per doc, and sorted by (-score, id rank).
        n = len(self._doc_ids)
        if k < n:
            kth = np.partition(approx, n - k)[n - k]
            # Rounding q to the corpus dtype and summing d products in it
            # puts a screened score at most about d * eps of that dtype from
            # the exact cosine, so a true top-k doc lies at most 2 * d * eps
            # below kth; the slack doubles that.
            slack = 4 * self.dim * np.finfo(self._matrix.dtype).eps
            candidates = np.flatnonzero(approx >= kth - slack)
        else:
            candidates = np.arange(n)
        scores = np.add.reduce(self._unit_rows(candidates) * q, axis=1)
        order = np.lexsort((self._id_rank[candidates], -scores))[:k]
        return RankedList(
            doc_ids=tuple(self._doc_ids[i] for i in candidates[order]),
            scores=tuple(scores[order].tolist()),
        )


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


def trec_lines(query_id: str, ranking: RankedList, run_tag: str) -> str:
    """One query's ranking as six-column TREC run lines, scores with 6
    decimals."""
    return "".join(f"{query_id} Q0 {doc_id} {rank} {score:.6f} {run_tag}\n"
                   for rank, (doc_id, score) in enumerate(ranking.items(), start=1))


def write_trec_run(path, results: dict[str, RankedList], run_tag: str) -> None:
    """Write every query's trec_lines, in query id order, atomically."""
    atomic_write_text(path, "".join(
        trec_lines(query_id, results[query_id], run_tag) for query_id in sorted(results)))
