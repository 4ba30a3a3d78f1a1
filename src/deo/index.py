"""Exact cosine retrieval over an in-memory corpus, plus rank fusion.

FlatIndex ranks by float64 cosine, ties broken by ascending doc id: a
batched screen in the corpus dtype picks candidates, and _top_k rescores
them and proves that they hold the true top k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DuplicateIdError, EmptyInputError
from .ioutil import atomic_write_text
from .store import id_rank
from .vecmath import check_norms, raw_row_norms, row_norms

# Queries QueryPipeline.rank gathers, optimizes and searches as one block.
SEARCH_BLOCK = 64
# Most query rows FlatIndex.search_many screens with one matrix product: a
# thin product is slow per row, and a (PRODUCT_ROWS, n) screen bounds memory.
PRODUCT_ROWS = 128
# A float32 corpus with a row norm above this is screened in float64: beyond
# it the float32 reciprocal of the norm would be subnormal (2**126 is
# 1 / float32's smallest normal), and the screen's error bound would not hold.
FLOAT32_SCREEN_MAX_NORM = 2.0**126


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

    def __init__(self, doc_ids: list[str], matrix: np.ndarray, norms: np.ndarray | None = None,
                 rank: np.ndarray | None = None, positions: dict[str, int] | None = None):
        """Index the rows of `matrix` under doc_ids in place; each row's
        raw_row_norms, the id_rank and the doc id -> row map are computed when
        not given. Raises EmptyInputError for zero documents, then the first
        bad row's error as in row_norms, naming its doc, then DuplicateIdError.
        """
        if not doc_ids:
            raise EmptyInputError("cannot build an index from zero documents")
        norms = check_norms(raw_row_norms(matrix) if norms is None else norms,
                            lambda i: f"doc {doc_ids[i]!r}")
        if positions is None:
            positions = {}
            for i, doc_id in enumerate(doc_ids):
                if positions.setdefault(doc_id, i) != i:
                    raise DuplicateIdError(f"duplicate doc id {doc_id!r}")
        if norms.max() > FLOAT32_SCREEN_MAX_NORM:
            # a float32 product with such a row could overflow; screen in float64
            matrix = matrix.astype(np.float64, copy=False)
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
        the first one's dimension, then what __init__ raises.
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
        return cls(doc_ids, np.array(rows))

    @classmethod
    def from_store(cls, store) -> "FlatIndex":
        """Index an EmbeddingStore in place: its read-only float32 matrix,
        its id list, its id -> row map and, loaded from a v3 file, its norms
        and id rank are used without a copy, so the store must not change
        afterwards. Raises what __init__ raises."""
        return cls(store._ids, store.matrix, store.stored_norms(), store._id_rank, store._index)

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
        raises, naming it as query i (its 0-based place in `queries`). The
        unit rows are then screened PRODUCT_ROWS at a time, scaled in place,
        so a float32 corpus makes no float64 (rows, n) copy. Each query's
        candidates are rescored from it alone, so it ranks the same alone or
        in any batch, with the ids and scores of a float64 brute force.
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
        for start in range(0, len(units), PRODUCT_ROWS):
            block = units[start : start + PRODUCT_ROWS]
            screen = block.astype(self._matrix.dtype, copy=False) @ self._matrix.T
            screen *= self._reciprocal_norms
            for q, scores in zip(block, screen):
                results.append(self._top_k(q, scores, k))
        return results

    # Both are built at the first search, so that indexing alone (deo index)
    # pays for neither.
    @cached_property
    def _reciprocal_norms(self) -> np.ndarray:
        # rounded once in float64, then to the corpus dtype
        return (1.0 / self._norms).astype(self._matrix.dtype, copy=False)

    @cached_property
    def _id_array(self) -> np.ndarray:
        return np.array(self._doc_ids, dtype=object)

    def _top_k(self, q: np.ndarray, approx: np.ndarray, k: int) -> RankedList:
        # The screen is computed in the corpus dtype, and its last bits depend
        # on the block's shape and the row's place in it (BLAS kernels differ
        # at tile edges), so it only picks candidates: every doc within
        # `slack` of the k-th best, which takes in all docs tied with it.
        # Their scores are then recomputed in float64 from q alone, one
        # fixed-order sum per doc, and sorted by (-score, id rank).
        #
        # Why the slack suffices. Let u be the unit roundoff (eps / 2) of the
        # corpus dtype, x a corpus row, n its float64 norm and c = q.x / n.
        # The rescore f is within (d + 1) u64 of c: a division, a product and
        # d - 1 additions in float64. The screen a rounds q to the corpus
        # dtype (u), sums d products in it (d u, in any order, FMA or not),
        # rounds the reciprocal of n (u: once in float64, then to the dtype)
        # and its product with the sum (u). So |a - c| <= (d + 3) u, up to
        # terms of order d^2 u^2 and underflow terms far below u (n exceeds
        # ZERO_NORM_EPS). That needs a normal reciprocal: row_norms keeps a
        # float64 n below 2^512, and FLOAT32_SCREEN_MAX_NORM a float32 one at
        # most 2^126. Hence |a - f| <= E = (2d + 4) u. At least k docs screen
        # at or above kth, so at least k have f >= kth - E, and a doc of the
        # final top k screens at least kth - 2E. The threshold kth - slack is
        # rounded once more in the dtype (u): 2E + u is (2d + 4.5) eps, and
        # the slack, 4 (d + 2) eps, exceeds it by at least 5.5 eps, which
        # covers the higher-order terms.
        n = len(self._doc_ids)
        if k < n:
            kth = np.partition(approx, n - k)[n - k]
            slack = 4 * (self.dim + 2) * np.finfo(self._matrix.dtype).eps
            candidates = np.flatnonzero(approx >= kth - slack)
        else:
            candidates = np.arange(n)
        # the bits of _unit_rows(candidates) * q, computed in place
        rows = self._matrix.take(candidates, axis=0).astype(np.float64, copy=False)
        np.divide(rows, self._norms[candidates, None], out=rows)
        np.multiply(rows, q, out=rows)
        scores = np.add.reduce(rows, axis=1)
        order = np.lexsort((self._id_rank[candidates], -scores))[:k]
        return RankedList(
            doc_ids=tuple(self._id_array[candidates[order]].tolist()),
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
