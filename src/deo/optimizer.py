"""Contrastive query-embedding objective, its analytic gradient, and the Adam loop.

The optimized embedding is pulled toward positive sub-query embeddings,
pushed away from negative ones, and anchored to the original query embedding:

    L(e) = lp * mean_i ||e - p_i||^2  -  ln * mean_j ||e - n_j||^2  +  lo * ||e - e_o||^2

Empty positive or negative sets simply drop the corresponding term.
Optimization runs in ambient space; unit normalization, when enabled, is
applied to the inputs once before the loop and never between steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NotStronglyConvexError
from .vecmath import as_vector, row_norms

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OptimizationConfig:
    """Loss weights and Adam settings.

    The default loss weights are the "text" entry of PRESETS; 20 steps.
    """

    lambda_p: float = 1.0
    lambda_n: float = 1.0
    lambda_o: float = 0.2
    steps: int = 20
    learning_rate: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    normalize_inputs: bool = True

    def __post_init__(self) -> None:
        # NaN fails every comparison, so each range check also rejects it
        for name in ("lambda_p", "lambda_n", "lambda_o"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValueError(
                    f"lambda weights must be non-negative and finite, got {name} = {value!r}")
        # steps = 0 is allowed so sweeps can include the no-optimization
        # endpoint, which is the plain-search baseline by construction.
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be non-negative and finite")


# Named loss-weight presets. "multimodal" raises the anchor weight for
# embedding spaces where drifting far from the original query is riskier.
PRESETS = {
    "text": {"lambda_p": 1.0, "lambda_n": 1.0, "lambda_o": 0.2},
    "multimodal": {"lambda_p": 1.0, "lambda_n": 1.0, "lambda_o": 1.0},
}


@dataclass(frozen=True)
class DecompositionEmbeddings:
    """Embedded decomposition of one query, stacked as one (1 + K + M, d)
    matrix: the raw query's embedding, then K >= 0 positive and M >= 0
    negative sub-query embeddings.

    original  -- (d,) row 0
    positives -- (K, d) rows 1 .. K
    negatives -- (M, d) the rows after them
    """

    rows: np.ndarray
    num_positives: int

    @classmethod
    def from_vectors(cls, original, positives=(), negatives=()) -> "DecompositionEmbeddings":
        positives = [as_vector(v) for v in positives]
        rows = [as_vector(original), *positives, *(as_vector(v) for v in negatives)]
        for row in rows:
            if row.shape[0] != rows[0].shape[0]:
                raise DimensionMismatchError(
                    f"sub-query vector has dimension {row.shape[0]}, expected {rows[0].shape[0]}")
        return cls(np.stack(rows), len(positives))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def num_negatives(self) -> int:
        return self.rows.shape[0] - 1 - self.num_positives

    @property
    def original(self) -> np.ndarray:
        return self.rows[0]

    @property
    def positives(self) -> np.ndarray:
        return self.rows[1 : 1 + self.num_positives]

    @property
    def negatives(self) -> np.ndarray:
        return self.rows[1 + self.num_positives :]

    def normalized(self) -> "DecompositionEmbeddings":
        """Every row divided by its row_norms; raises ZeroVectorError on a
        zero row and ValueError on an overflowing norm."""
        return DecompositionEmbeddings(self.rows / row_norms(self.rows)[:, None],
                                       self.num_positives)


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-step record of one optimization run.

    snapshots -- (steps + 1, d) embedding after each step; row 0 is the
                 initialization (the possibly normalized original), stored
                 exactly.
    inputs    -- the (possibly normalized) inputs the run optimized.
    config    -- the settings it ran with.
    losses    -- (steps + 1,) objective value at each snapshot, computed when
                 first read, so runs whose traces nobody reads never pay for it.
    """

    snapshots: np.ndarray
    inputs: DecompositionEmbeddings = field(repr=False)
    config: OptimizationConfig = field(repr=False)

    @cached_property
    def losses(self) -> np.ndarray:
        return np.array([deo_loss(s, self.inputs, self.config) for s in self.snapshots])

    @property
    def steps(self) -> int:
        return self.snapshots.shape[0] - 1

    @property
    def initial(self) -> np.ndarray:
        return self.snapshots[0]

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


def convexity_margin(num_positives: int, num_negatives: int, cfg: OptimizationConfig) -> float:
    """Quadratic coefficient of the objective of a query with K = num_positives
    and M = num_negatives; positive means a unique minimizer."""
    c = cfg.lambda_o
    if num_positives:
        c += cfg.lambda_p
    if num_negatives:
        c -= cfg.lambda_n
    return c


def _point(e_u, inputs: DecompositionEmbeddings) -> np.ndarray:
    e = as_vector(e_u)
    if e.shape[0] != inputs.dim:
        raise DimensionMismatchError(f"e_u has dimension {e.shape[0]}, inputs have {inputs.dim}")
    return e


def deo_loss(e_u, inputs: DecompositionEmbeddings, cfg: OptimizationConfig) -> float:
    """Evaluate the contrastive objective at e_u."""
    e = _point(e_u, inputs)
    diff_o = e - inputs.original
    loss = cfg.lambda_o * float(np.dot(diff_o, diff_o))
    if inputs.num_positives:
        diffs = e[None, :] - inputs.positives
        loss += cfg.lambda_p * float(np.mean(np.einsum("ij,ij->i", diffs, diffs)))
    if inputs.num_negatives:
        diffs = e[None, :] - inputs.negatives
        loss -= cfg.lambda_n * float(np.mean(np.einsum("ij,ij->i", diffs, diffs)))
    return loss


def deo_gradient(e_u, inputs: DecompositionEmbeddings, cfg: OptimizationConfig) -> np.ndarray:
    """Analytic gradient of deo_loss with respect to e_u."""
    e = _point(e_u, inputs)
    grad = 2.0 * cfg.lambda_o * (e - inputs.original)
    if inputs.num_positives:
        grad += 2.0 * cfg.lambda_p * (e - inputs.positives.mean(axis=0))
    if inputs.num_negatives:
        grad -= 2.0 * cfg.lambda_n * (e - inputs.negatives.mean(axis=0))
    return grad


def closed_form_optimum(
    inputs: DecompositionEmbeddings, cfg: OptimizationConfig
) -> np.ndarray:
    """Unique stationary point of the objective, when one exists.

    Solving grad L = 0 gives (lp*mu_p - ln*mu_n + lo*e_o) / c with terms
    dropped for empty sets and c the convexity margin. Raises
    NotStronglyConvexError when c <= 0 (the loss is unbounded below, though
    finite-step optimization remains well defined).
    """
    c = convexity_margin(inputs.num_positives, inputs.num_negatives, cfg)
    if c <= 0:
        raise NotStronglyConvexError(
            f"objective has no finite minimizer (quadratic coefficient {c:g} <= 0)"
        )
    numerator = cfg.lambda_o * inputs.original
    if inputs.num_positives:
        numerator = numerator + cfg.lambda_p * inputs.positives.mean(axis=0)
    if inputs.num_negatives:
        numerator = numerator - cfg.lambda_n * inputs.negatives.mean(axis=0)
    return numerator / c


def optimize_query_embedding(
    inputs: DecompositionEmbeddings, cfg: OptimizationConfig
) -> tuple[np.ndarray, OptimizationTrace]:
    """Run cfg.steps Adam updates from the original embedding.

    Returns the final embedding and the full trace. The run is deterministic:
    identical inputs and config produce bit-identical traces. With no
    positives and no negatives the gradient vanishes at the start and the
    initialization is returned unchanged.
    """
    snapshots = optimize_many(inputs.rows, [(inputs.num_positives, inputs.num_negatives)], cfg)[0]
    work = inputs.normalized() if cfg.normalize_inputs else inputs
    return snapshots[-1].copy(), OptimizationTrace(snapshots=snapshots, inputs=work, config=cfg)


def optimize_many(rows, counts, cfg: OptimizationConfig,
                  describe=lambda i: f"row {i}") -> np.ndarray:
    """optimize_query_embedding for a block of queries, run as one (Q, d) Adam
    loop; returns the (Q, steps + 1, d) snapshots.

    rows stacks each query's DecompositionEmbeddings rows one query after
    another (its original, then its K positives, then its M negatives), and
    counts holds each query's (K, M). Adam is elementwise and each query's
    gradient terms are added only to its own row, so every query's snapshots
    are bit-identical to a run of the query alone, whatever the block. With
    normalize_inputs, the first row that row_norms rejects raises, named by
    describe(i).
    """
    rows = np.asarray(rows, dtype=np.float64)
    sizes = [1 + n_pos + n_neg for n_pos, n_neg in counts]
    if rows.ndim != 2 or sum(sizes) != len(rows):
        raise DimensionMismatchError(
            f"rows of shape {rows.shape} do not hold {len(counts)} queries of {sum(sizes)} rows")
    if cfg.normalize_inputs:
        rows = rows / row_norms(rows, describe)[:, None]
    starts = np.cumsum([0, *sizes])[:-1]
    for n_pos, n_neg in counts:
        c = convexity_margin(n_pos, n_neg, cfg)
        if c <= 0 and (n_pos or n_neg):
            logger.warning(
                "objective is not strongly convex (c=%g); running %d finite steps anyway",
                c,
                cfg.steps,
            )

    # each query's centroids once; a term is added only to the rows that have
    # it, since adding a masked 0.0 would turn a -0.0 gradient component into 0.0
    originals = rows[starts]
    has_p = np.array([n_pos > 0 for n_pos, _ in counts], dtype=bool)
    has_n = np.array([n_neg > 0 for _, n_neg in counts], dtype=bool)
    mu_p = np.array([rows[s + 1 : s + 1 + n_pos].mean(axis=0)
                     for s, (n_pos, _) in zip(starts, counts) if n_pos])
    mu_n = np.array([rows[s + 1 + n_pos : s + 1 + n_pos + n_neg].mean(axis=0)
                     for s, (n_pos, n_neg) in zip(starts, counts) if n_neg])

    e = originals
    snapshots = np.empty((len(counts), cfg.steps + 1, rows.shape[1]))
    snapshots[:, 0] = e
    m = np.zeros_like(e)
    v = np.zeros_like(e)
    for t in range(1, cfg.steps + 1):
        g = 2.0 * cfg.lambda_o * (e - originals)
        if len(mu_p):
            g[has_p] += 2.0 * cfg.lambda_p * (e[has_p] - mu_p)
        if len(mu_n):
            g[has_n] -= 2.0 * cfg.lambda_n * (e[has_n] - mu_n)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        denom = np.sqrt(v_hat) + cfg.epsilon
        # denom is zero only where every gradient so far was zero, in which
        # case m_hat is zero too and the update must be a no-op.
        update = np.divide(
            cfg.learning_rate * m_hat,
            denom,
            out=np.zeros_like(e),
            where=denom > 0.0,
        )
        e = e - update
        snapshots[:, t] = e
    return snapshots
