"""Vector primitives shared by every stage: coercion, normalization, PCA.

All arithmetic runs in float64 regardless of how vectors are stored on disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError, ZeroVectorError

ZERO_NORM_EPS = 1e-12
# Rows whose norms raw_row_norms computes per stacked product; a float32
# chunk is copied into one float64 buffer of this many rows.
NORM_CHUNK = 256


def as_vector(v) -> np.ndarray:
    """Coerce input to a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains NaN or Inf components")
    return arr


def raw_row_norms(matrix) -> np.ndarray:
    """Float64 L2 norm of each row of an (n, d) float32 or float64 matrix,
    without raising: a row with a NaN component gets NaN, one with an Inf
    component or an overflowing norm gets NaN or inf, a zero row 0.

    Each row gets the bits np.linalg.norm gives it as a float64 vector; this
    is the one norm every unit vector in the package is divided by.
    """
    norms = np.empty(len(matrix))
    buffer = None
    if matrix.dtype != np.float64:  # a float64 matrix is read in place
        buffer = np.empty((min(NORM_CHUNK, len(matrix)), matrix.shape[1]))
    with np.errstate(over="ignore"):  # an overflow gives inf
        for start in range(0, len(matrix), NORM_CHUNK):
            rows = matrix[start : start + NORM_CHUNK]
            if buffer is not None:
                buffer[: len(rows)] = rows
                rows = buffer[: len(rows)]
            # a stack of row @ row: the dot product np.linalg.norm takes for one vector
            np.matmul(rows[:, None, :], rows[:, :, None],
                      out=norms[start : start + len(rows), None, None])
    return np.sqrt(norms, out=norms)


def check_norms(norms: np.ndarray, describe=lambda i: f"row {i}") -> np.ndarray:
    """Return raw_row_norms output unchanged if every norm can divide its
    row. Otherwise the first bad row in row order raises, named by
    describe(i): ValueError for a NaN or Inf component or a norm that
    overflows float64, ZeroVectorError for a norm at or below ZERO_NORM_EPS.
    """
    # a NaN or Inf component makes its row's sum of squares NaN or Inf, and
    # NaN fails every comparison
    good = norms > ZERO_NORM_EPS
    good &= norms < np.inf
    if np.count_nonzero(good) < len(good):
        i = int(np.argmin(good))
        if not np.isfinite(norms[i]):
            raise ValueError(f"{describe(i)} has NaN or Inf components or an infinite norm")
        raise ZeroVectorError(f"{describe(i)} has norm {norms[i]:g} and cannot be normalized")
    return norms


def row_norms(matrix, describe=lambda i: f"row {i}") -> np.ndarray:
    """raw_row_norms of an (n, d) matrix, checked by check_norms."""
    return check_norms(raw_row_norms(matrix), describe)


def l2_normalize(v) -> np.ndarray:
    """Return the 1-D vector v, as float64, divided by its row_norms norm.

    Raises ValueError for a NaN or Inf component or an overflowing norm and
    ZeroVectorError when the norm is at or below 1e-12.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr / row_norms(arr[None], lambda i: "vector")[0]


@dataclass(frozen=True)
class PcaBasis:
    """Principal axes of a point cloud.

    mean                -- (d,) component-wise average of the fitted corpus
    components          -- (k, d) orthonormal rows, descending variance order
    explained_variance  -- (k,) sample variance along each component
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def dim(self) -> int:
        return self.components.shape[1]


def _sign_normalize(components: np.ndarray) -> np.ndarray:
    # Largest-magnitude coordinate of each component made positive, so fits
    # are reproducible across eigensolver sign choices.
    out = components.copy()
    for row in out:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return out


def _complete_orthonormal(rows: list[np.ndarray], dim: int, count: int) -> list[np.ndarray]:
    # Extend an orthonormal set with deterministic directions drawn from the
    # standard basis; used when a rank-deficient Gram matrix cannot supply
    # enough non-degenerate axes.
    for j in range(dim):
        if len(rows) >= count:
            break
        cand = np.zeros(dim)
        cand[j] = 1.0
        for r in rows:
            cand -= np.dot(cand, r) * r
        norm = float(np.linalg.norm(cand))
        if norm > 1e-9:
            rows.append(cand / norm)
    return rows


def pca_fit(corpus, n_components: int) -> PcaBasis:
    """Fit a centered PCA on a list of vectors.

    Uses an exact eigendecomposition of whichever matrix is smaller: the
    d x d sample covariance when n >= d, else the n x n Gram matrix of the
    centered points. Trailing components of a rank-deficient covariance
    carry zero variance; that is not an error.
    """
    X = np.asarray(corpus, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D corpus, got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise InsufficientDataError(f"PCA needs at least 2 points, got {n}")
    if not 1 <= n_components <= min(d, n):
        raise InsufficientDataError(
            f"n_components={n_components} must be in [1, min(d={d}, n={n})]"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("corpus contains NaN or Inf components")

    mean = X.mean(axis=0)
    centered = X - mean

    if n >= d:
        cov = centered.T @ centered / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1][:n_components]
        variance = np.clip(eigvals[order], 0.0, None)
        components = eigvecs[:, order].T
    else:
        gram = centered @ centered.T / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1]
        rows: list[np.ndarray] = []
        variance_list: list[float] = []
        for idx in order:
            if len(rows) >= n_components:
                break
            lam = float(eigvals[idx])
            if lam <= 1e-12:
                continue
            axis = centered.T @ eigvecs[:, idx]
            norm = float(np.linalg.norm(axis))
            if norm <= 1e-12:
                continue
            rows.append(axis / norm)
            variance_list.append(lam)
        rows = _complete_orthonormal(rows, d, n_components)
        variance_list += [0.0] * (n_components - len(variance_list))
        components = np.stack(rows)
        variance = np.asarray(variance_list)

    return PcaBasis(
        mean=mean,
        components=_sign_normalize(components),
        explained_variance=variance,
    )


def pca_project(basis: PcaBasis, v) -> np.ndarray:
    """Coordinates of v in the basis: dot(v - mean, component_j) per axis."""
    arr = as_vector(v)
    if arr.shape[0] != basis.dim:
        raise DimensionMismatchError(
            f"vector dimension {arr.shape[0]} does not match basis dimension {basis.dim}"
        )
    return basis.components @ (arr - basis.mean)
