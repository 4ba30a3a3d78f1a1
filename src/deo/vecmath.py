"""Vector primitives shared by every stage: norms, similarity, distances, PCA.

All arithmetic runs in float64 regardless of how vectors are stored on disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError, ZeroVectorError

ZERO_NORM_EPS = 1e-12


def as_vector(v) -> np.ndarray:
    """Coerce input to a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains NaN or Inf components")
    return arr


def _require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def l2_normalize(v) -> np.ndarray:
    """Return v scaled to unit L2 norm.

    Raises ZeroVectorError when the norm is at or below 1e-12.
    """
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if norm <= ZERO_NORM_EPS:
        raise ZeroVectorError(f"cannot normalize a vector with norm {norm:g}")
    return arr / norm


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1].

    Both vectors must be non-zero and share a dimension.
    """
    va, vb = as_vector(a), as_vector(b)
    _require_same_dim(va, vb)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na <= ZERO_NORM_EPS or nb <= ZERO_NORM_EPS:
        raise ZeroVectorError("cosine similarity is undefined for zero vectors")
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def squared_euclidean(a, b) -> float:
    """Squared L2 distance between a and b."""
    va, vb = as_vector(a), as_vector(b)
    _require_same_dim(va, vb)
    diff = va - vb
    return float(np.dot(diff, diff))


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
