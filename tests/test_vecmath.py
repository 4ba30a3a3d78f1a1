import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deo import vecmath
from deo.errors import DimensionMismatchError, InsufficientDataError, ZeroVectorError
from deo.index import FlatIndex
from deo.optimizer import DecompositionEmbeddings
from deo.store import EmbeddingStore, load_store
from deo.vecmath import (
    NORM_CHUNK,
    ZERO_NORM_EPS,
    PcaBasis,
    as_vector,
    l2_normalize,
    pca_fit,
    pca_project,
    raw_row_norms,
    row_norms,
)


def test_as_vector_accepts_lists_and_arrays():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)


def test_as_vector_rejects_matrices_and_non_finite():
    with pytest.raises(DimensionMismatchError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_vector([float("inf"), 0.0])


def test_l2_normalize_unit_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(size=rng.integers(2, 40))
        assert math.isclose(float(np.linalg.norm(l2_normalize(v))), 1.0, abs_tol=1e-12)


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(ZeroVectorError):
        l2_normalize(np.zeros(4))
    with pytest.raises(ZeroVectorError):
        l2_normalize(np.full(4, 1e-13))


def test_overflowing_norm_raises_instead_of_returning_zeros():
    # every component is finite, but the float64 sum of squares overflows
    v = [1e200, 1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        with pytest.raises(ValueError, match="infinite norm"):
            l2_normalize(v)
        with pytest.raises(ValueError, match="infinite norm"):
            DecompositionEmbeddings.from_vectors([1.0, 0.0], [v]).normalized()


@st.composite
def matrices(draw):
    """(n, d) float32 or float64 matrices whose rows are standard normal
    draws scaled by a power of two, from all-subnormal to just past float64
    overflow, with some components subnormal or -0.0 and the odd NaN or Inf,
    plus the NORM_CHUNK to compute them with."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == np.float32:
        extremes, tiny = [-160, -149, -40, 120, 125, 127], 2.0**-140
    else:
        extremes, tiny = [-1080, -1074, -1022, -40, 505, 508, 511], 2.0**-1050
    m = np.empty((n, d), dtype=dtype)
    for i in range(n):
        exponent = draw(st.sampled_from(extremes) if draw(st.integers(0, 3)) == 0
                        else st.integers(-30, 30))
        with np.errstate(over="ignore", under="ignore"):
            m[i] = rng.normal(size=d) * 2.0**exponent
        m[i, rng.random(d) < draw(st.sampled_from([0.0, 0.5]))] *= tiny  # subnormal
        m[i, rng.random(d) < draw(st.sampled_from([0.0] * 6 + [0.3, 1.0]))] = -0.0
        special = draw(st.sampled_from([None] * 20 + [np.nan, np.inf, -np.inf]))
        if special is not None:
            m[i, rng.integers(d)] = special
    return m, draw(st.sampled_from([1, 2, 5, vecmath.NORM_CHUNK]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(matrices())
def test_every_normalizer_divides_by_np_linalg_norm(tmp_path_factory, case):
    m, chunk = case
    rows = m.astype(np.float64)
    with np.errstate(all="ignore"):
        norms = np.array([np.linalg.norm(v) for v in rows])
    ok = (norms > ZERO_NORM_EPS) & np.isfinite(norms)
    ids = [f"d{i}" for i in range(len(m))]
    inputs = DecompositionEmbeddings(rows, num_positives=len(m) // 2)
    indexes = [lambda: FlatIndex.build(zip(ids, m))]
    if m.dtype == np.float32:  # a store holds float32 rows
        store = EmbeddingStore(dim=m.shape[1])
        for doc_id, row in zip(ids, m):
            store.add(doc_id, row)
        indexes.append(lambda: FlatIndex.from_store(store))
        # a v3 file stores the raw norms, bad rows included
        path = tmp_path_factory.mktemp("v3") / "s.bin"
        store.save_binary(path)
        loaded = load_store(path)
        indexes.append(lambda: FlatIndex.from_store(loaded))
    with mock.patch.object(vecmath, "NORM_CHUNK", chunk), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(raw_row_norms(m), norms, equal_nan=True)  # and never raises
        if ok.all():
            units = np.stack([v / n for v, n in zip(rows, norms)])
            assert np.array_equal(rows / row_norms(m)[:, None], units)
            for row, unit in zip(m, units):
                assert np.array_equal(l2_normalize(row), unit)
            for make_index in indexes:
                assert np.array_equal(make_index().unit_vectors(), units)
            from_vectors = DecompositionEmbeddings.from_vectors(
                inputs.original, inputs.positives, inputs.negatives)
            assert np.array_equal(from_vectors.normalized().rows, units)
            assert np.array_equal(inputs.normalized().rows, units)
            return
        # the first bad row decides the error, whatever the rows after it
        first = int(np.argmin(ok))
        error = ValueError if not np.isfinite(norms[first]) else ZeroVectorError
        for call in (lambda: row_norms(m), lambda: inputs.normalized(),
                     lambda: l2_normalize(m[first])):
            with pytest.raises(Exception) as info:
                call()
            assert type(info.value) is error
        for make_index in indexes:
            with pytest.raises(Exception, match=f"doc 'd{first}'") as info:
                make_index()
            assert type(info.value) is error


def test_raw_row_norms_reads_float64_in_place_and_float32_through_one_buffer():
    rng = np.random.default_rng(17)
    n, d = 3 * NORM_CHUNK + 5, 96
    for dtype in (np.float64, np.float32):
        m = rng.normal(size=(n, d)).astype(dtype)
        tracemalloc.start()
        try:
            norms = raw_row_norms(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the norms, plus one NORM_CHUNK-row float64 buffer for float32 rows
        assert peak < 8 * n + 4096 + (0 if dtype == np.float64 else 8 * NORM_CHUNK * d)
        expected = [np.linalg.norm(row) for row in m.astype(np.float64)]
        assert norms.tobytes() == np.array(expected).tobytes()


def test_pca_needs_two_points():
    with pytest.raises(InsufficientDataError):
        pca_fit(np.ones((1, 3)), 1)


def test_pca_component_count_bounds():
    corpus = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(InsufficientDataError):
        pca_fit(corpus, 0)
    with pytest.raises(InsufficientDataError):
        pca_fit(corpus, 4)


def test_pca_three_point_oracle():
    """Hand-solvable 2-D instance checked against the closed-form 2x2
    eigendecomposition.

    Points (0,0), (2,0), (0,1): covariance (ddof=1) has Sxx=4/3, Syy=1/3,
    Sxy=-1/3, so the eigenvalues are (5 +- sqrt(13)) / 6 and the leading
    eigenvector is proportional to (Sxy, lambda1 - Sxx), sign-flipped so its
    largest coordinate is positive.
    """
    corpus = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    basis = pca_fit(corpus, 2)

    sxx, syy, sxy = 4.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0
    disc = math.sqrt(((sxx - syy) / 2.0) ** 2 + sxy**2)
    lam1 = (sxx + syy) / 2.0 + disc
    lam2 = (sxx + syy) / 2.0 - disc
    assert math.isclose(lam1, (5.0 + math.sqrt(13.0)) / 6.0, rel_tol=1e-12)
    assert np.allclose(basis.explained_variance, [lam1, lam2], atol=1e-12)

    v = np.array([sxy, lam1 - sxx])
    v = v / np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    # frozen decimals for the leading direction
    assert np.allclose(v, [0.957092, -0.289784], atol=1e-6)
    assert np.allclose(basis.components[0], v, atol=1e-12)
    assert np.allclose(basis.mean, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_pca_projection_of_mean_is_origin():
    rng = np.random.default_rng(3)
    corpus = rng.normal(size=(30, 6))
    basis = pca_fit(corpus, 2)
    assert np.allclose(pca_project(basis, corpus.mean(axis=0)), [0.0, 0.0], atol=1e-12)


def test_pca_components_orthonormal_and_sign_fixed():
    rng = np.random.default_rng(11)
    corpus = rng.normal(size=(40, 9))
    basis = pca_fit(corpus, 5)
    gram = basis.components @ basis.components.T
    assert np.allclose(gram, np.eye(5), atol=1e-10)
    for row in basis.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_variance_sorted_descending():
    rng = np.random.default_rng(13)
    corpus = rng.normal(size=(50, 8)) * np.array([5, 3, 2, 1, 1, 1, 0.5, 0.1])
    basis = pca_fit(corpus, 8)
    ev = basis.explained_variance
    assert all(ev[i] >= ev[i + 1] - 1e-12 for i in range(len(ev) - 1))


def test_pca_gram_trick_matches_direct_eigendecomposition():
    """n < d routes through the Gram matrix; results must match the
    covariance path."""
    rng = np.random.default_rng(17)
    d, n = 600, 12
    corpus = rng.normal(size=(n, d))
    basis = pca_fit(corpus, 3)
    assert basis.components.shape == (3, d)

    centered = corpus - corpus.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:3]
    for i, j in enumerate(order):
        ref = eigvecs[:, j]
        if ref[np.argmax(np.abs(ref))] < 0:
            ref = -ref
        assert np.allclose(basis.components[i], ref, atol=1e-8)
        assert math.isclose(basis.explained_variance[i], eigvals[j], rel_tol=1e-9)


def test_pca_rank_deficient_completion():
    # five collinear points have rank-1 covariance; the second axis is a
    # deterministic orthonormal filler with zero variance
    direction = np.array([3.0, 4.0, 0.0]) / 5.0
    corpus = np.stack([t * direction for t in [0.0, 1.0, 2.0, 3.0, 4.0]])
    basis = pca_fit(corpus, 2)
    assert np.allclose(np.abs(basis.components[0]), np.abs(direction), atol=1e-12)
    assert abs(float(basis.components[0] @ basis.components[1])) < 1e-10
    assert math.isclose(float(np.linalg.norm(basis.components[1])), 1.0, abs_tol=1e-12)
    assert basis.explained_variance[1] == pytest.approx(0.0, abs=1e-10)


def test_pca_gram_route_completes_with_standard_basis_axes():
    # three points span a plane; n_components = n needs a third axis, taken
    # from the standard basis (e3, as e1 and e2 lie in the plane), with zero
    # variance
    corpus = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    basis = pca_fit(corpus, 3)
    assert np.allclose(basis.components @ basis.components.T, np.eye(3), atol=1e-12)
    assert np.array_equal(basis.components[2], [0.0, 0.0, 1.0, 0.0])
    assert basis.explained_variance[2] == 0.0
    assert basis.explained_variance[0] > basis.explained_variance[1] > 0.0


def test_pca_tall_corpus_stays_small():
    # n > d takes the d x d covariance: one centered copy of the corpus plus
    # d x d matrices, where an n x n Gram matrix alone would take 30.5 MiB
    corpus = np.random.default_rng(23).normal(size=(2000, 600))
    tracemalloc.start()
    try:
        basis = pca_fit(corpus, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.components.shape == (2, 600)
    assert peak < 2 * corpus.nbytes


def test_pca_project_requires_matching_dim():
    corpus = np.random.default_rng(5).normal(size=(10, 4))
    basis = pca_fit(corpus, 2)
    with pytest.raises(Exception):
        pca_project(basis, np.ones(5))


def test_pca_basis_properties():
    corpus = np.random.default_rng(9).normal(size=(8, 5))
    basis = pca_fit(corpus, 2)
    assert isinstance(basis, PcaBasis)
    assert basis.n_components == 2
    assert basis.dim == 5
