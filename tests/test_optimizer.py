import logging
import math

import numpy as np
import pytest

from deo.errors import DimensionMismatchError, NotStronglyConvexError
from deo.optimizer import (
    PRESETS,
    DecompositionEmbeddings,
    OptimizationConfig,
    closed_form_optimum,
    convexity_margin,
    deo_gradient,
    deo_loss,
    optimize_query_embedding,
)


def make_inputs(rng, d, k, m, normalize=True):
    def vec():
        v = rng.normal(size=d)
        return v / np.linalg.norm(v) if normalize else v

    return DecompositionEmbeddings.from_vectors(
        vec(), [vec() for _ in range(k)], [vec() for _ in range(m)]
    )


def finite_difference_gradient(e, inputs, cfg, h=1e-5):
    grad = np.zeros_like(e)
    for i in range(e.shape[0]):
        up = e.copy()
        up[i] += h
        down = e.copy()
        down[i] -= h
        grad[i] = (deo_loss(up, inputs, cfg) - deo_loss(down, inputs, cfg)) / (2 * h)
    return grad


def test_config_defaults_match_presets():
    cfg = OptimizationConfig()
    assert (cfg.lambda_p, cfg.lambda_n, cfg.lambda_o) == (1.0, 1.0, 0.2)
    assert cfg.steps == 20
    assert cfg.learning_rate == 0.05
    assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.999, 1e-8)
    assert cfg.normalize_inputs is True
    assert OptimizationConfig(**PRESETS["text"]) == cfg
    assert PRESETS["text"]["lambda_o"] == 0.2
    assert PRESETS["multimodal"]["lambda_o"] == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(lambda_p=-0.1)
    with pytest.raises(ValueError):
        OptimizationConfig(steps=-1)
    with pytest.raises(ValueError):
        OptimizationConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizationConfig(beta1=1.0)
    with pytest.raises(ValueError):
        OptimizationConfig(epsilon=-1e-9)
    OptimizationConfig(steps=0)  # the no-op endpoint is legal


def test_inputs_shape_checks():
    with pytest.raises(DimensionMismatchError):
        DecompositionEmbeddings.from_vectors([1.0, 0.0], [[1.0, 0.0, 0.0]])
    inputs = DecompositionEmbeddings.from_vectors([1.0, 0.0], [], [])
    assert inputs.num_positives == 0 and inputs.num_negatives == 0
    assert inputs.positives.shape == (0, 2)


def test_loss_hand_value():
    # e=(1,0): ||e-p||^2 = 2, ||e-n||^2 = 4, anchor term 0
    inputs = DecompositionEmbeddings.from_vectors(
        [1.0, 0.0], [[0.0, 1.0]], [[-1.0, 0.0]]
    )
    cfg = OptimizationConfig()
    assert math.isclose(deo_loss([1.0, 0.0], inputs, cfg), 2.0 - 4.0, abs_tol=1e-15)


def test_loss_drops_empty_terms():
    inputs = DecompositionEmbeddings.from_vectors([1.0, 0.0])
    cfg = OptimizationConfig()
    # only the anchor remains
    assert math.isclose(deo_loss([0.0, 1.0], inputs, cfg), 0.2 * 2.0, abs_tol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    cfg_pool = [
        OptimizationConfig(lambda_o=o, lambda_p=p, lambda_n=n)
        for o, p, n in [(0.2, 1, 1), (1, 1, 2), (0.5, 2, 1)]
    ]
    worst = 0.0
    for _ in range(40):
        d = int(rng.choice([3, 8, 32]))
        inputs = make_inputs(rng, d, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        cfg = cfg_pool[int(rng.integers(len(cfg_pool)))]
        e = rng.normal(size=d)
        analytic = deo_gradient(e, inputs, cfg)
        numeric = finite_difference_gradient(e, inputs, cfg)
        denom = max(float(np.linalg.norm(numeric)), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - numeric)) / denom)
    assert worst < 1e-6


def test_gradient_dimension_check():
    inputs = DecompositionEmbeddings.from_vectors([1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        deo_gradient([1.0, 0.0, 0.0], inputs, OptimizationConfig())


def test_closed_form_optimum_formula_and_stationarity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = int(rng.choice([2, 5, 16]))
        k = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        inputs = make_inputs(rng, d, k, m)
        cfg = OptimizationConfig(
            lambda_p=float(rng.uniform(0.1, 2.0)),
            lambda_n=float(rng.uniform(0.0, 0.9)),
            lambda_o=float(rng.uniform(0.2, 1.5)),
        )
        if convexity_margin(inputs, cfg) <= 0:
            continue
        opt = closed_form_optimum(inputs, cfg)
        # independent recomputation of the stationary point
        c = cfg.lambda_o
        num = cfg.lambda_o * inputs.original
        if k:
            c += cfg.lambda_p
            num = num + cfg.lambda_p * inputs.positives.mean(axis=0)
        if m:
            c -= cfg.lambda_n
            num = num - cfg.lambda_n * inputs.negatives.mean(axis=0)
        assert np.allclose(opt, num / c, atol=1e-12)
        assert float(np.linalg.norm(deo_gradient(opt, inputs, cfg))) < 1e-9


def test_closed_form_requires_strong_convexity():
    rng = np.random.default_rng(8)
    inputs = make_inputs(rng, 4, 2, 2)
    # c = 1 - 2 + 0.2 < 0
    with pytest.raises(NotStronglyConvexError):
        closed_form_optimum(inputs, OptimizationConfig(lambda_n=2.0, lambda_o=0.2))


def test_optimize_trace_shape_and_first_snapshot():
    rng = np.random.default_rng(5)
    inputs = make_inputs(rng, 6, 2, 2)
    cfg = OptimizationConfig(steps=7)
    final, trace = optimize_query_embedding(inputs, cfg)
    assert trace.snapshots.shape == (8, 6)
    assert trace.losses.shape == (8,)
    assert trace.steps == 7
    # snapshot 0 is the normalized original, stored exactly
    expected0 = inputs.original / np.linalg.norm(inputs.original)
    assert np.array_equal(trace.snapshots[0], expected0)
    assert np.array_equal(trace.final, final)


def test_optimize_zero_steps_returns_init():
    rng = np.random.default_rng(6)
    inputs = make_inputs(rng, 5, 3, 1)
    final, trace = optimize_query_embedding(inputs, OptimizationConfig(steps=0))
    assert trace.snapshots.shape[0] == 1
    assert np.array_equal(final, trace.initial)


def test_optimize_no_subqueries_is_identity():
    # with K = M = 0 the gradient is zero at the start and stays zero
    rng = np.random.default_rng(9)
    inputs = make_inputs(rng, 8, 0, 0)
    final, trace = optimize_query_embedding(inputs, OptimizationConfig(steps=20))
    for snap in trace.snapshots:
        assert np.array_equal(snap, trace.initial)
    assert np.array_equal(final, trace.initial)


def test_optimize_deterministic():
    rng = np.random.default_rng(10)
    inputs = make_inputs(rng, 12, 3, 2)
    cfg = OptimizationConfig()
    final_a, trace_a = optimize_query_embedding(inputs, cfg)
    final_b, trace_b = optimize_query_embedding(inputs, cfg)
    assert np.array_equal(final_a, final_b)
    assert np.array_equal(trace_a.snapshots, trace_b.snapshots)
    assert np.array_equal(trace_a.losses, trace_b.losses)


def test_optimize_converges_to_closed_form():
    rng = np.random.default_rng(11)
    inputs = make_inputs(rng, 6, 3, 2, normalize=False)
    cfg = OptimizationConfig(steps=500, normalize_inputs=False)
    final, _ = optimize_query_embedding(inputs, cfg)
    opt = closed_form_optimum(inputs, cfg)
    d0 = float(np.linalg.norm(inputs.original - opt))
    d1 = float(np.linalg.norm(final - opt))
    assert d1 < 0.05 * d0


def test_optimize_reduces_loss_when_convex():
    rng = np.random.default_rng(12)
    inputs = make_inputs(rng, 10, 4, 2)
    _, trace = optimize_query_embedding(inputs, OptimizationConfig())
    assert trace.losses[-1] < trace.losses[0]


def test_optimize_skips_normalization_when_disabled():
    inputs = DecompositionEmbeddings.from_vectors([3.0, 0.0], [[0.0, 2.0]])
    cfg = OptimizationConfig(steps=0, normalize_inputs=False)
    final, _ = optimize_query_embedding(inputs, cfg)
    assert np.array_equal(final, np.array([3.0, 0.0]))


def test_optimize_warns_on_non_convex_weights(caplog):
    rng = np.random.default_rng(13)
    inputs = make_inputs(rng, 4, 1, 1)
    cfg = OptimizationConfig(lambda_n=5.0, steps=2)
    with caplog.at_level(logging.WARNING, logger="deo.optimizer"):
        optimize_query_embedding(inputs, cfg)
    assert any("not strongly convex" in rec.message for rec in caplog.records)


def test_epsilon_zero_never_nan():
    rng = np.random.default_rng(14)
    inputs = make_inputs(rng, 6, 0, 0)
    cfg = OptimizationConfig(epsilon=0.0, steps=10)
    final, trace = optimize_query_embedding(inputs, cfg)
    assert np.all(np.isfinite(trace.snapshots))
    assert np.array_equal(final, trace.initial)
