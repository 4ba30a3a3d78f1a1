import logging
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deo import optimizer

from deo.errors import DimensionMismatchError, NotStronglyConvexError
from deo.optimizer import (
    PRESETS,
    DecompositionEmbeddings,
    OptimizationConfig,
    closed_form_optimum,
    convexity_margin,
    deo_gradient,
    deo_loss,
    optimize_many,
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
        if convexity_margin(k, m, cfg) <= 0:
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


def reference_optimize(inputs, cfg):
    """The one-query Adam loop, step by step through deo_gradient: the
    reference optimize_many must reproduce bit for bit. Returns the snapshots
    and the loss at each one."""
    work = inputs.normalized() if cfg.normalize_inputs else inputs
    e = work.original.copy()
    snapshots = [e.copy()]
    m = np.zeros_like(e)
    v = np.zeros_like(e)
    for t in range(1, cfg.steps + 1):
        g = deo_gradient(e, work, cfg)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        denom = np.sqrt(v_hat) + cfg.epsilon
        update = np.divide(cfg.learning_rate * m_hat, denom,
                           out=np.zeros_like(e), where=denom > 0.0)
        e = e - update
        snapshots.append(e.copy())
    stacked = np.stack(snapshots)
    return stacked, np.array([deo_loss(s, work, cfg) for s in stacked])


@contextmanager
def optimizer_warnings():
    """Collect the messages deo.optimizer logs at WARNING, in order."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    log = logging.getLogger("deo.optimizer")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.WARNING)
    try:
        yield messages
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def optimizer_batches(draw):
    """A batch of 1, 2 or 65 queries with ragged K and M in 0..4 (K = M = 0
    included), and settings that reach the non-convex case, zero weights,
    zero steps, epsilon 0 and unnormalized inputs."""
    q = draw(st.sampled_from([1, 2, 65]))
    d = draw(st.sampled_from([1, 3, 16]))
    shapes = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=q, max_size=q))
    seed = draw(st.integers(0, 2**32 - 1))
    cfg = OptimizationConfig(
        lambda_p=draw(st.sampled_from([1.0, 0.0, 0.5])),
        lambda_n=draw(st.sampled_from([1.0, 0.0, 3.0])),
        lambda_o=draw(st.sampled_from([0.2, 0.0, 1.0])),
        steps=draw(st.sampled_from([20, 0, 1])),
        epsilon=draw(st.sampled_from([1e-8, 0.0])),
        normalize_inputs=draw(st.booleans()),
    )
    rng = np.random.default_rng(seed)
    batch = [make_inputs(rng, d, k, m, normalize=False) for k, m in shapes]
    return batch, cfg


def stacked(batch):
    """A batch of DecompositionEmbeddings as optimize_many takes it: every
    query's rows one after another, and each query's (K, M)."""
    return (np.concatenate([x.rows for x in batch]),
            [(x.num_positives, x.num_negatives) for x in batch])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(optimizer_batches())
@example(([DecompositionEmbeddings.from_vectors([1.0, -2.0]),
           DecompositionEmbeddings.from_vectors([0.5, 1.0], [[1.0, 0.0]], [[0.0, 1.0]])],
          OptimizationConfig(lambda_n=3.0, lambda_o=0.0, epsilon=0.0)))
@example(([DecompositionEmbeddings.from_vectors([-0.0, 1.0], [[-0.0, 2.0], [-0.0, 3.0]]),
           DecompositionEmbeddings.from_vectors([-0.0, -1.0], [], [[-0.0, 1.0]])],
          OptimizationConfig(steps=3)))
def test_optimize_many_equals_single_runs(case):
    batch, cfg = case
    with optimizer_warnings() as batch_warnings:
        many = optimize_many(*stacked(batch), cfg)
    with optimizer_warnings() as single_warnings:
        singles = [optimize_query_embedding(x, cfg) for x in batch]
    assert many.shape == (len(batch), cfg.steps + 1, batch[0].dim)
    expected_warnings = []
    for inputs, snapshots_q, (final_1, trace_1) in zip(batch, many, singles):
        snapshots, losses = reference_optimize(inputs, cfg)
        assert same_bits(snapshots_q, snapshots)
        assert same_bits(trace_1.snapshots, snapshots)
        assert same_bits(final_1, snapshots[-1])
        assert same_bits(trace_1.losses, losses)
        c = convexity_margin(inputs.num_positives, inputs.num_negatives, cfg)
        if c <= 0 and (inputs.num_positives or inputs.num_negatives):
            expected_warnings.append(f"objective is not strongly convex (c={c:g}); "
                                     f"running {cfg.steps} finite steps anyway")
    # one warning per non-convex query, in input order
    assert batch_warnings == single_warnings == expected_warnings


def test_optimize_many_computes_losses_only_when_read(monkeypatch):
    # optimize_many returns snapshots only; a trace evaluates its losses on
    # first read, once
    calls = []
    real_loss = optimizer.deo_loss
    monkeypatch.setattr(optimizer, "deo_loss", lambda *a: calls.append(1) or real_loss(*a))
    rng = np.random.default_rng(15)
    batch = [make_inputs(rng, 5, 2, 1) for _ in range(3)]
    optimize_many(*stacked(batch), OptimizationConfig(steps=4))
    _, trace = optimize_query_embedding(batch[1], OptimizationConfig(steps=4))
    assert calls == []
    assert trace.losses.shape == (5,)
    assert len(calls) == 5
    assert trace.losses is trace.losses and len(calls) == 5


def test_optimize_many_edge_batches():
    assert optimize_many(np.empty((0, 3)), [], OptimizationConfig(steps=2)).shape == (0, 3, 3)
    rng = np.random.default_rng(16)
    rows, counts = stacked([make_inputs(rng, 3, 1, 1), make_inputs(rng, 3, 2, 0)])
    for bad_rows, bad_counts in ((rows[:-1], counts), (rows, counts[:1]), (rows[0], counts[:0])):
        with pytest.raises(DimensionMismatchError):
            optimize_many(bad_rows, bad_counts, OptimizationConfig())
