import json
import math

import numpy as np
import pytest

from deo.analysis import (
    TrajectoryExport,
    export_trajectory,
    render_svg,
    trajectory_csv,
    trajectory_json,
    write_trajectory,
)
from deo.errors import DimensionMismatchError, MissingGoldError
from deo.index import FlatIndex
from deo.metrics import ndcg_at_k
from deo.optimizer import (
    DecompositionEmbeddings,
    OptimizationConfig,
    optimize_query_embedding,
)
from deo.vecmath import pca_fit


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def small_world(seed=7, n_docs=30, dim=6):
    rng = np.random.default_rng(seed)
    docs = [(f"d{i:03d}", unit(rng.normal(size=dim))) for i in range(n_docs)]
    index = FlatIndex.build(docs)
    basis = pca_fit(index.unit_vectors(), 2)
    original = unit(rng.normal(size=dim))
    positives = [unit(rng.normal(size=dim))]
    negatives = [unit(rng.normal(size=dim))]
    inputs = DecompositionEmbeddings.from_vectors(original, positives, negatives)
    return index, basis, inputs, docs


def run_export(steps=10, judgments=None, **world_kwargs):
    index, basis, inputs, docs = small_world(**world_kwargs)
    if judgments is None:
        judgments = {docs[0][0]: 1, docs[1][0]: 2, docs[2][0]: 0}
    cfg = OptimizationConfig(steps=steps)
    _, trace = optimize_query_embedding(inputs, cfg)
    export = export_trajectory(trace, index, judgments, basis)
    return export, index, docs


def test_export_shapes_and_ranks():
    export, index, docs = run_export(steps=10)
    assert export.num_snapshots == 11
    assert export.steps_xy.shape == (11, 2)
    assert export.losses.shape == (11,)
    assert export.positives_xy.shape == (1, 2)
    assert export.negatives_xy.shape == (1, 2)
    # corpus under the 500-point cap keeps every doc, ascending id order
    assert len(export.corpus_points) == len(docs)
    assert [p[0] for p in export.corpus_points] == sorted(d for d, _ in docs)
    # only relevance > 0 docs are gold, sorted by id
    assert [g[0] for g in export.gold_points] == ["d000", "d001"]
    assert 1 <= export.baseline_rank <= len(index)
    assert 1 <= export.final_rank <= len(index)


def test_zero_step_trace_single_point():
    export, _, _ = run_export(steps=0)
    assert export.num_snapshots == 1
    assert export.baseline_rank == export.final_rank


def test_corpus_subsample_stride():
    rng = np.random.default_rng(3)
    docs = [(f"d{i:04d}", unit(rng.normal(size=4))) for i in range(1200)]
    index = FlatIndex.build(docs)
    basis = pca_fit(index.unit_vectors(), 2)
    inputs = DecompositionEmbeddings.from_vectors(unit(rng.normal(size=4)), [], [])
    _, trace = optimize_query_embedding(inputs, OptimizationConfig(steps=0))
    export = export_trajectory(trace, index, {"d0000": 1}, basis)
    # ceil(1200 / 500) = 3, so every third id survives
    assert len(export.corpus_points) == 400
    ids = [p[0] for p in export.corpus_points]
    assert ids[:3] == ["d0000", "d0003", "d0006"]


def test_projection_matches_basis():
    export, index, _ = run_export(steps=0)
    basis = pca_fit(index.unit_vectors(), 2)
    doc_id, x, y = export.corpus_points[0]
    expected = basis.components @ (index.unit_vectors()[index.doc_ids.index(doc_id)] - basis.mean)
    # corpus points are projected from the same unit vectors the index searches
    assert abs(x - expected[0]) < 1e-12
    assert abs(y - expected[1]) < 1e-12


def test_rank_improvement_on_negation_instance():
    # original query sits between the wanted and unwanted directions; five
    # distractors hug the query, the gold doc sits on the wanted direction
    dim = 8
    p_hat = np.zeros(dim)
    p_hat[0] = 1.0
    n_hat = np.zeros(dim)
    n_hat[1] = 1.0
    original = unit(0.55 * p_hat + 0.835 * n_hat)

    docs = [("gold", p_hat)]
    rng = np.random.default_rng(11)
    for i in range(5):
        jitter = rng.normal(size=dim) * 0.01
        docs.append((f"near{i}", unit(original + jitter)))
    index = FlatIndex.build(docs)

    inputs = DecompositionEmbeddings.from_vectors(original, [p_hat], [n_hat])
    cfg = OptimizationConfig(lambda_p=1.0, lambda_n=1.0, lambda_o=0.2, steps=20)
    _, trace = optimize_query_embedding(inputs, cfg)
    basis = pca_fit(index.unit_vectors(), 2)
    export = export_trajectory(trace, index, {"gold": 1}, basis)

    assert export.baseline_rank == 6
    assert export.final_rank == 1
    before = ndcg_at_k(index.search(trace.initial, k=10), {"gold": 1}, 10)
    after = ndcg_at_k(index.search(trace.final, k=10), {"gold": 1}, 10)
    assert abs(before - 1.0 / math.log2(7.0)) < 1e-9
    assert after == 1.0


def test_error_cases():
    index, basis, inputs, docs = small_world()
    _, trace = optimize_query_embedding(inputs, OptimizationConfig(steps=1))
    with pytest.raises(MissingGoldError, match="no relevant"):
        export_trajectory(trace, index, {docs[0][0]: 0}, basis)
    with pytest.raises(MissingGoldError, match="ghost"):
        export_trajectory(trace, index, {"ghost": 1}, basis)
    wrong_basis = pca_fit(np.random.default_rng(0).normal(size=(10, 4)), 2)
    with pytest.raises(DimensionMismatchError):
        export_trajectory(trace, index, {docs[0][0]: 1}, wrong_basis)


# -- serialization ----------------------------------------------------------


def test_csv_layout():
    export, _, _ = run_export(steps=3)
    lines = trajectory_csv(export).splitlines()
    assert lines[0] == "step,x,y,loss"
    assert len(lines) == 1 + 4
    step, x, y, loss = lines[1].split(",")
    assert step == "0"
    assert float(x) == float(export.steps_xy[0, 0])
    assert float(loss) == float(export.losses[0])


def test_json_layout():
    export, _, _ = run_export(steps=2)
    obj = json.loads(trajectory_json(export))
    assert set(obj) == {
        "trajectory", "positives", "negatives", "gold", "corpus",
        "baseline_rank", "final_rank",
    }
    assert len(obj["trajectory"]) == 3
    assert obj["trajectory"][0]["step"] == 0
    assert len(obj["gold"]) == 2
    assert obj["baseline_rank"] == export.baseline_rank


def test_json_csv_roundtrip_consistency():
    export, _, _ = run_export(steps=4)
    obj = json.loads(trajectory_json(export))
    lines = trajectory_csv(export).splitlines()[1:]
    for row, entry in zip(lines, obj["trajectory"]):
        _, x, y, loss = row.split(",")
        assert float(x) == entry["x"]
        assert float(y) == entry["y"]
        assert float(loss) == entry["loss"]


# -- svg ---------------------------------------------------------------------


def test_svg_marker_counts_and_determinism(tmp_path):
    export, _, docs = run_export(steps=5)
    svg = render_svg(export)
    assert svg == render_svg(export)
    assert svg.count('class="corpus-point"') == len(docs)
    assert svg.count('class="traj-point"') == 6
    assert svg.count('class="traj-path"') == 1
    assert svg.count('class="pos-point"') == 1
    assert svg.count('class="neg-point"') == 1
    assert svg.count('class="gold-point"') == 2
    assert f"gold rank {export.baseline_rank} &#8594; {export.final_rank}" in svg
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")

    write_trajectory(export, str(tmp_path / "plot"))
    assert (tmp_path / "plot.svg").read_text() == svg


def test_svg_single_snapshot_has_no_path():
    export, _, _ = run_export(steps=0)
    svg = render_svg(export)
    assert svg.count('class="traj-path"') == 0
    assert svg.count('class="traj-point"') == 1
