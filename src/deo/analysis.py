"""Trajectory analysis: project an optimization run into 2-D and export it.

Everything here is a pure function of its inputs, so exports and rendered
SVGs are byte-reproducible. The corpus cloud is thinned by a deterministic
stride so plots stay readable at any corpus size.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, MissingGoldError
from .index import FlatIndex
from .ioutil import atomic_write_text
from .optimizer import OptimizationTrace
from .vecmath import PcaBasis, pca_project

CORPUS_PLOT_CAP = 500
SVG_WIDTH = 640
SVG_HEIGHT = 480


@dataclass(frozen=True)
class TrajectoryExport:
    """2-D projection of one optimization run plus rank movement."""

    steps_xy: np.ndarray
    losses: np.ndarray
    positives_xy: np.ndarray
    negatives_xy: np.ndarray
    gold_points: tuple[tuple[str, float, float], ...]
    corpus_points: tuple[tuple[str, float, float], ...]
    baseline_rank: int
    final_rank: int

    @property
    def num_snapshots(self) -> int:
        return self.steps_xy.shape[0]


def _best_gold_rank(index: FlatIndex, query: np.ndarray, gold_ids) -> int:
    # full depth, so every gold doc export_trajectory found in the index is ranked
    ranking = index.search(query, k=len(index))
    return min(map(ranking.rank_of, gold_ids))


def export_trajectory(
    trace: OptimizationTrace,
    index: FlatIndex,
    judgments: dict[str, int],
    basis: PcaBasis,
) -> TrajectoryExport:
    """Project snapshots, sub-queries (the trace's inputs), gold docs, and a
    corpus sample.

    judgments is one query's qrels row; docs with relevance > 0 are gold.
    The corpus sample takes every ceil(n / 500)-th document in ascending id
    order. Gold ranks come from full-depth searches with the first and last
    snapshots.
    """
    inputs = trace.inputs
    if basis.dim != index.dim or inputs.dim != index.dim:
        raise DimensionMismatchError(
            f"dimensions disagree: basis {basis.dim}, index {index.dim}, inputs {inputs.dim}"
        )
    gold_ids = sorted(doc_id for doc_id, rel in judgments.items() if rel > 0)
    if not gold_ids:
        raise MissingGoldError("query has no relevant documents in qrels")
    for gold in gold_ids:
        if gold not in index:
            raise MissingGoldError(f"gold doc {gold!r} is not in the index")

    def project(rows) -> np.ndarray:
        return np.array([pca_project(basis, row) for row in rows]).reshape(len(rows), 2)

    gold_points = tuple(
        (gold, *(float(c) for c in pca_project(basis, index.vector(gold))))
        for gold in gold_ids
    )
    all_ids = sorted(index.doc_ids)
    stride = math.ceil(len(all_ids) / CORPUS_PLOT_CAP)
    corpus_points = tuple(
        (doc_id, *(float(c) for c in pca_project(basis, index.vector(doc_id))))
        for doc_id in all_ids[::stride]
    )
    return TrajectoryExport(
        steps_xy=project(trace.snapshots),
        losses=np.asarray(trace.losses, dtype=np.float64),
        positives_xy=project(inputs.positives),
        negatives_xy=project(inputs.negatives),
        gold_points=gold_points,
        corpus_points=corpus_points,
        baseline_rank=_best_gold_rank(index, trace.initial, gold_ids),
        final_rank=_best_gold_rank(index, trace.final, gold_ids),
    )


def trajectory_csv(export: TrajectoryExport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "x", "y", "loss"])
    for step, (x, y) in enumerate(export.steps_xy):
        writer.writerow([step, repr(float(x)), repr(float(y)), repr(float(export.losses[step]))])
    return buf.getvalue()


def trajectory_json(export: TrajectoryExport) -> str:
    obj = {
        "trajectory": [
            {
                "step": step,
                "x": float(export.steps_xy[step, 0]),
                "y": float(export.steps_xy[step, 1]),
                "loss": float(export.losses[step]),
            }
            for step in range(export.num_snapshots)
        ],
        "positives": [[float(x), float(y)] for x, y in export.positives_xy],
        "negatives": [[float(x), float(y)] for x, y in export.negatives_xy],
        "gold": [
            {"id": doc_id, "x": x, "y": y} for doc_id, x, y in export.gold_points
        ],
        "corpus": [
            {"id": doc_id, "x": x, "y": y} for doc_id, x, y in export.corpus_points
        ],
        "baseline_rank": export.baseline_rank,
        "final_rank": export.final_rank,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_svg(export: TrajectoryExport) -> str:
    """Hand-rolled SVG_WIDTH x SVG_HEIGHT scatter plot of the export;
    byte-deterministic.

    Corpus docs are gray dots, the trajectory is a connected blue path,
    positives are green triangles, negatives are red crosses, gold docs are
    gold stars.
    """
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 48.0
    points = [*export.steps_xy, *export.positives_xy, *export.negatives_xy,
              *((x, y) for _, x, y in (*export.gold_points, *export.corpus_points))]
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = max(x_max - x_min, 1e-9)
    y_span = max(y_max - y_min, 1e-9)

    def px(x: float) -> float:
        return margin + (x - x_min) / x_span * (width - 2 * margin)

    def py(y: float) -> float:
        # SVG y grows downward
        return height - margin - (y - y_min) / y_span * (height - 2 * margin)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    for _doc_id, x, y in export.corpus_points:
        parts.append(
            f'<circle class="corpus-point" cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" '
            f'r="2" fill="#c8c8c8"/>'
        )

    if export.num_snapshots > 1:
        coords = " ".join(
            f"{_fmt(px(float(x)))},{_fmt(py(float(y)))}" for x, y in export.steps_xy
        )
        parts.append(
            f'<polyline class="traj-path" points="{coords}" fill="none" '
            f'stroke="#1f6fb4" stroke-width="1.5"/>'
        )
    for x, y in export.steps_xy:
        parts.append(
            f'<circle class="traj-point" cx="{_fmt(px(float(x)))}" '
            f'cy="{_fmt(py(float(y)))}" r="3.5" fill="#1f6fb4"/>'
        )

    for x, y in export.positives_xy:
        cx, cy = px(float(x)), py(float(y))
        parts.append(
            f'<path class="pos-point" d="M {_fmt(cx)} {_fmt(cy - 5)} '
            f'L {_fmt(cx - 4.5)} {_fmt(cy + 4)} L {_fmt(cx + 4.5)} {_fmt(cy + 4)} Z" '
            f'fill="#2a8f3c"/>'
        )
    for x, y in export.negatives_xy:
        cx, cy = px(float(x)), py(float(y))
        parts.append(
            f'<path class="neg-point" d="M {_fmt(cx - 4)} {_fmt(cy - 4)} '
            f'L {_fmt(cx + 4)} {_fmt(cy + 4)} M {_fmt(cx - 4)} {_fmt(cy + 4)} '
            f'L {_fmt(cx + 4)} {_fmt(cy - 4)}" stroke="#c23b3b" stroke-width="2" '
            f'fill="none"/>'
        )
    for _doc_id, x, y in export.gold_points:
        cx, cy = px(x), py(y)
        points = []
        for i in range(10):
            radius = 7.0 if i % 2 == 0 else 3.0
            angle = -math.pi / 2 + i * math.pi / 5
            points.append(
                f"{_fmt(cx + radius * math.cos(angle))},{_fmt(cy + radius * math.sin(angle))}"
            )
        parts.append(
            f'<polygon class="gold-point" points="{" ".join(points)}" fill="#d4a017"/>'
        )

    parts.append(
        f'<text x="{_fmt(margin)}" y="{_fmt(height - 12)}" font-family="sans-serif" '
        f'font-size="12">gold rank {export.baseline_rank} &#8594; {export.final_rank}'
        f"</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_trajectory(export: TrajectoryExport, prefix: str) -> None:
    """Write the export as prefix + .csv, .json and .svg, each atomically."""
    atomic_write_text(prefix + ".csv", trajectory_csv(export))
    atomic_write_text(prefix + ".json", trajectory_json(export))
    atomic_write_text(prefix + ".svg", render_svg(export))
