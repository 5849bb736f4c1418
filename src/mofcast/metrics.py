"""Forecast evaluation: displacement and overlap metrics with per-step curves.

ADE/FDE are centroid displacement errors (mean over all predicted steps /
final step only); AIOU/FIOU are the analogous intersection-over-union
aggregates. Averages weight every (window, step) pair equally, which makes
the scalar metrics exactly the means of the per-step curves. All values are
raw pixels at native resolution; nothing is normalized.

Scoring works on arrays from end to end: :func:`box_errors` computes both
per-step errors of an (N, q, 4) batch, :func:`evaluate_batch` fills one
:class:`WindowScores` of (N, q) arrays with them a chunk of windows at a
time, and :func:`aggregate` and :func:`breakdown` reduce those arrays over
their window axis. Scores carry no window identity: row i is window i of
the scored batch, and :func:`breakdown` groups rows by integer codes, which
:meth:`~mofcast.data.WindowBatch.groups` derives from the batch's tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .core import BBox, Forecast, boxes_to_array
from .data.io import write_csv

if TYPE_CHECKING:
    from .data.windows import WindowBatch

SCORE_CHUNK = 2048  # windows per box_errors call in evaluate_batch


@dataclass(frozen=True)
class WindowScores:
    """(N, q) per-step errors of N forecasts: row i is window i of the scored batch, column k frame anchor+k+1."""

    displacements: np.ndarray
    ious: np.ndarray

    def __len__(self) -> int:
        return len(self.displacements)


@dataclass(frozen=True)
class MetricReport:
    ade: float
    fde: float
    aiou: float
    fiou: float
    displacement_curve: np.ndarray
    iou_curve: np.ndarray
    n_windows: int
    group_key: str | None = None


def centroid_displacements(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Centroid distances of (..., 4) boxes or (..., 2) centroids, element for element."""
    return np.hypot(pred[..., 0] - gt[..., 0], pred[..., 1] - gt[..., 1])


def centroid_ade(pred: np.ndarray, gt: np.ndarray) -> float:
    """ADE of (N, q, ·) forecasts as :func:`aggregate` computes it: the mean of the per-step mean displacements."""
    return float(centroid_displacements(pred, gt).mean(axis=0).mean())


def _check_boxes(pred: np.ndarray, gt: np.ndarray) -> None:
    if pred.shape != gt.shape or pred.shape[-1] != 4:
        raise ValueError(f"box arrays disagree: {pred.shape} predicted vs {gt.shape} ground truth")


def box_errors(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid distances and IOUs of two equally shaped (..., 4) box arrays.

    IOU goes through corner form: no overlap when the intersection width or
    height is <= 0, and each area comes from the same corners as the
    intersection, so identical boxes score exactly 1.0 and no IOU exceeds 1
    under rounding.
    """
    _check_boxes(pred, gt)
    pcx, pcy, pw, ph = np.moveaxis(pred, -1, 0)
    gcx, gcy, gw, gh = np.moveaxis(gt, -1, 0)
    px0, px1, py0, py1 = pcx - pw / 2.0, pcx + pw / 2.0, pcy - ph / 2.0, pcy + ph / 2.0
    gx0, gx1, gy0, gy1 = gcx - gw / 2.0, gcx + gw / 2.0, gcy - gh / 2.0, gcy + gh / 2.0
    iw = np.minimum(px1, gx1) - np.maximum(px0, gx0)
    ih = np.minimum(py1, gy1) - np.maximum(py0, gy0)
    inter = iw * ih
    union = (px1 - px0) * (py1 - py0) + (gx1 - gx0) * (gy1 - gy0) - inter
    ious = np.divide(inter, union, out=np.zeros_like(inter), where=(iw > 0.0) & (ih > 0.0))
    return centroid_displacements(pred, gt), ious


def evaluate_batch(pred: np.ndarray, batch: "WindowBatch") -> WindowScores:
    """Score (N, q, 4) predictions against a batch's future boxes.

    :func:`box_errors` runs on ``SCORE_CHUNK`` windows at a time and writes
    into the two preallocated (N, q) score arrays, so its temporaries stay
    chunk-sized; it is elementwise, so the scores are the bits of one whole call.
    """
    pred, gt = np.asarray(pred, dtype=np.float64), batch.future
    _check_boxes(pred, gt)
    disp, ious = np.empty(pred.shape[:-1]), np.empty(pred.shape[:-1])
    for lo in range(0, len(pred), SCORE_CHUNK):
        sl = slice(lo, lo + SCORE_CHUNK)
        disp[sl], ious[sl] = box_errors(pred[sl], gt[sl])
    return WindowScores(displacements=disp, ious=ious)


def evaluate_window(pred: Forecast, gt: Sequence[BBox]) -> WindowScores:
    """One forecast scored against its truth, as a one-row :class:`WindowScores`."""
    if len(pred.boxes) != len(gt):
        raise ValueError(f"length mismatch: {len(pred.boxes)} predicted vs {len(gt)} ground-truth boxes")
    disp, ious = box_errors(boxes_to_array(pred.boxes)[None], boxes_to_array(gt)[None])
    return WindowScores(displacements=disp, ious=ious)


def _report(displacements: np.ndarray, ious: np.ndarray, group_key: str | None) -> MetricReport:
    disp_curve = displacements.mean(axis=0)
    iou_curve = ious.mean(axis=0)
    return MetricReport(
        ade=float(disp_curve.mean()),
        fde=float(disp_curve[-1]),
        aiou=float(iou_curve.mean()),
        fiou=float(iou_curve[-1]),
        displacement_curve=disp_curve,
        iou_curve=iou_curve,
        n_windows=len(displacements),
        group_key=group_key,
    )


def aggregate(scores: WindowScores) -> MetricReport:
    """Combine window scores into one report.

    Curves are the per-step means over windows; ADE/AIOU are the means of
    those curves (equivalently, the mean over all window-step pairs), and
    FDE/FIOU are the curves at the final step.
    """
    if not len(scores):
        raise ValueError("cannot aggregate an empty set of window scores")
    return _report(scores.displacements, scores.ious, None)


def breakdown(scores: WindowScores, codes: np.ndarray, labels: Sequence[str]) -> list[MetricReport]:
    """One report per group, best AIOU first, ties in label order: row i is in group ``labels[codes[i]]``, and
    every label needs a row. :meth:`~mofcast.data.WindowBatch.groups` gives a batch's codes and labels."""
    masks = codes == np.arange(len(labels))[:, None]
    reports = (_report(scores.displacements[m], scores.ious[m], key) for m, key in zip(masks, labels))
    return sorted(reports, key=lambda r: -r.aiou)  # stable: equal AIOUs keep the label order


def write_summary_csv(reports: Iterable[MetricReport], path: str | Path, model_id: str = "") -> None:
    """One row per report: model, group, window count, and the four metrics."""
    write_csv(path, ["model", "group", "n_windows", "ade", "fde", "aiou", "fiou"],
              ([model_id, r.group_key or "", r.n_windows] + [f"{v:.6f}" for v in (r.ade, r.fde, r.aiou, r.fiou)]
               for r in reports))


def write_curve_csv(report: MetricReport, path: str | Path) -> None:
    """Per-timestep curve file: (step, mean_displacement, mean_iou), step from 1."""
    write_csv(path, ["step", "mean_displacement", "mean_iou"],
              ([k, f"{d:.6f}", f"{i:.6f}"] for k, (d, i) in
               enumerate(zip(report.displacement_curve, report.iou_curve), start=1)))
