"""Forecast evaluation: displacement and overlap metrics with per-step curves.

ADE/FDE are centroid displacement errors (mean over all predicted steps /
final step only); AIOU/FIOU are the analogous intersection-over-union
aggregates. Averages weight every (window, step) pair equally, which makes
the scalar metrics exactly the means of the per-step curves. All values are
raw pixels at native resolution; nothing is normalized.

Scoring works on box arrays: :func:`box_errors` computes both per-step
errors for a whole (N, q, 4) batch with the corner arithmetic of
:func:`mofcast.core.iou`, and :func:`evaluate_batch` splits the result into
per-window evaluations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .core import BBox, Forecast, WindowSource, boxes_to_array

if TYPE_CHECKING:
    from .data.windows import WindowBatch


@dataclass(frozen=True)
class WindowEvaluation:
    """Per-timestep errors of one forecast; index k is frame anchor+k+1."""

    displacements: np.ndarray
    ious: np.ndarray
    source: WindowSource | None = None
    metadata: Mapping[str, str] | None = None

    def __post_init__(self):
        d = np.asarray(self.displacements, dtype=np.float64)
        i = np.asarray(self.ious, dtype=np.float64)
        if d.shape != i.shape or d.ndim != 1:
            raise ValueError(f"curve shapes disagree: {d.shape} vs {i.shape}")
        object.__setattr__(self, "displacements", d)
        object.__setattr__(self, "ious", i)

    @property
    def horizon(self) -> int:
        return self.displacements.size


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
    """Element for element :func:`mofcast.core.centroid_distance` of (..., 4) boxes or (..., 2) centroids."""
    return np.hypot(pred[..., 0] - gt[..., 0], pred[..., 1] - gt[..., 1])


def box_errors(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid distances and IOUs of two equally shaped (..., 4) box arrays.

    Element for element this is :func:`mofcast.core.centroid_distance` and
    :func:`mofcast.core.iou`: the same corners, no overlap when the
    intersection width or height is <= 0, and areas from the corners, so
    identical boxes score exactly 1.0.
    """
    if pred.shape != gt.shape or pred.shape[-1] != 4:
        raise ValueError(f"box arrays disagree: {pred.shape} predicted vs {gt.shape} ground truth")
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


def evaluate_batch(pred: np.ndarray, batch: "WindowBatch") -> list[WindowEvaluation]:
    """Score (N, q, 4) predictions against a batch's future boxes, one evaluation per window."""
    disp, ious = box_errors(np.asarray(pred, dtype=np.float64), batch.future)
    return [
        WindowEvaluation(displacements=d, ious=i, source=src, metadata=meta)
        for d, i, src, meta in zip(disp, ious, batch.sources, batch.metadata)
    ]


def evaluate_window(
    pred: Forecast,
    gt: Sequence[BBox],
    metadata: Mapping[str, str] | None = None,
) -> WindowEvaluation:
    """Per-timestep centroid distances and IOUs of a forecast against truth."""
    if len(pred.boxes) != len(gt):
        raise ValueError(f"length mismatch: {len(pred.boxes)} predicted vs {len(gt)} ground-truth boxes")
    disp, ious = box_errors(boxes_to_array(pred.boxes), boxes_to_array(gt))
    return WindowEvaluation(displacements=disp, ious=ious, source=pred.source, metadata=metadata)


def aggregate(per_window: Sequence[WindowEvaluation], group_key: str | None = None) -> MetricReport:
    """Combine window evaluations into one report.

    Curves are the per-step means over windows; ADE/AIOU are the means of
    those curves (equivalently, the mean over all window-step pairs), and
    FDE/FIOU are the curves at the final step.
    """
    if not per_window:
        raise ValueError("cannot aggregate an empty list of window evaluations")
    horizon = per_window[0].horizon
    for ev in per_window:
        if ev.horizon != horizon:
            raise ValueError(f"mixed horizons: {ev.horizon} vs {horizon}")
    disp = np.stack([ev.displacements for ev in per_window])
    ious = np.stack([ev.ious for ev in per_window])
    disp_curve = disp.mean(axis=0)
    iou_curve = ious.mean(axis=0)
    return MetricReport(
        ade=float(disp_curve.mean()),
        fde=float(disp_curve[-1]),
        aiou=float(iou_curve.mean()),
        fiou=float(iou_curve[-1]),
        displacement_curve=disp_curve,
        iou_curve=iou_curve,
        n_windows=len(per_window),
        group_key=group_key,
    )


def breakdown(per_window: Sequence[WindowEvaluation], field: str) -> list[MetricReport]:
    """One report per distinct value of a metadata field, best AIOU first."""
    groups: dict[str, list[WindowEvaluation]] = {}
    for ev in per_window:
        if ev.metadata is None or field not in ev.metadata:
            raise ValueError(f"window {ev.source} has no {field!r} metadata")
        groups.setdefault(ev.metadata[field], []).append(ev)
    reports = [aggregate(evs, group_key=value) for value, evs in sorted(groups.items())]
    reports.sort(key=lambda r: -r.aiou)
    return reports


def write_summary_csv(reports: Iterable[MetricReport], path: str | Path, model_id: str = "") -> None:
    """One row per report: model, group, window count, and the four metrics."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "group", "n_windows", "ade", "fde", "aiou", "fiou"])
        for r in reports:
            writer.writerow(
                [model_id, r.group_key or "", r.n_windows]
                + [f"{v:.6f}" for v in (r.ade, r.fde, r.aiou, r.fiou)]
            )


def write_curve_csv(report: MetricReport, path: str | Path) -> None:
    """Per-timestep curve file: (step, mean_displacement, mean_iou), step from 1."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_displacement", "mean_iou"])
        for k, (d, i) in enumerate(zip(report.displacement_curve, report.iou_curve), start=1):
            writer.writerow([k, f"{d:.6f}", f"{i:.6f}"])
