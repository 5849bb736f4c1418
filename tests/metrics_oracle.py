"""Row-by-row scoring: the oracle ``WindowScores`` reports are checked against.

A :class:`Row` is one window's per-step errors, as the metrics once kept
them. :func:`aggregate` stacks rows and averages them; :func:`breakdown`
groups rows in a dict by one metadata value, aggregates each group in value
order and then sorts the reports by AIOU, best first (a stable sort, so
equal AIOUs keep the value order). ``mofcast.metrics`` must give the same
reports bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from mofcast.core import WindowSource
from mofcast.metrics import MetricReport, WindowScores


@dataclass(frozen=True)
class Row:
    """Per-step errors of one forecast; index k is frame anchor+k+1."""

    displacements: np.ndarray
    ious: np.ndarray
    source: WindowSource | None = None
    metadata: Mapping[str, str] | None = None


def rows_of(*scores: WindowScores) -> list[Row]:
    """Every row of the given scores, in order."""
    return [
        Row(d, i, src, meta)
        for s in scores
        for d, i, src, meta in zip(s.displacements, s.ious, s.sources, s.metadata, strict=True)
    ]


def scores_of(rows: Sequence[Row]) -> WindowScores:
    """The rows stacked into one :class:`WindowScores`."""
    return WindowScores(
        displacements=np.stack([r.displacements for r in rows]),
        ious=np.stack([r.ious for r in rows]),
        sources=tuple(r.source for r in rows),
        metadata=tuple(r.metadata for r in rows),
    )


def aggregate(rows: Sequence[Row], group_key: str | None = None) -> MetricReport:
    if not rows:
        raise ValueError("cannot aggregate an empty list of rows")
    horizon = rows[0].displacements.size
    for r in rows:
        if r.displacements.size != horizon:
            raise ValueError(f"mixed horizons: {r.displacements.size} vs {horizon}")
    disp_curve = np.stack([r.displacements for r in rows]).mean(axis=0)
    iou_curve = np.stack([r.ious for r in rows]).mean(axis=0)
    return MetricReport(
        ade=float(disp_curve.mean()),
        fde=float(disp_curve[-1]),
        aiou=float(iou_curve.mean()),
        fiou=float(iou_curve[-1]),
        displacement_curve=disp_curve,
        iou_curve=iou_curve,
        n_windows=len(rows),
        group_key=group_key,
    )


def breakdown(rows: Sequence[Row], field: str) -> list[MetricReport]:
    groups: dict[str, list[Row]] = {}
    for r in rows:
        if r.metadata is None or field not in r.metadata:
            raise ValueError(f"window {r.source} has no {field!r} metadata")
        groups.setdefault(r.metadata[field], []).append(r)
    reports = [aggregate(group, group_key=value) for value, group in sorted(groups.items())]
    reports.sort(key=lambda r: -r.aiou)
    return reports
