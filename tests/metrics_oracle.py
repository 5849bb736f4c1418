"""Row-by-row scoring: the oracle ``WindowScores`` reports are checked against.

A :class:`Row` is one window's per-step errors with its source and
metadata, as the metrics once kept them. :func:`aggregate` stacks rows and averages them; :func:`breakdown`
groups rows in a dict by one metadata value, aggregates each group in value
order and then sorts the reports by AIOU, best first (a stable sort, so
equal AIOUs keep the value order). ``mofcast.metrics`` must give the same
reports bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from mofcast.core import Track, WindowSource
from mofcast.data import WindowBatch
from mofcast.metrics import MetricReport, WindowScores


@dataclass(frozen=True)
class Row:
    """Per-step errors of one forecast; index k is frame anchor+k+1."""

    displacements: np.ndarray
    ious: np.ndarray
    source: WindowSource | None = None
    metadata: Mapping[str, str] | None = None


def rows_of(*scores: WindowScores, batch: WindowBatch | None = None) -> list[Row]:
    """Every row of the given scores, in order. Given the ``batch`` they score, row k carries the source of
    window k and its track's metadata."""
    errors = [(d, i) for s in scores for d, i in zip(s.displacements, s.ious, strict=True)]
    if batch is None:
        return [Row(d, i) for d, i in errors]
    if len(errors) != len(batch):
        raise ValueError(f"{len(errors)} rows of scores for {len(batch)} windows")
    return [Row(d, i, batch.source(k), batch.tracks[batch.track_index[k]].metadata)
            for k, (d, i) in enumerate(errors)]


def scores_of(rows: Sequence[Row]) -> tuple[WindowScores, WindowBatch]:
    """The rows stacked into one :class:`WindowScores`, and a batch whose window k is row k.

    The batch has one track per row, named by the row's source (a made-up
    one when it has none) and carrying its metadata; its boxes are
    placeholders, since scoring reads no boxes.
    """
    sources = [r.source or WindowSource("row", k, 0) for k, r in enumerate(rows)]
    batch = WindowBatch(
        observed=np.ones((len(rows), 30, 4)),
        future=np.ones((len(rows), 60, 4)),
        tracks=tuple(Track(s.video_id, s.track_id, 0, np.ones((1, 4)), r.metadata) for s, r in zip(sources, rows)),
        track_index=np.arange(len(rows)),
        anchor_frame=[s.anchor_frame for s in sources],
    )
    scores = WindowScores(displacements=np.stack([r.displacements for r in rows]),
                          ious=np.stack([r.ious for r in rows]))
    return scores, batch


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
