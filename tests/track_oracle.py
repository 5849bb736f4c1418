"""The row-by-row track-file loader: the oracle ``mofcast.data.load_tracks`` is checked against.

One ``csv.reader`` pass; every row is parsed with ``int``/``float`` and
checked on its own, in file order, then each track's frames are sorted and
walked pair by pair. Line numbers count CSV records, blank ones included;
the header is line 1.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from mofcast.core import METADATA_FIELDS, Track
from mofcast.data.io import TRACK_HEADER
from mofcast.errors import TrackFormatError


def load_tracks_oracle(path: str | Path) -> list[Track]:
    path = Path(path)
    rows: dict[tuple[str, int], list[tuple[int, float, float, float, float]]] = {}
    meta: dict[tuple[str, int], tuple[str, str, str]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrackFormatError(f"{path}: empty file") from None
        if header != TRACK_HEADER:
            raise TrackFormatError(f"{path}: bad header {header!r}, expected {TRACK_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACK_HEADER):
                raise TrackFormatError(f"{path}:{lineno}: expected {len(TRACK_HEADER)} fields, got {len(row)}")
            video_id, city, weather, tod, frame_s, track_s, cx_s, cy_s, w_s, h_s = row
            try:
                frame = int(frame_s)
                track_id = int(track_s)
                cx, cy, w, h = float(cx_s), float(cy_s), float(w_s), float(h_s)
            except ValueError as exc:
                raise TrackFormatError(f"{path}:{lineno}: malformed row: {exc}") from None
            if not (math.isfinite(cx) and math.isfinite(cy) and math.isfinite(w) and math.isfinite(h)):
                raise TrackFormatError(f"{path}:{lineno}: non-finite coordinate")
            if w <= 0 or h <= 0:
                raise TrackFormatError(f"{path}:{lineno}: degenerate box (w={w}, h={h})")
            key = (video_id, track_id)
            first = meta.setdefault(key, (city, weather, tod))
            if first != (city, weather, tod):
                raise TrackFormatError(
                    f"{path}:{lineno}: track {key}: metadata {(city, weather, tod)!r} differs from "
                    f"the track's first row {first!r}"
                )
            rows.setdefault(key, []).append((frame, cx, cy, w, h))

    tracks = []
    for key, frame_boxes in rows.items():
        frame_boxes.sort(key=lambda fb: fb[0])
        frames = [fb[0] for fb in frame_boxes]
        for prev, cur in zip(frames, frames[1:]):
            if cur != prev + 1:
                raise TrackFormatError(
                    f"{path}: track {key}: non-consecutive frames ({prev} -> {cur})"
                )
        md = {k: v for k, v in zip(METADATA_FIELDS, meta[key]) if v}
        tracks.append(
            Track(
                video_id=key[0],
                track_id=key[1],
                start_frame=frames[0],
                boxes=[fb[1:] for fb in frame_boxes],
                metadata=md or None,
            )
        )
    tracks.sort(key=lambda t: t.key)
    return tracks
