"""File formats: track CSV, flow-magnitude CSV, flow-feature sidecar.

Track file: UTF-8 CSV with header
``video_id,city,weather,time_of_day,frame,track_id,cx,cy,w,h`` and one row
per (track, frame). Metadata columns may be empty, and all rows of a track
carry the same metadata. A loaded :class:`~mofcast.core.Track` holds its
rows' ``cx,cy,w,h`` as one (n, 4) float64 array in frame order.

Flow-magnitude file: UTF-8 CSV with header ``video_id,frame,mean_flow_magnitude``.

Flow-feature sidecar: an index CSV with header
``video_id,track_id,anchor_frame,offset,length`` next to a flat binary blob
of little-endian 32-bit floats. ``offset`` counts float32 elements from the
start of the blob; ``length`` is the feature dimension and must be the same
for every entry.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ..core import METADATA_FIELDS, Track, WindowSource
from ..errors import FlowFeatureError, TrackFormatError

TRACK_HEADER = ["video_id", "city", "weather", "time_of_day", "frame", "track_id", "cx", "cy", "w", "h"]
FLOW_MAGNITUDE_HEADER = ["video_id", "frame", "mean_flow_magnitude"]
FLOW_INDEX_HEADER = ["video_id", "track_id", "anchor_frame", "offset", "length"]


def load_tracks(path: str | Path) -> list[Track]:
    """Parse a track file into one Track per (video_id, track_id).

    Rows may arrive in any order; boxes are sorted by frame. Malformed rows,
    rows whose metadata differs from their track's first row, gaps or
    duplicates in a track's frame sequence, and degenerate boxes are
    rejected with the offending line or track named.
    """
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


def write_tracks(tracks: Iterable[Track], path: str | Path) -> None:
    """Emit tracks in the track-file format (round-trips through load_tracks)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACK_HEADER)
        for t in tracks:
            md = t.metadata or {}
            # Python floats: repr of a numpy scalar would read np.float64(...)
            for offset, (cx, cy, w, h) in enumerate(t.boxes.tolist()):
                writer.writerow(
                    [
                        t.video_id,
                        md.get("city", ""),
                        md.get("weather", ""),
                        md.get("time_of_day", ""),
                        t.start_frame + offset,
                        t.track_id,
                        repr(cx),
                        repr(cy),
                        repr(w),
                        repr(h),
                    ]
                )


def load_flow_magnitudes(path: str | Path) -> dict[str, np.ndarray]:
    """Read per-frame mean flow magnitudes, keyed by video_id.

    Frames must be consecutive from 0 within each video; values must be
    finite and non-negative.
    """
    path = Path(path)
    per_video: dict[str, list[tuple[int, float]]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FLOW_MAGNITUDE_HEADER:
            raise TrackFormatError(f"{path}: bad header {header!r}, expected {FLOW_MAGNITUDE_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                video_id, frame_s, mag_s = row
                frame, mag = int(frame_s), float(mag_s)
            except ValueError as exc:
                raise TrackFormatError(f"{path}:{lineno}: malformed row: {exc}") from None
            if not math.isfinite(mag) or mag < 0:
                raise TrackFormatError(f"{path}:{lineno}: flow magnitude must be finite and >= 0")
            per_video.setdefault(video_id, []).append((frame, mag))

    out = {}
    for video_id, pairs in per_video.items():
        pairs.sort(key=lambda p: p[0])
        frames = [f for f, _ in pairs]
        if frames != list(range(len(frames))):
            raise TrackFormatError(f"{path}: video {video_id}: frames not consecutive from 0")
        out[video_id] = np.array([m for _, m in pairs], dtype=np.float64)
    return out


class FlowFeatureStore:
    """Random access to precomputed per-window flow features.

    Backed by the sidecar format: ``index_path`` CSV plus ``blob_path`` raw
    little-endian float32. Features are returned as float64 vectors.
    """

    def __init__(self, index: Mapping[tuple[str, int, int], tuple[int, int]], blob: np.ndarray, dim: int):
        self._index = dict(index)
        self._blob = blob
        self.dim = dim

    @classmethod
    def open(cls, index_path: str | Path, blob_path: str | Path | None = None) -> "FlowFeatureStore":
        index_path = Path(index_path)
        if blob_path is None:
            blob_path = index_path.with_suffix(".bin")
        blob = np.fromfile(blob_path, dtype="<f4")
        index: dict[tuple[str, int, int], tuple[int, int]] = {}
        dim = None
        with index_path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != FLOW_INDEX_HEADER:
                raise FlowFeatureError(
                    f"{index_path}: bad header {header!r}, expected {FLOW_INDEX_HEADER!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    video_id, track_s, anchor_s, offset_s, length_s = row
                    track_id, anchor, offset, length = (int(v) for v in (track_s, anchor_s, offset_s, length_s))
                except ValueError as exc:
                    raise FlowFeatureError(f"{index_path}:{lineno}: malformed row: {exc}") from None
                if dim is None:
                    dim = length
                elif length != dim:
                    raise FlowFeatureError(
                        f"{index_path}:{lineno}: length {length} != feature dim {dim}"
                    )
                if offset < 0 or offset + length > blob.size:
                    raise FlowFeatureError(
                        f"{index_path}:{lineno}: blob range [{offset}, {offset + length}) out of bounds"
                    )
                key = (video_id, track_id, anchor)
                if key in index:
                    raise FlowFeatureError(f"{index_path}:{lineno}: duplicate entry for window {key}")
                index[key] = (offset, length)
        if dim is None:
            raise FlowFeatureError(f"{index_path}: no entries")
        return cls(index, blob, dim)

    def get(self, source: WindowSource) -> np.ndarray:
        key = (source.video_id, source.track_id, source.anchor_frame)
        try:
            offset, length = self._index[key]
        except KeyError:
            raise FlowFeatureError(f"no flow feature for window {key}") from None
        return self._blob[offset : offset + length].astype(np.float64)

    def __contains__(self, source: WindowSource) -> bool:
        return (source.video_id, source.track_id, source.anchor_frame) in self._index

    def __len__(self) -> int:
        return len(self._index)


def write_flow_features(
    entries: Iterable[tuple[WindowSource, np.ndarray]],
    index_path: str | Path,
    blob_path: str | Path | None = None,
) -> None:
    """Write the flow-feature sidecar (index CSV + float32 blob)."""
    index_path = Path(index_path)
    if blob_path is None:
        blob_path = index_path.with_suffix(".bin")
    offset = 0
    chunks = []
    with index_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLOW_INDEX_HEADER)
        for source, vec in entries:
            vec32 = np.ascontiguousarray(np.asarray(vec), dtype="<f4")
            if vec32.ndim != 1:
                raise FlowFeatureError(f"flow feature for {source} must be 1-D")
            writer.writerow([source.video_id, source.track_id, source.anchor_frame, offset, vec32.size])
            chunks.append(vec32)
            offset += vec32.size
    with Path(blob_path).open("wb") as fh:
        for chunk in chunks:
            fh.write(chunk.tobytes())
