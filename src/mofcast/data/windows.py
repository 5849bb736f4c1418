"""Track filtering, window extraction, and motion-based clip selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core import FUTURE_LEN, OBSERVED_LEN, ObservationWindow, Track, WindowSource, array_to_boxes

# p + q = 90 frames (3 s at 30 Hz): shorter tracks cannot yield a single window.
MIN_TRACK_FRAMES = OBSERVED_LEN + FUTURE_LEN

# 20-second clips at 30 Hz.
CLIP_FRAMES = 600
FLOW_MAGNITUDE_THRESHOLD = 1.5


def filter_short_tracks(tracks: Sequence[Track]) -> list[Track]:
    """Keep only tracks with at least :data:`MIN_TRACK_FRAMES` boxes, order preserved."""
    return [t for t in tracks if len(t) >= MIN_TRACK_FRAMES]


def extract_windows(track: Track, stride: int = 1) -> list[ObservationWindow]:
    """Cut observation windows from one track.

    One window per anchor offset t (advancing by ``stride``) such that the
    p = 30 observed frames t-p+1..t and the q = 60 future frames t+1..t+q all
    lie inside the track. A track shorter than p+q yields no windows. Windows
    inherit the track's metadata.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    p, q, n = OBSERVED_LEN, FUTURE_LEN, len(track)
    boxes = array_to_boxes(track.boxes)
    windows = []
    for t in range(p - 1, n - q, stride):
        source = WindowSource(track.video_id, track.track_id, track.frame_of(t))
        windows.append(
            ObservationWindow(
                source=source,
                observed=boxes[t - p + 1 : t + 1],
                future=boxes[t + 1 : t + q + 1],
                metadata=track.metadata,
            )
        )
    return windows


def count_windows(length: int, stride: int = 1) -> int:
    """Number of p = 30 / q = 60 windows :func:`cut_windows` takes from a ``length``-frame track, uncut."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return max(0, (length - OBSERVED_LEN - FUTURE_LEN) // stride + 1)


@dataclass(frozen=True)
class WindowBatch:
    """Many windows as arrays: row i of every per-window array is window i.

    ``observed`` is exactly (N, 30, 4) and ``future`` exactly (N, 60, 4)
    (``OBSERVED_LEN`` and ``FUTURE_LEN``), both [cx, cy, w, h] float64;
    any other shape is refused with a ValueError naming it. A window is
    named by two (N,) int64 columns: ``track_index``, its track's row in the
    track table ``tracks``, and ``anchor_frame``, the frame of its last
    observed box. Identity and metadata live once per track, and every track
    of the table has a window. :meth:`keys` names every window, :meth:`groups`
    groups them by a metadata field, and :meth:`source` builds one window's
    :class:`WindowSource` for error messages and the per-window API.
    ``flow``, when present, is the (N, F) flow-feature matrix the
    flow-reading model variants consume: row i belongs to window i, every
    entry is finite, and the array is read-only. Its dtype is kept as given
    (float32 from a sidecar, float64 from ``--synthetic-flow``).
    """

    observed: np.ndarray
    future: np.ndarray
    tracks: tuple[Track, ...]
    track_index: np.ndarray
    anchor_frame: np.ndarray
    flow: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.observed)
        if self.observed.shape != (n, OBSERVED_LEN, 4) or self.future.shape != (n, FUTURE_LEN, 4):
            raise ValueError(f"expected observed (N, {OBSERVED_LEN}, 4) and future (N, {FUTURE_LEN}, 4), "
                             f"got {self.observed.shape} and {self.future.shape}")
        for name in ("track_index", "anchor_frame"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            if column.shape != (n,):
                raise ValueError(f"{name} must be ({n},) for {n} windows, got shape {column.shape}")
            object.__setattr__(self, name, column)
        if not np.array_equal(np.unique(self.track_index), np.arange(len(self.tracks))):
            raise ValueError(f"track_index must name each of the {len(self.tracks)} tracks and no other")
        if self.flow is not None:
            flow = np.asarray(self.flow)
            if flow.ndim != 2 or flow.shape[0] != n:
                raise ValueError(f"flow must be ({n}, F) for {n} windows, got shape {flow.shape}")
            finite = np.isfinite(flow).all(axis=1)
            if not finite.all():
                raise ValueError(f"flow feature for {self.source(int(np.argmin(finite)))} has non-finite entries")
            flow.setflags(write=False)
            object.__setattr__(self, "flow", flow)

    def __len__(self) -> int:
        return self.observed.shape[0]

    def source(self, i: int) -> WindowSource:
        """Window ``i``'s track identity and anchor frame as one object."""
        track = self.tracks[self.track_index[i]]
        return WindowSource(track.video_id, track.track_id, int(self.anchor_frame[i]))

    def keys(self) -> Iterator[tuple[str, int, int]]:
        """Each window's (video_id, track_id, anchor_frame), in row order: the key of its flow-feature row."""
        keys = [t.key for t in self.tracks]
        return ((*keys[k], anchor) for k, anchor in zip(self.track_index.tolist(), self.anchor_frame.tolist()))

    def groups(self, field: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Each window's group by metadata ``field``: (N,) codes into the sorted distinct values, and those
        values. None when a track of the table lacks ``field``."""
        if not all(t.metadata and field in t.metadata for t in self.tracks):
            return None
        # An object array keeps each value as given (a unicode array would drop trailing NULs).
        values = np.array([t.metadata[field] for t in self.tracks], dtype=object)
        labels, code_of_track = np.unique(values, return_inverse=True)
        return code_of_track[self.track_index], labels


def cut_windows(tracks: Sequence[Track], stride: int = 1) -> WindowBatch:
    """The windows of :func:`extract_windows` over many tracks, as one batch.

    Each window observes p = 30 frames and forecasts the next q = 60. Tracks
    are taken in key order and anchors ascend within a track. A track's
    windows are strided views of its boxes array, copied into the batch.
    The track table holds the tracks that yield a window.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    p, q = OBSERVED_LEN, FUTURE_LEN
    kept = [t for t in sorted(tracks, key=lambda t: t.key) if len(t) >= p + q]
    # (n-p-q+1, 4, p+q) -> every stride-th start, frames before channels
    views = [sliding_window_view(t.boxes, p + q, axis=0)[::stride].transpose(0, 2, 1) for t in kept]
    return WindowBatch(
        observed=np.concatenate([np.empty((0, p, 4))] + [v[:, :p] for v in views]),
        future=np.concatenate([np.empty((0, q, 4))] + [v[:, p:] for v in views]),
        tracks=tuple(kept),
        track_index=np.repeat(np.arange(len(kept)), [len(v) for v in views]),
        anchor_frame=np.concatenate([np.empty(0, np.int64)]
                                    + [t.frame_of(np.arange(p - 1, len(t) - q, stride)) for t in kept]),
    )


@dataclass(frozen=True)
class ClipInterval:
    """Inclusive frame range of one selected clip."""

    start_frame: int
    end_frame: int


def motion_filter_clips(
    flow_magnitudes: Sequence[float] | np.ndarray,
    threshold: float = FLOW_MAGNITUDE_THRESHOLD,
    clip_frames: int = CLIP_FRAMES,
) -> list[ClipInterval]:
    """Select fixed-length clips whose frames all stay at or below ``threshold``.

    Greedy left-to-right selection of non-overlapping intervals of exactly
    ``clip_frames`` consecutive frames containing no frame whose mean flow
    magnitude exceeds the threshold; for fixed-length intervals the greedy
    scan is maximal-count.
    """
    mags = np.asarray(flow_magnitudes, dtype=np.float64)
    if mags.ndim != 1:
        raise ValueError(f"flow magnitudes must be 1-D, got shape {mags.shape}")
    if mags.size and (not np.all(np.isfinite(mags)) or np.any(mags < 0)):
        raise ValueError("flow magnitudes must be finite and non-negative")
    if clip_frames < 1:
        raise ValueError(f"clip_frames must be >= 1, got {clip_frames}")
    if not np.isfinite(threshold):  # every comparison with nan is False: nan would pass every frame
        raise ValueError(f"threshold must be finite, got {threshold!r}")

    bad = np.flatnonzero(mags > threshold)
    intervals = []
    i = 0
    n = mags.size
    j = 0  # index into bad of the first bad frame >= i
    while i + clip_frames <= n:
        while j < bad.size and bad[j] < i:
            j += 1
        if j < bad.size and bad[j] < i + clip_frames:
            i = int(bad[j]) + 1  # skip past the spike; no clip can cover it
        else:
            intervals.append(ClipInterval(i, i + clip_frames - 1))
            i += clip_frames
    return intervals
