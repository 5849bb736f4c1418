"""Track filtering, window extraction, and motion-based clip selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core import FUTURE_LEN, OBSERVED_LEN, ObservationWindow, Track, WindowSource, array_to_boxes

# 3 seconds at 30 Hz: shorter tracks cannot yield a single window.
MIN_TRACK_FRAMES = 90

# 20-second clips at 30 Hz.
CLIP_FRAMES = 600
FLOW_MAGNITUDE_THRESHOLD = 1.5


def filter_short_tracks(tracks: Sequence[Track], min_frames: int = MIN_TRACK_FRAMES) -> list[Track]:
    """Keep only tracks with at least ``min_frames`` boxes, order preserved."""
    if min_frames < 1:
        raise ValueError(f"min_frames must be >= 1, got {min_frames}")
    return [t for t in tracks if len(t) >= min_frames]


def extract_windows(
    track: Track,
    p: int = OBSERVED_LEN,
    q: int = FUTURE_LEN,
    stride: int = 1,
) -> list[ObservationWindow]:
    """Cut observation windows from one track.

    One window per anchor offset t (advancing by ``stride``) such that the p
    observed frames t-p+1..t and the q future frames t+1..t+q all lie inside
    the track. A track shorter than p+q yields no windows. Windows inherit
    the track's metadata.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n = len(track)
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


def count_windows(length: int, p: int = OBSERVED_LEN, q: int = FUTURE_LEN, stride: int = 1) -> int:
    """Number of windows :func:`cut_windows` takes from a track of ``length`` frames, without cutting them."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return max(0, (length - p - q) // stride + 1)


@dataclass(frozen=True)
class WindowBatch:
    """Many windows as arrays: row i of ``observed``/``future`` is window i.

    ``observed`` is (N, p, 4) and ``future`` (N, q, 4), both [cx, cy, w, h]
    float64; ``sources`` and ``metadata`` carry each window's identity and
    track annotations, as :class:`ObservationWindow` does for one window.
    ``flow``, when present, is the (N, F) flow-feature matrix the
    flow-reading model variants consume: row i belongs to window i, every
    entry is finite, and the array is read-only.
    """

    observed: np.ndarray
    future: np.ndarray
    sources: tuple[WindowSource, ...]
    metadata: tuple[Mapping[str, str] | None, ...]
    flow: np.ndarray | None = None

    def __post_init__(self):
        n = self.observed.shape[0]
        if self.observed.ndim != 3 or self.future.ndim != 3 or self.future.shape[0] != n:
            raise ValueError(f"expected (N, p, 4) and (N, q, 4), got {self.observed.shape} and {self.future.shape}")
        if len(self.sources) != n or len(self.metadata) != n:
            raise ValueError(f"{n} windows but {len(self.sources)} sources and {len(self.metadata)} metadata")
        if self.flow is not None:
            flow = np.asarray(self.flow, dtype=np.float64)
            if flow.ndim != 2 or flow.shape[0] != n:
                raise ValueError(f"flow must be ({n}, F) for {n} windows, got shape {flow.shape}")
            finite = np.isfinite(flow).all(axis=1)
            if not finite.all():
                raise ValueError(f"flow feature for {self.sources[int(np.argmin(finite))]} has non-finite entries")
            flow.setflags(write=False)
            object.__setattr__(self, "flow", flow)

    def __len__(self) -> int:
        return self.observed.shape[0]

    @property
    def horizon(self) -> int:
        return self.future.shape[1]


def cut_windows(
    tracks: Sequence[Track],
    p: int = OBSERVED_LEN,
    q: int = FUTURE_LEN,
    stride: int = 1,
) -> WindowBatch:
    """The windows of :func:`extract_windows` over many tracks, as one batch.

    Tracks are taken in key order and anchors ascend within a track. A
    track's windows are strided views of its boxes array, copied into the
    batch.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    observed, future, sources, metadata = [], [], [], []
    for track in sorted(tracks, key=lambda t: t.key):
        n = len(track)
        if n < p + q:
            continue
        # (n-p-q+1, 4, p+q) -> every stride-th start, frames before channels
        view = sliding_window_view(track.boxes, p + q, axis=0)[::stride].transpose(0, 2, 1)
        observed.append(view[:, :p])
        future.append(view[:, p:])
        sources.extend(WindowSource(track.video_id, track.track_id, track.frame_of(t))
                       for t in range(p - 1, n - q, stride))
        metadata.extend([track.metadata] * view.shape[0])
    return WindowBatch(
        observed=np.concatenate(observed) if observed else np.empty((0, p, 4)),
        future=np.concatenate(future) if future else np.empty((0, q, 4)),
        sources=tuple(sources),
        metadata=tuple(metadata),
    )


@dataclass(frozen=True)
class ClipInterval:
    """Inclusive frame range of one selected clip."""

    start_frame: int
    end_frame: int

    def __len__(self) -> int:
        return self.end_frame - self.start_frame + 1


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
