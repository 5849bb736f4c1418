"""The track/window data model.

Boxes are stored as centroid + size (cx, cy, w, h) in pixels, the
parameterization every downstream quantity (velocity, size deltas, decoder
residuals) is defined on. A :class:`Track` holds its boxes as one (n, 4)
array of such rows, a forecast is an (N, q, 4) array, and :mod:`mofcast.metrics`
scores such arrays. The per-window API keeps only its input side:
:func:`mofcast.data.extract_windows` builds :class:`ObservationWindow` objects
of :class:`BBox` tuples, and each one-window wrapper returns a (q, 4) array.
All geometry is double precision; coordinates are never quantized to integer pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Canonical protocol lengths: 1 s of observation, 2 s of forecast at 30 Hz.
OBSERVED_LEN = 30
FUTURE_LEN = 60

# The 5-frame velocity rule used throughout: (x_t - x_{t-VELOCITY_LAG}) / VELOCITY_LAG
# spans VELOCITY_SPAN frames.
VELOCITY_SPAN = 5
VELOCITY_LAG = VELOCITY_SPAN - 1

METADATA_FIELDS = ("city", "weather", "time_of_day")

# Forecast and synthetic box sizes are clamped to at least this many px.
MIN_BOX_SIZE = 1.0


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: centroid (cx, cy), width w, height h, in pixels."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            v = float(getattr(self, name))  # numpy scalars become plain floats
            if not math.isfinite(v):
                raise ValueError(f"BBox.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"degenerate box: w={self.w!r}, h={self.h!r} (must be > 0)")


@dataclass(frozen=True, eq=False)
class Track:
    """One object's consecutive per-frame boxes with identity and metadata.

    ``boxes`` is an (n, 4) float64 array of [cx, cy, w, h] rows, n >= 1:
    row i is the box at frame ``start_frame + i`` (30 Hz). Every value is
    finite and every w, h is > 0. The track keeps its own read-only copy of
    the array it is given. ``metadata`` holds the clip annotations (city,
    weather, time_of_day) when known.

    Two tracks are equal when their identity, metadata and boxes are; boxes
    compare bit for bit.
    """

    video_id: str
    track_id: int
    start_frame: int
    boxes: np.ndarray
    metadata: Mapping[str, str] | None = None

    def __post_init__(self):
        name = f"track ({self.video_id}, {self.track_id})"
        boxes = np.array(self.boxes, dtype=np.float64)
        if boxes.size == 0:
            raise ValueError(f"{name} has no boxes")
        if boxes.ndim != 2 or boxes.shape[1] != 4:
            raise ValueError(f"{name}: boxes must be an (n, 4) array, got shape {boxes.shape}")
        bad = ~np.isfinite(boxes).all(axis=1)
        if bad.any():
            raise ValueError(f"{name}: box {int(np.argmax(bad))} has a non-finite coordinate")
        bad = (boxes[:, 2:] <= 0).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            w, h = boxes[i, 2:].tolist()
            raise ValueError(f"{name}: box {i} is degenerate: w={w!r}, h={h!r} (must be > 0)")
        boxes.setflags(write=False)
        object.__setattr__(self, "boxes", boxes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Track):
            return NotImplemented
        return (
            (self.video_id, self.track_id, self.start_frame, self.metadata)
            == (other.video_id, other.track_id, other.start_frame, other.metadata)
            and self.boxes.shape == other.boxes.shape
            and self.boxes.tobytes() == other.boxes.tobytes()
        )

    def __len__(self) -> int:
        return len(self.boxes)

    def frame_of(self, offset: int) -> int:
        return self.start_frame + offset

    @property
    def key(self) -> tuple[str, int]:
        return (self.video_id, self.track_id)


@dataclass(frozen=True)
class WindowSource:
    """Where a window was cut from: track identity + anchor frame. An edge type: a batch names its windows by
    integer columns and builds one only for error messages, the per-window API and the sidecar writer."""

    video_id: str
    track_id: int
    anchor_frame: int


@dataclass(frozen=True)
class ObservationWindow:
    """The sample unit: observed boxes up to an anchor, future boxes after it.

    ``observed`` covers frames anchor-(p-1) .. anchor, ``future`` covers
    anchor+1 .. anchor+q, with exactly p = 30 and q = 60 boxes
    (``OBSERVED_LEN`` and ``FUTURE_LEN``); any other lengths are refused
    with a ValueError naming them, as :class:`mofcast.data.WindowBatch` does.
    """

    source: WindowSource
    observed: tuple[BBox, ...]
    future: tuple[BBox, ...]
    metadata: Mapping[str, str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "observed", tuple(self.observed))
        object.__setattr__(self, "future", tuple(self.future))
        if (len(self.observed), len(self.future)) != (OBSERVED_LEN, FUTURE_LEN):
            raise ValueError(f"window needs {OBSERVED_LEN} observed and {FUTURE_LEN} future boxes, "
                             f"got {len(self.observed)} and {len(self.future)}")

    def observed_array(self) -> np.ndarray:
        """(p, 4) float64 array of observed boxes as [cx, cy, w, h] rows."""
        return boxes_to_array(self.observed)


def boxes_to_array(boxes: Sequence[BBox]) -> np.ndarray:
    """Stack boxes into an (N, 4) float64 array of [cx, cy, w, h] rows."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(len(boxes), 4)


def array_to_boxes(arr: np.ndarray) -> tuple[BBox, ...]:
    """Inverse of :func:`boxes_to_array`; validates each row."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected (N, 4) array, got shape {arr.shape}")
    return tuple(BBox(cx, cy, w, h) for cx, cy, w, h in arr.tolist())
