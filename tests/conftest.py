import tracemalloc

import numpy as np
import pytest

from mofcast.core import ObservationWindow, Track, WindowSource, array_to_boxes, boxes_to_array
from mofcast.data import WindowBatch


def linear_track(
    vx: float = 1.0,
    vy: float = 0.0,
    cx0: float = 100.0,
    cy0: float = 100.0,
    w: float = 20.0,
    h: float = 40.0,
    length: int = 90,
    video_id: str = "vid-0",
    track_id: int = 0,
    city: str = "arden",
) -> Track:
    """Exactly linear centroid motion with constant size."""
    boxes = [(cx0 + vx * t, cy0 + vy * t, w, h) for t in range(length)]
    return Track(
        video_id=video_id,
        track_id=track_id,
        start_frame=0,
        boxes=boxes,
        metadata={"city": city, "weather": "sun", "time_of_day": "day"},
    )


def window_of(track: Track, anchor_offset: int = 29, p: int = 30, q: int = 60) -> ObservationWindow:
    t = anchor_offset
    return ObservationWindow(
        source=WindowSource(track.video_id, track.track_id, track.frame_of(t)),
        observed=array_to_boxes(track.boxes[t - p + 1 : t + 1]),
        future=array_to_boxes(track.boxes[t + 1 : t + q + 1]),
        metadata=track.metadata,
    )


def batch_of(windows) -> WindowBatch:
    """Stack a non-empty window list into a batch, one window at a time, order preserved.

    The track table has one track per source track, in order of first
    appearance, holding its first window's boxes and metadata.
    """
    tracks = {}
    for w in windows:
        key = (w.source.video_id, w.source.track_id)
        boxes = np.concatenate([w.observed_array(), boxes_to_array(w.future)])
        tracks.setdefault(key, Track(*key, w.source.anchor_frame - 29, boxes, w.metadata))
    keys = list(tracks)
    return WindowBatch(
        observed=np.stack([w.observed_array() for w in windows]),
        future=np.stack([boxes_to_array(w.future) for w in windows]),
        tracks=tuple(tracks.values()),
        track_index=[keys.index((w.source.video_id, w.source.track_id)) for w in windows],
        anchor_frame=[w.source.anchor_frame for w in windows],
    )


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and the peak bytes Python allocated during it."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def cv_window() -> ObservationWindow:
    return window_of(linear_track(vx=1.0, vy=0.5, length=90))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
