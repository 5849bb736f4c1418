import numpy as np
import pytest

from mofcast.core import ObservationWindow, Track, WindowSource, array_to_boxes
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
    """Stack a non-empty window list into a batch, one window at a time, order preserved."""
    return WindowBatch(
        observed=np.stack([w.observed_array() for w in windows]),
        future=np.stack([w.future_array() for w in windows]),
        sources=tuple(w.source for w in windows),
        metadata=tuple(w.metadata for w in windows),
    )


@pytest.fixture
def cv_window() -> ObservationWindow:
    return window_of(linear_track(vx=1.0, vy=0.5, length=90))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
