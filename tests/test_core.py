import dataclasses
import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mofcast
from mofcast.core import (
    BBox,
    Forecast,
    ObservationWindow,
    Track,
    WindowSource,
    array_to_boxes,
    boxes_to_array,
)

from box_oracle import centroid_distance, corners, iou


def rasterized_iou(a: BBox, b: BBox, n: int = 1000) -> float:
    """Independent oracle: count cell centers of an n x n grid over the joint extent."""
    ax0, ay0, ax1, ay1 = corners(a)
    bx0, by0, bx1, by1 = corners(b)
    x0, x1 = min(ax0, bx0), max(ax1, bx1)
    y0, y1 = min(ay0, by0), max(ay1, by1)
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    in_a = ((xs >= ax0) & (xs <= ax1))[:, None] & ((ys >= ay0) & (ys <= ay1))[None, :]
    in_b = ((xs >= bx0) & (xs <= bx1))[:, None] & ((ys >= by0) & (ys <= by1))[None, :]
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


finite_boxes = st.builds(
    BBox,
    cx=st.floats(-1e3, 1e3),
    cy=st.floats(-1e3, 1e3),
    w=st.floats(0.1, 500.0),
    h=st.floats(0.1, 500.0),
)


class TestBBox:
    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError, match="degenerate"):
            BBox(0, 0, 0, 1)
        with pytest.raises(ValueError, match="degenerate"):
            BBox(0, 0, 1, -2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BBox(math.nan, 0, 1, 1)
        with pytest.raises(ValueError):
            BBox(0, math.inf, 1, 1)

    def test_corners(self):
        assert corners(BBox(1, 2, 4, 6)) == (-1, -1, 3, 5)


class TestIou:
    def test_identical_boxes(self):
        a = BBox(0, 0, 2, 2)
        assert iou(a, a) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 2, 2), BBox(10, 10, 2, 2)) == 0.0

    def test_one_third_overlap(self):
        # corner form: intersection 1x2=2, union 4+4-2=6
        got = iou(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rasterized_iou(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)) == pytest.approx(1.0 / 3.0, abs=1e-2)

    def test_matches_rasterization_oracle(self, rng):
        for _ in range(50):
            a = BBox(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1, 6), rng.uniform(1, 6))
            b = BBox(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1, 6), rng.uniform(1, 6))
            assert iou(a, b) == pytest.approx(rasterized_iou(a, b), abs=1e-2)

    @given(a=finite_boxes, b=finite_boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(a=finite_boxes)
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    @given(
        a=finite_boxes,
        b=finite_boxes,
        dx=st.floats(-1e3, 1e3),
        dy=st.floats(-1e3, 1e3),
        scale=st.floats(0.01, 100.0),
    )
    @settings(max_examples=60)
    def test_translation_and_scale_invariance(self, a, b, dx, dy, scale):
        def shift(box):
            return BBox(box.cx + dx, box.cy + dy, box.w, box.h)

        def zoom(box):
            return BBox(box.cx * scale, box.cy * scale, box.w * scale, box.h * scale)

        base = iou(a, b)
        assert iou(shift(a), shift(b)) == pytest.approx(base, abs=1e-9)
        assert iou(zoom(a), zoom(b)) == pytest.approx(base, abs=1e-9)


class TestCentroidDistance:
    def test_same_centroid_different_sizes(self):
        assert centroid_distance(BBox(0, 0, 1, 1), BBox(0, 0, 9, 9)) == 0.0

    def test_three_four_five(self):
        assert centroid_distance(BBox(0, 0, 1, 1), BBox(3, 4, 1, 1)) == 5.0

    def test_axis_aligned(self):
        assert centroid_distance(BBox(-1, 0, 1, 1), BBox(1, 0, 1, 1)) == 2.0

    @given(a=finite_boxes, b=finite_boxes, c=finite_boxes)
    def test_triangle_inequality(self, a, b, c):
        assert centroid_distance(a, c) <= centroid_distance(a, b) + centroid_distance(b, c) + 1e-9

    @given(a=finite_boxes, b=finite_boxes)
    def test_zero_iff_same_centroid(self, a, b):
        d = centroid_distance(a, b)
        if a.cx == b.cx and a.cy == b.cy:
            assert d == 0.0
        else:
            assert d > 0.0


def _ones_with_row_2(row):
    boxes = np.ones((4, 4))
    boxes[2] = row
    return boxes


class TestTrack:
    def test_frame_reconstruction(self):
        boxes = [(i, 0, 1, 1) for i in range(5)]
        track = Track("v", 1, start_frame=10, boxes=boxes)
        assert [track.frame_of(i) for i in range(5)] == [10, 11, 12, 13, 14]
        assert track.start_frame + len(track) - 1 == 14
        assert len(track) == 5

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError, match="no boxes"):
            Track("v", 1, 0, boxes=())

    @pytest.mark.parametrize(
        "boxes, match",
        (
            (_ones_with_row_2((math.nan, 0.0, 1.0, 1.0)), "box 2 has a non-finite"),
            (_ones_with_row_2((0.0, -math.inf, 1.0, 1.0)), "box 2 has a non-finite"),
            (_ones_with_row_2((0.0, 0.0, math.inf, 1.0)), "box 2 has a non-finite"),
            (_ones_with_row_2((0.0, 0.0, 0.0, 1.0)), "box 2 is degenerate: w=0.0"),
            (_ones_with_row_2((0.0, 0.0, 1.0, -2.0)), "box 2 is degenerate: .*h=-2.0"),
            (np.ones((4, 3)), r"must be an \(n, 4\) array, got shape \(4, 3\)"),
            (np.empty((0, 4)), "has no boxes"),
        ),
        ids=("nan", "-inf", "inf_w", "zero_w", "negative_h", "n_by_3", "empty"),
    )
    def test_invalid_boxes_rejected_naming_the_track(self, boxes, match):
        with pytest.raises(ValueError, match=re.escape("track (v, 7)") + ".*" + match):
            Track("v", 7, 0, boxes=boxes)

    def test_boxes_are_a_read_only_copy(self):
        given = np.ones((3, 4))
        track = Track("v", 1, 0, boxes=given)
        assert track.boxes.dtype == np.float64 and track.boxes.shape == (3, 4)
        with pytest.raises(ValueError, match="read-only"):
            track.boxes[0, 0] = 5.0
        given[0, 0] = 5.0
        assert track.boxes[0, 0] == 1.0

    def test_equality_compares_boxes_bit_for_bit(self):
        track = Track("v", 1, 0, boxes=np.ones((3, 4)), metadata={"city": "arden"})
        assert track == Track("v", 1, 0, boxes=np.ones((3, 4)), metadata={"city": "arden"})
        assert track != Track("v", 1, 0, boxes=np.ones((3, 4)), metadata={"city": "bexley"})
        assert track != Track("v", 1, 0, boxes=np.ones((2, 4)), metadata={"city": "arden"})
        assert track != Track("v", 1, 0, boxes=np.nextafter(np.ones((3, 4)), 2), metadata={"city": "arden"})


class TestWindowAndForecast:
    def test_window_length_validation(self):
        # exactly 30 observed and 60 future boxes, as WindowBatch takes them
        boxes = tuple(BBox(i, 0, 1, 1) for i in range(100))
        assert len(ObservationWindow(WindowSource("v", 1, 29), boxes[:30], boxes[30:90]).future) == 60
        for n_obs, n_fut in ((4, 6), (20, 10), (30, 0), (30, 59), (30, 61), (29, 60), (31, 60)):
            with pytest.raises(ValueError, match=f"30 observed and 60 future boxes, got {n_obs} and {n_fut}$"):
                ObservationWindow(WindowSource("v", 1, n_obs - 1), boxes[:n_obs], boxes[n_obs : n_obs + n_fut])

    def test_forecast_non_empty(self):
        with pytest.raises(ValueError):
            Forecast(WindowSource("v", 1, 29), boxes=())


def test_boxes_array_round_trip(rng):
    boxes = tuple(
        BBox(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(1, 9), rng.uniform(1, 9))
        for _ in range(17)
    )
    arr = boxes_to_array(boxes)
    assert arr.shape == (17, 4)
    assert array_to_boxes(arr) == boxes


def _public_names_and_parameters():
    """(qualified name, parameter names) of every public function, class and method of every mofcast module."""
    for info in pkgutil.walk_packages(mofcast.__path__, "mofcast."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                continue
            if not inspect.isclass(obj):
                yield f"{module.__name__}.{name}", inspect.signature(obj).parameters
                continue
            if dataclasses.is_dataclass(obj):
                yield f"{module.__name__}.{name}", {f.name for f in dataclasses.fields(obj)}
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(getattr(obj, attr)) and not inspect.isclass(member):
                    yield f"{module.__name__}.{name}.{attr}", inspect.signature(getattr(obj, attr)).parameters


def test_no_public_api_takes_the_window_protocol_as_a_parameter():
    # Windows are always 30 observed and 60 forecast frames, and a track needs their sum to yield one:
    # a parameter restating any of these is a knob that does nothing but disagree.
    knobs = {"horizon", "p", "q", "min_frames", "min_track_frames"}
    seen = dict(_public_names_and_parameters())
    assert "mofcast.baselines.lkf_operator" in seen and "mofcast.harness.ExperimentSpec" in seen
    offenders = {name: sorted(knobs & set(params)) for name, params in seen.items() if knobs & set(params)}
    assert offenders == {}
