"""Per-box geometry: the oracle ``mofcast.metrics.box_errors`` is checked against.

One :class:`mofcast.core.BBox` pair at a time, in plain Python floats:
corner form, intersection-over-union with areas taken from the same corners,
and the centroid distance. ``box_errors`` must agree with these to 1 ulp on
every element.
"""

from __future__ import annotations

import math

from mofcast.core import BBox


def corners(b: BBox) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) corner form."""
    hw, hh = b.w / 2.0, b.h / 2.0
    return (b.cx - hw, b.cy - hh, b.cx + hw, b.cy + hh)


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two axis-aligned boxes, in [0, 1].

    Areas are computed from the same corner arithmetic as the intersection,
    which makes iou(a, a) == 1.0 exact and keeps the result <= 1 under
    floating-point rounding.
    """
    ax0, ay0, ax1, ay1 = corners(a)
    bx0, by0, bx1, by1 = corners(b)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def centroid_distance(a: BBox, b: BBox) -> float:
    """Euclidean distance between the two box centroids, in pixels."""
    return math.hypot(a.cx - b.cx, a.cy - b.cy)
