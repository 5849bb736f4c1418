"""The frame-by-frame greedy clip scan: the oracle ``mofcast.data.motion_filter_clips`` is checked against.

Walks left to right: a clip starts at the first frame from which the next
``clip_frames`` frames hold no spike (a frame above the threshold); the scan
then resumes after the clip, or after the spike that blocked it. Takes
already-checked inputs.
"""

from __future__ import annotations

import numpy as np

from mofcast.data import ClipInterval


def motion_filter_clips_oracle(mags: np.ndarray, threshold: float, clip_frames: int) -> list[ClipInterval]:
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
