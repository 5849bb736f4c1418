"""Synthetic track generation for desk-scale verification.

Four motion families with closed-form or stepwise-exact noiseless centroid
dynamics, plus a smooth linear scale profile for width/height and optional
per-frame Gaussian noise. Tracks carry round-robin city/weather/time
metadata so split construction and metadata breakdowns are exercisable
without real data.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core import MIN_BOX_SIZE, Track
from .splits import N_FOLDS, SplitConfig
from .windows import MIN_TRACK_FRAMES

KINDS = ("constant_velocity", "accelerating", "turning", "stop_and_go")

SYNTH_CITIES = ("arden", "bexley", "corunna", "dunmore", "elsfield", "farley")
SYNTH_WEATHER = ("sun", "rain", "snow", "overcast")
SYNTH_TIME_OF_DAY = ("day", "night")


def default_synth_split_config() -> SplitConfig:
    """:data:`N_FOLDS` folds over the synthetic cities, dealt round-robin (two cities per fold)."""
    return SplitConfig(folds={city: i % N_FOLDS for i, city in enumerate(SYNTH_CITIES)})


def _centroids(kind: str, rng: np.random.Generator, n_frames: int) -> np.ndarray:
    t = np.arange(n_frames, dtype=np.float64)
    c0 = np.array([rng.uniform(100.0, 1180.0), rng.uniform(100.0, 620.0)])
    speed = rng.uniform(0.5, 4.0)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    v = speed * np.array([math.cos(heading), math.sin(heading)])

    if kind == "constant_velocity":
        # Snap origin and velocity to a 1/64 px grid: c0 + v*t is then exact
        # in double precision, so 5-frame velocity recovery and linear
        # extrapolation reproduce the track bit-for-bit (zero residuals).
        c0 = np.round(c0 * 64.0) / 64.0
        v = np.round(v * 64.0) / 64.0
        return c0 + t[:, None] * v

    if kind == "accelerating":
        accel = rng.uniform(0.01, 0.05) * rng.choice([-1.0, 1.0])
        a = accel * np.array([math.cos(heading), math.sin(heading)])
        return c0 + t[:, None] * v + 0.5 * t[:, None] ** 2 * a

    if kind == "turning":
        omega = rng.uniform(0.01, 0.04) * rng.choice([-1.0, 1.0])
        angles = heading + omega * t
        steps = speed * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pos = np.empty((n_frames, 2))
        pos[0] = c0
        pos[1:] = c0 + np.cumsum(steps[:-1], axis=0)
        return pos

    if kind == "stop_and_go":
        t1 = int(rng.integers(30, 61))
        t2 = int(rng.integers(20, 41))
        heading2 = rng.uniform(0.0, 2.0 * math.pi)
        v2 = rng.uniform(0.5, 4.0) * np.array([math.cos(heading2), math.sin(heading2)])
        steps = np.zeros((n_frames, 2))
        steps[:t1] = v
        steps[t1 + t2 :] = v2
        pos = np.empty((n_frames, 2))
        pos[0] = c0
        pos[1:] = c0 + np.cumsum(steps[:-1], axis=0)
        return pos

    raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")


def synth_generate(
    kind: str,
    n_tracks: int,
    noise_sigma: float,
    seed: int,
    n_frames: int | None = None,
) -> list[Track]:
    """Generate deterministic synthetic tracks of one motion family.

    Every track is at least ``MIN_TRACK_FRAMES`` long (lengths drawn from
    120..180 when ``n_frames`` is not given). ``noise_sigma`` is the
    per-frame Gaussian noise, in pixels, added to all four box coordinates.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if n_tracks < 1:
        raise ValueError(f"n_tracks must be >= 1, got {n_tracks}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if n_frames is not None and n_frames < MIN_TRACK_FRAMES:
        raise ValueError(f"n_frames must be >= {MIN_TRACK_FRAMES}, got {n_frames}")

    rng = np.random.default_rng(seed)
    tracks = []
    for i in range(n_tracks):
        length = n_frames if n_frames is not None else int(rng.integers(120, 181))
        centers = _centroids(kind, rng, length)

        w0 = rng.uniform(20.0, 60.0)
        h0 = w0 * rng.uniform(1.8, 2.6)
        scale_rate = rng.uniform(-0.002, 0.002)
        if kind == "constant_velocity":
            # keep this family's residuals exactly zero under constant scale
            scale_rate = 0.0
        scale = 1.0 + scale_rate * np.arange(length)
        sizes = np.stack([w0 * scale, h0 * scale], axis=1)

        coords = np.concatenate([centers, sizes], axis=1)
        coords = coords + noise_sigma * rng.standard_normal((length, 4))
        coords[:, 2:] = np.maximum(coords[:, 2:], MIN_BOX_SIZE)

        tracks.append(
            Track(
                video_id=f"synth-{kind}-{seed}-{i:04d}",
                track_id=i,
                start_frame=0,
                boxes=coords,
                metadata={
                    "city": SYNTH_CITIES[i % len(SYNTH_CITIES)],
                    "weather": SYNTH_WEATHER[i % len(SYNTH_WEATHER)],
                    "time_of_day": SYNTH_TIME_OF_DAY[i % len(SYNTH_TIME_OF_DAY)],
                },
            )
        )
    return tracks


def synth_generate_mixed(
    kinds: Sequence[str],
    n_tracks: int,
    noise_sigma: float,
    seed: int,
    n_frames: int | None = None,
) -> list[Track]:
    """Interleave several motion families; track ids stay unique per kind."""
    per_kind = {k: synth_generate(k, n_tracks, noise_sigma, seed + j, n_frames) for j, k in enumerate(kinds)}
    mixed = []
    for i in range(n_tracks):
        for k in kinds:
            mixed.append(per_kind[k][i])
    return mixed
