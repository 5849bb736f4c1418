"""Per-frame box features, channel standardization, and flow-feature input.

Each observed frame contributes an 8-channel vector: the box coordinates
(cx, cy, w, h) plus their 5-frame differences (v_x, v_y, dw, dh), where the
difference at frame j is taken against frame j-4. The first four frames of a
window have no j-4; they difference against the earliest available frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import VELOCITY_LAG, ObservationWindow

FEATURE_DIM = 8

_STD_FLOOR = 1e-6


def box_features(window: ObservationWindow) -> np.ndarray:
    """(p, 8) feature rows (x, y, w, h, v_x, v_y, dw, dh) for one window."""
    return box_features_from_array(window.observed_array())


def box_features_from_array(observed: np.ndarray) -> np.ndarray:
    """Feature rows of a (p, 4) window or a (N, p, 4) batch: (p, 8) or (N, p, 8)."""
    p = observed.shape[-2]
    refs = np.maximum(np.arange(p) - VELOCITY_LAG, 0)
    return np.concatenate([observed, observed - observed[..., refs, :]], axis=-1)


@dataclass(frozen=True)
class FeatureStats:
    """Per-channel mean/std of the training features; std floored at 1e-6."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != (FEATURE_DIM,) or std.shape != (FEATURE_DIM,):
            raise ValueError(f"stats must have shape ({FEATURE_DIM},)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", np.maximum(std, _STD_FLOOR))

    @classmethod
    def identity(cls) -> "FeatureStats":
        return cls(mean=np.zeros(FEATURE_DIM), std=np.ones(FEATURE_DIM))


def compute_feature_stats(features: np.ndarray) -> FeatureStats:
    """Stats over an (N, p, 8) stack of training-set features only."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or features.shape[-1] != FEATURE_DIM:
        raise ValueError(f"expected (N, p, {FEATURE_DIM}) features, got shape {features.shape}")
    flat = features.reshape(-1, FEATURE_DIM)
    return FeatureStats(mean=flat.mean(axis=0), std=flat.std(axis=0))


def standardize(features: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Channel-wise (x - mean) / std; shape-preserving."""
    return (np.asarray(features, dtype=np.float64) - stats.mean) / stats.std


def synthetic_flow_feature(window: ObservationWindow, dim: int) -> np.ndarray:
    """:func:`synthetic_flow_batch` of one window, as a (dim,) vector."""
    return synthetic_flow_batch(window.observed_array()[None], dim)[0]


def synthetic_flow_batch(observed: np.ndarray, dim: int) -> np.ndarray:
    """Stand-in flow features of (N, p, 4) windows, built from the windows themselves.

    Row i is the mean per-step displacement of window i's observed boxes (4
    values) tiled to ``dim`` entries. Deterministic and translation-invariant,
    which makes the flow-consuming variants testable without any real flow
    pipeline.
    """
    step_mean = np.diff(observed, axis=1).mean(axis=1)
    reps = -(-dim // step_mean.shape[1])
    return np.tile(step_mean, reps)[:, :dim]
