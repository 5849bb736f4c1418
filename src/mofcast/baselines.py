"""Classical forecasters as linear operators on (N, p, 4) window arrays:
constant velocity / constant scale (CV-CS), and a linear Kalman filter (LKF)
with grid-tuned noise parameters. Both return (N, q, 4) forecasts.

CV-CS estimates per-frame centroid velocity from the last five observed
frames and extrapolates it linearly while freezing the box size at the
anchor frame (constant scale beats linear size extrapolation).

The LKF is a constant-velocity filter over an 8-dimensional state (position
+ size and their velocities, unit time step), started at the first
observation with zero velocity, updated once per observed frame and rolled
forward without updates. Its matrices F, H, Q, R and P0 come from
:class:`KalmanParams` alone and the covariance recursion never reads an
observation, so every window gets the same gain sequence and the posterior
mean is a fixed linear function of the observations. None of the matrices
couples the four box channels, so the filter is four identical 2-state
(position, velocity) filters. One (q x p) matrix, built once per parameter
set from a scalar 2x2 recursion, thus forecasts every channel of every
window with one matmul, followed by the 1-px size clamp.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import FUTURE_LEN, MIN_BOX_SIZE, OBSERVED_LEN, VELOCITY_LAG, VELOCITY_SPAN, ObservationWindow
from .data.io import read_json, write_json
from .data.windows import WindowBatch
from .metrics import centroid_ade
# aggregate and evaluate_window stay in this namespace: benchmarks/tracing.py wraps them here
from .metrics import aggregate, evaluate_window  # noqa: F401


def cv_velocity(observed: np.ndarray) -> np.ndarray:
    """Per-frame centroid velocity from the last 5 observed frames: (c_t - c_{t-4}) / 4.

    ``observed`` is (p, 4) or a (N, p, 4) batch.
    """
    return (observed[..., -1, :2] - observed[..., -VELOCITY_SPAN, :2]) / VELOCITY_LAG


def cv_cs_batch(observed: np.ndarray) -> np.ndarray:
    """Constant-velocity, constant-scale roll-out of (N, p, 4) windows as (N, 60, 4).

    Row k holds the box at step k+1: centroid(anchor) + (k+1) * velocity,
    size frozen at the anchor frame and raised to at least ``MIN_BOX_SIZE``,
    as every forecast's is. This is both the CV-CS forecast and the
    reference the learned model's residuals are added to.
    """
    vel = cv_velocity(observed)
    steps = np.arange(1, FUTURE_LEN + 1, dtype=np.float64)
    out = np.empty((observed.shape[0], FUTURE_LEN, 4), dtype=np.float64)
    out[:, :, :2] = observed[:, -1, None, :2] + steps[None, :, None] * vel[:, None, :]
    out[:, :, 2:] = np.maximum(observed[:, -1, None, 2:], MIN_BOX_SIZE)
    return out


def cv_cs_forecast(window: ObservationWindow) -> np.ndarray:
    """:func:`cv_cs_batch` of one window, as its (60, 4) forecast."""
    return cv_cs_batch(window.observed_array()[None])[0]


@dataclass(frozen=True)
class KalmanParams:
    """Noise configuration of the linear Kalman filter; all variances in px^2."""

    process_noise_pos: float
    process_noise_vel: float
    observation_noise: float
    initial_velocity_variance: float = 100.0

    def __post_init__(self):
        for name, v in asdict(self).items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not (math.isfinite(v) and v > 0):
                raise ValueError(f"KalmanParams.{name} must be finite and > 0, got {v!r}")

    def to_file(self, path: str | Path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def from_file(cls, path: str | Path) -> "KalmanParams":
        """Read a JSON object of the fields; a malformed file raises ValueError naming it."""
        return _params_from(read_json(path, ValueError), str(path))


def _params_from(entry, where: str) -> KalmanParams:
    """KalmanParams from one parsed JSON value; its errors name ``where``."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected a JSON object of KalmanParams fields, got {json.dumps(entry)}")
    try:
        return KalmanParams(**entry)
    except (TypeError, ValueError) as exc:  # TypeError: a missing or unknown field
        raise ValueError(f"{where}: {exc}") from None


@functools.lru_cache(maxsize=256)
def lkf_operator(params: KalmanParams) -> np.ndarray:
    """The (60, 30) matrix taking one channel's 30 observations to its 60 forecast steps.

    Runs the 2-state (position, velocity) filter of one channel with the
    data-free covariance recursion (Joseph-form update), while
    carrying the posterior mean as a (2, p) matrix of weights on the
    observations instead of as numbers. Step k of the forecast is then
    position + k * velocity of that posterior.
    """
    r = params.observation_noise
    qp, qv = params.process_noise_pos, params.process_noise_vel
    # covariance [[a, b], [b, c]] of (position, velocity)
    a, b, c = r, 0.0, params.initial_velocity_variance
    weights = np.zeros((2, OBSERVED_LEN))
    weights[0, 0] = 1.0  # the state starts at the first observation, velocity 0
    for t in range(OBSERVED_LEN):
        # predict: F = [[1, 1], [0, 1]]
        weights[0] += weights[1]
        a, b, c = a + 2.0 * b + c + qp, b + c, c + qv
        # update with observation t: gain k = P H^T / (H P H^T + R)
        s = a + r
        k0, k1 = a / s, b / s
        innovation = -weights[0]
        innovation[t] += 1.0
        weights[0] += k0 * innovation
        weights[1] += k1 * innovation
        # Joseph form (I - kH) P (I - kH)^T + k r k^T with H = [1, 0]
        a, b, c = (
            (1.0 - k0) ** 2 * a + k0 * k0 * r,
            (1.0 - k0) * (b - k1 * a) + k0 * k1 * r,
            c - 2.0 * k1 * b + k1 * k1 * a + k1 * k1 * r,
        )
    steps = np.arange(1, FUTURE_LEN + 1, dtype=np.float64)
    operator = weights[0][None, :] + steps[:, None] * weights[1][None, :]
    operator.setflags(write=False)
    return operator


def lkf_batch(observed: np.ndarray, params: KalmanParams) -> np.ndarray:
    """Kalman forecasts of (N, 30, 4) windows as (N, 60, 4); sizes clamped to 1 px."""
    pred = lkf_operator(params) @ observed
    pred[..., 2:] = np.maximum(pred[..., 2:], MIN_BOX_SIZE)
    return pred


def lkf_forecast_window(window: ObservationWindow, params: KalmanParams) -> np.ndarray:
    """:func:`lkf_batch` of one window, as its (60, 4) forecast."""
    return lkf_batch(window.observed_array()[None], params)[0]


class TuneResult(NamedTuple):
    params: KalmanParams
    table: list[tuple[KalmanParams, float]]


def lkf_tune(val: WindowBatch, grid: Sequence[KalmanParams]) -> TuneResult:
    """Pick the grid element with the lowest validation ADE.

    Ties break toward the earlier grid entry. The full (params, ADE) table is
    returned alongside the winner. ADE reads only centroids, which the size
    clamp never touches, so each grid point forecasts just the two centroid
    channels, with one matmul.
    """
    if not grid:
        raise ValueError("parameter grid is empty")
    if not len(val):
        raise ValueError("validation set is empty")
    centroids = val.observed[..., :2]
    table = []
    best = None
    best_ade = math.inf
    for params in grid:
        ade = centroid_ade(lkf_operator(params) @ centroids, val.future)
        table.append((params, ade))
        if ade < best_ade:
            best, best_ade = params, ade
    return TuneResult(params=best, table=table)


def default_param_grid() -> list[KalmanParams]:
    """The stock tuning grid: 3 x 3 x 3 noise combinations, fixed initial velocity variance."""
    return [
        KalmanParams(process_noise_pos=pos, process_noise_vel=vel, observation_noise=obs)
        for pos, vel, obs in itertools.product((1e-4, 1e-2, 1.0), (1e-4, 1e-2, 1.0), (0.1, 1.0, 10.0))
    ]


def save_param_grid(grid: Sequence[KalmanParams], path: str | Path) -> None:
    write_json(path, [asdict(p) for p in grid])


def load_param_grid(path: str | Path) -> list[KalmanParams]:
    """Read a non-empty JSON list of KalmanParams objects; a malformed file raises ValueError naming it."""
    payload = read_json(path, ValueError)
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"{path}: expected a non-empty JSON list of KalmanParams objects")
    return [_params_from(entry, f"{path}: entry {i}") for i, entry in enumerate(payload)]
