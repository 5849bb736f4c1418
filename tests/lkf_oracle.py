"""The per-window Kalman filter loop: the oracle the batched LKF is checked against.

A direct 8-state implementation of the filter ``mofcast.baselines`` computes
in operator form: one predict/update cycle per observed frame with 8x8
matrices, a linear solve for the gain and the Joseph-form covariance update,
then a roll-out of the posterior mean with no updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mofcast.baselines import KalmanParams
from mofcast.core import FUTURE_LEN, ObservationWindow

_STATE_DIM = 8
_OBS_DIM = 4


@dataclass(frozen=True)
class KalmanState:
    """Gaussian posterior over (cx, cy, w, h, v_cx, v_cy, v_w, v_h)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=np.float64))
        if self.mean.shape != (_STATE_DIM,) or self.covariance.shape != (_STATE_DIM, _STATE_DIM):
            raise ValueError("Kalman state must be 8-dimensional with an 8x8 covariance")


def _transition_matrix() -> np.ndarray:
    f = np.eye(_STATE_DIM)
    f[:_OBS_DIM, _OBS_DIM:] = np.eye(_OBS_DIM)
    return f


def lkf_filter(window: ObservationWindow, params: KalmanParams) -> KalmanState:
    """Run one predict/update cycle per observed frame and return the posterior.

    The state is initialized from the first observation with zero velocity
    (``initial_velocity_variance`` on the velocity terms), then filtered
    through all observed boxes with a constant-velocity transition and direct
    observation of (cx, cy, w, h). Covariance updates use the Joseph form,
    which keeps the posterior symmetric PSD.
    """
    observed = window.observed_array()
    f = _transition_matrix()
    h = np.zeros((_OBS_DIM, _STATE_DIM))
    h[:, :_OBS_DIM] = np.eye(_OBS_DIM)
    q = np.diag([params.process_noise_pos] * _OBS_DIM + [params.process_noise_vel] * _OBS_DIM)
    r = params.observation_noise * np.eye(_OBS_DIM)

    x = np.concatenate([observed[0], np.zeros(_OBS_DIM)])
    p = np.diag([params.observation_noise] * _OBS_DIM + [params.initial_velocity_variance] * _OBS_DIM)

    identity = np.eye(_STATE_DIM)
    for z in observed:
        x = f @ x
        p = f @ p @ f.T + q
        innovation = z - h @ x
        s = h @ p @ h.T + r
        gain = np.linalg.solve(s.T, (p @ h.T).T).T
        x = x + gain @ innovation
        ikh = identity - gain @ h
        p = ikh @ p @ ikh.T + gain @ r @ gain.T
        p = (p + p.T) / 2.0
    return KalmanState(mean=x, covariance=p)


def lkf_forecast(state: KalmanState, horizon: int = FUTURE_LEN) -> np.ndarray:
    """Roll the posterior mean forward with no updates, as (horizon, 4) rows; sizes clamped to 1 px."""
    f = _transition_matrix()
    x = state.mean.copy()
    rows = np.empty((horizon, 4), dtype=np.float64)
    for k in range(horizon):
        x = f @ x
        rows[k] = x[:_OBS_DIM]
    rows[:, 2:] = np.maximum(rows[:, 2:], 1.0)
    return rows
