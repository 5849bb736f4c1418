"""Correctness gate: independent numpy oracles for every job the benchmark runs.

The oracles share no code with ``mofcast`` beyond reading its windows and
parameter tensors. They recompute each job's ADE/FDE/AIOU/FIOU from arrays:

- CV-CS: the closed-form constant-velocity, constant-scale roll-out;
- LKF: the same filter in matrix form (its gain sequence does not depend on
  the data, so every window of a grid point shares it), tuned on the
  validation windows by lowest ADE, earlier grid entry on ties;
- encoder-decoder: a plain GRU forward pass over the parameter tensors.

Training is checked through invariants that hold on every seed: the
untrained epoch scores exactly like CV-CS, the first epoch's loss (one batch
at the initial parameters) equals the smooth-L1 of the CV-CS residuals, and
the training loss falls every epoch. ``reference.json`` adds stored values
for the seeds listed there.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def window_arrays(windows) -> tuple[np.ndarray, np.ndarray]:
    """(N, p, 4) observed and (N, q, 4) future boxes as [cx, cy, w, h]."""
    obs = np.array([[(b.cx, b.cy, b.w, b.h) for b in w.observed] for w in windows], dtype=np.float64)
    fut = np.array([[(b.cx, b.cy, b.w, b.h) for b in w.future] for w in windows], dtype=np.float64)
    return obs, fut


def cvcs(obs: np.ndarray, q: int) -> np.ndarray:
    vel = (obs[:, -1, :2] - obs[:, -5, :2]) / 4.0
    steps = np.arange(1, q + 1, dtype=np.float64)[None, :, None]
    out = np.empty((obs.shape[0], q, 4))
    out[:, :, :2] = obs[:, -1, None, :2] + steps * vel[:, None, :]
    out[:, :, 2:] = obs[:, -1, None, 2:]
    return out


def scores(pred: np.ndarray, gt: np.ndarray) -> dict:
    disp = np.hypot(pred[..., 0] - gt[..., 0], pred[..., 1] - gt[..., 1])
    lo_p, hi_p = pred[..., :2] - pred[..., 2:] / 2.0, pred[..., :2] + pred[..., 2:] / 2.0
    lo_g, hi_g = gt[..., :2] - gt[..., 2:] / 2.0, gt[..., :2] + gt[..., 2:] / 2.0
    side = np.minimum(hi_p, hi_g) - np.maximum(lo_p, lo_g)
    overlap = np.all(side > 0.0, axis=-1)
    inter = np.where(overlap, side[..., 0] * side[..., 1], 0.0)
    area = lambda lo, hi: (hi[..., 0] - lo[..., 0]) * (hi[..., 1] - lo[..., 1])
    union = area(lo_p, hi_p) + area(lo_g, hi_g) - inter
    ious = np.where(overlap, inter / union, 0.0)
    d_curve, i_curve = disp.mean(axis=0), ious.mean(axis=0)
    return {
        "ade": float(d_curve.mean()),
        "fde": float(d_curve[-1]),
        "aiou": float(i_curve.mean()),
        "fiou": float(i_curve[-1]),
        "n_windows": int(pred.shape[0]),
    }


def _lkf_gains(params: dict, p: int) -> list[np.ndarray]:
    f = np.eye(8)
    f[:4, 4:] = np.eye(4)
    h = np.eye(4, 8)
    q = np.diag([params["process_noise_pos"]] * 4 + [params["process_noise_vel"]] * 4)
    r = params["observation_noise"] * np.eye(4)
    cov = np.diag([params["observation_noise"]] * 4 + [params["initial_velocity_variance"]] * 4)
    gains = []
    for _ in range(p):
        cov = f @ cov @ f.T + q
        gain = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + r)
        ikh = np.eye(8) - gain @ h
        cov = ikh @ cov @ ikh.T + gain @ r @ gain.T
        cov = (cov + cov.T) / 2.0
        gains.append(gain)
    return gains


def lkf(obs: np.ndarray, q: int, params: dict) -> np.ndarray:
    f = np.eye(8)
    f[:4, 4:] = np.eye(4)
    x = np.concatenate([obs[:, 0], np.zeros((obs.shape[0], 4))], axis=1)
    for t, gain in enumerate(_lkf_gains(params, obs.shape[1])):
        x = x @ f.T
        x = x + (obs[:, t] - x[:, :4]) @ gain.T
    steps = np.arange(1, q + 1, dtype=np.float64)[None, :, None]
    out = x[:, None, :4] + steps * x[:, None, 4:]
    out[..., 2:] = np.maximum(out[..., 2:], 1.0)
    return out


def lkf_tuned(val: tuple, test: tuple, grid: list[dict]) -> tuple[int, dict]:
    """Index of the grid point with the lowest validation ADE, and its test scores."""
    val_ade = [scores(lkf(val[0], val[1].shape[1], g), val[1])["ade"] for g in grid]
    best = min(range(len(grid)), key=lambda i: (val_ade[i], i))
    return best, scores(lkf(test[0], test[1].shape[1], grid[best]), test[1])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _gru(t: dict, prefix: str, h: np.ndarray, x_proj) -> np.ndarray:
    """One GRU step given the input projections (xz, xr, xh) of this step."""
    xz, xr, xh = x_proj
    z = _sigmoid(xz + h @ t[f"{prefix}.u_z"].T)
    r = _sigmoid(xr + h @ t[f"{prefix}.u_r"].T)
    cand = np.tanh(xh + (r * h) @ t[f"{prefix}.u_h"].T)
    return (1.0 - z) * cand + z * h


def _project(t: dict, prefix: str, x: np.ndarray):
    return tuple(x @ t[f"{prefix}.w_{g}"].T + t[f"{prefix}.b_{g}"] for g in "zrh")


def encdec(model, obs: np.ndarray, flow: np.ndarray | None, q: int, chunk: int = 128) -> np.ndarray:
    """Forecast boxes of a ``mofcast`` Model, recomputed from its tensors."""
    cfg = model.config
    t = model.params.tensors()
    hidden = cfg.hidden
    out = []
    for lo in range(0, obs.shape[0], chunk):
        o = obs[lo : lo + chunk]
        parts = []
        if cfg.uses_boxes:
            refs = np.maximum(np.arange(o.shape[1]) - 4, 0)
            feats = np.concatenate([o, o - o[:, refs]], axis=2)
            feats = (feats - model.stats.mean) / model.stats.std
            h = np.zeros((o.shape[0], hidden))
            for k in range(o.shape[1]):
                h = _gru(t, "encoder", h, _project(t, "encoder", feats[:, k]))
            code = h @ t["fc1.w"].T + t["fc1.b"]
            parts.append(np.maximum(code, 0.0) if cfg.fc_activation else code)
        if cfg.uses_flow:
            parts.append(flow[lo : lo + chunk])
        code = np.concatenate(parts, axis=1)
        proj = _project(t, "decoder", code)  # the decoder sees the same code at every step
        h = np.zeros((o.shape[0], hidden))
        res = np.zeros((o.shape[0], 4))
        pred = cvcs(o, q)
        for k in range(q):
            h = _gru(t, "decoder", h, proj)
            res = res + h @ t["out.w"].T + t["out.b"]
            pred[:, k] += res
        pred[..., 2:] = np.maximum(pred[..., 2:], 1.0)
        out.append(pred)
    return np.concatenate(out)


def untrained_val_ade(val: tuple) -> float:
    """Validation ADE of the zero-residual (untrained) model, i.e. of CV-CS."""
    return scores(cvcs(val[0], val[1].shape[1]), val[1])["ade"]


def untrained_loss(train: tuple, beta: float) -> float:
    """Smooth-L1 loss of zero residuals against the CV-CS residual targets."""
    d = np.abs(train[1] - cvcs(train[0], train[1].shape[1]))
    return float(np.where(d < beta, 0.5 * d * d / beta, d - 0.5 * beta).mean())


def close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(got), abs(want), 1e-12)


def compare(got: dict, want: dict, rtol: float, what: str) -> list[str]:
    """Mismatches between two score dicts, one line each."""
    problems = []
    for key, value in want.items():
        ok = got.get(key) == value if isinstance(value, int) else close(got.get(key, math.nan), value, rtol)
        if not ok:
            problems.append(f"{what}: {key} = {got.get(key)!r}, expected {value!r} (rtol {rtol:g})")
    return problems
