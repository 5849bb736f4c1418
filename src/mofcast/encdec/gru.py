"""Gated recurrent unit with exact forward and backward passes in numpy.

Cell convention (fixed for this package):

    z = sigmoid(W_z x + U_z h + b_z)          update gate
    r = sigmoid(W_r x + U_r h + b_r)          reset gate
    h~ = tanh(W_h x + U_h (r * h) + b_h)      candidate state
    h' = (1 - z) * h~ + z * h

The backward pass reproduces the gradients of this exact computation through
time (verified against central finite differences). Everything is float64.

How the work is laid out:

- ``sigmoid(x) = (1 + tanh(x / 2)) / 2``: one transcendental call, no
  overflow for any finite ``x``, and the output stays in [0, 1].
- Fused gates: each call stacks ``[W_z; W_r; W_h]`` into one (3H, I) input
  matrix and ``[U_z; U_r]`` into one (2H, H) recurrent matrix, so the input
  projection of the whole sequence is one GEMM and each step makes one
  ``h @ U_zr`` GEMM for both gates (backward: one ``a_zr @ U_zr``). The
  stacking happens once per call; :class:`GRUParams` keeps the nine
  separate tensors that checkpoints name.
- Only the hidden-to-hidden recurrences run step by step. The recurrent
  weight gradients are not accumulated per step: after the loop, one GEMM
  over the hidden states of all steps flattened to (B*T, H) gives
  ``[dU_z; dU_r]`` and one more gives ``dU_h``.
- Time-constant inputs: a (B, T, I) input whose time axis has stride 0 (a
  ``np.broadcast_to`` of one (B, I) row per sequence, as the decoder is fed
  its code) is projected once, as (B, 3H). Its input-weight gradient is
  ``(sum_t da_t)^T x[:, 0]``, and ``gru_backward`` returns its ``dx`` as
  (B, 1, I): the gradient w.r.t. the one shared row, which is the full
  (B, T, I) ``dx`` summed over time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class GRUParams:
    """Weights of one GRU layer; also reused as the container for gradients."""

    w_z: np.ndarray
    w_r: np.ndarray
    w_h: np.ndarray
    u_z: np.ndarray
    u_r: np.ndarray
    u_h: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_h: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w_z.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_z.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "GRUParams":
        return GRUParams(**{k: v.copy() for k, v in self.tensors().items()})

    @classmethod
    def init(cls, rng: np.random.Generator, input_dim: int, hidden_dim: int) -> "GRUParams":
        """Uniform fan-in-scaled weights, zero biases."""
        wb = 1.0 / np.sqrt(input_dim)
        ub = 1.0 / np.sqrt(hidden_dim)
        return cls(
            w_z=rng.uniform(-wb, wb, (hidden_dim, input_dim)),
            w_r=rng.uniform(-wb, wb, (hidden_dim, input_dim)),
            w_h=rng.uniform(-wb, wb, (hidden_dim, input_dim)),
            u_z=rng.uniform(-ub, ub, (hidden_dim, hidden_dim)),
            u_r=rng.uniform(-ub, ub, (hidden_dim, hidden_dim)),
            u_h=rng.uniform(-ub, ub, (hidden_dim, hidden_dim)),
            b_z=np.zeros(hidden_dim),
            b_r=np.zeros(hidden_dim),
            b_h=np.zeros(hidden_dim),
        )

    @classmethod
    def zeros(cls, input_dim: int, hidden_dim: int) -> "GRUParams":
        return cls(
            w_z=np.zeros((hidden_dim, input_dim)),
            w_r=np.zeros((hidden_dim, input_dim)),
            w_h=np.zeros((hidden_dim, input_dim)),
            u_z=np.zeros((hidden_dim, hidden_dim)),
            u_r=np.zeros((hidden_dim, hidden_dim)),
            u_h=np.zeros((hidden_dim, hidden_dim)),
            b_z=np.zeros(hidden_dim),
            b_r=np.zeros(hidden_dim),
            b_h=np.zeros(hidden_dim),
        )


class GRUCache(NamedTuple):
    x: np.ndarray       # (B, T, I), as passed in (stride 0 over T for a time-constant input)
    hs: np.ndarray      # (B, T+1, H), hs[:, 0] is h0
    zr: np.ndarray      # (B, T, 2H), the update gate z then the reset gate r
    htil: np.ndarray    # (B, T, H)


def _time_constant(x: np.ndarray) -> bool:
    """True for a (B, T, I) input whose T > 1 steps all read the same row (time stride 0)."""
    return x.shape[1] > 1 and x.strides[1] == 0


def _input_weights(params: GRUParams) -> tuple[np.ndarray, np.ndarray]:
    """(3H, I) stacked input weights and (3H,) biases, gate order z, r, h."""
    return (np.concatenate([params.w_z, params.w_r, params.w_h]),
            np.concatenate([params.b_z, params.b_r, params.b_h]))


def gru_forward(params: GRUParams, x: np.ndarray, h0: np.ndarray | None = None) -> tuple[np.ndarray, GRUCache]:
    """Run the cell over a (B, T, I) sequence; returns hidden states (B, T, H)."""
    b, t, i = x.shape
    hd = params.hidden_dim
    w, bias = _input_weights(params)
    u_zr = np.concatenate([params.u_z, params.u_r])
    # One GEMM for all gates and timesteps (one row per sequence if time-constant).
    rows = x[:, 0] if _time_constant(x) else x.reshape(b * t, i)
    xp = np.broadcast_to((rows @ w.T + bias).reshape(b, -1, 3 * hd), (b, t, 3 * hd))

    hs = np.empty((b, t + 1, hd))
    hs[:, 0] = 0.0 if h0 is None else h0
    zr_all = np.empty((b, t, 2 * hd))
    htil_all = np.empty((b, t, hd))
    for k in range(t):
        h = hs[:, k]
        zr = sigmoid(xp[:, k, : 2 * hd] + h @ u_zr.T)
        z, r = zr[:, :hd], zr[:, hd:]
        htil = np.tanh(xp[:, k, 2 * hd :] + (r * h) @ params.u_h.T)
        hs[:, k + 1] = (1.0 - z) * htil + z * h
        zr_all[:, k] = zr
        htil_all[:, k] = htil
    return hs[:, 1:], GRUCache(x=x, hs=hs, zr=zr_all, htil=htil_all)


def gru_backward(
    params: GRUParams, cache: GRUCache, dh_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, GRUParams]:
    """Backpropagate through time.

    ``dh_out[:, k]`` is the loss gradient injected directly at hidden state
    h_{k+1} by its downstream consumers (every step for a decoder, only the
    last step for a sequence encoder). Returns (dx, dh0, parameter grads);
    ``dx`` is (B, T, I), or (B, 1, I) for a time-constant input.
    """
    x, hs, zr_all, htil_all = cache
    b, t, i = x.shape
    hd = params.hidden_dim
    u_zr = np.concatenate([params.u_z, params.u_r])

    da = np.empty((b, t, 3 * hd))  # pre-activation gradients a_z, a_r, a_h
    dh = np.zeros((b, hd))
    for k in range(t - 1, -1, -1):
        dh = dh + dh_out[:, k]
        z, r, htil = zr_all[:, k, :hd], zr_all[:, k, hd:], htil_all[:, k]
        h_prev = hs[:, k]

        dhtil = dh * (1.0 - z)
        dz = dh * (h_prev - htil)
        a_h = dhtil * (1.0 - htil * htil)
        a_z = dz * z * (1.0 - z)
        drh = a_h @ params.u_h          # grad w.r.t. (r * h_prev)
        dr = drh * h_prev
        a_r = dr * r * (1.0 - r)
        da[:, k, :hd] = a_z
        da[:, k, hd : 2 * hd] = a_r
        da[:, k, 2 * hd :] = a_h

        dh = dh * z + da[:, k, : 2 * hd] @ u_zr + drh * r

    flat_da = da.reshape(b * t, 3 * hd)
    h_prev = hs[:, :-1].reshape(b * t, hd)
    du_zr = flat_da[:, : 2 * hd].T @ h_prev
    du_h = flat_da[:, 2 * hd :].T @ (zr_all[:, :, hd:].reshape(b * t, hd) * h_prev)

    w, _ = _input_weights(params)
    if _time_constant(x):
        rows_da, rows_x = da.sum(axis=1), x[:, 0]
    else:
        rows_da, rows_x = flat_da, x.reshape(b * t, i)
    dw = rows_da.T @ rows_x
    db = rows_da.sum(axis=0)
    grads = GRUParams(
        w_z=dw[:hd],
        w_r=dw[hd : 2 * hd],
        w_h=dw[2 * hd :],
        u_z=du_zr[:hd],
        u_r=du_zr[hd:],
        u_h=du_h,
        b_z=db[:hd],
        b_r=db[hd : 2 * hd],
        b_h=db[2 * hd :],
    )
    dx = (rows_da @ w).reshape(b, -1, i)
    return dx, dh, grads
