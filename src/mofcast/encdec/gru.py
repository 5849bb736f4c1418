"""Gated recurrent unit with exact forward and backward passes in numpy.

Cell convention (fixed for this package):

    z = sigmoid(W_z x + U_z h + b_z)          update gate
    r = sigmoid(W_r x + U_r h + b_r)          reset gate
    h~ = tanh(W_h x + U_h (r * h) + b_h)      candidate state
    h' = (1 - z) * h~ + z * h

The backward pass reproduces the gradients of this exact computation through
time (verified against central finite differences). Input projections for
the whole sequence are batched into single matrix products; only the
hidden-to-hidden recurrences run step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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
    x: np.ndarray       # (B, T, I)
    hs: np.ndarray      # (B, T+1, H), hs[:, 0] is h0
    z: np.ndarray       # (B, T, H)
    r: np.ndarray
    htil: np.ndarray


def gru_forward(params: GRUParams, x: np.ndarray, h0: np.ndarray | None = None) -> tuple[np.ndarray, GRUCache]:
    """Run the cell over a (B, T, I) sequence; returns hidden states (B, T, H)."""
    b, t, i = x.shape
    hd = params.hidden_dim
    # One GEMM per gate for all timesteps' input projections.
    flat = x.reshape(b * t, i)
    xz = (flat @ params.w_z.T + params.b_z).reshape(b, t, hd)
    xr = (flat @ params.w_r.T + params.b_r).reshape(b, t, hd)
    xh = (flat @ params.w_h.T + params.b_h).reshape(b, t, hd)

    hs = np.empty((b, t + 1, hd))
    hs[:, 0] = 0.0 if h0 is None else h0
    z_all = np.empty((b, t, hd))
    r_all = np.empty((b, t, hd))
    htil_all = np.empty((b, t, hd))
    for k in range(t):
        h = hs[:, k]
        z = sigmoid(xz[:, k] + h @ params.u_z.T)
        r = sigmoid(xr[:, k] + h @ params.u_r.T)
        htil = np.tanh(xh[:, k] + (r * h) @ params.u_h.T)
        hs[:, k + 1] = (1.0 - z) * htil + z * h
        z_all[:, k] = z
        r_all[:, k] = r
        htil_all[:, k] = htil
    return hs[:, 1:], GRUCache(x=x, hs=hs, z=z_all, r=r_all, htil=htil_all)


def gru_backward(
    params: GRUParams, cache: GRUCache, dh_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, GRUParams]:
    """Backpropagate through time.

    ``dh_out[:, k]`` is the loss gradient injected directly at hidden state
    h_{k+1} by its downstream consumers (every step for a decoder, only the
    last step for a sequence encoder). Returns (dx, dh0, parameter grads).
    """
    x, hs, z_all, r_all, htil_all = cache
    b, t, i = x.shape
    hd = params.hidden_dim

    da_z = np.empty((b, t, hd))
    da_r = np.empty((b, t, hd))
    da_h = np.empty((b, t, hd))
    du_z = np.zeros((hd, hd))
    du_r = np.zeros((hd, hd))
    du_h = np.zeros((hd, hd))

    dh = np.zeros((b, hd))
    for k in range(t - 1, -1, -1):
        dh = dh + dh_out[:, k]
        z, r, htil = z_all[:, k], r_all[:, k], htil_all[:, k]
        h_prev = hs[:, k]

        dhtil = dh * (1.0 - z)
        dz = dh * (h_prev - htil)
        a_h = dhtil * (1.0 - htil * htil)
        a_z = dz * z * (1.0 - z)
        drh = a_h @ params.u_h          # grad w.r.t. (r * h_prev)
        dr = drh * h_prev
        a_r = dr * r * (1.0 - r)

        du_z += a_z.T @ h_prev
        du_r += a_r.T @ h_prev
        du_h += a_h.T @ (r * h_prev)
        da_z[:, k] = a_z
        da_r[:, k] = a_r
        da_h[:, k] = a_h

        dh = dh * z + a_z @ params.u_z + a_r @ params.u_r + drh * r

    flat_x = x.reshape(b * t, i)
    fz = da_z.reshape(b * t, hd)
    fr = da_r.reshape(b * t, hd)
    fh = da_h.reshape(b * t, hd)
    grads = GRUParams(
        w_z=fz.T @ flat_x,
        w_r=fr.T @ flat_x,
        w_h=fh.T @ flat_x,
        u_z=du_z,
        u_r=du_r,
        u_h=du_h,
        b_z=fz.sum(axis=0),
        b_r=fr.sum(axis=0),
        b_h=fh.sum(axis=0),
    )
    dx = (fz @ params.w_z + fr @ params.w_r + fh @ params.w_h).reshape(b, t, i)
    return dx, dh, grads
