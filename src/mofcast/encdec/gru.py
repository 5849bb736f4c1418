"""Gated recurrent unit with exact forward and backward passes in numpy.

Cell convention (fixed for this package):

    z = sigmoid(W_z x + U_z h + b_z)          update gate
    r = sigmoid(W_r x + U_r h + b_r)          reset gate
    h~ = tanh(W_h x + U_h (r * h) + b_h)      candidate state
    h' = (1 - z) * h~ + z * h

Every sequence starts from the zero state h_0 = 0: the model runs its
encoder over the p = 30 observed frames and its decoder over the q = 60
future steps. The backward pass reproduces the gradients of this exact
computation through time (verified against central finite differences).
Everything is float64.

How the work is laid out:

- ``sigmoid(x) = (1 + tanh(x / 2)) / 2``: one transcendental call, no
  overflow for any finite ``x``, and the output stays in [0, 1].
- Fused gates: the input projection of the whole sequence is one GEMM
  per gate, ``x @ W_g^T`` written into the gate's column block of one
  (·, 3H) array and ``b_g`` added in place, so the input weights are never
  copied into a stacked (3H, I) matrix (for the ``both`` decoder at H=512
  that copy was 28 MB per call). The bits equal a stacked GEMM's wherever
  BLAS runs both shapes with the same kernel; OpenBLAS's small-matrix
  kernel (AVX-512) can take the narrower per-gate GEMM alone when H times
  the row count is small, which moves the last bits. ``[U_z; U_r]`` is
  stacked into one (2H, H) recurrent matrix, so each step makes one
  ``h @ U_zr`` GEMM for both gates (backward: one ``a_zr @ U_zr``). The
  backward pass still stacks ``[W_z; W_r; W_h]`` for its one ``dx`` GEMM.
  Stacking happens once per call; the nine separate tensors of a
  :class:`GRUParams` are the arrays of the model's parameter table
  (``ModelParams.gru``), which checkpoints name.
- Time-major state: the cache holds the hidden states as (T+1, B, H) and
  the gates as (T, B, ·), so every step reads and writes contiguous (B, ·)
  blocks. The callers' (B, T, ·) contract is kept by transposed views: the
  returned hidden states are ``hs[1:]`` seen as (B, T, H), ``dh_out`` is
  read one (B, H) step at a time, and ``dx`` is a (B, T, I) view.
- In-place steps: both forward GEMMs write into their cache slot
  (``np.matmul(..., out=)``), the sigmoid and tanh run in place, and ``h'``
  is built in ``hs[k+1]`` with one reused (B, H) buffer. The backward step
  writes ``a_z``, ``a_r`` and ``a_h`` straight into its (B, 3H) row of
  ``da`` and updates ``dh`` in place, with three reused (B, H) buffers. Each
  step keeps the elementwise operation order of the cell above, so the
  forward pass is bit-identical to a batch-major one with temporaries.
- Forward-only: ``gru_forward(..., for_backward=False)`` is for a pass no
  backward follows (forecasting). Its ``zr`` and ``htil`` are (1, B, ·)
  buffers that every step reuses, so a forecast holds no (T, B, ·) gate
  cache; ``hs`` stays whole, for the caller reads every state. The step is
  the same code, so the states are bit-identical, and ``gru_backward``
  refuses such a cache (for T > 1) instead of reading stale gates.
- Only the hidden-to-hidden recurrences run step by step. The recurrent
  weight gradients are not accumulated per step: after the loop, one GEMM
  over the hidden states of all steps, ``hs[:-1]`` read as (T*B, H) without
  a copy, gives ``[dU_z; dU_r]`` and one more gives ``dU_h``.
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


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function in its tanh form; ``out`` may be ``x`` itself."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
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


class GRUCache(NamedTuple):
    x: np.ndarray       # (B, T, I), as passed in (stride 0 over T for a time-constant input)
    hs: np.ndarray      # (T+1, B, H) time-major; hs[0] is the zero state, hs[k+1] the state after step k
    zr: np.ndarray      # (T, B, 2H), per step the update gate z then the reset gate r; (1, B, 2H) forward-only
    htil: np.ndarray    # (T, B, H), the candidate state of each step; (1, B, H) forward-only


def _time_constant(x: np.ndarray) -> bool:
    """True for a (B, T, I) input whose T > 1 steps all read the same row (time stride 0)."""
    return x.shape[1] > 1 and x.strides[1] == 0


def gru_forward(params: GRUParams, x: np.ndarray, *, for_backward: bool = True) -> tuple[np.ndarray, GRUCache]:
    """Run the cell over a (B, T, I) sequence from the zero state; returns hidden states (B, T, H).

    The states are a (B, T, H) view of the time-major ``cache.hs[1:]``.
    ``for_backward=False`` keeps only the last step's gates in the cache,
    which :func:`gru_backward` then refuses.
    """
    b, t, i = x.shape
    hd = params.hidden_dim
    u_zr_t = np.concatenate([params.u_z, params.u_r]).T
    u_h_t = params.u_h.T
    # One GEMM per gate over all timesteps, time-major (T*B, 3H), each into
    # its column block with the bias added in place; a time-constant input
    # is projected once, (B, 3H), and read at every step.
    shared = _time_constant(x)
    rows = x[:, 0] if shared else x.transpose(1, 0, 2).reshape(t * b, i)
    xp = np.empty((rows.shape[0], 3 * hd))
    for g, (w_g, b_g) in enumerate(((params.w_z, params.b_z), (params.w_r, params.b_r), (params.w_h, params.b_h))):
        block = xp[:, g * hd : (g + 1) * hd]
        np.matmul(rows, w_g.T, out=block)
        block += b_g
    xp = np.broadcast_to(xp, (t, b, 3 * hd)) if shared else xp.reshape(t, b, 3 * hd)

    hs = np.empty((t + 1, b, hd))
    hs[0] = 0.0
    gate_steps = t if for_backward else 1
    zr_all = np.empty((gate_steps, b, 2 * hd))
    htil_all = np.empty((gate_steps, b, hd))
    buf = np.empty((b, hd))
    for k in range(t):
        g = k if for_backward else 0
        h, zr, htil, h_next = hs[k], zr_all[g], htil_all[g], hs[k + 1]
        np.matmul(h, u_zr_t, out=zr)
        zr += xp[k, :, : 2 * hd]
        sigmoid(zr, out=zr)
        z, r = zr[:, :hd], zr[:, hd:]
        np.multiply(r, h, out=buf)
        np.matmul(buf, u_h_t, out=htil)
        htil += xp[k, :, 2 * hd :]
        np.tanh(htil, out=htil)
        np.subtract(1.0, z, out=h_next)     # h' = (1 - z) * htil + z * h
        h_next *= htil
        np.multiply(z, h, out=buf)
        h_next += buf
    return hs[1:].transpose(1, 0, 2), GRUCache(x=x, hs=hs, zr=zr_all, htil=htil_all)


def gru_backward(params: GRUParams, cache: GRUCache, dh_out: np.ndarray) -> tuple[np.ndarray, GRUParams]:
    """Backpropagate through time.

    ``dh_out[:, k]`` is the loss gradient injected directly at hidden state
    h_{k+1} by its downstream consumers (every step for a decoder, only the
    last step for a sequence encoder); a (B, T, H) view of a time-major
    (T, B, H) array reads each step contiguously. Returns (dx, parameter
    grads); ``dx`` is a (B, T, I) view of a time-major array, or (B, 1, I)
    for a time-constant input. The initial state is the constant zero, so it
    has no gradient.
    """
    x, hs, zr_all, htil_all = cache
    b, t, i = x.shape
    if zr_all.shape[0] != t:
        raise ValueError(f"cache holds the gates of {zr_all.shape[0]} step(s) for a {t}-step sequence: "
                         "it comes from a forward-only gru_forward(..., for_backward=False)")
    hd = params.hidden_dim
    u_zr = np.concatenate([params.u_z, params.u_r])

    da = np.empty((t, b, 3 * hd))  # pre-activation gradients a_z, a_r, a_h
    dh = np.zeros((b, hd))
    one_minus_z, drh, buf = np.empty((b, hd)), np.empty((b, hd)), np.empty((b, hd))
    for k in range(t - 1, -1, -1):
        dh += dh_out[:, k]
        z, r, htil, h_prev = zr_all[k, :, :hd], zr_all[k, :, hd:], htil_all[k], hs[k]
        a_z, a_r, a_h = da[k, :, :hd], da[k, :, hd : 2 * hd], da[k, :, 2 * hd :]

        np.subtract(1.0, z, out=one_minus_z)
        np.multiply(dh, one_minus_z, out=a_h)       # dhtil
        np.multiply(htil, htil, out=buf)
        np.subtract(1.0, buf, out=buf)
        a_h *= buf                                  # a_h = dhtil * (1 - htil^2)
        np.subtract(h_prev, htil, out=buf)
        np.multiply(dh, buf, out=a_z)               # dz
        a_z *= z
        a_z *= one_minus_z                          # a_z = dz * z * (1 - z)
        np.matmul(a_h, params.u_h, out=drh)         # grad w.r.t. (r * h_prev)
        np.multiply(drh, h_prev, out=a_r)           # dr
        a_r *= r
        np.subtract(1.0, r, out=buf)
        a_r *= buf                                  # a_r = dr * r * (1 - r)
        if k == 0:
            break                                   # h_0 is the constant zero: no dh to carry

        dh *= z                                     # dh = dh * z + a_zr @ U_zr + drh * r
        np.matmul(da[k, :, : 2 * hd], u_zr, out=buf)
        dh += buf
        drh *= r
        dh += drh

    flat_da = da.reshape(t * b, 3 * hd)
    h_prev = hs[:-1].reshape(t * b, hd)
    du_zr = flat_da[:, : 2 * hd].T @ h_prev
    du_h = flat_da[:, 2 * hd :].T @ (zr_all[:, :, hd:].reshape(t * b, hd) * h_prev)

    w = np.concatenate([params.w_z, params.w_r, params.w_h])  # (3H, I), gate order z, r, h
    if _time_constant(x):
        rows_da, rows_x = da.sum(axis=0), x[:, 0]
    else:
        rows_da, rows_x = flat_da, x.transpose(1, 0, 2).reshape(t * b, i)
    dw = rows_da.T @ rows_x
    db = rows_da.sum(axis=0)
    grads = GRUParams(*np.split(dw, 3), *np.split(du_zr, 2), du_h, *np.split(db, 3))
    dx = (rows_da @ w).reshape(-1, b, i).transpose(1, 0, 2)
    return dx, grads
