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
- Fused gates: a step's input projection is one GEMM per gate,
  ``x_k @ W_g^T`` written into the gate's column block of one reused
  (B, 3H) row and ``b_g`` added in place, so the input weights are never
  copied into a stacked (3H, I) matrix and no (T*B, 3H) projection of the
  whole sequence is held: at I = 8 that array is 3H/I = 192x the input,
  and projecting it at once saves no time. At B = 1 the T rows are still
  projected at once, because numpy runs a one-row GEMM as a GEMV, whose
  bits differ. The bits equal a stacked GEMM's wherever BLAS runs both
  shapes with the same kernel; OpenBLAS's small-matrix kernel (AVX-512)
  can take the narrower per-gate GEMM alone when H times the row count is
  small, which moves the last bits.
  ``[U_z; U_r]`` is stacked into one (2H, H) recurrent matrix, so each step
  makes one ``h @ U_zr`` GEMM for both gates (backward: one
  ``a_zr @ U_zr``). The backward pass still stacks ``[W_z; W_r; W_h]`` for
  its one ``dx`` GEMM. Stacking happens once per call; the nine separate
  tensors of a :class:`GRUParams` are the arrays of the model's parameter
  table (``ModelParams.gru``), which checkpoints name.
- Time-major state: the cache holds the hidden states as (T+1, B, H) and
  one (T, B, 3H) gate array, so every step reads and writes contiguous
  blocks. The states, the output gradient and ``dx`` cross the boundary in
  that layout; only the input ``x`` stays (B, T, I).
- One gate array serves both passes. Each step owns one contiguous block
  of B*3H values, ``gates[k]``. The forward fills it with ``z | r`` as one
  C-contiguous (B, 2H) block followed by ``h~`` as a (B, H) block
  (``_forward_blocks``), so every elementwise operation of the step runs on
  contiguous memory, as it did on separate ``zr`` and ``htil`` arrays. On
  column blocks of a (B, 3H) row each operation ran 2-3x slower, and a
  B=96 H=512 forecast ~7% slower (2 vCPU). Once the backward has read a
  step, it overwrites the block with the (B, 3H) rows ``a_z | a_r | a_h``,
  so after the loop ``gates`` is the (T, B, 3H) gradient array that the
  weight GEMMs read, and no fresh one is allocated. The backward uses up
  the cache: it leaves the gate array read-only, and a second backward on
  the same cache raises instead of reading gradients as gates.
- In-place steps: both forward GEMMs write into their block of the step's
  gates (``np.matmul(..., out=)``), the sigmoid and tanh run in place, and
  ``h'`` is built in ``hs[k+1]`` with one reused (B, H) buffer. The
  backward step copies ``z`` and ``r`` out of the gate block into two
  contiguous (B, H) buffers, computes ``a_z``, ``a_r`` and ``a_h`` in three
  more, copies those over the step's gate row, and updates ``dh`` in place
  with three reused (B, H) buffers; so no elementwise operation runs on a
  column block. Each step keeps the elementwise operation order of the
  cell above, so the forward pass is bit-identical to a batch-major one
  with temporaries.
- Step 0 makes no recurrent GEMM: ``h_0 = 0``, so its ``h @ U_zr`` and
  ``(r * h) @ U_h`` are zero, and the step copies its row of the input
  projection into its gate blocks instead. Adding a zero product changes
  at most the sign of a zero gate input, which ``sigmoid`` and
  ``h' = (1 - z) * tanh(·) + z * 0`` both map to the same bits, so the
  states and gradients are bit-identical to the full step's.
- Forward-only: ``gru_forward(..., keep="states")`` and ``keep="last"``
  are for a pass no backward follows (forecasting). Their gate array is one
  (1, B, 3H) block that every step reuses, so a forecast holds no
  (T, B, ·) gate cache. ``"states"`` keeps ``hs`` whole, for a caller that
  reads every state (the decoder's output layer); ``"last"`` keeps two
  (B, H) states that the steps take in turn, placed so that ``h_T`` ends
  in ``hs[-1]``, for a caller that reads only the last (the encoder). The
  step is the same code, so the states are bit-identical, and
  ``gru_backward`` refuses such a cache (for T > 1) instead of reading
  stale gates.
- Only the hidden-to-hidden recurrences run step by step. The recurrent
  weight gradients are not accumulated per step: after the loop, one GEMM
  over the hidden states of all steps, ``hs[:-1]`` read as (T*B, H) without
  a copy, gives ``[dU_z; dU_r]``, and one more gives ``dU_h`` over the
  ``r * h`` of every step. The backward uses up the output gradient
  ``dh`` to hold them: once step k has added ``dh[k]`` into its running
  gradient, it writes ``r * h_prev`` over that slot, so no (T, B, H) array
  of its own is allocated. ``dh`` must therefore be a writable,
  C-contiguous (T, B, H) array; anything else raises. The step loop runs
  in its own function, so its (B, H) buffers and the stacked ``U_zr`` are
  freed before these GEMMs.
- Time-constant inputs: a (B, T, I) input whose time axis has stride 0 (a
  ``np.broadcast_to`` of one (B, I) row per sequence, as the decoder is fed
  its code) is projected once, as (B, 3H). Its input-weight gradient is
  ``(sum_t da_t)^T x[:, 0]``, and ``gru_backward`` returns its ``dx`` as
  (1, B, I): the gradient w.r.t. the one shared row, which is the full
  (T, B, I) ``dx`` summed over time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Literal, NamedTuple

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


Keep = Literal["backward", "states", "last"]
#: What a :func:`gru_forward` cache keeps. ``"backward"``: every state and
#: every step's gates, which :func:`gru_backward` reads. ``"states"``: every
#: state and one reused gate step, for a forward-only pass whose caller reads
#: every state. ``"last"``: two states and one gate step, for a forward-only
#: pass whose caller reads only the last state.
KEEP: tuple[Keep, ...] = ("backward", "states", "last")


class GRUCache(NamedTuple):
    x: np.ndarray       # (B, T, I), as passed in (stride 0 over T for a time-constant input)
    hs: np.ndarray      # (T+1, B, H) time-major; hs[0] is the zero state, hs[k+1] the state after step k.
                        # keep="last": (2, B, H), h_{T-1} then h_T
    gates: np.ndarray   # (T, B, 3H); (1, B, 3H) forward-only. Step k holds z | r, then h~ (see _forward_blocks);
                        # gru_backward overwrites it with rows a_z | a_r | a_h and leaves it read-only


def _forward_blocks(row: np.ndarray, hd: int) -> tuple[np.ndarray, np.ndarray]:
    """One step's (B, 3H) gate row as the forward fills it: z | r as one C-contiguous (B, 2H) block, then h~ (B, H)."""
    flat = row.reshape(-1)
    split = flat.size // 3 * 2
    return flat[:split].reshape(-1, 2 * hd), flat[split:].reshape(-1, hd)


def _time_constant(x: np.ndarray) -> bool:
    """True for a (B, T, I) input whose T > 1 steps all read the same row (time stride 0)."""
    return x.shape[1] > 1 and x.strides[1] == 0


def _project(params: GRUParams, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows @ W_g^T + b_g`` of each gate g into its column block of ``out`` (rows, 3H); returns ``out``."""
    hd = params.hidden_dim
    for g, (w_g, b_g) in enumerate(((params.w_z, params.b_z), (params.w_r, params.b_r), (params.w_h, params.b_h))):
        block = out[:, g * hd : (g + 1) * hd]
        np.matmul(rows, w_g.T, out=block)
        block += b_g
    return out


def gru_forward(params: GRUParams, x: np.ndarray, *, keep: Keep = "backward") -> tuple[np.ndarray, GRUCache]:
    """Run the cell over a (B, T, I) sequence from the zero state; returns hidden states (T, B, H).

    The states are ``cache.hs[1:]``. ``keep`` says what the cache holds
    (see :data:`KEEP`); in ``"last"`` mode the returned states are the
    (1, B, H) last one.
    """
    if keep not in KEEP:
        raise ValueError(f"unknown keep mode {keep!r}, expected one of {KEEP}")
    b, t, i = x.shape
    hd = params.hidden_dim
    u_zr_t = np.concatenate([params.u_z, params.u_r]).T
    u_h_t = params.u_h.T
    # A time-constant input is projected once, (B, 3H), and read at every
    # step. A time-varying one is projected step by step into one reused
    # (B, 3H) row, except at B = 1: a one-row GEMM runs as a GEMV, whose
    # bits differ, so its T rows are projected at once.
    if _time_constant(x):
        xp = np.broadcast_to(_project(params, x[:, 0], np.empty((b, 3 * hd))), (t, b, 3 * hd))
    elif b == 1:
        xp = _project(params, x[0], np.empty((t, 3 * hd))).reshape(t, 1, 3 * hd)
    else:
        xp, row = None, np.empty((b, 3 * hd))

    hs = np.empty((2 if keep == "last" else t + 1, b, hd))
    gates = np.empty((t if keep == "backward" else 1, b, 3 * hd))
    slot = t + 1 - len(hs)  # state k lives in hs[(k + slot) % len(hs)], so h_T is hs[-1]
    hs[slot % len(hs)] = 0.0
    buf = np.empty((b, hd))
    for k in range(t):
        h, h_next = hs[(k + slot) % len(hs)], hs[(k + 1 + slot) % len(hs)]
        zr, htil = _forward_blocks(gates[k % len(gates)], hd)
        xp_k = _project(params, x[:, k], row) if xp is None else xp[k]
        if k:
            np.matmul(h, u_zr_t, out=zr)
            zr += xp_k[:, : 2 * hd]
        else:                               # h_0 = 0: no recurrent term
            np.copyto(zr, xp_k[:, : 2 * hd])
        sigmoid(zr, out=zr)
        z, r = zr[:, :hd], zr[:, hd:]
        if k:
            np.multiply(r, h, out=buf)
            np.matmul(buf, u_h_t, out=htil)
            htil += xp_k[:, 2 * hd :]
        else:
            np.copyto(htil, xp_k[:, 2 * hd :])
        np.tanh(htil, out=htil)
        np.subtract(1.0, z, out=h_next)     # h' = (1 - z) * htil + z * h
        h_next *= htil
        np.multiply(z, h, out=buf)
        h_next += buf
    return hs[1:], GRUCache(x=x, hs=hs, gates=gates)


def _backward_steps(params: GRUParams, hs: np.ndarray, gates: np.ndarray, rh: np.ndarray) -> None:
    """The step-by-step half of :func:`gru_backward`, from the last step to the first.

    Step k adds ``rh[k]`` (its output-gradient slot) into the running ``dh``,
    writes ``r * h_prev`` over that slot, and writes ``a_z | a_r | a_h`` over
    its gate row once the row is read. Its step buffers and the stacked
    ``U_zr`` die on return, before the weight GEMMs run.
    """
    t, b, hd = rh.shape
    u_zr = np.concatenate([params.u_z, params.u_r])

    z, r = np.empty((b, hd)), np.empty((b, hd))  # the step's gates, copied out of its gate row
    a_z, a_r, a_h = np.empty((b, hd)), np.empty((b, hd)), np.empty((b, hd))  # its pre-activation gradients
    dh = np.zeros((b, hd))
    one_minus_z, drh, buf = np.empty((b, hd)), np.empty((b, hd)), np.empty((b, hd))
    for k in range(t - 1, -1, -1):
        dh += rh[k]
        (zr, htil), h_prev = _forward_blocks(gates[k], hd), hs[k]
        np.copyto(z, zr[:, :hd])
        np.copyto(r, zr[:, hd:])
        np.multiply(r, h_prev, out=rh[k])

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
        da = gates[k]                               # this step's gates are read: its gradients take their place
        da[:, :hd], da[:, hd : 2 * hd], da[:, 2 * hd :] = a_z, a_r, a_h
        if k > 0:                                   # h_0 is the constant zero: no dh to carry
            dh *= z                                 # dh = dh * z + a_zr @ U_zr + drh * r
            np.matmul(da[:, : 2 * hd], u_zr, out=buf)
            dh += buf
            drh *= r
            dh += drh


def gru_backward(params: GRUParams, cache: GRUCache, dh: np.ndarray) -> tuple[np.ndarray, GRUParams]:
    """Backpropagate through time.

    ``dh[k]`` is the loss gradient injected directly at hidden state h_{k+1}
    by its downstream consumers (every step for a decoder, only the last
    step for a sequence encoder). It must be a writable, C-contiguous
    (T, B, H) array, which the pass uses up: once step k has added ``dh[k]``
    into its running gradient, it writes ``r * h_k`` over that slot, so
    after the pass ``dh[k]`` holds step k's ``r * h_k``. Returns (dx,
    parameter grads); ``dx`` is (T, B, I), or (1, B, I) for a time-constant
    input. The initial state is the constant zero, so it has no gradient.
    The pass also uses up the cache: its gate array ends holding the
    gradients, read-only, and a second backward on it raises.
    """
    x, hs, gates = cache
    b, t, i = x.shape
    if gates.shape[0] != t:
        raise ValueError(f"cache holds the gates of {gates.shape[0]} step(s) for a {t}-step sequence: "
                         "it comes from a forward-only gru_forward(..., keep=\"states\" or \"last\")")
    if not gates.flags.writeable:
        raise ValueError("cache already holds the gradients of an earlier backward: "
                         "run gru_forward again for another backward")
    hd = params.hidden_dim
    if dh.shape != (t, b, hd) or not dh.flags.c_contiguous or not dh.flags.writeable:
        raise ValueError(f"dh must be a writable, C-contiguous (T, B, H) = {(t, b, hd)} array, which the backward "
                         f"overwrites; got shape {dh.shape}, strides {dh.strides}, writeable={dh.flags.writeable}")
    _backward_steps(params, hs, gates, dh)
    gates.flags.writeable = False

    flat_da = gates.reshape(t * b, 3 * hd)
    du_zr = flat_da[:, : 2 * hd].T @ hs[:-1].reshape(t * b, hd)
    du_h = flat_da[:, 2 * hd :].T @ dh.reshape(t * b, hd)  # dh[k] now holds r * h_k

    w = np.concatenate([params.w_z, params.w_r, params.w_h])  # (3H, I), gate order z, r, h
    if _time_constant(x):
        rows_da, rows_x = gates.sum(axis=0), x[:, 0]
    else:
        rows_da, rows_x = flat_da, x.transpose(1, 0, 2).reshape(t * b, i)
    dw = rows_da.T @ rows_x
    db = rows_da.sum(axis=0)
    grads = GRUParams(*np.split(dw, 3), *np.split(du_zr, 2), du_h, *np.split(db, 3))
    dx = (rows_da @ w).reshape(-1, b, i)
    return dx, grads
