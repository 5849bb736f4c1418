"""Step-by-step oracle of the encoder-decoder.

``gru_cell`` is one gated update. ``encode`` and ``decode`` run it one
window and one step at a time, the way the model is defined, with none of
the batching, fused input projections or broadcasting of
``mofcast.encdec.model``. ``sigmoid`` is the logistic function in its
textbook ``1 / (1 + exp(-x))`` form, split by sign so ``exp`` never
overflows, independent of the library's ``tanh`` form. ``destandardize``
inverts ``standardize``.

``gru_forward_batch_major`` and ``gru_backward_batch_major`` are the fused
GRU as it ran before its state went time-major: (B, T+1, H) hidden states
and (B, T, ·) gates in a :class:`BatchMajorCache` of its own, a fresh
(B, T, 3H) gradient array, fresh temporaries at every step, and the same
tanh-form sigmoid and elementwise operation order as the library. The
library's forward pass must match them bit for bit, and its gradients to
rounding.
``forward_residuals_batch_major`` is the model's forward pass over them.

Every model tensor is read from ``params.tensors()`` by its checkpoint name
(``gru_layer`` gathers a GRU's nine), not through the library's accessors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from mofcast.core import FUTURE_LEN, ObservationWindow
from mofcast.encdec import FeatureStats, GRUParams, Model, ModelParams, box_features, standardize


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gru_cell(x: np.ndarray, h: np.ndarray, params: GRUParams) -> np.ndarray:
    """Single gated update; x (..., I), h (..., H) -> h' (..., H)."""
    z = sigmoid(x @ params.w_z.T + h @ params.u_z.T + params.b_z)
    r = sigmoid(x @ params.w_r.T + h @ params.u_r.T + params.b_r)
    htil = np.tanh(x @ params.w_h.T + (r * h) @ params.u_h.T + params.b_h)
    return (1.0 - z) * htil + z * h


def gru_layer(params: ModelParams, layer: str) -> GRUParams:
    """The ``layer`` GRU's nine tensors, read by name from the model's table."""
    t = params.tensors()
    return GRUParams(**{f"{kind}_{gate}": t[f"{layer}.{kind}_{gate}"] for kind in "wub" for gate in "zrh"})


def destandardize(features: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Inverse of ``standardize`` (round-trip identity up to float error)."""
    return np.asarray(features, dtype=np.float64) * stats.std + stats.mean


def encode(window: ObservationWindow, model: Model, flow: np.ndarray | None = None) -> np.ndarray:
    """Decoder input code of one window: box code, flow feature, or both."""
    cfg, t = model.config, model.params.tensors()
    parts = []
    if cfg.uses_boxes:
        encoder = gru_layer(model.params, "encoder")
        h = np.zeros(cfg.hidden)
        for row in standardize(box_features(window), model.stats):
            h = gru_cell(row, h, encoder)
        pre = t["fc1.w"] @ h + t["fc1.b"]
        parts.append(np.maximum(pre, 0.0) if cfg.fc_activation else pre)
    if cfg.uses_flow:
        parts.append(np.asarray(flow, dtype=np.float64))
    return np.concatenate(parts)


def decode(code: np.ndarray, params: ModelParams, horizon: int = FUTURE_LEN) -> np.ndarray:
    """Unroll the decoder from one code into (horizon, 4) residuals.

    The code is re-fed at every step; the per-step output-layer emissions are
    accumulated into residuals relative to the CV-CS extrapolation.
    """
    t, decoder = params.tensors(), gru_layer(params, "decoder")
    h = np.zeros(params.config.hidden)
    deltas = []
    for _ in range(horizon):
        h = gru_cell(code, h, decoder)
        deltas.append(t["out.w"] @ h + t["out.b"])
    return np.cumsum(deltas, axis=0)


def _tanh_sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _input_weights(params: GRUParams) -> tuple[np.ndarray, np.ndarray]:
    return (np.concatenate([params.w_z, params.w_r, params.w_h]),
            np.concatenate([params.b_z, params.b_r, params.b_h]))


def _time_constant(x: np.ndarray) -> bool:
    return x.shape[1] > 1 and x.strides[1] == 0


class BatchMajorCache(NamedTuple):
    """What ``gru_backward_batch_major`` reads of ``gru_forward_batch_major``; it is never written to."""

    x: np.ndarray     # (B, T, I)
    hs: np.ndarray    # (B, T+1, H), hs[:, 0] the zero state
    zr: np.ndarray    # (B, T, 2H), the update gate z then the reset gate r
    htil: np.ndarray  # (B, T, H), the candidate state


def gru_forward_batch_major(params: GRUParams, x: np.ndarray):
    """(B, T, H) hidden states from the zero state and a batch-major cache (``hs`` is (B, T+1, H))."""
    b, t, i = x.shape
    hd = params.hidden_dim
    w, bias = _input_weights(params)
    u_zr = np.concatenate([params.u_z, params.u_r])
    rows = x[:, 0] if _time_constant(x) else x.reshape(b * t, i)
    xp = np.broadcast_to((rows @ w.T + bias).reshape(b, -1, 3 * hd), (b, t, 3 * hd))

    hs = np.empty((b, t + 1, hd))
    hs[:, 0] = 0.0
    zr_all = np.empty((b, t, 2 * hd))
    htil_all = np.empty((b, t, hd))
    for k in range(t):
        h = hs[:, k]
        zr = _tanh_sigmoid(xp[:, k, : 2 * hd] + h @ u_zr.T)
        z, r = zr[:, :hd], zr[:, hd:]
        htil = np.tanh(xp[:, k, 2 * hd :] + (r * h) @ params.u_h.T)
        hs[:, k + 1] = (1.0 - z) * htil + z * h
        zr_all[:, k] = zr
        htil_all[:, k] = htil
    return hs[:, 1:], BatchMajorCache(x=x, hs=hs, zr=zr_all, htil=htil_all)


def gru_backward_batch_major(params: GRUParams, cache: BatchMajorCache, dh_out: np.ndarray):
    """(dx, grads) from a :func:`gru_forward_batch_major` cache."""
    x, hs, zr_all, htil_all = cache
    b, t, i = x.shape
    hd = params.hidden_dim
    u_zr = np.concatenate([params.u_z, params.u_r])

    da = np.empty((b, t, 3 * hd))
    dh = np.zeros((b, hd))
    for k in range(t - 1, -1, -1):
        dh = dh + dh_out[:, k]
        z, r, htil = zr_all[:, k, :hd], zr_all[:, k, hd:], htil_all[:, k]
        h_prev = hs[:, k]
        dhtil = dh * (1.0 - z)
        dz = dh * (h_prev - htil)
        a_h = dhtil * (1.0 - htil * htil)
        a_z = dz * z * (1.0 - z)
        drh = a_h @ params.u_h
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
    grads = GRUParams(w_z=dw[:hd], w_r=dw[hd : 2 * hd], w_h=dw[2 * hd :], u_z=du_zr[:hd], u_r=du_zr[hd:],
                      u_h=du_h, b_z=db[:hd], b_r=db[hd : 2 * hd], b_h=db[2 * hd :])
    return (rows_da @ w).reshape(b, -1, i), grads


def forward_residuals_batch_major(params: ModelParams, stats: FeatureStats, features, flow,
                                  horizon: int = FUTURE_LEN) -> np.ndarray:
    """(B, horizon, 4) residuals of ``forward_batch`` computed over the batch-major GRU."""
    cfg, t = params.config, params.tensors()
    parts = []
    if cfg.uses_boxes:
        enc_hs, _ = gru_forward_batch_major(gru_layer(params, "encoder"), standardize(features, stats))
        pre = enc_hs[:, -1] @ t["fc1.w"].T + t["fc1.b"]
        parts.append(np.maximum(pre, 0.0) if cfg.fc_activation else pre)
    if cfg.uses_flow:
        parts.append(np.asarray(flow, dtype=np.float64))
    code = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    b = code.shape[0]
    dec_in = np.broadcast_to(code[:, None, :], (b, horizon, code.shape[1]))
    dec_hs, _ = gru_forward_batch_major(gru_layer(params, "decoder"), dec_in)
    deltas = (dec_hs.reshape(b * horizon, -1) @ t["out.w"].T + t["out.b"]).reshape(b, horizon, 4)
    return np.cumsum(deltas, axis=1)
