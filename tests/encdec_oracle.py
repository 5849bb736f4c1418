"""Step-by-step oracle of the encoder-decoder.

``gru_cell`` is one gated update. ``encode`` and ``decode`` run it one
window and one step at a time, the way the model is defined, with none of
the batching, fused input projections or broadcasting of
``mofcast.encdec.model``. ``sigmoid`` is the logistic function in its
textbook ``1 / (1 + exp(-x))`` form, split by sign so ``exp`` never
overflows, independent of the library's ``tanh`` form. ``destandardize``
inverts ``standardize``.
"""

from __future__ import annotations

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


def destandardize(features: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Inverse of ``standardize`` (round-trip identity up to float error)."""
    return np.asarray(features, dtype=np.float64) * stats.std + stats.mean


def encode(window: ObservationWindow, model: Model, flow: np.ndarray | None = None) -> np.ndarray:
    """Decoder input code of one window: box code, flow feature, or both."""
    cfg, params = model.config, model.params
    parts = []
    if cfg.uses_boxes:
        h = np.zeros(cfg.hidden)
        for row in standardize(box_features(window), model.stats):
            h = gru_cell(row, h, params.encoder)
        pre = params.fc1_w @ h + params.fc1_b
        parts.append(np.maximum(pre, 0.0) if cfg.fc_activation else pre)
    if cfg.uses_flow:
        parts.append(np.asarray(flow, dtype=np.float64))
    return np.concatenate(parts)


def decode(code: np.ndarray, params: ModelParams, horizon: int = FUTURE_LEN) -> np.ndarray:
    """Unroll the decoder from one code into (horizon, 4) residuals.

    The code is re-fed at every step; the per-step output-layer emissions are
    accumulated into residuals relative to the CV-CS extrapolation.
    """
    h = np.zeros(params.config.hidden)
    deltas = []
    for _ in range(horizon):
        h = gru_cell(code, h, params.decoder)
        deltas.append(params.out_w @ h + params.out_b)
    return np.cumsum(deltas, axis=0)
