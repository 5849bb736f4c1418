"""The recurrent encoder-decoder forecaster.

A GRU encoder summarizes the 30 standardized box-feature rows into a hidden
state; an affine layer (plus optional rectifier) compresses that into a
256-dim box code. Depending on the variant, the decoder input code is the
box code, the (externally produced) flow feature, or their concatenation.
The decoder GRU receives the same code at every one of the 60 future steps,
passed as a stride-0 broadcast that the GRU projects once per window rather
than once per step (and whose gradient it returns as one row); an output layer maps each hidden state to a 4-vector per-step change
(velocity delta and size delta), and the running sum of those changes is the
residual relative to the constant-velocity, constant-scale extrapolation.
Emitting changes rather than absolute residuals keeps the output scale at a
few pixels per step and lets bounded hidden states express residual curves
that keep growing over the whole horizon. The output layer is
zero-initialized, so an untrained model reproduces the CV-CS baseline
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..baselines import cv_cs_batch
from ..core import FUTURE_LEN, Forecast, ObservationWindow, array_to_boxes
from ..data.windows import WindowBatch
from ..errors import FlowFeatureError, GradientError
from .features import FEATURE_DIM, FeatureStats, box_features_from_array, standardize
from .gru import GRUCache, GRUParams, gru_backward, gru_forward
from .loss import smooth_l1, smooth_l1_grad

# Not called here: the one-window form of the features this module builds in
# batches, kept in its namespace because benchmarks/tracing.py wraps it by this name.
from .features import box_features  # noqa: F401

ENCDEC_MODEL_ID = "encdec"

Variant = Literal["bb_only", "of_only", "both"]
VARIANTS: tuple[Variant, ...] = ("bb_only", "of_only", "both")

BOX_CODE_DIM = 256
OUTPUT_DIM = 4

FORECAST_BATCH_SIZE = 512  # windows per forward pass when forecasting, not training


@dataclass(frozen=True)
class ModelConfig:
    variant: Variant = "bb_only"
    hidden: int = 512
    box_code_dim: int = BOX_CODE_DIM
    flow_dim: int = 2048
    fc_activation: bool = True  # rectifier after the box-code layer

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("hidden", "box_code_dim", "flow_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig.{name} must be >= 1")

    @property
    def uses_boxes(self) -> bool:
        return self.variant in ("bb_only", "both")

    @property
    def uses_flow(self) -> bool:
        return self.variant in ("of_only", "both")

    @property
    def code_dim(self) -> int:
        """Dimension of the decoder input code."""
        if self.variant == "bb_only":
            return self.box_code_dim
        if self.variant == "of_only":
            return self.flow_dim
        return self.box_code_dim + self.flow_dim


@dataclass
class ModelParams:
    """All trainable tensors plus the configuration that shapes them."""

    config: ModelConfig
    encoder: GRUParams | None
    fc1_w: np.ndarray | None
    fc1_b: np.ndarray | None
    decoder: GRUParams
    out_w: np.ndarray
    out_b: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        """Live tensors in the fixed checkpoint order."""
        out: dict[str, np.ndarray] = {}
        if self.encoder is not None:
            out.update({f"encoder.{k}": v for k, v in self.encoder.tensors().items()})
            out["fc1.w"] = self.fc1_w
            out["fc1.b"] = self.fc1_b
        out.update({f"decoder.{k}": v for k, v in self.decoder.tensors().items()})
        out["out.w"] = self.out_w
        out["out.b"] = self.out_b
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            encoder=self.encoder.copy() if self.encoder is not None else None,
            fc1_w=None if self.fc1_w is None else self.fc1_w.copy(),
            fc1_b=None if self.fc1_b is None else self.fc1_b.copy(),
            decoder=self.decoder.copy(),
            out_w=self.out_w.copy(),
            out_b=self.out_b.copy(),
        )


def init_params(
    config: ModelConfig,
    seed_or_rng: int | np.random.Generator,
    zero_output: bool = True,
) -> ModelParams:
    """Fresh parameters: fan-in-scaled uniform weights, zero-initialized output layer.

    The zero output layer makes the untrained model's residuals exactly zero,
    i.e. the model starts as the CV-CS baseline. ``zero_output=False`` draws
    the output layer randomly too, which gradient checking needs: a zero
    output layer blocks all gradient flow into the rest of the network.
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    encoder = fc1_w = fc1_b = None
    if config.uses_boxes:
        encoder = GRUParams.init(rng, FEATURE_DIM, config.hidden)
        bound = 1.0 / np.sqrt(config.hidden)
        fc1_w = rng.uniform(-bound, bound, (config.box_code_dim, config.hidden))
        fc1_b = np.zeros(config.box_code_dim)
    decoder = GRUParams.init(rng, config.code_dim, config.hidden)
    if zero_output:
        out_w = np.zeros((OUTPUT_DIM, config.hidden))
        out_b = np.zeros(OUTPUT_DIM)
    else:
        bound = 1.0 / np.sqrt(config.hidden)
        out_w = rng.uniform(-bound, bound, (OUTPUT_DIM, config.hidden))
        out_b = rng.uniform(-bound, bound, OUTPUT_DIM)
    return ModelParams(
        config=config,
        encoder=encoder,
        fc1_w=fc1_w,
        fc1_b=fc1_b,
        decoder=decoder,
        out_w=out_w,
        out_b=out_b,
    )


@dataclass
class Model:
    """Parameters plus the frozen standardization stats they were trained with."""

    params: ModelParams
    stats: FeatureStats = field(default_factory=FeatureStats.identity)

    @property
    def config(self) -> ModelConfig:
        return self.params.config


@dataclass
class ForwardCache:
    std_features: np.ndarray | None
    enc_cache: GRUCache | None
    enc_last: np.ndarray | None
    fc_pre: np.ndarray | None
    code: np.ndarray
    dec_cache: GRUCache
    dec_hs: np.ndarray
    residuals: np.ndarray


def forward_batch(
    params: ModelParams,
    stats: FeatureStats,
    features: np.ndarray | None,
    flow: np.ndarray | None,
    horizon: int = FUTURE_LEN,
) -> ForwardCache:
    """Batched forward pass from raw (B, p, 8) features / (B, F) flow to (B, horizon, 4) residuals."""
    cfg = params.config
    parts = []
    std_features = enc_cache = enc_last = fc_pre = None
    if cfg.uses_boxes:
        if features is None:
            raise ValueError(f"variant {cfg.variant!r} needs box features")
        std_features = standardize(features, stats)
        enc_hs, enc_cache = gru_forward(params.encoder, std_features)
        enc_last = enc_hs[:, -1]
        fc_pre = enc_last @ params.fc1_w.T + params.fc1_b
        box_code = np.maximum(fc_pre, 0.0) if cfg.fc_activation else fc_pre
        parts.append(box_code)
    if cfg.uses_flow:
        if flow is None:
            raise FlowFeatureError(f"variant {cfg.variant!r} needs flow features")
        flow = np.asarray(flow, dtype=np.float64)
        if flow.shape[-1] != cfg.flow_dim:
            raise FlowFeatureError(f"flow feature dim {flow.shape[-1]} != configured {cfg.flow_dim}")
        parts.append(flow)
    code = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    b = code.shape[0]
    # A stride-0 view, not a copy: gru_forward projects the code once per window.
    dec_in = np.broadcast_to(code[:, None, :], (b, horizon, code.shape[1]))
    dec_hs, dec_cache = gru_forward(params.decoder, dec_in)
    flat = dec_hs.reshape(b * horizon, -1)
    deltas = (flat @ params.out_w.T + params.out_b).reshape(b, horizon, OUTPUT_DIM)
    residuals = np.cumsum(deltas, axis=1)
    return ForwardCache(
        std_features=std_features,
        enc_cache=enc_cache,
        enc_last=enc_last,
        fc_pre=fc_pre,
        code=code,
        dec_cache=dec_cache,
        dec_hs=dec_hs,
        residuals=residuals,
    )


def backward_batch(params: ModelParams, cache: ForwardCache, dresiduals: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every tensor, given d(loss)/d(residuals)."""
    cfg = params.config
    b, horizon, _ = dresiduals.shape
    hd = cfg.hidden

    # residual_k = sum_{j<=k} delta_j, so d(loss)/d(delta_j) = sum_{k>=j} d(loss)/d(residual_k)
    ddeltas = np.flip(np.cumsum(np.flip(dresiduals, axis=1), axis=1), axis=1)
    flat_d = np.ascontiguousarray(ddeltas).reshape(b * horizon, OUTPUT_DIM)
    flat_h = cache.dec_hs.reshape(b * horizon, hd)
    grads: dict[str, np.ndarray] = {}
    grads["out.w"] = flat_d.T @ flat_h
    grads["out.b"] = flat_d.sum(axis=0)

    ddec_h = (flat_d @ params.out_w).reshape(b, horizon, hd)
    dx_dec, _, dec_grads = gru_backward(params.decoder, cache.dec_cache, ddec_h)
    for k, v in dec_grads.tensors().items():
        grads[f"decoder.{k}"] = v

    dcode = dx_dec.sum(axis=1)  # dx_dec is (B, 1, C): the code is one row shared by all steps
    if cfg.uses_boxes:
        dbox_code = dcode[:, : cfg.box_code_dim]
        if cfg.fc_activation:
            dbox_code = dbox_code * (cache.fc_pre > 0.0)
        grads["fc1.w"] = dbox_code.T @ cache.enc_last
        grads["fc1.b"] = dbox_code.sum(axis=0)

        p = cache.std_features.shape[1]
        denc_out = np.zeros((b, p, hd))
        denc_out[:, -1] = dbox_code @ params.fc1_w
        _, _, enc_grads = gru_backward(params.encoder, cache.enc_cache, denc_out)
        for k, v in enc_grads.tensors().items():
            grads[f"encoder.{k}"] = v

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise GradientError(name)
    return grads


def loss_and_gradients(
    params: ModelParams,
    stats: FeatureStats,
    features: np.ndarray | None,
    flow: np.ndarray | None,
    targets: np.ndarray,
    beta: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward + backward for one batch of residual targets (B, horizon, 4)."""
    cache = forward_batch(params, stats, features, flow, horizon=targets.shape[1])
    loss = smooth_l1(cache.residuals, targets, beta)
    dres = smooth_l1_grad(cache.residuals, targets, beta)
    return loss, backward_batch(params, cache, dres)


def _add_to_cv_cs(observed: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """(N, q, 4) CV-CS extrapolation of (N, p, 4) windows plus residuals; sizes clamped to 1 px."""
    pred = cv_cs_batch(observed, residuals.shape[1]) + residuals
    pred[..., 2:] = np.maximum(pred[..., 2:], 1.0)
    return pred


def residuals_to_boxes(window: ObservationWindow, residuals: np.ndarray) -> Forecast:
    """Add residuals to the CV-CS extrapolation; sizes clamped to 1 px."""
    residuals = np.asarray(residuals, dtype=np.float64)
    pred = _add_to_cv_cs(window.observed_array()[None], residuals[None])[0]
    return Forecast(source=window.source, boxes=array_to_boxes(pred), model_id=ENCDEC_MODEL_ID)


def forecast_array(model: Model, batch: WindowBatch, batch_size: int = FORECAST_BATCH_SIZE) -> np.ndarray:
    """(N, q, 4) forecasts of a batch, as :func:`residuals_to_boxes` makes them.

    Forward passes run ``batch_size`` windows at a time. Flow-reading
    variants take their flow from ``batch.flow``.
    """
    cfg = model.config
    if cfg.uses_flow and batch.flow is None:
        raise FlowFeatureError(f"variant {cfg.variant!r} needs flow features, and the batch has none")
    residuals = [np.empty((0, batch.horizon, OUTPUT_DIM))]
    for lo in range(0, len(batch), batch_size):
        sl = slice(lo, lo + batch_size)
        features = box_features_from_array(batch.observed[sl]) if cfg.uses_boxes else None
        flow = batch.flow[sl] if cfg.uses_flow else None
        residuals.append(forward_batch(model.params, model.stats, features, flow, horizon=batch.horizon).residuals)
    return _add_to_cv_cs(batch.observed, np.concatenate(residuals))


def forecast_windows(model: Model, batch: WindowBatch, batch_size: int = FORECAST_BATCH_SIZE) -> list[Forecast]:
    """:func:`forecast_array` as one :class:`Forecast` per window of the batch."""
    pred = forecast_array(model, batch, batch_size)
    return [
        Forecast(source=source, boxes=array_to_boxes(rows), model_id=ENCDEC_MODEL_ID)
        for source, rows in zip(batch.sources, pred)
    ]
