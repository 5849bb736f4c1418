"""The recurrent encoder-decoder forecaster.

A GRU encoder summarizes the 30 standardized box-feature rows into a hidden
state; an affine layer and a rectifier compress that into a 256-dim box
code. Depending on the variant, the decoder input code is the
box code, the (externally produced) flow feature, or their concatenation.
The decoder GRU receives the same code at every one of the 60 future steps,
passed as a stride-0 broadcast that the GRU projects once per window rather
than once per step (and whose gradient it returns as one row). An output
layer maps each hidden state to a 4-vector per-step change (velocity delta
and size delta), and the running sum of those changes is the residual
relative to the constant-velocity, constant-scale extrapolation. The output
layer and the running sum work on the decoder's time-major (T, B, H) states.
Emitting changes rather than absolute residuals keeps the output scale at a
few pixels per step and lets bounded hidden states express residual curves
that keep growing over the whole horizon. The output layer is
zero-initialized, so an untrained model reproduces the CV-CS baseline
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Literal

import numpy as np

from ..baselines import cv_cs_batch
from ..core import FUTURE_LEN, MIN_BOX_SIZE, ObservationWindow
from ..data.windows import WindowBatch
from ..errors import FlowFeatureError, GradientError
from .features import FEATURE_DIM, FeatureStats, box_features_from_array, standardize
from .gru import GRUCache, GRUParams, gru_backward, gru_forward
from .loss import SMOOTH_L1_BETA, smooth_l1, smooth_l1_grad

# Not called here: the one-window form of the features this module builds in
# batches, kept in its namespace because benchmarks/tracing.py wraps it by this name.
from .features import box_features  # noqa: F401

Variant = Literal["bb_only", "of_only", "both"]
VARIANTS: tuple[Variant, ...] = ("bb_only", "of_only", "both")

BOX_CODE_DIM = 256
OUTPUT_DIM = 4

FORECAST_BATCH_SIZE = 512  # windows per forward pass when forecasting, not training


@dataclass(frozen=True)
class ModelConfig:
    variant: Variant = "bb_only"
    hidden: int = 512
    flow_dim: int = 2048
    # Not a field: the box code is always rectified. benchmarks/gate.py reads it.
    fc_activation: ClassVar[bool] = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("hidden", "flow_dim"):
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
            return BOX_CODE_DIM
        if self.variant == "of_only":
            return self.flow_dim
        return BOX_CODE_DIM + self.flow_dim


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every trainable tensor, in checkpoint order: the one definition of the layout.

    Encoder GRU and box-code layer ``fc1`` (variants that use boxes only),
    decoder GRU, output layer ``out``. A GRU's tensors are the fields of
    :class:`GRUParams` in their order: ``w_z, w_r, w_h`` (H, I), ``u_z, u_r,
    u_h`` (H, H) and ``b_z, b_r, b_h`` (H,).
    """
    h = config.hidden

    def gru(layer: str, input_dim: int) -> dict[str, tuple[int, ...]]:
        kinds = {"w": (h, input_dim), "u": (h, h), "b": (h,)}
        return {f"{layer}.{f.name}": kinds[f.name[0]] for f in fields(GRUParams)}

    boxes = gru("encoder", FEATURE_DIM) | {"fc1.w": (BOX_CODE_DIM, h), "fc1.b": (BOX_CODE_DIM,)}
    return ((boxes if config.uses_boxes else {}) | gru("decoder", config.code_dim)
            | {"out.w": (OUTPUT_DIM, h), "out.b": (OUTPUT_DIM,)})


@dataclass
class ModelParams:
    """The configuration plus every trainable tensor, by name in :func:`tensor_shapes` order."""

    config: ModelConfig
    arrays: dict[str, np.ndarray]

    def tensors(self) -> dict[str, np.ndarray]:
        """The live tensors in checkpoint order; an in-place update changes the model."""
        return self.arrays

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {name: t.copy() for name, t in self.arrays.items()})

    def gru(self, layer: str) -> GRUParams:
        """The ``"encoder"`` or ``"decoder"`` GRU, its nine tensors the arrays of this table."""
        return GRUParams(**{f.name: self.arrays[f"{layer}.{f.name}"] for f in fields(GRUParams)})


def init_params(
    config: ModelConfig,
    seed_or_rng: int | np.random.Generator,
    zero_output: bool = True,
) -> ModelParams:
    """Fresh parameters by one rule, drawn in :func:`tensor_shapes` order.

    2-D weights are uniform in ±1/sqrt(fan-in), biases are zero, and the
    output layer is zero, so the untrained model's residuals are exactly zero,
    i.e. the model starts as the CV-CS baseline. ``zero_output=False`` draws
    the output layer, bias too, at ±1/sqrt(hidden), which gradient checking
    needs: a zero output layer blocks all gradient flow into the network.
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    arrays = {}
    for name, shape in tensor_shapes(config).items():
        drawn = len(shape) == 2 or name == "out.b"
        if not drawn or (zero_output and name.startswith("out.")):
            arrays[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[1] if len(shape) == 2 else config.hidden)
            arrays[name] = rng.uniform(-bound, bound, shape)
    return ModelParams(config, arrays)


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
    """What :func:`backward_batch` reads of a forward pass, and the residuals.

    From ``forward_batch(..., for_backward=False)`` the two GRU caches keep
    only their last step's gates, and the encoder's only its last two
    states: the residuals are the same bits, and :func:`backward_batch`
    raises on such a cache. A cache serves one :func:`backward_batch`,
    which overwrites each GRU's gates with their gradients (see
    :func:`gru_backward`) and sets ``dec_cache`` to ``None`` once the
    decoder backward returns, so the encoder backward runs without the
    decoder's states and gates.
    """

    enc_cache: GRUCache | None  # enc_cache.x: the standardized features; enc_cache.hs[-1]: the last state
    fc_pre: np.ndarray | None
    dec_cache: GRUCache | None  # x[:, 0]: the (B, C) code; hs[1:]: the (60, B, H) states; None once used up
    residuals: np.ndarray


def require_inputs(config: ModelConfig, boxes: np.ndarray | None, flow: np.ndarray | None) -> None:
    """Refuse inputs that lack what ``config``'s variant reads: boxes, or (N, flow_dim) flow features."""
    if config.uses_boxes and boxes is None:
        raise ValueError(f"variant {config.variant!r} needs box features")
    if config.uses_flow:
        if flow is None:
            raise FlowFeatureError(f"variant {config.variant!r} needs flow features")
        if np.shape(flow)[-1] != config.flow_dim:
            raise FlowFeatureError(f"flow feature dim {np.shape(flow)[-1]} != configured {config.flow_dim}")


def forward_batch(
    params: ModelParams,
    stats: FeatureStats,
    features: np.ndarray | None,
    flow: np.ndarray | None,
    *,
    for_backward: bool = True,
) -> ForwardCache:
    """Batched forward pass from raw (B, 30, 8) features / (B, F) flow, upcast here, to (B, 60, 4) residuals.

    ``for_backward`` says whether :func:`backward_batch` will read the
    cache. Without it both GRUs run forward-only (see :func:`gru_forward`):
    the encoder keeps two states, of which the box code reads the last,
    and the decoder keeps every state for the output layer, whose
    one GEMM over all of them sets the residuals' bits.
    """
    cfg, t = params.config, params.tensors()
    require_inputs(cfg, features, flow)
    parts = []
    enc_cache = fc_pre = None
    if cfg.uses_boxes:
        _, enc_cache = gru_forward(params.gru("encoder"), standardize(features, stats),
                                   keep="backward" if for_backward else "last")
        fc_pre = enc_cache.hs[-1] @ t["fc1.w"].T + t["fc1.b"]
        parts.append(np.maximum(fc_pre, 0.0))
    if cfg.uses_flow:
        parts.append(np.asarray(flow, dtype=np.float64))
    code = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    b = code.shape[0]
    # A stride-0 view, not a copy: gru_forward projects the code once per window.
    dec_in = np.broadcast_to(code[:, None, :], (b, FUTURE_LEN, code.shape[1]))
    _, dec_cache = gru_forward(params.gru("decoder"), dec_in, keep="backward" if for_backward else "states")
    flat = dec_cache.hs[1:].reshape(FUTURE_LEN * b, -1)
    deltas = (flat @ t["out.w"].T + t["out.b"]).reshape(FUTURE_LEN, b, OUTPUT_DIM)
    residuals = np.ascontiguousarray(np.cumsum(deltas, axis=0).transpose(1, 0, 2))
    return ForwardCache(enc_cache=enc_cache, fc_pre=fc_pre, dec_cache=dec_cache, residuals=residuals)


def backward_batch(params: ModelParams, cache: ForwardCache, dresiduals: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every tensor, given d(loss)/d(residuals).

    The pass uses up ``cache``: a second call on the same cache raises
    ``ValueError``. The decoder's output gradient is a time-major
    (horizon, B, H) array that :func:`gru_backward` uses up, leaving the
    decoder's ``r * h`` products in it. Once the decoder backward returns,
    that array and the decoder's cache are dropped (``cache.dec_cache``
    becomes ``None``), so the encoder backward holds only the encoder's cache.
    """
    if cache.dec_cache is None:
        raise ValueError("cache already holds the gradients of an earlier backward: "
                         "run forward_batch again for another backward")
    cfg, t = params.config, params.tensors()
    b, horizon, _ = dresiduals.shape
    hd = cfg.hidden

    # residual_k = sum_{j<=k} delta_j, so d(loss)/d(delta_j) = sum_{k>=j} d(loss)/d(residual_k);
    # time-major (horizon, B, 4), like the decoder states
    ddeltas = np.flip(np.cumsum(np.flip(dresiduals.transpose(1, 0, 2), axis=0), axis=0), axis=0)
    flat_d = np.ascontiguousarray(ddeltas).reshape(horizon * b, OUTPUT_DIM)
    flat_h = cache.dec_cache.hs[1:].reshape(horizon * b, hd)
    grads: dict[str, np.ndarray] = {}
    grads["out.w"] = flat_d.T @ flat_h
    grads["out.b"] = flat_d.sum(axis=0)

    ddec_h = (flat_d @ t["out.w"]).reshape(horizon, b, hd)
    dx_dec, dec_grads = gru_backward(params.gru("decoder"), cache.dec_cache, ddec_h)
    # The decoder's cache and ddec_h (now its r * h products) are dead: the encoder backward runs without them.
    cache.dec_cache = None
    del flat_h, ddec_h
    for k, v in dec_grads.tensors().items():
        grads[f"decoder.{k}"] = v

    dcode = dx_dec[0]  # dx_dec is (1, B, C): the code is one row shared by all steps
    if cfg.uses_boxes:
        dbox_code = dcode[:, :BOX_CODE_DIM] * (cache.fc_pre > 0.0)
        grads["fc1.w"] = dbox_code.T @ cache.enc_cache.hs[-1]
        grads["fc1.b"] = dbox_code.sum(axis=0)

        p = cache.enc_cache.x.shape[1]
        denc_out = np.zeros((p, b, hd))
        denc_out[-1] = dbox_code @ t["fc1.w"]
        _, enc_grads = gru_backward(params.gru("encoder"), cache.enc_cache, denc_out)
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
    beta: float = SMOOTH_L1_BETA,
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward + backward for one batch of residual targets (B, 60, 4)."""
    cache = forward_batch(params, stats, features, flow, for_backward=True)
    loss = smooth_l1(cache.residuals, targets, beta)
    dres = smooth_l1_grad(cache.residuals, targets, beta)
    return loss, backward_batch(params, cache, dres)


def _add_to_cv_cs(observed: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """(N, 60, 4) CV-CS extrapolation of (N, 30, 4) windows plus residuals; sizes clamped to 1 px."""
    pred = cv_cs_batch(observed) + residuals
    pred[..., 2:] = np.maximum(pred[..., 2:], MIN_BOX_SIZE)
    return pred


def residuals_to_boxes(window: ObservationWindow, residuals: np.ndarray) -> np.ndarray:
    """One window's (60, 4) residuals added to its CV-CS extrapolation; sizes clamped to 1 px."""
    return _add_to_cv_cs(window.observed_array()[None], np.asarray(residuals, dtype=np.float64)[None])[0]


def forecast_array(model: Model, batch: WindowBatch, batch_size: int = FORECAST_BATCH_SIZE) -> np.ndarray:
    """(N, q, 4) forecasts of a batch: the CV-CS extrapolation plus the model's residuals, sizes at least 1 px.

    Forward passes run ``batch_size`` windows at a time and forward-only:
    no backward follows, so no per-step gate cache is kept, and the
    encoder keeps two states, of which the box code reads the last.
    Flow-reading variants take their flow from ``batch.flow``, upcast one
    chunk at a time.
    A ``batch_size`` below 1 is a ``ValueError``. The forecasts' last bits
    depend on ``batch_size``, because OpenBLAS picks its kernel by shape: a
    byte-identity check must fix it.
    """
    if batch_size < 1:
        raise ValueError(f"forecast batch_size must be >= 1, got {batch_size}")
    cfg = model.config
    require_inputs(cfg, batch.observed, batch.flow)
    residuals = [np.empty((0, FUTURE_LEN, OUTPUT_DIM))]
    for lo in range(0, len(batch), batch_size):
        sl = slice(lo, lo + batch_size)
        features = box_features_from_array(batch.observed[sl]) if cfg.uses_boxes else None
        flow = batch.flow[sl] if cfg.uses_flow else None
        residuals.append(forward_batch(model.params, model.stats, features, flow, for_backward=False).residuals)
    return _add_to_cv_cs(batch.observed, np.concatenate(residuals))


def forecast_windows(model: Model, batch: WindowBatch, batch_size: int = FORECAST_BATCH_SIZE) -> list[np.ndarray]:
    """:func:`forecast_array`'s (q, 4) rows, one per window of the batch."""
    return list(forecast_array(model, batch, batch_size))
