"""Mini-batch training with an adaptive-moment optimizer and a halving
learning-rate schedule.

The training and validation sets are window batches; the flow-reading
variants take their (N, F) flow features from each batch's ``flow`` field,
which the caller attaches. Targets are the residuals of the ground-truth
boxes relative to the CV-CS extrapolation, in raw pixels; encoder inputs are
standardized with stats computed on the training windows only. Because the
output layer starts at zero, epoch 0 (the untrained model) scores exactly
like the CV-CS baseline, and it participates in best-epoch selection:
training can only be accepted if it beats that. So epoch 0 is scored as
CV-CS's centroid ADE on the validation windows, without a forward pass; see
:func:`train` for why that is exact.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ..baselines import cv_cs_batch
from ..data.windows import WindowBatch
from ..errors import TrainingDivergedError
from ..metrics import centroid_ade
from .features import FeatureStats, box_features_from_array, compute_feature_stats
from .loss import SMOOTH_L1_BETA
from .model import Model, ModelConfig, forecast_array, init_params, loss_and_gradients, require_inputs

# Not called here (validation reaches forward_batch through forecast_array): kept in
# this namespace because benchmarks/tracing.py wraps them by these names.
from .features import box_features  # noqa: F401
from .model import forward_batch  # noqa: F401

LR_HALVING_EPOCHS = 5
ADAM_BLOCK = 8192  # elements per Adam block: a block of p, g, m, v and the two scratch rows is 384 KiB


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 1024  # training mini-batch; forecasts run FORECAST_BATCH_SIZE windows at a time
    epochs: int = 20
    beta: float = SMOOTH_L1_BETA
    seed: int = 0
    hidden: int = ModelConfig.hidden
    variant: str = ModelConfig.variant
    flow_dim: int = ModelConfig.flow_dim

    def __post_init__(self):
        for name in ("learning_rate", "beta"):
            if not 0 < getattr(self, name) < math.inf:  # also refuses nan
                raise ValueError(f"TrainConfig.{name} must be a finite number > 0, got {getattr(self, name)!r}")
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"TrainConfig.{name} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"TrainConfig.seed must be >= 0, got {self.seed}")
        self.model_config()  # refuses an unknown variant and a hidden or flow_dim below 1

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            variant=self.variant,  # type: ignore[arg-type]
            hidden=self.hidden,
            flow_dim=self.flow_dim,
        )

    def lr_at_epoch(self, epoch: int) -> float:
        """Learning rate for a 1-indexed epoch: halved every ``LR_HALVING_EPOCHS``."""
        return self.learning_rate * 0.5 ** ((epoch - 1) // LR_HALVING_EPOCHS)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    learning_rate: float
    train_loss: float
    val_ade: float


@dataclass
class TrainLog:
    initial_val_ade: float
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0  # 0 means the untrained model was never beaten

    def rows(self) -> list[tuple]:
        """(epoch, learning_rate, train_loss, val_ade) per epoch; epoch 0 is the untrained model."""
        return [(0, 0.0, math.nan, self.initial_val_ade)] + [dataclasses.astuple(r) for r in self.epochs]


@dataclass(frozen=True)
class TrainResult:
    model: Model
    log: TrainLog


class Adam:
    """Adaptive-moment estimation with the standard constants."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0
        self._scratch = np.empty((2, ADAM_BLOCK))

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
        """Apply one update to ``tensors`` in place.

        Each tensor's flat view is updated ``ADAM_BLOCK`` elements at a
        time, and every intermediate lands in one of two scratch blocks that
        live as long as the optimizer, so a step allocates nothing after the
        first and its working set stays in cache. Each block keeps the
        elementwise order of the whole-array update ``m = β1·m + (1-β1)·g``,
        ``v = β2·v + ((1-β2)·g)·g``, ``p -= lr·(m/bc1) / (sqrt(v/bc2) + eps)``,
        so the bits are the same. A tensor must be C-contiguous: its flat
        view is then the tensor itself, where a strided one's would be a copy
        that the update would silently miss; anything else is a ``ValueError``
        naming it, raised before any tensor moves.

        Only m and v persist across calls; no reference to ``grads`` is
        kept, so a caller that drops its table frees it.
        """
        for name, p in tensors.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"Adam updates tensors in place through their flat view: {name!r} is not C-contiguous")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1, bc2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for name, p in tensors.items():
            flat = [a.reshape(-1) for a in (
                p, grads[name], self.m.setdefault(name, np.zeros_like(p)), self.v.setdefault(name, np.zeros_like(p))
            )]
            for lo in range(0, p.size, ADAM_BLOCK):
                p_, g, m, v = (a[lo : lo + ADAM_BLOCK] for a in flat)
                s, u = self._scratch[:, : g.size]
                m *= b1
                np.multiply(g, 1.0 - b1, out=s)
                m += s
                v *= b2
                np.multiply(g, 1.0 - b2, out=s)
                s *= g
                v += s
                np.divide(m, bc1, out=s)
                s *= lr
                np.divide(v, bc2, out=u)
                np.sqrt(u, out=u)
                u += self.eps
                s /= u
                p_ -= s


@dataclass
class WindowArrays:
    """Model inputs of a window batch: features, flow, CV base, targets, truth."""

    features: np.ndarray | None  # (N, p, 8)
    flow: np.ndarray | None      # (N, F)
    base: np.ndarray             # (N, q, 4) CV-CS extrapolation
    gt: np.ndarray               # (N, q, 4)

    @property
    def targets(self) -> np.ndarray:
        return self.gt - self.base

    def __len__(self) -> int:
        return self.base.shape[0]


def assemble_arrays(batch: WindowBatch, config: ModelConfig) -> WindowArrays:
    if not len(batch):
        raise ValueError("window batch is empty")
    require_inputs(config, batch.observed, batch.flow)
    return WindowArrays(
        features=box_features_from_array(batch.observed) if config.uses_boxes else None,
        flow=batch.flow if config.uses_flow else None,
        base=cv_cs_batch(batch.observed),
        gt=batch.future,
    )


def train(train_batch: WindowBatch, val_batch: WindowBatch, config: TrainConfig) -> TrainResult:
    """Train end to end; returns the parameters of the best-validation epoch.

    Parameter init and batch order come from independent seeded streams.
    Nothing pins BLAS's thread count, so repeatability also rests on the BLAS
    build; a paper-size (H=512) test checks that two runs write byte-identical
    checkpoints.

    What lives across a step: the params, the best-epoch copy and Adam's m
    and v, each the size of the params. A step adds its own forward caches
    and gradients, and its gradients are dropped once Adam has applied them,
    so no step's passes run beside the previous step's.

    Epoch 0 is scored without a forward pass, as CV-CS's centroid ADE on the
    validation windows, and that is the untrained model's score bit for bit:
    :func:`init_params` zeroes the output layer, so while the hidden states
    are finite every residual is exactly ±0 and adding it leaves the CV-CS
    boxes as they are; the 1-px size clamp touches only w and h, and the
    centroid ADE reads only cx and cy. Each later epoch runs one
    :func:`forecast_array` over the validation windows. A validation batch
    that lacks the flow a variant reads is refused before any step.
    """
    if not len(train_batch):
        raise ValueError("training set is empty")
    if not len(val_batch):
        raise ValueError("validation set is empty")
    model_config = config.model_config()
    require_inputs(model_config, val_batch.observed, val_batch.flow)

    ss = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    train_arrays = assemble_arrays(train_batch, model_config)
    stats = (
        compute_feature_stats(train_arrays.features)
        if model_config.uses_boxes
        else FeatureStats.identity()
    )
    targets = train_arrays.targets

    params = init_params(model_config, init_rng)
    optimizer = Adam()

    best_ade = centroid_ade(cv_cs_batch(val_batch.observed), val_batch.future)  # the untrained model's, exactly
    log = TrainLog(initial_val_ade=best_ade)
    best_params = params.copy()

    n = len(train_arrays)
    for epoch in range(1, config.epochs + 1):
        lr = config.lr_at_epoch(epoch)
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            feats = None if train_arrays.features is None else train_arrays.features[idx]
            flow = None if train_arrays.flow is None else train_arrays.flow[idx]
            loss, grads = loss_and_gradients(
                params, stats, feats, flow, targets[idx], beta=config.beta
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}", log=log
                )
            optimizer.step(params.tensors(), grads, lr)
            del grads  # applied: the next step's passes run without this copy of the parameters
            loss_sum += loss * idx.size
        val_ade = centroid_ade(forecast_array(Model(params=params, stats=stats), val_batch), val_batch.future)
        log.epochs.append(
            EpochRecord(epoch=epoch, learning_rate=lr, train_loss=loss_sum / n, val_ade=val_ade)
        )
        if val_ade < best_ade:
            best_ade = val_ade
            best_params = params.copy()
            log.best_epoch = epoch

    return TrainResult(model=Model(params=best_params, stats=stats), log=log)
