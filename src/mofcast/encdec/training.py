"""Mini-batch training with an adaptive-moment optimizer and a halving
learning-rate schedule.

The training and validation sets are window batches; the flow-reading
variants take their (N, F) flow features from each batch's ``flow`` field,
which the caller attaches. Targets are the residuals of the ground-truth
boxes relative to the CV-CS extrapolation, in raw pixels; encoder inputs are
standardized with stats computed on the training windows only. Because the
output layer starts at zero, epoch 0 (the untrained model) scores exactly
like the CV-CS baseline, and it participates in best-epoch selection:
training can only be accepted if it beats that.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ..baselines import cv_cs_batch
from ..data.windows import WindowBatch
from ..errors import FlowFeatureError, TrainingDivergedError
from ..metrics import centroid_ade
from .features import FeatureStats, box_features_from_array, compute_feature_stats
from .model import Model, ModelConfig, forecast_array, init_params, loss_and_gradients

# Not called here (validation reaches forward_batch through forecast_array): kept in
# this namespace because benchmarks/tracing.py wraps them by these names.
from .features import box_features  # noqa: F401
from .model import forward_batch  # noqa: F401

LR_HALVING_EPOCHS = 5


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 1024
    epochs: int = 20
    beta: float = 1.0  # smooth-L1 seam, in pixels
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

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in tensors.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


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
    if config.uses_flow and batch.flow is None:
        raise FlowFeatureError(f"{len(batch)} windows lack flow features (variant {config.variant!r})")
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
    """
    if not len(train_batch):
        raise ValueError("training set is empty")
    if not len(val_batch):
        raise ValueError("validation set is empty")

    model_config = config.model_config()
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

    def validation_ade() -> float:
        pred = forecast_array(Model(params=params, stats=stats), val_batch, config.batch_size)
        return centroid_ade(pred, val_batch.future)

    best_ade = validation_ade()
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
            loss_sum += loss * idx.size
        val_ade = validation_ade()
        log.epochs.append(
            EpochRecord(epoch=epoch, learning_rate=lr, train_loss=loss_sum / n, val_ade=val_ade)
        )
        if val_ade < best_ade:
            best_ade = val_ade
            best_params = params.copy()
            log.best_epoch = epoch

    return TrainResult(model=Model(params=best_params, stats=stats), log=log)
