"""Recurrent encoder-decoder forecaster: features, model, training, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .features import (
    FEATURE_DIM,
    FeatureStats,
    box_features,
    compute_feature_stats,
    standardize,
    synthetic_flow_batch,
    synthetic_flow_feature,
)
from .gradcheck import grad_check_detailed
from .gru import GRUParams, gru_backward, gru_forward
from .loss import smooth_l1, smooth_l1_grad
from .model import (
    BOX_CODE_DIM,
    ENCDEC_MODEL_ID,
    FORECAST_BATCH_SIZE,
    Model,
    ModelConfig,
    ModelParams,
    VARIANTS,
    backward_batch,
    forecast_array,
    forward_batch,
    init_params,
    loss_and_gradients,
    tensor_shapes,
)
from .training import Adam, EpochRecord, TrainConfig, TrainLog, TrainResult, assemble_arrays, train

__all__ = [
    "Adam",
    "BOX_CODE_DIM",
    "ENCDEC_MODEL_ID",
    "EpochRecord",
    "FEATURE_DIM",
    "FORECAST_BATCH_SIZE",
    "FeatureStats",
    "GRUParams",
    "Model",
    "ModelConfig",
    "ModelParams",
    "TrainConfig",
    "TrainLog",
    "TrainResult",
    "VARIANTS",
    "assemble_arrays",
    "backward_batch",
    "box_features",
    "compute_feature_stats",
    "forecast_array",
    "forward_batch",
    "grad_check_detailed",
    "gru_backward",
    "gru_forward",
    "init_params",
    "load_checkpoint",
    "loss_and_gradients",
    "save_checkpoint",
    "smooth_l1",
    "smooth_l1_grad",
    "standardize",
    "synthetic_flow_batch",
    "synthetic_flow_feature",
    "tensor_shapes",
    "train",
]
