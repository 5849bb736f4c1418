"""mofcast: pedestrian bounding-box forecasting.

Predicts the next 2 seconds (60 frames) of a pedestrian's bounding box from
the previous 1 second (30 frames) of tracked boxes at 30 Hz. Ships the
evaluation metric suite (ADE/FDE/AIOU/FIOU), classical baselines
(constant-velocity/constant-scale and a linear Kalman filter), and a
from-scratch recurrent encoder-decoder trained with exact backpropagation
through time.
"""

from ._version import __version__
from .core import FUTURE_LEN, OBSERVED_LEN, Track, WindowSource
from .errors import (
    CheckpointError,
    FlowFeatureError,
    GradientError,
    MofcastError,
    SplitError,
    TrackFormatError,
    TrainingDivergedError,
)
from .metrics import MetricReport, WindowScores, aggregate, breakdown

__all__ = [
    "CheckpointError",
    "FUTURE_LEN",
    "FlowFeatureError",
    "GradientError",
    "MetricReport",
    "MofcastError",
    "OBSERVED_LEN",
    "SplitError",
    "Track",
    "TrackFormatError",
    "TrainingDivergedError",
    "WindowScores",
    "WindowSource",
    "__version__",
    "aggregate",
    "breakdown",
]
