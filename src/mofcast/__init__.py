"""mofcast: pedestrian bounding-box forecasting.

Predicts the next 2 seconds (60 frames) of a pedestrian's bounding box from
the previous 1 second (30 frames) of tracked boxes at 30 Hz. Ships the
evaluation metric suite (ADE/FDE/AIOU/FIOU), classical baselines
(constant-velocity/constant-scale and a linear Kalman filter), and a
from-scratch recurrent encoder-decoder trained with exact backpropagation
through time.
"""

from ._version import __version__
from .core import (
    BBox,
    FUTURE_LEN,
    Forecast,
    OBSERVED_LEN,
    ObservationWindow,
    Track,
    WindowSource,
    boxes_to_array,
    array_to_boxes,
)
from .errors import (
    CheckpointError,
    FlowFeatureError,
    GradientError,
    MofcastError,
    SplitError,
    TrackFormatError,
    TrainingDivergedError,
)
from .metrics import MetricReport, WindowScores, aggregate, breakdown, evaluate_window

__all__ = [
    "BBox",
    "CheckpointError",
    "FUTURE_LEN",
    "FlowFeatureError",
    "Forecast",
    "GradientError",
    "MetricReport",
    "MofcastError",
    "OBSERVED_LEN",
    "ObservationWindow",
    "SplitError",
    "Track",
    "TrackFormatError",
    "TrainingDivergedError",
    "WindowScores",
    "WindowSource",
    "__version__",
    "aggregate",
    "array_to_boxes",
    "boxes_to_array",
    "breakdown",
    "evaluate_window",
]
