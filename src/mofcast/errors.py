"""Exception types shared across the package."""


class MofcastError(Exception):
    """Base class for all data/validation errors raised by this package."""


class TrackFormatError(MofcastError):
    """A track, flow-magnitude, or flow-feature file is malformed."""


class SplitError(MofcastError):
    """Split configuration does not cover the data it is applied to."""


class FlowFeatureError(MofcastError):
    """A flow feature is missing or inconsistent with the model variant."""


class CheckpointError(MofcastError):
    """A checkpoint file is unreadable, truncated, or inconsistent."""


class GradientError(MofcastError):
    """Backpropagation produced a non-finite gradient."""

    def __init__(self, group: str):
        self.group = group
        super().__init__(f"non-finite gradient in parameter group '{group}'")


class TrainingDivergedError(MofcastError):
    """Training produced a non-finite loss; carries the log up to that point."""

    def __init__(self, message: str, log=None):
        self.log = log
        super().__init__(message)
