"""Track ingestion, window extraction, filtering, splits, and synthetic data."""

from .io import (
    FlowFeatureStore,
    load_flow_magnitudes,
    load_tracks,
    write_flow_features,
    write_tracks,
)
from .splits import N_FOLDS, SplitConfig, make_splits
from .synth import KINDS, default_synth_split_config, synth_generate, synth_generate_mixed
from .windows import (
    CLIP_FRAMES,
    FLOW_MAGNITUDE_THRESHOLD,
    MIN_TRACK_FRAMES,
    ClipInterval,
    WindowBatch,
    count_windows,
    cut_windows,
    extract_windows,
    filter_short_tracks,
    motion_filter_clips,
)

__all__ = [
    "CLIP_FRAMES",
    "ClipInterval",
    "FLOW_MAGNITUDE_THRESHOLD",
    "FlowFeatureStore",
    "KINDS",
    "MIN_TRACK_FRAMES",
    "N_FOLDS",
    "SplitConfig",
    "WindowBatch",
    "count_windows",
    "cut_windows",
    "default_synth_split_config",
    "extract_windows",
    "filter_short_tracks",
    "load_flow_magnitudes",
    "load_tracks",
    "make_splits",
    "motion_filter_clips",
    "synth_generate",
    "synth_generate_mixed",
    "write_flow_features",
    "write_tracks",
]
