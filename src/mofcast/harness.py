"""End-to-end experiment driver.

One fold = build inter-city splits, train or tune the requested model,
evaluate on the held-out test windows, and write all artifacts (summary and
curve CSVs, metadata breakdowns, checkpoint or tuned parameters, run
manifest) into a run directory named by spec hash + timestamp. Three-fold
runs additionally emit the unweighted mean report. Saved checkpoints can be
evaluated on external track files without any parameter update: a loaded
checkpoint's weights are read-only, so a write into them raises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._version import __version__
from .baselines import (
    KalmanParams,
    cv_cs_batch,
    default_param_grid,
    lkf_batch,
    lkf_tune,
    load_param_grid,
    save_param_grid,
)
from .core import METADATA_FIELDS, Track
from .data import (
    N_FOLDS,
    FlowFeatureStore,
    SplitConfig,
    WindowBatch,
    cut_windows,
    filter_short_tracks,
    load_tracks,
    make_splits,
)
from .data.io import write_csv, write_json
from .encdec import (
    FORECAST_BATCH_SIZE,
    Model,
    ModelConfig,
    TrainConfig,
    TrainLog,
    forecast_array,
    load_checkpoint,
    save_checkpoint,
    synthetic_flow_batch,
    train,
)
from .errors import FlowFeatureError, MofcastError
from .metrics import (
    MetricReport,
    aggregate,
    breakdown,
    evaluate_batch,
    write_curve_csv,
    write_summary_csv,
)

# Not called here: the per-window forms of what this module runs in batches,
# kept in its namespace because benchmarks/tracing.py wraps them by this name.
from .baselines import cv_cs_forecast, lkf_forecast_window  # noqa: F401
from .data import extract_windows  # noqa: F401
from .encdec.model import forecast_windows  # noqa: F401
from .metrics import evaluate_window  # noqa: F401

logger = logging.getLogger(__name__)

# The optional inputs each model kind reads, by parameter name; any other given with it is refused.
MODEL_INPUTS = {"cv_cs": (), "lkf": ("lkf_grid", "params"), "encdec": ("checkpoint", "flow_features", "synthetic_flow")}
MODEL_KINDS = tuple(MODEL_INPUTS)


def _check_inputs(model: str, config: ModelConfig | None = None, **inputs) -> None:
    """The one rule for which inputs a model reads. Refuse with ``ValueError``, naming it, a given input that
    ``model`` does not read, or two flow sources; given the encdec ``config``, also a flow source its variant
    does not read, or none when it reads flow."""
    for name, value in inputs.items():
        if value and name not in MODEL_INPUTS[model]:
            raise ValueError(f"model {model!r} does not read {name}, got {value!r}")
    flow = [name for name in ("flow_features", "synthetic_flow") if inputs.get(name)]
    if len(flow) > 1:
        raise ValueError("give one flow source: flow_features or synthetic_flow, not both")
    if config is not None and config.uses_flow != bool(flow):
        raise ValueError(f"variant {config.variant!r} does not read {flow[0]}" if flow else
                         f"variant {config.variant!r} reads flow: give flow_features or synthetic_flow")


@dataclass(frozen=True)
class ExperimentSpec:
    """One fold's experiment. :func:`_check_inputs` refuses here, before any file is read, an input ``model``
    or its variant does not read and a flow variant with no flow source. ``train`` is accepted for every
    model kind: the benchmark's cv_cs and lkf folds pass a seeded one for the manifest."""

    tracks: str
    splits: str
    fold: int
    model: str
    out_dir: str
    flow_features: str | None = None
    synthetic_flow: bool = False
    lkf_grid: str | None = None
    stride: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODEL_KINDS}")
        if self.fold not in range(N_FOLDS):
            raise ValueError(f"fold must be in 0..{N_FOLDS - 1}, got {self.fold}")
        if self.stride < 1:
            raise ValueError(f"ExperimentSpec.stride must be >= 1, got {self.stride}")
        _check_inputs(self.model, self.train.model_config() if self.model == "encdec" else None,
                      flow_features=self.flow_features, synthetic_flow=self.synthetic_flow, lkf_grid=self.lkf_grid)

    def to_file(self, path: str | Path) -> None:
        write_json(path, dataclasses.asdict(self))

    def hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass
class FoldResult:
    report: MetricReport
    run_dir: Path
    fold: int
    checkpoint_path: Path | None = None
    train_log: TrainLog | None = None
    lkf_params: KalmanParams | None = None


def _make_run_dir(base: Path, spec_hash: str) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = base / f"run-{spec_hash[:10]}-{stamp}"
    suffix = 0
    while candidate.exists():
        suffix += 1
        candidate = base / f"run-{spec_hash[:10]}-{stamp}-{suffix}"
    candidate.mkdir()
    return candidate


def _write_manifest(run_dir: Path, spec: ExperimentSpec, wall_clock: float) -> None:
    write_json(run_dir / "manifest.json", {
        "spec_hash": spec.hash(),
        "seed": spec.train.seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "wall_clock_seconds": round(wall_clock, 3),
    })


def open_flow_store(path: str | Path | None, config: ModelConfig) -> FlowFeatureStore | None:
    """The flow-feature sidecar at ``path``, None without one; refused, naming its index file, when its feature
    dimension is not ``config.flow_dim``. :func:`_check_inputs` has refused a sidecar the variant does not read."""
    if not path:
        return None
    store = FlowFeatureStore.open(path)
    if store.dim != config.flow_dim:
        raise FlowFeatureError(f"{path}: flow feature dim {store.dim} != the model's flow_dim {config.flow_dim}")
    return store


def attach_flow_features(batch: WindowBatch, config: ModelConfig, store: FlowFeatureStore | None,
                         synthetic: bool) -> WindowBatch:
    """``batch`` with the flow features ``config``'s variant reads: derived from the windows when ``synthetic``
    is set, else read from ``store``; a variant that reads no flow gets it back unchanged. :func:`_check_inputs`
    has refused, before the tracks were read, a flow variant given no source or two. A non-finite stored row,
    which :class:`WindowBatch` refuses naming its window, is a :class:`FlowFeatureError` naming the blob too."""
    if not config.uses_flow:
        return batch
    if synthetic:
        return dataclasses.replace(batch, flow=synthetic_flow_batch(batch.observed, config.flow_dim))
    flow = store.rows(batch.keys())
    try:
        return dataclasses.replace(batch, flow=flow)
    except ValueError as exc:
        raise FlowFeatureError(f"{store.blob}: {exc}") from None


def _audit_cities(split, fold: int) -> None:
    overlap = split.train_cities & split.holdout_cities
    if overlap:
        raise MofcastError(f"city audit failed for fold {fold}: {sorted(overlap)} on both sides")
    logger.info(
        "fold %d city audit: train=%s holdout=%s (disjoint)",
        fold,
        sorted(split.train_cities),
        sorted(split.holdout_cities),
    )


def score_forecasts(pred: np.ndarray, batch: WindowBatch, model_id: str, out_dir: str | Path | None) -> MetricReport:
    """Score ``pred``, the (N, q, 4) forecasts of ``batch``. Given an ``out_dir`` (made if missing), write
    ``summary.csv``, ``curves.csv`` and a ``breakdown_<field>.csv`` per metadata field some track carries;
    the windows of a track that lacks the field form the group ``""``. A non-finite forecast is refused with
    :class:`MofcastError` naming its window, before anything is scored or written: IOU would read it as a miss."""
    finite = np.isfinite(pred).reshape(len(pred), -1).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise MofcastError(f"{bad.size} non-finite forecast(s), the first for window {batch.source(int(bad[0]))}")
    scores = evaluate_batch(pred, batch)
    report = aggregate(scores)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_summary_csv([report], out / "summary.csv", model_id=model_id)
        write_curve_csv(report, out / "curves.csv")
        for fld in METADATA_FIELDS:
            if (groups := batch.groups(fld)) is not None:
                write_summary_csv(breakdown(scores, *groups), out / f"breakdown_{fld}.csv", model_id=model_id)
    return report


# Not called here: the tests hash weights with it, and benchmarks/tracing.py wraps it by this name.
def weights_checksum(model: Model) -> str:
    """SHA-256 of the stats and every named tensor, hashed from their C-contiguous buffers without a copy."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(model.stats.mean))
    digest.update(np.ascontiguousarray(model.stats.std))
    for name, tensor in model.params.tensors().items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(tensor))
    return digest.hexdigest()


def load_windows(tracks_path: str | Path, stride: int, splits: str | Path | None = None, fold: int = 0) -> WindowBatch:
    """The windows of a track file's long-enough tracks, only those of the fold's test split when ``splits``
    names a split config. No window left is a :class:`MofcastError` naming the file."""
    tracks = filter_short_tracks(load_tracks(tracks_path))
    if splits:
        tracks = make_splits(tracks, SplitConfig.from_file(splits), fold).test
    batch = cut_windows(tracks, stride=stride)
    if not len(batch):
        raise MofcastError(f"{tracks_path}: no windows after filtering")
    return batch


def forecast_checkpoint(checkpoint: str | Path, tracks_path: str | Path, stride: int, splits: str | Path | None = None,
                        fold: int = 0, flow_features: str | Path | None = None, synthetic_flow: bool = False,
                        batch_size: int = FORECAST_BATCH_SIZE) -> tuple[WindowBatch, np.ndarray]:
    """The windows of a track file (:func:`load_windows`) and a saved model's (N, q, 4) forecasts of them.

    A ``stride`` or ``batch_size`` below 1 and two flow sources are refused with ``ValueError`` before any
    file is read. The checkpoint is read next, and a flow source its variant does not read, or none when it
    reads flow, is refused (:func:`_check_inputs`) before the tracks are read; the sidecar is opened last.
    """
    for name, value in (("stride", stride), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    _check_inputs("encdec", flow_features=flow_features, synthetic_flow=synthetic_flow)
    model = load_checkpoint(checkpoint)
    _check_inputs("encdec", model.config, flow_features=flow_features, synthetic_flow=synthetic_flow)
    batch = load_windows(tracks_path, stride, splits, fold)
    store = open_flow_store(flow_features, model.config)
    return batch, forecast_array(model, attach_flow_features(batch, model.config, store, synthetic_flow), batch_size)


def run_fold(spec: ExperimentSpec) -> FoldResult:
    """Train/tune on one fold's train+val cities, evaluate on the held-out test windows.

    Every model is scored the same way: its (N, q, 4) predictions of the
    test batch go through one call of :func:`score_forecasts`. The baselines
    cut only the splits they use (test, and val for the LKF).
    """
    return _run_fold(spec, None)


def _run_fold(spec: ExperimentSpec, tracks: Sequence[Track] | None) -> FoldResult:
    """:func:`run_fold` on ``tracks``, the spec's filtered tracks, loaded here when None."""
    started = time.perf_counter()
    run_dir = _make_run_dir(Path(spec.out_dir), spec.hash())
    spec.to_file(run_dir / "spec.json")

    try:
        if tracks is None:
            tracks = filter_short_tracks(load_tracks(spec.tracks))
        split_config = SplitConfig.from_file(spec.splits)
        split = make_splits(tracks, split_config, spec.fold)
        _audit_cities(split, spec.fold)

        checkpoint_path = None
        train_log = None
        lkf_params = None

        test = cut_windows(split.test, stride=spec.stride)
        logger.info("fold %d test windows: %d", spec.fold, len(test))
        if not len(test):
            raise MofcastError(f"fold {spec.fold}: no test windows after filtering")

        if spec.model == "cv_cs":
            pred = cv_cs_batch(test.observed)
        elif spec.model == "lkf":
            grid = load_param_grid(spec.lkf_grid) if spec.lkf_grid else default_param_grid()
            save_param_grid(grid, run_dir / "lkf_grid.json")
            val = cut_windows(split.val, stride=spec.stride)
            if not len(val):
                raise MofcastError(f"fold {spec.fold}: no validation windows to tune the LKF on")
            tuned = lkf_tune(val, grid)
            tuned.params.to_file(run_dir / "lkf_params.json")
            write_csv(run_dir / "lkf_grid_table.csv", [f.name for f in dataclasses.fields(KalmanParams)] + ["val_ade"],
                      ([*dataclasses.astuple(params), f"{ade:.6f}"] for params, ade in tuned.table))
            lkf_params = tuned.params
            pred = lkf_batch(test.observed, lkf_params)
        else:  # encdec
            model_config = spec.train.model_config()
            store = open_flow_store(spec.flow_features, model_config)
            train_batch, val_batch, test = (
                attach_flow_features(batch, model_config, store, spec.synthetic_flow)
                for batch in (cut_windows(split.train, stride=spec.stride),
                              cut_windows(split.val, stride=spec.stride), test)
            )
            logger.info("fold %d windows: train=%d val=%d", spec.fold, len(train_batch), len(val_batch))
            trained = train(train_batch, val_batch, spec.train)
            train_log = trained.log
            write_csv(run_dir / "train_log.csv", ["epoch", "learning_rate", "train_loss", "val_ade"],
                      [*train_log.rows(), ["best_epoch", train_log.best_epoch, "", ""]])
            checkpoint_path = run_dir / "checkpoint.mofc"
            save_checkpoint(trained.model, checkpoint_path)
            pred = forecast_array(trained.model, test)

        return FoldResult(
            report=score_forecasts(pred, test, spec.model, run_dir),
            run_dir=run_dir,
            fold=spec.fold,
            checkpoint_path=checkpoint_path,
            train_log=train_log,
            lkf_params=lkf_params,
        )
    finally:
        _write_manifest(run_dir, spec, time.perf_counter() - started)


@dataclass
class AllFoldsResult:
    per_fold: list[FoldResult]
    mean: MetricReport


def mean_report(reports: Sequence[MetricReport]) -> MetricReport:
    """Unweighted arithmetic mean of reports, metric by metric."""
    if not reports:
        raise ValueError("no reports to average")
    disp = np.mean([r.displacement_curve for r in reports], axis=0)
    ious = np.mean([r.iou_curve for r in reports], axis=0)
    return MetricReport(
        ade=float(np.mean([r.ade for r in reports])),
        fde=float(np.mean([r.fde for r in reports])),
        aiou=float(np.mean([r.aiou for r in reports])),
        fiou=float(np.mean([r.fiou for r in reports])),
        displacement_curve=disp,
        iou_curve=ious,
        n_windows=int(sum(r.n_windows for r in reports)),
        group_key="mean-of-folds",
    )


def run_all_folds(spec: ExperimentSpec) -> AllFoldsResult:
    """Run folds 0..2 with the same spec on tracks loaded once; any fold
    failure aborts, keeping the completed folds' artifacts on disk."""
    tracks = filter_short_tracks(load_tracks(spec.tracks))
    per_fold = [_run_fold(dataclasses.replace(spec, fold=fold), tracks) for fold in range(N_FOLDS)]
    mean = mean_report([r.report for r in per_fold])
    write_summary_csv(
        [r.report for r in per_fold] + [mean],
        Path(spec.out_dir) / "folds_summary.csv",
        model_id=spec.model,
    )
    return AllFoldsResult(per_fold=per_fold, mean=mean)


def cross_eval(
    checkpoint: str | Path,
    tracks_path: str | Path,
    out_dir: str | Path | None = None,
    stride: int = 1,
    flow_features: str | Path | None = None,
    synthetic_flow: bool = False,
    batch_size: int = FORECAST_BATCH_SIZE,
) -> MetricReport:
    """Evaluate a frozen checkpoint on an external track file: :func:`forecast_checkpoint`, which makes
    every refusal, then :func:`score_forecasts`. CLI ``eval --model encdec`` without ``--splits`` makes
    the same two calls.

    No parameter update can occur: :func:`load_checkpoint` makes every weight and both feature stats
    read-only, so a write into them raises. The forecasts' last bits depend on ``batch_size``, as OpenBLAS
    picks its kernel by shape: a byte-identity check must fix it.
    """
    batch, pred = forecast_checkpoint(checkpoint, tracks_path, stride, flow_features=flow_features,
                                      synthetic_flow=synthetic_flow, batch_size=batch_size)
    return score_forecasts(pred, batch, "encdec", out_dir)


def forecasts_to_tracks(batch: WindowBatch, pred: np.ndarray) -> list[Track]:
    """Re-express (N, q, 4) forecasts of ``batch``'s windows in the track file format.

    Row i of ``pred`` becomes one track of window i's video, starting at the
    frame after its anchor, for overlay plotting; track ids are renumbered
    sequentially so (video_id, track_id) stays unique even when several
    windows of one source track are forecast. ``pred`` must have one row per window.
    """
    return [Track(video_id=video, track_id=i, start_frame=anchor + 1, boxes=rows, metadata=None)
            for i, ((video, _, anchor), rows) in enumerate(zip(batch.keys(), pred, strict=True))]
