"""Command-line interface.

Every subcommand is deterministic given its flags and seed (with the
deterministic flag on); machine-readable artifacts go to the output
directory, a short human summary goes to stdout. Exit codes: 0 success,
1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .baselines import KalmanParams, cv_cs_batch, lkf_batch
from .core import Track
from .data import (
    CLIP_FRAMES,
    FLOW_MAGNITUDE_THRESHOLD,
    KINDS,
    MIN_TRACK_FRAMES,
    N_FOLDS,
    SplitConfig,
    WindowBatch,
    count_windows,
    cut_windows,
    filter_short_tracks,
    load_flow_magnitudes,
    load_tracks,
    make_splits,
    motion_filter_clips,
    synth_generate,
    write_tracks,
)
from .encdec import (
    VARIANTS,
    GradSample,
    TrainConfig,
    assemble_arrays,
    forecast_array,
    grad_check_detailed,
    init_params,
    load_checkpoint,
)
from .errors import MofcastError
from .harness import (
    MODEL_KINDS,
    ExperimentSpec,
    attach_flow_features,
    cross_eval,
    forecasts_to_tracks,
    open_flow_store,
    run_all_folds,
    run_fold,
)
from .metrics import MetricReport, aggregate, evaluate_batch, write_curve_csv, write_summary_csv

logger = logging.getLogger(__name__)

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(p: argparse.ArgumentParser, *, tracks: bool = True, out: bool = True):
    if tracks:
        p.add_argument("--tracks", required=True, help="track CSV file")
    if out:
        p.add_argument("--out", default="runs", help="output directory (default: runs)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (0 < value < math.inf):  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _add_split_flags(p: argparse.ArgumentParser, help: str, required: bool = False, all_folds: bool = False):
    p.add_argument("--splits", required=required, help=help)
    p.add_argument("--fold", type=int, default=0, choices=range(N_FOLDS),
                   help=f"fold index in 0..{N_FOLDS - 1} (default: 0)")
    if all_folds:
        p.add_argument("--all-folds", action="store_true", help=f"run folds 0..{N_FOLDS - 1} and average")


def _add_window_flags(p: argparse.ArgumentParser):
    p.add_argument("--stride", type=_positive_int, default=1, help="window stride (default: 1)")
    p.add_argument(
        "--min-frames",
        type=_positive_int,
        default=MIN_TRACK_FRAMES,
        help=f"minimum track length (default: {MIN_TRACK_FRAMES})",
    )


def _add_flow_flags(p: argparse.ArgumentParser):
    p.add_argument("--flow-features", help="flow-feature sidecar index CSV")
    p.add_argument(
        "--synthetic-flow",
        action="store_true",
        help="derive flow features from the windows themselves (desk-scale testing)",
    )


# The train subcommand's flags: (flag, the TrainConfig field it sets, help).
# Defaults come from TrainConfig itself; the float fields must be finite and > 0.
_TRAIN_FLAGS = (
    ("--variant", "variant", "model variant"),
    ("--hidden", "hidden", "GRU hidden units"),
    ("--epochs", "epochs", "training epochs"),
    ("--batch", "batch_size", "mini-batch size"),
    ("--lr", "learning_rate", "initial learning rate"),
    ("--beta", "beta", "smooth-L1 seam in px"),
    ("--flow-dim", "flow_dim", "flow feature dimension"),
    ("--seed", "seed", "seed of initialization and batch order"),
    ("--deterministic", "deterministic", "pin BLAS to 1 thread for bit-reproducible training (needs threadpoolctl)"),
)


def _add_train_flags(p: argparse.ArgumentParser):
    defaults = TrainConfig()
    for flag, name, help_text in _TRAIN_FLAGS:
        default = getattr(defaults, name)
        if isinstance(default, bool):
            kwargs = {"action": argparse.BooleanOptionalAction}
        else:
            kind = _positive_float if isinstance(default, float) else type(default)
            kwargs = {"type": kind, "choices": VARIANTS if name == "variant" else None}
        p.add_argument(flag, dest=name, default=default, help=f"{help_text} (default: {default})", **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="mofcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mofcast {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic tracks")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=_positive_int, required=True, help="number of tracks")
    p.add_argument("--noise", type=float, default=0.0, help="per-frame Gaussian noise sigma in px")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--frames", type=int, help="fixed track length (default: random 120..180)")
    p.add_argument("--out", required=True, help="output track CSV file")

    p = sub.add_parser("prepare", help="filter tracks, build windows, emit stats")
    _add_io_flags(p)
    _add_window_flags(p)
    _add_split_flags(p, "optional split config for per-split window counts")

    p = sub.add_parser("clip-filter", help="select low-motion clips from a flow-magnitude file")
    p.add_argument("--flow-magnitudes", required=True)
    p.add_argument("--threshold", type=_finite_float, default=FLOW_MAGNITUDE_THRESHOLD)
    p.add_argument("--clip-frames", type=_positive_int, default=CLIP_FRAMES)
    p.add_argument("--out", default="runs")

    p = sub.add_parser("train", help="train the encoder-decoder model on one fold")
    _add_io_flags(p)
    _add_split_flags(p, "split config JSON file", required=True, all_folds=True)
    _add_window_flags(p)
    _add_flow_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("tune-lkf", help="grid-tune the Kalman filter on one fold")
    _add_io_flags(p)
    _add_split_flags(p, "split config JSON file", required=True, all_folds=True)
    _add_window_flags(p)
    p.add_argument("--grid", help="JSON grid of KalmanParams (default: stock 27-point grid)")

    p = sub.add_parser("eval", help="evaluate a model on a track file or fold test split")
    _add_io_flags(p)
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--checkpoint", help="encdec checkpoint file")
    p.add_argument("--params", help="tuned KalmanParams JSON (for --model lkf)")
    _add_split_flags(p, "optional: restrict to the fold's test split")
    _add_window_flags(p)
    _add_flow_flags(p)

    p = sub.add_parser("cross-eval", help="evaluate a frozen checkpoint on an external track file")
    _add_io_flags(p)
    p.add_argument("--checkpoint", required=True)
    _add_window_flags(p)
    _add_flow_flags(p)

    p = sub.add_parser("forecast", help="emit per-window predictions as a track-format file")
    _add_io_flags(p)
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--checkpoint")
    p.add_argument("--params")
    _add_window_flags(p)
    _add_flow_flags(p)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", default="bb_only", choices=VARIANTS)
    p.add_argument("--epsilon", type=_positive_float, default=1e-5, help="finite-difference step (default: 1e-5)")
    p.add_argument("--coords", type=_positive_int, default=50, help="sampled coordinates per group")
    p.add_argument("--samples", type=_positive_int, default=3, help="number of seeded samples")
    p.add_argument("--tolerance", type=_positive_float, default=GRADCHECK_TOLERANCE,
                   help=f"largest relative error that passes (default: {GRADCHECK_TOLERANCE:g})")

    return parser


def _print_report(report: MetricReport, label: str) -> None:
    print(
        f"{label}: ADE {report.ade:.2f} px  FDE {report.fde:.2f} px  "
        f"AIOU {report.aiou:.3f}  FIOU {report.fiou:.3f}  ({report.n_windows} windows)"
    )


def _eval_tracks(args) -> list[Track]:
    """The tracks to evaluate: long enough, and only the fold's test split when --splits is given."""
    tracks = filter_short_tracks(load_tracks(args.tracks), args.min_frames)
    if getattr(args, "splits", None):
        config = SplitConfig.from_file(args.splits)
        tracks = list(make_splits(tracks, config, args.fold).test)
    return tracks


def _model_predictions(args, tracks: list[Track]) -> tuple[WindowBatch, np.ndarray]:
    """The tracks' windows and the requested model's (N, q, 4) forecasts of them."""
    batch = cut_windows(tracks, stride=args.stride)
    if not len(batch):
        raise MofcastError(f"{args.tracks}: no windows after filtering")
    if args.model == "cv_cs":
        return batch, cv_cs_batch(batch.observed, batch.horizon)
    if args.model == "lkf":
        if not args.params:
            raise MofcastError("--model lkf needs --params (run tune-lkf first)")
        return batch, lkf_batch(batch.observed, KalmanParams.from_file(args.params), batch.horizon)
    if not args.checkpoint:
        raise MofcastError("--model encdec needs --checkpoint")
    model = load_checkpoint(args.checkpoint)
    store = open_flow_store(args.flow_features, model.config)
    batch = attach_flow_features(batch, model.config, store, args.synthetic_flow)
    return batch, forecast_array(model, batch)


def _cmd_synth(args) -> int:
    tracks = synth_generate(args.kind, args.n, args.noise, args.seed, n_frames=args.frames)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tracks(tracks, out)
    n_boxes = sum(len(t) for t in tracks)
    print(f"wrote {len(tracks)} {args.kind} tracks ({n_boxes} boxes) to {out}")
    return 0


def _count_windows(tracks: list[Track], stride: int) -> int:
    return sum(count_windows(len(t), stride=stride) for t in tracks)


def _cmd_prepare(args) -> int:
    all_tracks = load_tracks(args.tracks)
    kept = filter_short_tracks(all_tracks, args.min_frames)
    stats = {
        "tracks_in": len(all_tracks),
        "tracks_kept": len(kept),
        "tracks_dropped": len(all_tracks) - len(kept),
        "windows": _count_windows(kept, args.stride),
        "stride": args.stride,
        "min_frames": args.min_frames,
    }
    if args.splits:
        config = SplitConfig.from_file(args.splits)
        split = make_splits(kept, config, args.fold)
        for side, tracks in (("train", split.train), ("val", split.val), ("test", split.test)):
            stats[f"windows_{side}"] = _count_windows(tracks, args.stride)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tracks(kept, out / "filtered_tracks.csv")
    (out / "prepare_stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")
    print(
        f"kept {stats['tracks_kept']}/{stats['tracks_in']} tracks, "
        f"{stats['windows']} windows (stride {args.stride}); stats in {out / 'prepare_stats.json'}"
    )
    return 0


def _cmd_clip_filter(args) -> int:
    per_video = load_flow_magnitudes(args.flow_magnitudes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    total = 0
    with (out / "clips.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("video_id,start_frame,end_frame\n")
        for video_id in sorted(per_video):
            for clip in motion_filter_clips(per_video[video_id], args.threshold, args.clip_frames):
                fh.write(f"{video_id},{clip.start_frame},{clip.end_frame}\n")
                total += 1
    print(f"selected {total} clips from {len(per_video)} videos -> {out / 'clips.csv'}")
    return 0


def _spec_from_args(args, model: str) -> ExperimentSpec:
    if args.command == "train":
        train_config = TrainConfig(**{name: getattr(args, name) for _, name, _ in _TRAIN_FLAGS})
    else:
        train_config = TrainConfig()
    return ExperimentSpec(
        tracks=args.tracks,
        splits=args.splits,
        fold=args.fold,
        model=model,
        out_dir=args.out,
        flow_features=getattr(args, "flow_features", None),
        synthetic_flow=getattr(args, "synthetic_flow", False),
        lkf_grid=getattr(args, "grid", None),
        stride=args.stride,
        min_track_frames=args.min_frames,
        train=train_config,
    )


def _run_spec(args, model: str) -> int:
    spec = _spec_from_args(args, model)
    if args.all_folds:
        result = run_all_folds(spec)
        for fold_result in result.per_fold:
            _print_report(fold_result.report, f"{model} fold {fold_result.fold}")
        _print_report(result.mean, f"{model} mean over folds")
    else:
        fold_result = run_fold(spec)
        _print_report(fold_result.report, f"{model} fold {spec.fold} test")
        if fold_result.checkpoint_path:
            print(f"checkpoint: {fold_result.checkpoint_path}")
        if fold_result.lkf_params:
            print(f"tuned params: {fold_result.lkf_params}")
        print(f"artifacts: {fold_result.run_dir}")
    return 0


def _cmd_eval(args) -> int:
    batch, pred = _model_predictions(args, _eval_tracks(args))
    report = aggregate(evaluate_batch(pred, batch))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv([report], out / "summary.csv", model_id=args.model)
    write_curve_csv(report, out / "curves.csv")
    _print_report(report, args.model)
    return 0


def _cmd_cross_eval(args) -> int:
    report = cross_eval(
        args.checkpoint,
        args.tracks,
        out_dir=args.out,
        stride=args.stride,
        min_track_frames=args.min_frames,
        flow_features=args.flow_features,
        synthetic_flow=args.synthetic_flow,
    )
    _print_report(report, "cross-eval")
    return 0


def _cmd_forecast(args) -> int:
    batch, pred = _model_predictions(args, _eval_tracks(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "forecasts.csv"
    write_tracks(forecasts_to_tracks(batch.sources, pred), path)
    print(f"wrote {len(batch)} forecast tracks to {path}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .data import synth_generate_mixed
    from .encdec import FeatureStats, compute_feature_stats

    config = TrainConfig(hidden=args.hidden, variant=args.variant, seed=args.seed).model_config()
    worst = 0.0
    for i in range(args.samples):
        tracks = synth_generate_mixed(("turning", "accelerating"), 2, 1.0, args.seed + i, n_frames=91)
        batch = attach_flow_features(cut_windows(tracks), config, None, synthetic=True)
        arrays = assemble_arrays(batch, config)
        stats = (
            compute_feature_stats(arrays.features) if config.uses_boxes else FeatureStats.identity()
        )
        # Random output layer: the training default (zeros) blocks gradient
        # flow upstream and would make the check vacuous.
        params = init_params(config, args.seed + i, zero_output=False)
        sample = GradSample(features=arrays.features, flow=arrays.flow, targets=arrays.targets)
        detailed = grad_check_detailed(
            params, stats, sample, epsilon=args.epsilon, coords_per_group=args.coords, seed=args.seed + i
        )
        sample_worst = max(detailed.values())
        worst = max(worst, sample_worst)
        print(f"sample {i}: max relative error {sample_worst:.3e}")
        for name in sorted(detailed):
            logger.info("  %-14s %.3e", name, detailed[name])
    print(f"max relative error over {args.samples} samples: {worst:.3e} (tolerance {args.tolerance:g})")
    if worst >= args.tolerance:
        print("gradient check FAILED", file=sys.stderr)
        return 2
    print("gradient check passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handlers = {
        "synth": _cmd_synth,
        "prepare": _cmd_prepare,
        "clip-filter": _cmd_clip_filter,
        "train": lambda a: _run_spec(a, "encdec"),
        "tune-lkf": lambda a: _run_spec(a, "lkf"),
        "eval": _cmd_eval,
        "cross-eval": _cmd_cross_eval,
        "forecast": _cmd_forecast,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (MofcastError, ValueError, OSError) as exc:
        print(f"mofcast {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
