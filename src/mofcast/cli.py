"""Command-line interface.

Machine-readable artifacts go to the output directory, a short human summary
goes to stdout. Every subcommand's output is fixed by its flags and seed.
Nothing pins BLAS's thread count, so training's repeatability also rests on
the BLAS build; a paper-size (H=512) test checks that two trainings write
byte-identical checkpoints. Exit codes: 0 success, 1 usage error, 2
data/validation error.
"""

from __future__ import annotations

import argparse
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
    filter_short_tracks,
    load_flow_magnitudes,
    load_tracks,
    make_splits,
    motion_filter_clips,
    synth_generate,
    write_tracks,
)
from .data.io import write_csv, write_json
from .encdec import VARIANTS, ModelConfig, TrainConfig, grad_check_detailed
from .encdec.gradcheck import COORDS_PER_GROUP, RESOLUTION, grad_check_sample
from .errors import MofcastError
from .harness import (
    MODEL_INPUTS,
    MODEL_KINDS,
    ExperimentSpec,
    forecast_checkpoint,
    forecasts_to_tracks,
    load_windows,
    run_all_folds,
    run_fold,
    score_forecasts,
)
from .metrics import MetricReport

logger = logging.getLogger(__name__)

class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(p: argparse.ArgumentParser):
    p.add_argument("--tracks", required=True, help="track CSV file")
    p.add_argument("--out", default="runs", help="output directory (default: runs)")


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert(text)``, refused as a usage error unless ``ok`` holds for it."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value" message names it
    return parse


# Range checks run while parsing, so an out-of-range flag is a usage error
# (exit 1) before any file is read. nan fails every comparison.
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, ">= 0")
_track_length = _checked(int, lambda v: v >= MIN_TRACK_FRAMES, f">= {MIN_TRACK_FRAMES}")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_non_negative_float = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_finite_float = _checked(float, math.isfinite, "a finite number")


def _add_split_flags(p: argparse.ArgumentParser, help: str, required: bool = False, all_folds: bool = False):
    p.add_argument("--splits", required=required, help=help)
    folds = p.add_mutually_exclusive_group()
    folds.add_argument("--fold", type=int, choices=range(N_FOLDS),
                       help=f"fold index in 0..{N_FOLDS - 1} (default: 0)")
    if all_folds:
        folds.add_argument("--all-folds", action="store_true", help=f"run folds 0..{N_FOLDS - 1} and average")


def _add_window_flags(p: argparse.ArgumentParser):
    p.add_argument("--stride", type=_positive_int, default=1, help="window stride (default: 1)")


def _add_flow_flags(p: argparse.ArgumentParser):
    flow = p.add_mutually_exclusive_group()
    reader = "read by --model encdec, train and cross-eval for the both and of_only variants"
    flow.add_argument("--flow-features", help=f"flow-feature sidecar index CSV ({reader})")
    flow.add_argument("--synthetic-flow", action="store_true",
                      help=f"derive flow features from the windows themselves, for desk-scale testing ({reader})")


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--checkpoint", help="checkpoint file (read by --model encdec)")
    p.add_argument("--params", help="tuned KalmanParams JSON, written by tune-lkf (read by --model lkf)")
    _add_flow_flags(p)


# The train subcommand's flags: (flag, the TrainConfig field it sets, its
# argument type, help). A flag left out is absent from the parsed args, which
# shows _check_flags what was given, and keeps TrainConfig's default; the types
# refuse out-of-range values as usage errors, before any file is read.
_TRAIN_FLAGS = (
    ("--variant", "variant", str, "model variant"),
    ("--hidden", "hidden", _positive_int, "GRU hidden units"),
    ("--epochs", "epochs", _positive_int, "training epochs"),
    ("--batch", "batch_size", _positive_int, "mini-batch size"),
    ("--lr", "learning_rate", _positive_float, "initial learning rate"),
    ("--beta", "beta", _positive_float, "smooth-L1 seam in px"),
    ("--flow-dim", "flow_dim", _positive_int, "flow feature dimension"),
    ("--seed", "seed", _non_negative_int, "seed of initialization and batch order"),
)


def _add_train_flags(p: argparse.ArgumentParser):
    defaults = TrainConfig()
    for flag, name, kind, help_text in _TRAIN_FLAGS:
        default = getattr(defaults, name)
        p.add_argument(flag, dest=name, type=kind, choices=VARIANTS if name == "variant" else None,
                       default=argparse.SUPPRESS, help=f"{help_text} (default: {default})")


def _train_config(args) -> TrainConfig:
    """The TrainConfig of train's flags: each flag given sets its field, the others keep their defaults."""
    return TrainConfig(**{name: getattr(args, name) for _, name, _, _ in _TRAIN_FLAGS if hasattr(args, name)})


def build_parser() -> _Parser:
    parser = _Parser(prog="mofcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mofcast {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic tracks")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=_positive_int, required=True, help="number of tracks")
    p.add_argument("--noise", type=_non_negative_float, default=0.0, help="per-frame Gaussian noise sigma in px")
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--frames", type=_track_length,
                   help=f"fixed track length, at least {MIN_TRACK_FRAMES} (default: random 120..180)")
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
    p.add_argument("--grid", dest="lkf_grid", help="JSON grid of KalmanParams (default: stock 27-point grid)")

    p = sub.add_parser("eval", help="evaluate a model on a track file or fold test split",
                       description="Evaluate a model on a track file or fold test split. Writes summary.csv, "
                       "curves.csv and one breakdown_<field>.csv per metadata field some track carries, in which a "
                       "track without the field is the group \"\".")
    _add_io_flags(p)
    _add_model_flags(p)
    _add_split_flags(p, "optional: restrict to the fold's test split")
    _add_window_flags(p)

    p = sub.add_parser("cross-eval", help="evaluate a frozen checkpoint on an external track file: "
                       "eval --model encdec without --splits")
    p.set_defaults(model="encdec")
    _add_io_flags(p)
    p.add_argument("--checkpoint", required=True)
    _add_window_flags(p)
    _add_flow_flags(p)

    p = sub.add_parser("forecast", help="emit per-window predictions as a track-format file")
    _add_io_flags(p)
    _add_model_flags(p)
    _add_window_flags(p)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--hidden", type=_positive_int, default=64)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--variant", default="bb_only", choices=VARIANTS)
    p.add_argument("--coords", type=_positive_int, default=COORDS_PER_GROUP, help="sampled coordinates per group")
    p.add_argument("--samples", type=_positive_int, default=3, help="number of seeded samples")

    return parser


def _print_report(report: MetricReport, label: str) -> None:
    print(
        f"{label}: ADE {report.ade:.2f} px  FDE {report.fde:.2f} px  "
        f"AIOU {report.aiou:.3f}  FIOU {report.fiou:.3f}  ({report.n_windows} windows)"
    )


def _check_flags(parser: argparse.ArgumentParser, args) -> None:
    """Refuse, as a usage error before any file is read, a flag that would be ignored (one --model or train's
    --variant does not read, --fold without --splits) or is missing (--model encdec's --checkpoint, --model lkf's
    --params). An absent --fold (None) means fold 0."""
    def refuse(problem: str):
        parser.exit(1, f"{parser.prog} {args.command}: error: {problem}\n")

    model = getattr(args, "model", None)
    for name in (n for names in MODEL_INPUTS.values() for n in names):
        if model and getattr(args, name, None) and name not in MODEL_INPUTS[model]:
            refuse(f"argument --{name.replace('_', '-')}: not read by --model {model}")
    if model == "encdec" and not args.checkpoint:
        refuse("argument --checkpoint: required by --model encdec")
    if model == "lkf" and not args.params:
        refuse("argument --params: required by --model lkf (run tune-lkf first)")
    if getattr(args, "fold", None) is not None and not args.splits:
        refuse("argument --fold: not allowed without argument --splits")
    if args.command == "train":
        config = _train_config(args).model_config()
        if hasattr(args, "flow_dim") and not config.uses_flow:
            refuse(f"argument --flow-dim: not read by --variant {config.variant}")
        flow = "--flow-features" if args.flow_features else "--synthetic-flow" if args.synthetic_flow else None
        if config.uses_flow != bool(flow):
            refuse(f"argument {flow}: not read by --variant {config.variant}" if flow else
                   f"argument --variant: {config.variant} reads flow: give --flow-features or --synthetic-flow")


def _model_predictions(args) -> tuple[WindowBatch, np.ndarray]:
    """The windows of --tracks (of the fold's test split, given --splits) and --model's (N, q, 4) forecasts of
    them. --params and --checkpoint are read before the tracks; a flow flag that the checkpoint's variant does
    not read, or none when it reads flow, is refused after the checkpoint and before the tracks
    (:func:`harness.forecast_checkpoint`)."""
    splits, fold = getattr(args, "splits", None), getattr(args, "fold", None) or 0
    if args.model == "encdec":
        return forecast_checkpoint(args.checkpoint, args.tracks, args.stride, splits, fold, args.flow_features,
                                   args.synthetic_flow)
    params = KalmanParams.from_file(args.params) if args.model == "lkf" else None
    batch = load_windows(args.tracks, args.stride, splits, fold)
    return batch, cv_cs_batch(batch.observed) if params is None else lkf_batch(batch.observed, params)


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
    kept = filter_short_tracks(all_tracks)
    stats = {
        "tracks_in": len(all_tracks),
        "tracks_kept": len(kept),
        "tracks_dropped": len(all_tracks) - len(kept),
        "windows": _count_windows(kept, args.stride),
        "stride": args.stride,
    }
    if args.splits:
        config = SplitConfig.from_file(args.splits)
        split = make_splits(kept, config, args.fold or 0)
        for side, tracks in (("train", split.train), ("val", split.val), ("test", split.test)):
            stats[f"windows_{side}"] = _count_windows(tracks, args.stride)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tracks(kept, out / "filtered_tracks.csv")
    write_json(out / "prepare_stats.json", stats)
    print(
        f"kept {stats['tracks_kept']}/{stats['tracks_in']} tracks, "
        f"{stats['windows']} windows (stride {args.stride}); stats in {out / 'prepare_stats.json'}"
    )
    return 0


def _cmd_clip_filter(args) -> int:
    per_video = load_flow_magnitudes(args.flow_magnitudes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [[video_id, clip.start_frame, clip.end_frame] for video_id in sorted(per_video)
            for clip in motion_filter_clips(per_video[video_id], args.threshold, args.clip_frames)]
    write_csv(out / "clips.csv", ["video_id", "start_frame", "end_frame"], rows)
    print(f"selected {len(rows)} clips from {len(per_video)} videos -> {out / 'clips.csv'}")
    return 0


def _spec_from_args(args, model: str) -> ExperimentSpec:
    train = {}
    if args.command == "train":  # tune-lkf takes ExperimentSpec's default TrainConfig
        train["train"] = _train_config(args)
    return ExperimentSpec(
        tracks=args.tracks,
        splits=args.splits,
        fold=args.fold or 0,
        model=model,
        out_dir=args.out,
        flow_features=getattr(args, "flow_features", None),
        synthetic_flow=getattr(args, "synthetic_flow", False),
        lkf_grid=getattr(args, "lkf_grid", None),
        stride=args.stride,
        **train,
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
    batch, pred = _model_predictions(args)
    report = score_forecasts(pred, batch, args.model, args.out)
    _print_report(report, args.model)
    return 0


def _cmd_forecast(args) -> int:
    batch, pred = _model_predictions(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "forecasts.csv"
    write_tracks(forecasts_to_tracks(batch, pred), path)
    print(f"wrote {len(batch)} forecast tracks to {path}")
    return 0


def _cmd_gradcheck(args) -> int:
    config = ModelConfig(args.variant, args.hidden)
    worst = 0.0
    for i in range(args.samples):
        params, stats, arrays = grad_check_sample(config, args.seed + i)
        detailed = grad_check_detailed(params, stats, arrays, coords_per_group=args.coords, seed=args.seed + i)
        sample_worst = max(detailed.values())
        worst = max(worst, sample_worst)
        print(f"sample {i}: max relative error {sample_worst:.3e}")
        for name in sorted(detailed):
            logger.info("  %-14s %.3e", name, detailed[name])
    print(f"max relative error over {args.samples} samples: {worst:.3e} (tolerance {RESOLUTION:g})")
    if worst >= RESOLUTION:
        print("gradient check FAILED", file=sys.stderr)
        return 2
    print("gradient check passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_flags(parser, args)
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
        "cross-eval": _cmd_eval,
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
