"""Build the byte-identity set in OUT and print one ``sha256  path`` line per file, then one line per digest.

Usage: python scripts/byte_identity.py OUT

Run it at two commits into two fresh directories and diff the two outputs: a
change that keeps the bits of every output, gradient and training run prints
the same lines. OUT must be new or empty. The paper-size (H=512) lines hold
only at one BLAS thread count (OpenBLAS picks its kernels and their split by
thread count), so the first line states it and two outputs compare only when
it matches.

The set: ``synth_generate_mixed(KINDS, 6, 1.0, seed=11)`` cut at stride 7,
the split config of the synthetic cities, a flow-feature sidecar (16
float32 values, ``synthetic_flow_batch``) for every window, a per-frame
flow-magnitude file of two videos and a 3-point LKF grid. Then every
subcommand: ``synth``, ``clip-filter``, ``prepare`` with and without
``--splits``, ``tune-lkf`` with the stock grid and with ``--grid --fold
2``, four ``train`` runs (bb_only, also with ``--all-folds``; ``both``
reading the sidecar; ``of_only`` with ``--synthetic-flow``; each ``--hidden
24 --epochs 2 --seed 3``), ``eval`` of cv_cs, the tuned LKF and each
checkpoint (bb_only also with ``--splits --fold 1``), ``forecast`` and
``cross-eval`` of each checkpoint, and ``gradcheck``. Each command's stdout
is saved as ``<name>.stdout``. Every path the commands see is relative to
OUT, so spec hashes do not depend on where OUT is. Before hashing, the
timestamp is cut from every run directory's name (and from the stdout that
names it), and ``wall_clock_seconds`` is dropped from each ``manifest.json``.

The digests draw the output layer (``zero_output=False``), so that every
gradient is nonzero. ``grads``: the loss and every gradient of one
``loss_and_gradients`` call on seeded random features, flow and targets.
``forecast``: one ``forecast_array`` call on the first B windows of seeded
synthetic tracks, hashing the residuals of every forward pass in order, then
the forecasts. The residuals are hashed on their own because adding them to
the CV-CS boxes, hundreds of pixels, rounds their last bits away. B=513 runs
a full chunk and a one-window tail. ``train``: the stats and best-epoch
weights a 2-epoch ``train`` returns (synthetic fold 0, stride 5), and its
log rows.

Not part of tier-1: it takes about half a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from mofcast.baselines import default_param_grid, save_param_grid  # noqa: E402
from mofcast.cli import main as mofcast  # noqa: E402
from mofcast.data import (  # noqa: E402
    KINDS,
    WindowBatch,
    cut_windows,
    default_synth_split_config,
    make_splits,
    synth_generate_mixed,
    write_flow_features,
    write_tracks,
)
from mofcast.data.io import FLOW_MAGNITUDE_HEADER, write_csv  # noqa: E402
from mofcast.encdec import (  # noqa: E402
    Model,
    ModelConfig,
    TrainConfig,
    compute_feature_stats,
    forecast_array,
    init_params,
    loss_and_gradients,
    synthetic_flow_batch,
    train,
)
from mofcast.encdec import model as model_module  # noqa: E402
from mofcast.encdec.features import FeatureStats, box_features_from_array  # noqa: E402
from run import _blas_threads  # noqa: E402

FLOW_DIM = 16
TRAIN = ["--hidden", "24", "--epochs", "2", "--seed", "3"]
FLOW = {"bb_only": [], "both": ["--flow-features", "flow_features.csv"], "of_only": ["--synthetic-flow"]}
DATA = ["--tracks", "tracks.csv", "--stride", "7"]
SPLITS = ["--splits", "splits.json"]
RUN_STAMP = re.compile(r"(run-[0-9a-f]{10})-\d{8}-\d{6}(?:-\d+)?")
DIGEST_FLOW_DIM = 64
GRADS = [("bb_only", 512, 48), ("bb_only", 512, 12), ("bb_only", 512, 1), ("both", 64, 32), ("of_only", 16, 7),
         ("bb_only", 8, 5)]
FORECASTS = [("bb_only", 512, 1), ("bb_only", 512, 2), ("bb_only", 512, 96), ("bb_only", 512, 513),
             ("both", 64, 96), ("both", 64, 513)]


def run(name: str, *argv: str) -> None:
    """``mofcast *argv``, its stdout saved as ``<name>.stdout``; a non-zero exit stops the build."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mofcast(list(argv))
    if code != 0:
        raise SystemExit(f"mofcast {' '.join(argv)}: exit {code}")
    Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")


def only(pattern: str) -> str:
    (path,) = Path().glob(pattern)
    return path.as_posix()


def build() -> None:
    tracks = synth_generate_mixed(KINDS, 6, 1.0, seed=11)
    write_tracks(tracks, "tracks.csv")
    default_synth_split_config().to_file("splits.json")
    batch = cut_windows(tracks, stride=7)
    flow = synthetic_flow_batch(batch.observed, FLOW_DIM).astype("<f4")
    write_flow_features(((batch.source(i), flow[i]) for i in range(len(batch))), "flow_features.csv")
    # Two videos below the clip filter's threshold but for one spike in the first: 3 + 1 clips of 600 frames.
    magnitudes = {"cam-a": np.random.default_rng(11).uniform(0.0, 1.4, 1900), "cam-b": np.full(700, 0.25)}
    magnitudes["cam-a"][650] = 4.0
    write_csv("flow_magnitudes.csv", FLOW_MAGNITUDE_HEADER,
              ((video, frame, repr(float(m))) for video, mags in magnitudes.items() for frame, m in enumerate(mags)))
    save_param_grid(default_param_grid()[::13], "lkf_grid.json")

    run("synth", "synth", "--kind", "turning", "--n", "4", "--noise", "0.5", "--seed", "13", "--frames", "100",
        "--out", "synth/tracks.csv")
    run("clip-filter", "clip-filter", "--flow-magnitudes", "flow_magnitudes.csv", "--out", "clip-filter")
    run("prepare", "prepare", *DATA, *SPLITS, "--out", "prepare")
    run("prepare_all", "prepare", *DATA, "--out", "prepare_all")
    run("tune-lkf", "tune-lkf", *DATA, *SPLITS, "--out", "lkf")
    run("tune-lkf_grid", "tune-lkf", *DATA, *SPLITS, "--fold", "2", "--grid", "lkf_grid.json", "--out", "lkf_grid")
    run("train_all-folds", "train", *DATA, *SPLITS, "--all-folds", *TRAIN, "--out", "train_all-folds")
    for variant, flow_flags in FLOW.items():
        flow_dim = ["--flow-dim", str(FLOW_DIM)] if flow_flags else []
        run(f"train_{variant}", "train", *DATA, *SPLITS, "--variant", variant, *TRAIN, *flow_dim, *flow_flags,
            "--out", f"train_{variant}")
    run("eval_cv_cs", "eval", *DATA, "--model", "cv_cs", "--out", "eval_cv_cs")
    run("eval_lkf", "eval", *DATA, "--model", "lkf", "--params", only("lkf/run-*/lkf_params.json"),
        "--out", "eval_lkf")
    for variant, flow_flags in FLOW.items():
        checkpoint = only(f"train_{variant}/run-*/checkpoint.mofc")
        run(f"eval_{variant}", "eval", *DATA, "--model", "encdec", "--checkpoint", checkpoint, *flow_flags,
            "--out", f"eval_{variant}")
        if variant == "bb_only":
            run("eval_bb_only_fold1", "eval", *DATA, *SPLITS, "--fold", "1", "--model", "encdec",
                "--checkpoint", checkpoint, "--out", "eval_bb_only_fold1")
        run(f"forecast_{variant}", "forecast", *DATA, "--model", "encdec", "--checkpoint", checkpoint, *flow_flags,
            "--out", f"forecast_{variant}")
        run(f"cross-eval_{variant}", "cross-eval", *DATA, "--checkpoint", checkpoint, *flow_flags,
            "--out", f"cross-eval_{variant}")
    run("gradcheck", "gradcheck")


def normalize() -> None:
    """Cut the timestamps from run directory names and the stdout naming them; drop wall-clock seconds."""
    for run_dir in sorted(Path().glob("*/run-*")):
        run_dir.rename(run_dir.with_name(RUN_STAMP.sub(r"\1", run_dir.name)))
    for stdout in Path().glob("*.stdout"):
        stdout.write_text(RUN_STAMP.sub(r"\1", stdout.read_text(encoding="utf-8")), encoding="utf-8")
    for manifest in Path().glob("*/run-*/manifest.json"):
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        del payload["wall_clock_seconds"]
        manifest.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def grads_digest(variant: str, hidden: int, batch: int) -> str:
    config = ModelConfig(variant=variant, hidden=hidden, flow_dim=DIGEST_FLOW_DIM)
    rng = np.random.default_rng(hidden * 1000 + batch)
    params = init_params(config, rng, zero_output=False)
    features = rng.normal(size=(batch, 30, 8)) if config.uses_boxes else None
    flow = rng.normal(size=(batch, DIGEST_FLOW_DIM)) if config.uses_flow else None
    targets = rng.normal(scale=5.0, size=(batch, 60, 4))
    stats = compute_feature_stats(features) if config.uses_boxes else FeatureStats.identity()
    loss, grads = loss_and_gradients(params, stats, features, flow, targets)
    digest = hashlib.sha256(np.asarray(loss, "<f8"))
    for name in sorted(grads):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(grads[name]))
    return f"{digest.hexdigest()}  grads {variant} H={hidden} B={batch}"


def forecast_digest(variant: str, hidden: int, windows: int) -> str:
    config = ModelConfig(variant=variant, hidden=hidden, flow_dim=DIGEST_FLOW_DIM)
    rng = np.random.default_rng(hidden * 1000 + windows)
    full = cut_windows(synth_generate_mixed(KINDS, 3, 1.0, seed=5, n_frames=150))
    tracks = full.tracks[: full.track_index[windows - 1] + 1]
    flow = rng.normal(size=(windows, DIGEST_FLOW_DIM)) if config.uses_flow else None
    batch = WindowBatch(full.observed[:windows], full.future[:windows], tracks, full.track_index[:windows],
                        full.anchor_frame[:windows], flow)
    stats = compute_feature_stats(box_features_from_array(full.observed))
    model = Model(init_params(config, rng, zero_output=False), stats)
    forward_batch, residuals = model_module.forward_batch, []

    def recording(*args, **kwargs):
        cache = forward_batch(*args, **kwargs)
        residuals.append(cache.residuals)
        return cache

    with mock.patch.object(model_module, "forward_batch", recording):
        forecasts = forecast_array(model, batch)
    digest = hashlib.sha256()
    for array in (*residuals, forecasts):
        digest.update(np.ascontiguousarray(array))
    return f"{digest.hexdigest()}  forecast {variant} H={hidden} B={windows}: {len(residuals)} forward pass(es)"


def train_digest() -> tuple[str, str]:
    split = make_splits(synth_generate_mixed(KINDS, 4, 1.0, seed=7), default_synth_split_config(), fold=0)
    train_batch = cut_windows(split.train, stride=5)
    val_batch = cut_windows((*split.val, *split.test), stride=5)
    result = train(train_batch, val_batch, TrainConfig(hidden=512, epochs=2, batch_size=48, seed=3))
    weights = hashlib.sha256()
    weights.update(np.ascontiguousarray(result.model.stats.mean))
    weights.update(np.ascontiguousarray(result.model.stats.std))
    for name, tensor in result.model.params.tensors().items():
        weights.update(name.encode("utf-8"))
        weights.update(np.ascontiguousarray(tensor))
    log = hashlib.sha256()
    for values in (*result.log.rows(), [result.log.best_epoch]):
        log.update(np.asarray(values, "<f8"))
    label = f"train bb_only H=512 B=48: {len(train_batch)} train / {len(val_batch)} val windows, 2 epochs"
    return (f"{weights.hexdigest()}  {label}, weights of best epoch {result.log.best_epoch}",
            f"{log.hexdigest()}  {label}, log")


def main(out: str) -> None:
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        raise SystemExit(f"{root}: not empty")
    threads = _blas_threads(Path(np.__file__).parent.parent / "numpy.libs")
    print(f"blas_threads {threads} (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})")
    os.chdir(root)
    build()
    normalize()
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    print(*(grads_digest(*spec) for spec in GRADS), *(forecast_digest(*spec) for spec in FORECASTS),
          *train_digest(), sep="\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
