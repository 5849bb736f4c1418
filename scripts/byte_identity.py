"""Build the byte-identity set in OUT and print one ``sha256  path`` line per file.

Usage: python scripts/byte_identity.py OUT

Run it at two commits into two fresh directories and diff the two outputs: a
change that keeps every output's bits prints the same lines. OUT must be new
or empty. Every path the commands see is relative to OUT, so spec hashes do
not depend on where OUT is.

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
is saved as ``<name>.stdout``.

Before hashing, the timestamp is cut from every run directory's name (and
from the stdout that names it), and ``wall_clock_seconds`` is dropped from
each ``manifest.json``. Not part of tier-1: it takes about half a minute.
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

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mofcast.baselines import default_param_grid, save_param_grid  # noqa: E402
from mofcast.cli import main as mofcast  # noqa: E402
from mofcast.data import (  # noqa: E402
    KINDS,
    cut_windows,
    default_synth_split_config,
    synth_generate_mixed,
    write_flow_features,
    write_tracks,
)
from mofcast.data.io import FLOW_MAGNITUDE_HEADER, write_csv  # noqa: E402
from mofcast.encdec import synthetic_flow_batch  # noqa: E402

FLOW_DIM = 16
TRAIN = ["--hidden", "24", "--epochs", "2", "--seed", "3"]
FLOW = {"bb_only": [], "both": ["--flow-features", "flow_features.csv"], "of_only": ["--synthetic-flow"]}
DATA = ["--tracks", "tracks.csv", "--stride", "7"]
SPLITS = ["--splits", "splits.json"]
RUN_STAMP = re.compile(r"(run-[0-9a-f]{10})-\d{8}-\d{6}(?:-\d+)?")


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


def main(out: str) -> None:
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        raise SystemExit(f"{root}: not empty")
    os.chdir(root)
    build()
    normalize()
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
