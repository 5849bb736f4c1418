import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mofcast
from mofcast.cli import _spec_from_args, build_parser, main
from mofcast.data import default_synth_split_config, load_tracks
from mofcast.encdec import TrainConfig


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "tracks.csv"
    code = main(
        ["synth", "--kind", "constant_velocity", "--n", "8", "--seed", "7",
         "--frames", "95", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture
def splits_file(tmp_path):
    path = tmp_path / "splits.json"
    default_synth_split_config().to_file(path)
    return path


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        assert main(["synth", "--kind", "warp-drive"]) == 1

    def test_unknown_subcommand_is_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_data_error_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["prepare", "--tracks", str(missing), "--out", str(tmp_path / "o")]) == 2
        assert "prepare" in capsys.readouterr().err

    def test_validation_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("video_id,city,weather,time_of_day,frame,track_id,cx,cy,w,h\nv,,,,0,1,1,1,0,1\n")
        assert main(["prepare", "--tracks", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_help_is_exit_0(self):
        assert main(["--help"]) == 0

    def test_runs_as_a_module(self):
        src = str(Path(mofcast.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "mofcast", "--help"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: mofcast")

    @pytest.mark.parametrize(
        "argv",
        (
            ["tune-lkf", "--tracks", "t.csv", "--splits", "s.json", "--fold", "3"],
            ["train", "--tracks", "t.csv", "--splits", "s.json", "--fold", "-1"],
            ["eval", "--model", "cv_cs", "--tracks", "t.csv", "--splits", "s.json", "--fold", "5"],
            ["prepare", "--tracks", "t.csv", "--fold", "3"],
            ["eval", "--model", "cv_cs", "--tracks", "t.csv", "--stride", "0"],
            ["cross-eval", "--checkpoint", "c", "--tracks", "t.csv", "--stride", "-2"],
            ["prepare", "--tracks", "t.csv", "--min-frames", "0"],
            ["forecast", "--model", "cv_cs", "--tracks", "t.csv", "--stride", "x"],
            ["gradcheck", "--samples", "0"],
            ["gradcheck", "--coords", "0"],
            ["clip-filter", "--flow-magnitudes", "f.csv", "--clip-frames", "0"],
            ["synth", "--kind", "turning", "--n", "0", "--seed", "1", "--out", "t.csv"],
            *(["gradcheck", flag, value] for flag in ("--epsilon", "--tolerance") for value in ("0", "-1e-5", "nan")),
            *(["train", "--tracks", "t.csv", "--splits", "s.json", flag, value]
              for flag in ("--lr", "--beta") for value in ("nan", "inf", "0", "-1")),
            *(["clip-filter", "--flow-magnitudes", "f.csv", "--threshold", value] for value in ("nan", "inf", "-inf")),
        ),
    )
    def test_out_of_range_flag_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err


class TestSpecFromArgs:
    def test_train_defaults_are_train_config(self):
        args = build_parser().parse_args(["train", "--tracks", "t.csv", "--splits", "s.json"])
        assert dataclasses.asdict(_spec_from_args(args, "encdec").train) == dataclasses.asdict(TrainConfig())

    def test_train_flags_reach_the_config(self):
        args = build_parser().parse_args(
            ["train", "--tracks", "t.csv", "--splits", "s.json", "--variant", "both", "--hidden", "8",
             "--epochs", "3", "--batch", "16", "--lr", "0.01", "--beta", "2.5", "--flow-dim", "32",
             "--seed", "9", "--no-deterministic"]
        )
        assert _spec_from_args(args, "encdec").train == TrainConfig(
            variant="both", hidden=8, epochs=3, batch_size=16, learning_rate=0.01, beta=2.5, flow_dim=32,
            seed=9, deterministic=False,
        )

    def test_tune_lkf_spec_hash_is_stable(self):
        # The hash names the run directories; it must not move when defaults are refactored.
        args = build_parser().parse_args(["tune-lkf", "--tracks", "t.csv", "--splits", "s.json"])
        spec = _spec_from_args(args, "lkf")
        assert spec.train == TrainConfig()
        assert spec.hash() == "fa3bc0cf467a1f521709f3b40723db152627627a7bb35d6cd66ea97e4114f9d7"


class TestSynth:
    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--kind", "constant_velocity", "--n", "100", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_parses(self, synth_file):
        tracks = load_tracks(synth_file)
        assert len(tracks) == 8
        assert all(len(t) == 95 for t in tracks)


class TestPrepare:
    def test_stats_emitted(self, synth_file, splits_file, tmp_path, capsys):
        out = tmp_path / "prep"
        code = main(
            ["prepare", "--tracks", str(synth_file), "--splits", str(splits_file),
             "--stride", "3", "--out", str(out)]
        )
        assert code == 0
        stats = json.loads((out / "prepare_stats.json").read_text())
        assert stats["tracks_in"] == 8
        assert stats["windows"] == sum(
            stats[f"windows_{side}"] for side in ("train", "val", "test")
        )
        assert (out / "filtered_tracks.csv").exists()


class TestClipFilter:
    def test_clips_csv(self, tmp_path, capsys):
        flow = tmp_path / "flow.csv"
        rows = ["video_id,frame,mean_flow_magnitude"]
        rows += [f"v0,{f},1.0" for f in range(1200)]
        rows += [f"v1,{f},2.0" for f in range(700)]
        flow.write_text("\n".join(rows) + "\n")
        out = tmp_path / "clips"
        assert main(["clip-filter", "--flow-magnitudes", str(flow), "--out", str(out)]) == 0
        lines = (out / "clips.csv").read_text().splitlines()
        assert lines[0] == "video_id,start_frame,end_frame"
        assert lines[1:] == ["v0,0,599", "v0,600,1199"]


class TestEvalAndForecast:
    def test_eval_cv_cs_zero_ade(self, synth_file, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--model", "cv_cs", "--tracks", str(synth_file), "--stride", "5",
             "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ADE 0.00" in stdout
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("cv_cs,")

    def test_forecast_round_trips_through_loader(self, synth_file, tmp_path):
        out = tmp_path / "fc"
        code = main(
            ["forecast", "--model", "cv_cs", "--tracks", str(synth_file), "--stride", "10",
             "--out", str(out)]
        )
        assert code == 0
        tracks = load_tracks(out / "forecasts.csv")
        assert tracks and all(len(t) == 60 for t in tracks)

    def test_eval_lkf_requires_params(self, synth_file, tmp_path):
        assert main(
            ["eval", "--model", "lkf", "--tracks", str(synth_file), "--out", str(tmp_path / "o")]
        ) == 2

    def test_eval_encdec_requires_checkpoint(self, synth_file, tmp_path):
        assert main(
            ["eval", "--model", "encdec", "--tracks", str(synth_file), "--out", str(tmp_path / "o")]
        ) == 2


class TestTrainAndCrossEval:
    def test_train_then_eval_then_cross_eval(self, synth_file, splits_file, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(
            ["train", "--tracks", str(synth_file), "--splits", str(splits_file), "--fold", "0",
             "--hidden", "8", "--epochs", "1", "--batch", "32", "--seed", "5", "--stride", "5",
             "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        ckpts = list(out.glob("run-*/checkpoint.mofc"))
        assert len(ckpts) == 1
        assert "checkpoint" in stdout

        code = main(
            ["eval", "--model", "encdec", "--checkpoint", str(ckpts[0]), "--tracks",
             str(synth_file), "--stride", "10", "--out", str(tmp_path / "eval2")]
        )
        assert code == 0

        code = main(
            ["cross-eval", "--checkpoint", str(ckpts[0]), "--tracks", str(synth_file),
             "--stride", "10", "--out", str(tmp_path / "xe")]
        )
        assert code == 0
        assert "cross-eval" in capsys.readouterr().out

    def test_tune_lkf(self, synth_file, splits_file, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(
            ["tune-lkf", "--tracks", str(synth_file), "--splits", str(splits_file),
             "--fold", "0", "--stride", "10", "--out", str(out)]
        )
        assert code == 0
        assert list(out.glob("run-*/lkf_params.json"))


class TestGradcheck:
    def test_passes_and_prints_error(self, capsys):
        code = main(["gradcheck", "--hidden", "16", "--seed", "1", "--samples", "1", "--coords", "10"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "max relative error" in stdout
        assert "passed" in stdout
