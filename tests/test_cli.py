import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mofcast
from mofcast.cli import _spec_from_args, build_parser, main
from mofcast.data import default_synth_split_config, load_tracks
from mofcast.encdec import Model, ModelConfig, TrainConfig, init_params, save_checkpoint
from mofcast.harness import MODEL_INPUTS, MODEL_KINDS


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
            *(["train", "--tracks", "t.csv", "--splits", "s.json", flag, value]
              for flag in ("--hidden", "--epochs", "--batch", "--flow-dim") for value in ("0", "-1")),
            ["train", "--tracks", "t.csv", "--splits", "s.json", "--variant", "both", "--flow-dim", "0"],
            ["train", "--tracks", "t.csv", "--splits", "s.json", "--seed", "-1"],
            ["gradcheck", "--hidden", "0"],
            ["gradcheck", "--seed", "-1"],
            *(["synth", "--kind", "turning", "--n", "1", "--seed", "1", "--out", "t.csv", flag, value]
              for flag, value in (("--seed", "-1"), ("--noise", "nan"), ("--noise", "inf"), ("--noise", "-0.5"),
                                  ("--frames", "10"), ("--frames", "89"))),
        ),
    )
    def test_out_of_range_flag_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", (("--seed", "-1"), ("--noise", "nan"), ("--frames", "10")))
    def test_synth_range_error_names_the_flag(self, flag, value, capsys):
        assert main(["synth", "--kind", "turning", "--n", "1", "--seed", "1", "--out", "t.csv", flag, value]) == 1
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,content,problem",
        (
            ("--params", '{"foo": 1}', "unexpected keyword argument 'foo'"),
            ("--params", "[1, 2]", "expected a JSON object of KalmanParams fields, got \\[1, 2\\]"),
            ("--params", '{"process_noise_pos": "1", "process_noise_vel": 1, "observation_noise": 1}',
             "KalmanParams.process_noise_pos must be finite and > 0, got '1'"),
            ("--params", '{"process_noise_pos": 1,', "not valid JSON"),
            ("--grid", '[{"process_noise_pos": 1}]', "entry 0: .*missing 2 required positional arguments"),
            ("--grid", "[]", "expected a non-empty JSON list"),
            ("--splits", '{"val_fraction": 0.5}', 'expected a JSON object whose "folds"'),
            ("--splits", '{"folds": {"0": "arden"}}', 'fold 0 must be a list of city names, got "arden"'),
            ("--splits", '{"folds": {"zero": ["arden"]}}', "invalid literal for int"),
            ("--splits", '{"folds": {"0": ["arden"]}, "val_fraction": null}', "float\\(\\) argument"),
        ),
        ids=("params-unknown-field", "params-list", "params-string-value", "params-not-json", "grid-missing-fields",
             "grid-empty", "splits-no-folds", "splits-string-cities", "splits-bad-fold", "splits-null-val-fraction"),
    )
    def test_malformed_json_config_is_a_data_error(self, synth_file, splits_file, tmp_path, capsys,
                                                   flag, content, problem):
        config = tmp_path / "config.json"
        config.write_text(content)
        argv = {
            "--params": ["eval", "--model", "lkf", "--params", str(config)],
            "--grid": ["tune-lkf", "--splits", str(splits_file), "--grid", str(config)],
            "--splits": ["eval", "--model", "cv_cs", "--splits", str(config)],
        }[flag]
        assert main(argv + ["--tracks", str(synth_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{config}: " in err
        assert re.search(problem, err), err


# The optional flags of eval and forecast, and the --model that reads each.
READER = {"--checkpoint": "encdec", "--params": "lkf", "--flow-features": "encdec", "--synthetic-flow": "encdec"}


class TestNoFlagIsIgnored:
    def test_the_reader_table_is_the_library_table(self):
        for model in MODEL_KINDS:
            read = {flag for flag, reader in READER.items() if reader == model}
            assert read == {f"--{name.replace('_', '-')}" for name in MODEL_INPUTS[model]} - {"--lkf-grid"}

    @pytest.mark.parametrize("flag", READER)
    @pytest.mark.parametrize("model", MODEL_KINDS)
    @pytest.mark.parametrize("command", ("eval", "forecast"))
    def test_a_model_flag_is_read_or_refused(self, command, model, flag, synth_file, tmp_path, capsys):
        nope, out = tmp_path / "nope", tmp_path / "out"
        value = [] if flag == "--synthetic-flow" else [str(nope)]
        if model != READER[flag]:
            # refused before anything is read: not one of these paths exists
            argv = [command, "--model", model, flag, *value, "--tracks", str(nope / "t.csv"), "--out", str(out)]
            assert main(argv) == 1
            assert f"argument {flag}: not read by --model {model}" in capsys.readouterr().err
            assert not out.exists()
            return
        # read: a missing path is reported, and --synthetic-flow feeds a flow-reading checkpoint
        both = tmp_path / "both.mofc"
        save_checkpoint(Model(params=init_params(ModelConfig(variant="both", hidden=4, flow_dim=8), 0)), both)
        required = ["--checkpoint", str(both)] if flag in ("--flow-features", "--synthetic-flow") else []
        argv = [command, "--model", model, *required, "--tracks", str(synth_file), "--out", str(out)]
        if flag == "--synthetic-flow":
            assert main(argv) == 2 and "variant 'both' reads flow: give" in capsys.readouterr().err
            assert main([*argv, flag]) == 0
        else:
            assert main([*argv, flag, str(nope)]) == 2
            assert str(nope) in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        (
            (["prepare", "--fold", "2"], "argument --fold: not allowed without argument --splits"),
            (["eval", "--model", "cv_cs", "--fold", "2"], "argument --fold: not allowed without argument --splits"),
            *(([command, "--splits", "s.json", "--fold", "1", "--all-folds"],
               "argument --all-folds: not allowed with argument --fold") for command in ("train", "tune-lkf")),
            *(([*command, "--flow-features", "f.csv", "--synthetic-flow"],
               "argument --synthetic-flow: not allowed with argument --flow-features")
              for command in (["train", "--splits", "s.json"], ["eval", "--model", "encdec"],
                              ["forecast", "--model", "encdec"], ["cross-eval", "--checkpoint", "c.mofc"])),
        ),
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_a_flag_another_flag_cancels_is_a_usage_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--tracks", str(tmp_path / "nope.csv"), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        (
            (["--synthetic-flow"], "argument --synthetic-flow: not read by --variant bb_only"),
            (["--variant", "bb_only", "--flow-features", "/nope.csv"],
             "argument --flow-features: not read by --variant bb_only"),
            (["--variant", "both"], "argument --variant: both reads flow: give --flow-features or --synthetic-flow"),
            (["--variant", "of_only"], "argument --variant: of_only reads flow: give --flow-features or"),
        ),
        ids=("bb_only-synthetic", "bb_only-sidecar", "both-none", "of_only-none"),
    )
    def test_train_flow_flags_must_match_the_variant(self, flags, message, synth_file, splits_file, tmp_path,
                                                     capsys):
        out = tmp_path / "out"
        assert main(["train", "--tracks", str(synth_file), "--splits", str(splits_file), *flags,
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flow", ("flow_features", "synthetic_flow", None))
    @pytest.mark.parametrize("command", (["eval", "--model", "encdec"], ["forecast", "--model", "encdec"],
                                         ["cross-eval"]), ids=lambda c: c[0])
    def test_a_flow_flag_is_checked_against_the_checkpoint_before_the_tracks(self, command, flow, tmp_path, capsys):
        variant = "both" if flow is None else "bb_only"
        checkpoint, tracks, out = tmp_path / f"{variant}.mofc", tmp_path / "bad.csv", tmp_path / "out"
        save_checkpoint(Model(params=init_params(ModelConfig(variant=variant, hidden=4, flow_dim=8), 0)), checkpoint)
        tracks.write_text("not,a,track,header\n")
        flags = {"flow_features": ["--flow-features", str(tmp_path / "absent.csv")],
                 "synthetic_flow": ["--synthetic-flow"], None: []}[flow]
        argv = [*command, "--checkpoint", str(checkpoint), "--tracks", str(tracks), *flags, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"variant 'bb_only' does not read {flow}" if flow else
                "variant 'both' reads flow: give flow_features or synthetic_flow") in err
        assert str(tracks) not in err and not out.exists()

    @pytest.mark.parametrize("command", (["eval", "--model", "encdec"], ["cross-eval"]), ids=lambda c: c[0])
    def test_a_saved_model_is_read_before_the_tracks(self, command, tmp_path, capsys):
        tracks, checkpoint = tmp_path / "bad.csv", tmp_path / "missing.mofc"
        tracks.write_text("not,a,track,header\n")
        argv = [*command, "--checkpoint", str(checkpoint), "--tracks", str(tracks), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(checkpoint) in err and str(tracks) not in err


class TestSpecFromArgs:
    def test_train_defaults_are_train_config(self):
        args = build_parser().parse_args(["train", "--tracks", "t.csv", "--splits", "s.json"])
        assert dataclasses.asdict(_spec_from_args(args, "encdec").train) == dataclasses.asdict(TrainConfig())

    def test_train_flags_reach_the_config(self):
        args = build_parser().parse_args(
            ["train", "--tracks", "t.csv", "--splits", "s.json", "--variant", "both", "--hidden", "8",
             "--epochs", "3", "--batch", "16", "--lr", "0.01", "--beta", "2.5", "--flow-dim", "32",
             "--seed", "9", "--synthetic-flow"]
        )
        assert _spec_from_args(args, "encdec").train == TrainConfig(
            variant="both", hidden=8, epochs=3, batch_size=16, learning_rate=0.01, beta=2.5, flow_dim=32, seed=9,
        )

    def test_train_flags_set_exactly_the_train_config_fields(self):
        # A TrainConfig field no flag sets, or a flag no field takes, fails here.
        subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for action in subcommands.choices["train"]._actions}
        shared = {"help", "tracks", "out", "splits", "fold", "all_folds", "stride",
                  "flow_features", "synthetic_flow"}
        assert dests - shared == {f.name for f in dataclasses.fields(TrainConfig)}

    @pytest.mark.parametrize("flag", ("--deterministic", "--no-deterministic"))
    def test_removed_blas_pin_flag_is_a_usage_error(self, flag, capsys):
        assert main(["train", "--tracks", "t.csv", "--splits", "s.json", flag]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        (
            ["prepare", "--tracks", "t.csv"],
            ["train", "--tracks", "t.csv", "--splits", "s.json"],
            ["tune-lkf", "--tracks", "t.csv", "--splits", "s.json"],
            ["eval", "--model", "cv_cs", "--tracks", "t.csv"],
            ["cross-eval", "--checkpoint", "c", "--tracks", "t.csv"],
            ["forecast", "--model", "cv_cs", "--tracks", "t.csv"],
        ),
        ids=lambda command: command[0],
    )
    def test_removed_track_minimum_flag_is_a_usage_error(self, command, capsys):
        assert main([*command, "--min-frames", "90"]) == 1
        assert "unrecognized arguments: --min-frames" in capsys.readouterr().err

    def test_tune_lkf_spec_hash_is_stable(self):
        # The hash names the run directories; it must not move when defaults are refactored.
        args = build_parser().parse_args(["tune-lkf", "--tracks", "t.csv", "--splits", "s.json"])
        spec = _spec_from_args(args, "lkf")
        assert spec.train == TrainConfig()
        assert spec.hash() == "f39aca210dbee073061976061fe323fe28c9d0273a24a3c55ea05c511d17a167"


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

    def test_quoted_video_id_round_trips(self, tmp_path, capsys):
        video_id = 'cam,1 "north"'
        flow = tmp_path / "flow.csv"
        flow.write_text("video_id,frame,mean_flow_magnitude\n"
                        + "".join(f'"cam,1 ""north""",{f},1.0\n' for f in range(600)))
        out = tmp_path / "clips"
        assert main(["clip-filter", "--flow-magnitudes", str(flow), "--out", str(out)]) == 0
        with (out / "clips.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["video_id", "start_frame", "end_frame"], [video_id, "0", "599"]]


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

    def test_eval_lkf_requires_params(self, synth_file, tmp_path, capsys):
        assert main(
            ["eval", "--model", "lkf", "--tracks", str(synth_file), "--out", str(tmp_path / "o")]
        ) == 1
        assert "argument --params: required by --model lkf" in capsys.readouterr().err

    def test_eval_encdec_requires_checkpoint(self, synth_file, tmp_path, capsys):
        assert main(
            ["eval", "--model", "encdec", "--tracks", str(synth_file), "--out", str(tmp_path / "o")]
        ) == 1
        assert "argument --checkpoint: required by --model encdec" in capsys.readouterr().err


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
        eval_stdout = capsys.readouterr().out

        code = main(
            ["cross-eval", "--checkpoint", str(ckpts[0]), "--tracks", str(synth_file),
             "--stride", "10", "--out", str(tmp_path / "xe")]
        )
        assert code == 0
        # cross-eval is eval --model encdec without --splits: the same stdout line and the same files
        assert capsys.readouterr().out == eval_stdout
        written = sorted(path.name for path in (tmp_path / "eval2").iterdir())
        assert {"summary.csv", "curves.csv", "breakdown_city.csv"} <= set(written)
        assert sorted(path.name for path in (tmp_path / "xe").iterdir()) == written
        for name in written:
            assert (tmp_path / "xe" / name).read_bytes() == (tmp_path / "eval2" / name).read_bytes(), name

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
