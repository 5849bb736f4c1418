import csv
import dataclasses
import hashlib
import inspect
import json
import re

import numpy as np
import pytest

from mofcast import cli, harness
from mofcast.baselines import cv_cs_batch, default_param_grid, lkf_batch, lkf_tune
from mofcast.cli import build_parser
from mofcast.core import FUTURE_LEN, OBSERVED_LEN, BBox, WindowSource
from mofcast.data import (
    CLIP_FRAMES,
    FLOW_MAGNITUDE_THRESHOLD,
    KINDS,
    MIN_TRACK_FRAMES,
    FlowFeatureStore,
    cut_windows,
    default_synth_split_config,
    extract_windows,
    load_tracks,
    make_splits,
    SplitConfig,
    synth_generate,
    synth_generate_mixed,
    write_flow_features,
    write_tracks,
)
from mofcast.encdec import (
    FeatureStats,
    Model,
    ModelConfig,
    TrainConfig,
    forecast_array,
    grad_check_detailed,
    init_params,
    load_checkpoint,
    save_checkpoint,
    synthetic_flow_batch,
)
from mofcast.errors import CheckpointError, FlowFeatureError, MofcastError, SplitError
from mofcast.harness import (
    MODEL_KINDS,
    ExperimentSpec,
    cross_eval,
    forecasts_to_tracks,
    mean_report,
    run_all_folds,
    run_fold,
    weights_checksum,
)
from mofcast.metrics import MetricReport, aggregate, breakdown, centroid_ade, evaluate_batch, write_summary_csv


@pytest.fixture
def synth_setup(tmp_path):
    tracks = synth_generate("constant_velocity", 12, 0.0, seed=3, n_frames=95)
    tracks_path = tmp_path / "tracks.csv"
    write_tracks(tracks, tracks_path)
    splits_path = tmp_path / "splits.json"
    default_synth_split_config().to_file(splits_path)
    return tracks_path, splits_path, tmp_path / "runs"


def make_spec(setup, model="cv_cs", **overrides):
    tracks_path, splits_path, out_dir = setup
    train_config = overrides.pop(
        "train",
        TrainConfig(hidden=8, variant="bb_only", epochs=1, batch_size=32, seed=5),
    )
    return ExperimentSpec(
        tracks=str(tracks_path),
        splits=str(splits_path),
        fold=overrides.pop("fold", 0),
        model=model,
        out_dir=str(out_dir),
        stride=overrides.pop("stride", 5),
        train=train_config,
        **overrides,
    )


class TestRunFold:
    def test_cv_cs_on_noiseless_constant_velocity(self, synth_setup):
        result = run_fold(make_spec(synth_setup))
        assert result.report.ade <= 1e-9
        assert (result.run_dir / "summary.csv").exists()
        assert (result.run_dir / "curves.csv").exists()
        assert (result.run_dir / "manifest.json").exists()
        assert (result.run_dir / "breakdown_city.csv").exists()

    def test_untrained_encdec_equals_cv_cs(self, synth_setup):
        # epochs=1 on zero-residual data: training cannot beat the untrained
        # optimum, so the best-validation model is the CV-equivalent init
        cv = run_fold(make_spec(synth_setup, model="cv_cs"))
        ed = run_fold(make_spec(synth_setup, model="encdec"))
        # the zero output layer adds ±0 to every CV-CS coordinate; only the 1-px size clamp can move the IOUs
        assert ed.report.ade == cv.report.ade
        assert ed.report.fde == cv.report.fde
        assert np.allclose(ed.report.iou_curve, cv.report.iou_curve, atol=1e-9)
        assert ed.checkpoint_path is not None and ed.checkpoint_path.exists()
        assert ed.train_log is not None and ed.train_log.best_epoch == 0

    def test_deterministic_reports(self, synth_setup):
        spec = make_spec(synth_setup, model="encdec")
        a = run_fold(spec)
        b = run_fold(spec)
        assert a.run_dir != b.run_dir
        assert (a.run_dir / "summary.csv").read_bytes() == (b.run_dir / "summary.csv").read_bytes()
        assert (a.run_dir / "checkpoint.mofc").read_bytes() == (b.run_dir / "checkpoint.mofc").read_bytes()

    def test_lkf_fold_writes_params_and_table(self, synth_setup):
        result = run_fold(make_spec(synth_setup, model="lkf"))
        assert result.lkf_params is not None
        assert (result.run_dir / "lkf_params.json").exists()
        table = (result.run_dir / "lkf_grid_table.csv").read_text().splitlines()
        assert len(table) == 1 + 27
        assert (result.run_dir / "lkf_grid.json").exists()

    def test_missing_city_fails_before_training(self, tmp_path, synth_setup):
        tracks_path, _, out_dir = synth_setup
        bad_splits = tmp_path / "bad_splits.json"
        bad_splits.write_text('{"folds": {"0": ["arden"]}, "val_fraction": 0.5}')
        spec = make_spec((tracks_path, bad_splits, out_dir), model="encdec")
        with pytest.raises(SplitError):
            run_fold(spec)

    @pytest.mark.parametrize("model", ("cv_cs", "lkf", "encdec"))
    def test_evaluations_are_the_test_windows_in_order(self, synth_setup, model):
        tracks_path, splits_path, _ = synth_setup
        result = run_fold(make_spec(synth_setup, model=model))
        split = make_splits(load_tracks(tracks_path), SplitConfig.from_file(splits_path), fold=0)
        windows = [w for t in sorted(split.test, key=lambda t: t.key) for w in extract_windows(t, stride=5)]
        test = cut_windows(split.test, stride=5)
        assert result.report.n_windows == len(test) == len(windows) > 0
        assert list(test.keys()) == [(w.source.video_id, w.source.track_id, w.source.anchor_frame) for w in windows]
        assert result.report.displacement_curve.shape == result.report.iou_curve.shape == (60,)
        if model == "cv_cs":
            expected = aggregate(evaluate_batch(cv_cs_batch(test.observed), test))
            assert result.report.displacement_curve.tobytes() == expected.displacement_curve.tobytes()
            assert result.report.iou_curve.tobytes() == expected.iou_curve.tobytes()

    @pytest.mark.parametrize("model", ("cv_cs", "lkf", "encdec"))
    def test_evaluations_aggregate_exactly_to_the_report(self, synth_setup, model):
        """The report is the aggregate of the test windows, in order, scored against the fold's own artifact."""
        spec = make_spec(synth_setup, model=model, train=TrainConfig(hidden=8, epochs=2, batch_size=32, seed=5))
        tracks_path, splits_path, _ = synth_setup
        write_tracks(synth_generate("turning", 12, 2.0, seed=4, n_frames=95), tracks_path)  # non-zero errors
        result = run_fold(spec)
        split = make_splits(load_tracks(tracks_path), SplitConfig.from_file(splits_path), fold=0)
        test = cut_windows(split.test, stride=5)
        if model == "cv_cs":
            pred = cv_cs_batch(test.observed)
        elif model == "lkf":
            pred = lkf_batch(test.observed, result.lkf_params)
        else:
            pred = forecast_array(load_checkpoint(result.checkpoint_path), test)
        again = aggregate(evaluate_batch(pred, test))
        assert again.ade > 0.0
        for name in ("ade", "fde", "aiou", "fiou", "n_windows", "group_key"):
            assert getattr(again, name) == getattr(result.report, name), name
        assert again.displacement_curve.tobytes() == result.report.displacement_curve.tobytes()
        assert again.iou_curve.tobytes() == result.report.iou_curve.tobytes()

    def test_spec_file_round_trip(self, synth_setup, tmp_path):
        spec = make_spec(synth_setup, model="encdec")
        path = tmp_path / "spec.json"
        spec.to_file(path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert raw == dataclasses.asdict(spec)
        assert ExperimentSpec(**{**raw, "train": TrainConfig(**raw["train"])}) == spec


class TestRunAllFolds:
    def test_mean_is_unweighted(self, synth_setup):
        result = run_all_folds(make_spec(synth_setup))
        assert len(result.per_fold) == 3
        for field in ("ade", "fde", "aiou", "fiou"):
            per_fold = [getattr(r.report, field) for r in result.per_fold]
            assert getattr(result.mean, field) == pytest.approx(np.mean(per_fold), abs=1e-12)
        assert result.mean.n_windows == sum(r.report.n_windows for r in result.per_fold)

    def test_loads_the_track_file_once(self, tmp_path, monkeypatch):
        tracks_path = tmp_path / "tracks.csv"
        write_tracks(synth_generate_mixed(("turning", "accelerating"), 12, 1.0, seed=4, n_frames=95), tracks_path)
        splits_path = tmp_path / "splits.json"
        default_synth_split_config().to_file(splits_path)
        spec = make_spec((tracks_path, splits_path, tmp_path / "all"))
        # The bytes the folds give when each is run on its own and loads its own tracks.
        reports = [run_fold(dataclasses.replace(spec, fold=k, out_dir=str(tmp_path / "one"))).report for k in range(3)]
        write_summary_csv(reports + [mean_report(reports)], tmp_path / "expected.csv", model_id="cv_cs")

        calls = []
        monkeypatch.setattr(harness, "load_tracks", lambda path: calls.append(path) or load_tracks(path))
        run_all_folds(spec)
        assert calls == [str(tracks_path)]
        assert (tmp_path / "all" / "folds_summary.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_no_city_overlap_in_any_fold(self, synth_setup):
        # run_fold raises if the audit fails; also check artifacts exist per fold
        result = run_all_folds(make_spec(synth_setup))
        assert all((r.run_dir / "summary.csv").exists() for r in result.per_fold)


class TestMeanReport:
    def test_identical_reports_average_to_themselves(self):
        curve = np.linspace(1.0, 2.0, 60)
        report = MetricReport(1.5, 2.0, 0.5, 0.25, curve, curve / 4, 10)
        mean = mean_report([report, report, report])
        assert mean.ade == 1.5 and mean.fde == 2.0
        assert np.allclose(mean.displacement_curve, curve)

    def test_simple_average(self):
        curve = np.ones(60)
        reports = [
            MetricReport(float(v), float(v), 0.5, 0.5, curve * v, curve / 2, 1)
            for v in (1, 2, 3)
        ]
        assert mean_report(reports).ade == 2.0


class TestCrossEval:
    def train_checkpoint(self, synth_setup):
        result = run_fold(make_spec(synth_setup, model="encdec"))
        return result.checkpoint_path, result.report

    def test_matches_run_fold_on_same_split(self, synth_setup, tmp_path):
        tracks_path, splits_path, _ = synth_setup
        ckpt, fold_report = self.train_checkpoint(synth_setup)
        # rebuild the fold-0 test split as its own track file
        from mofcast.data import SplitConfig, load_tracks, make_splits

        tracks = load_tracks(tracks_path)
        split = make_splits(tracks, SplitConfig.from_file(splits_path), fold=0)
        test_tracks_path = tmp_path / "test_only.csv"
        write_tracks(split.test, test_tracks_path)
        report = cross_eval(ckpt, test_tracks_path, stride=5)
        assert report.ade == pytest.approx(fold_report.ade, abs=1e-12)
        assert report.n_windows == fold_report.n_windows

    def test_checksum_unchanged(self, synth_setup, tmp_path):
        ckpt, _ = self.train_checkpoint(synth_setup)
        before = weights_checksum(load_checkpoint(ckpt))
        cross_eval(ckpt, synth_setup[0], stride=5, out_dir=tmp_path / "xeval")
        assert weights_checksum(load_checkpoint(ckpt)) == before
        assert (tmp_path / "xeval" / "summary.csv").exists()

    def test_forecast_leaves_the_loaded_weights_unchanged(self, synth_setup):
        ckpt, _ = self.train_checkpoint(synth_setup)
        model = load_checkpoint(ckpt)
        before = weights_checksum(model)
        forecast_array(model, cut_windows(load_tracks(synth_setup[0]), stride=5))
        assert weights_checksum(model) == before

    def test_needs_no_checksum(self, synth_setup, monkeypatch):
        # the read-only weights are the guarantee: cross_eval hashes nothing
        ckpt, _ = self.train_checkpoint(synth_setup)

        def refuse(model):
            raise AssertionError("cross_eval hashed the weights")

        monkeypatch.setattr(harness, "weights_checksum", refuse)
        assert cross_eval(ckpt, synth_setup[0], stride=5).n_windows > 0

    @pytest.mark.parametrize("entry", ("cross_eval", "forecast_checkpoint"))
    @pytest.mark.parametrize(
        "kwargs,problem",
        (
            ({"stride": 0}, "^stride must be >= 1, got 0$"),
            ({"batch_size": -5}, "^batch_size must be >= 1, got -5$"),
            ({"flow_features": "f.csv", "synthetic_flow": True}, "give one flow source"),
        ),
        ids=("stride", "batch_size", "two-flow-sources"),
    )
    def test_a_bad_call_is_refused_before_any_file_is_read(self, tmp_path, entry, kwargs, problem):
        # the checkpoint path does not exist: reading it first would raise FileNotFoundError instead
        out = tmp_path / "xeval"
        with pytest.raises(ValueError, match=problem):
            if entry == "cross_eval":
                cross_eval(tmp_path / "no.mofc", tmp_path / "no.csv", out_dir=out, **kwargs)
            else:
                harness.forecast_checkpoint(tmp_path / "no.mofc", tmp_path / "no.csv", **{"stride": 1, **kwargs})
        assert not out.exists()

    @pytest.mark.parametrize("batch_size", (0, -5))
    def test_batch_size_below_one_is_refused(self, synth_setup, batch_size):
        ckpt, _ = self.train_checkpoint(synth_setup)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            cross_eval(ckpt, synth_setup[0], stride=5, batch_size=batch_size)

    def test_checksum_hashes_the_tensor_bytes(self, rng):
        params = init_params(ModelConfig(variant="both", hidden=8, flow_dim=6), 3)
        tensors = params.tensors()
        tensors["out.w"] = np.asfortranarray(rng.normal(size=tensors["out.w"].shape))  # hashed in C order all the same
        model = Model(params=params, stats=FeatureStats(mean=rng.normal(size=8), std=np.ones(8)))
        digest = hashlib.sha256()
        digest.update(model.stats.mean.tobytes())
        digest.update(model.stats.std.tobytes())
        for name, tensor in params.tensors().items():
            digest.update(name.encode("utf-8"))
            digest.update(tensor.tobytes())
        assert weights_checksum(model) == digest.hexdigest()

    def test_short_external_tracks_are_an_error(self, synth_setup, tmp_path):
        ckpt, _ = self.train_checkpoint(synth_setup)
        short = synth_generate("constant_velocity", 2, 0.0, seed=9, n_frames=95)
        short = [dataclasses.replace(t, boxes=t.boxes[:89]) for t in short]
        path = tmp_path / "short.csv"
        write_tracks(short, path)
        with pytest.raises(MofcastError, match="no windows after filtering"):
            cross_eval(ckpt, path)

    @pytest.mark.parametrize("name", ("stats.std", "encoder.w_z", "out.b"))
    def test_a_non_finite_checkpoint_is_refused_by_name_before_anything_is_written(self, synth_setup, tmp_path,
                                                                                   name):
        # a stat, the first tensor and the last: a NaN in out.b scored a finite ADE with AIOU 0 before
        params = init_params(ModelConfig(variant="bb_only", hidden=4), 7, zero_output=False)
        stats = {"mean": np.zeros(8), "std": np.ones(8)}
        if name.startswith("stats."):
            stats[name.split(".")[1]][3] = np.nan
        else:
            params.tensors()[name].flat[-1] = np.nan
        ckpt, out = tmp_path / "nan.mofc", tmp_path / "xeval"
        save_checkpoint(Model(params=params, stats=FeatureStats(**stats)), ckpt)
        with pytest.raises(CheckpointError, match=rf"nan\.mofc: {re.escape(name)} holds a non-finite value$"):
            cross_eval(ckpt, synth_setup[0], stride=5, out_dir=out)
        assert not out.exists()

    @pytest.mark.parametrize("flow", ("flow_features", "synthetic_flow", None))
    def test_a_flow_source_is_checked_against_the_checkpoint_before_the_tracks(self, tmp_path, flow):
        variant = "both" if flow is None else "bb_only"
        ckpt, bad, out = tmp_path / f"{variant}.mofc", tmp_path / "bad.csv", tmp_path / "xeval"
        save_checkpoint(Model(params=init_params(ModelConfig(variant=variant, hidden=4, flow_dim=8), 7)), ckpt)
        bad.write_text("not,a,track,header\n")
        source = {"flow_features": {"flow_features": tmp_path / "absent.csv"},
                  "synthetic_flow": {"synthetic_flow": True}, None: {}}[flow]
        message = (f"variant 'bb_only' does not read {flow}" if flow else
                   "variant 'both' reads flow: give flow_features or synthetic_flow")
        with pytest.raises(ValueError, match=message) as err:
            cross_eval(ckpt, bad, out_dir=out, **source)
        assert str(bad) not in str(err.value) and not out.exists()


FLOW_DIM = 16
BOTH = TrainConfig(hidden=8, variant="both", flow_dim=FLOW_DIM, epochs=1, batch_size=32, seed=5)


def write_sidecar(tracks_path, index_path, skip: int | None = None, dim: int = FLOW_DIM):
    """A ``dim``-d sidecar for every stride-5 window of the track file, but window ``skip``; returns their batch."""
    batch = cut_windows(load_tracks(tracks_path), stride=5)
    flow = synthetic_flow_batch(batch.observed, dim) + 0.25  # not what --synthetic-flow derives
    write_flow_features(((batch.source(i), row) for i, row in enumerate(flow) if i != skip), index_path)
    return batch


class TestFlowSidecar:
    def test_fold_cross_eval_and_cli_eval_read_it(self, synth_setup, tmp_path):
        tracks_path = synth_setup[0]
        index = tmp_path / "flow.csv"
        write_sidecar(tracks_path, index)
        result = run_fold(make_spec(synth_setup, model="encdec", flow_features=str(index), train=BOTH))
        assert result.report.n_windows > 0 and np.isfinite(result.report.ade)

        # a random output layer, so that forecasts depend on the flow they read
        ckpt = tmp_path / "both.mofc"
        save_checkpoint(Model(params=init_params(BOTH.model_config(), 7, zero_output=False)), ckpt)
        report = cross_eval(ckpt, tracks_path, stride=5, flow_features=index, out_dir=tmp_path / "xeval")
        synthetic = cross_eval(ckpt, tracks_path, stride=5, synthetic_flow=True)
        assert report.ade != synthetic.ade  # the sidecar's features were read, not derived

        # eval and cross-eval of one checkpoint and sidecar write the same five files, byte for byte
        flags = ["--checkpoint", str(ckpt), "--tracks", str(tracks_path), "--stride", "5",
                 "--flow-features", str(index)]
        assert cli.main(["eval", "--model", "encdec", *flags, "--out", str(tmp_path / "eval")]) == 0
        assert cli.main(["cross-eval", *flags, "--out", str(tmp_path / "cli_xeval")]) == 0
        written = {p.name: p.read_bytes() for p in (tmp_path / "xeval").iterdir()}
        assert sorted(written) == ["breakdown_city.csv", "breakdown_time_of_day.csv", "breakdown_weather.csv",
                                   "curves.csv", "summary.csv"]
        for out in ("eval", "cli_xeval"):
            assert {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()} == written

    def test_a_missing_window_is_named(self, synth_setup, tmp_path):
        tracks_path = synth_setup[0]
        index = tmp_path / "flow.csv"
        source = write_sidecar(tracks_path, index, skip=3).source(3)
        missing = re.escape(f"no flow feature for window {(source.video_id, source.track_id, source.anchor_frame)}")
        spec = make_spec(synth_setup, model="encdec", flow_features=str(index), train=BOTH)
        with pytest.raises(FlowFeatureError, match=missing):
            run_fold(spec)
        ckpt = run_fold(dataclasses.replace(spec, flow_features=None, synthetic_flow=True)).checkpoint_path
        with pytest.raises(FlowFeatureError, match=missing):
            cross_eval(ckpt, tracks_path, stride=5, flow_features=index)

    def test_a_non_finite_row_is_refused_where_it_is_read_naming_the_blob_and_its_window(self, synth_setup, tmp_path,
                                                                                          capsys):
        tracks_path = synth_setup[0]
        index, blob = tmp_path / "flow.csv", tmp_path / "flow.bin"
        source = write_sidecar(tracks_path, index).source(3)
        values = np.fromfile(blob, dtype="<f4")
        values[3 * FLOW_DIM + 5] = np.nan  # window 3's row
        values.tofile(blob)
        FlowFeatureStore.open(index)  # opening reads no value of the blob
        ckpt = tmp_path / "both.mofc"
        save_checkpoint(Model(params=init_params(BOTH.model_config(), 7)), ckpt)
        named = re.escape(f"{blob}: flow feature for {source} has non-finite entries")
        with pytest.raises(FlowFeatureError, match=named):
            cross_eval(ckpt, tracks_path, stride=5, flow_features=index)
        assert cli.main(["cross-eval", "--checkpoint", str(ckpt), "--tracks", str(tracks_path), "--stride", "5",
                         "--flow-features", str(index), "--out", str(tmp_path / "xeval")]) == 2
        assert re.search(named, capsys.readouterr().err)
        assert not (tmp_path / "xeval").exists()

    def test_a_sidecar_of_another_dim_is_refused_where_it_is_opened(self, synth_setup, tmp_path, capsys):
        tracks_path = synth_setup[0]
        index = tmp_path / "flow12.csv"
        write_sidecar(tracks_path, index, dim=12)
        spec = make_spec(synth_setup, model="encdec", flow_features=str(index), train=BOTH)
        named = re.escape(f"{index}: flow feature dim 12 != the model's flow_dim {FLOW_DIM}")
        with pytest.raises(FlowFeatureError, match=named):
            run_fold(spec)
        ckpt = run_fold(dataclasses.replace(spec, flow_features=None, synthetic_flow=True)).checkpoint_path
        with pytest.raises(FlowFeatureError, match=named):
            cross_eval(ckpt, tracks_path, stride=5, flow_features=index)
        assert cli.main(["cross-eval", "--checkpoint", str(ckpt), "--tracks", str(tracks_path),
                         "--flow-features", str(index), "--out", str(tmp_path / "xeval")]) == 2
        assert re.search(named, capsys.readouterr().err)

    @pytest.mark.parametrize("variant", ("both", "of_only"))
    def test_float32_rows_give_the_bytes_of_float64_rows(self, synth_setup, tmp_path, monkeypatch, variant):
        """Training, the test pass and cross-eval on a sidecar's float32 rows write what the rows upcast up front do."""
        tracks_path = synth_setup[0]
        index = tmp_path / "flow.csv"
        write_sidecar(tracks_path, index)
        spec = make_spec(synth_setup, model="encdec", flow_features=str(index),
                         train=dataclasses.replace(BOTH, variant=variant, epochs=2))

        def outputs(name: str) -> dict[str, bytes]:
            run_dir = run_fold(dataclasses.replace(spec, out_dir=str(tmp_path / name))).run_dir
            cross_eval(run_dir / "checkpoint.mofc", tracks_path, stride=5, flow_features=index,
                       out_dir=tmp_path / name / "xeval")
            files = [p for p in run_dir.iterdir() if p.name not in ("spec.json", "manifest.json")]
            return {str(p.relative_to(tmp_path / name)).replace(run_dir.name, "run"): p.read_bytes()
                    for p in files + list((tmp_path / name / "xeval").iterdir())}

        as_stored = outputs("float32")
        attach = harness.attach_flow_features

        def upcast(*args):
            batch = attach(*args)
            assert batch.flow.dtype == np.float32
            return dataclasses.replace(batch, flow=batch.flow.astype(np.float64))

        monkeypatch.setattr(harness, "attach_flow_features", upcast)
        upcast_first = outputs("float64")
        assert {"run/checkpoint.mofc", "run/summary.csv", "run/train_log.csv", "xeval/summary.csv"} <= set(as_stored)
        assert upcast_first == as_stored

    def test_a_sidecar_and_synthetic_flow_together_are_refused(self, tmp_path):
        # attach_flow_features trusts its caller: harness._check_inputs refuses the pair, before any file is
        # read in ExperimentSpec and cross_eval, and after the checkpoint in forecast_checkpoint
        ckpt, bad = tmp_path / "both.mofc", tmp_path / "bad.csv"
        save_checkpoint(Model(params=init_params(BOTH.model_config(), 7)), ckpt)
        bad.write_text("not,a,track,header\n")
        with pytest.raises(ValueError, match="give one flow source: flow_features or synthetic_flow, not both"):
            harness.forecast_checkpoint(ckpt, bad, 5, flow_features=tmp_path / "absent.csv", synthetic_flow=True)

    def test_bb_only_never_opens_it(self, synth_setup, tmp_path):
        # a fold knows its variant up front and refuses the sidecar; cross_eval refuses it once the checkpoint
        # is loaded (TestCrossEval::test_a_flow_source_is_checked_against_the_checkpoint_before_the_tracks)
        absent = tmp_path / "no_such_sidecar.csv"
        with pytest.raises(ValueError, match="variant 'bb_only' does not read flow_features"):
            make_spec(synth_setup, model="encdec", flow_features=str(absent))


class TestFitsSeeOnlyTheirSplit:
    """A fold's fit reads only its validation windows, checked from the run directory alone: on noisy turning
    tracks the fold's validation and test windows score apart, so a fit fed the test windows writes other values."""

    @pytest.fixture
    def turning_setup(self, tmp_path):
        tracks_path = tmp_path / "tracks.csv"
        write_tracks(synth_generate("turning", 12, 1.0, seed=3, n_frames=100), tracks_path)
        splits_path = tmp_path / "splits.json"
        default_synth_split_config().to_file(splits_path)
        split = make_splits(load_tracks(tracks_path), SplitConfig.from_file(splits_path), fold=0)
        val, test = (cut_windows(tracks, stride=5) for tracks in (split.val, split.test))
        return (tracks_path, splits_path, tmp_path / "runs"), val, test

    def test_the_encdec_epoch_0_val_ade_is_cv_cs_on_the_validation_windows(self, turning_setup):
        setup, val, test = turning_setup
        run_dir = run_fold(make_spec(setup, model="encdec")).run_dir
        with open(run_dir / "train_log.csv", newline="") as fh:
            epoch_0 = next(row for row in csv.DictReader(fh) if row["epoch"] == "0")
        expected, on_test = (centroid_ade(cv_cs_batch(b.observed), b.future) for b in (val, test))
        assert abs(expected - on_test) > 1.0
        assert float(epoch_0["val_ade"]) == expected

    def test_the_lkf_grid_table_is_the_tuning_table_of_the_validation_windows(self, turning_setup):
        setup, val, test = turning_setup
        run_dir = run_fold(make_spec(setup, model="lkf")).run_dir
        with open(run_dir / "lkf_grid_table.csv", newline="") as fh:
            written = [float(row["val_ade"]) for row in csv.DictReader(fh)]
        expected, on_test = ([float(f"{ade:.6f}") for _, ade in lkf_tune(b, default_param_grid()).table]
                             for b in (val, test))
        assert len(written) == len(default_param_grid()) and written != on_test
        assert written == expected


class TestWindowIdentity:
    def test_no_batch_path_builds_a_window_source(self, synth_setup, tmp_path, monkeypatch):
        """Windows are named by integer columns; a WindowSource is built only at the edges."""
        tracks_path = synth_setup[0]
        index = tmp_path / "flow.csv"
        write_sidecar(tracks_path, index)
        ckpt = tmp_path / "both.mofc"
        save_checkpoint(Model(params=init_params(BOTH.model_config(), 7, zero_output=False)), ckpt)

        def refuse(self, *args):
            raise AssertionError("a WindowSource was built")

        monkeypatch.setattr(WindowSource, "__init__", refuse)
        batch = cut_windows(load_tracks(tracks_path), stride=5)
        scores = evaluate_batch(cv_cs_batch(batch.observed), batch)
        assert len(breakdown(scores, *batch.groups("city"))) > 0
        harness.score_forecasts(cv_cs_batch(batch.observed), batch, "cv_cs", tmp_path / "scored")
        store = harness.open_flow_store(index, BOTH.model_config())
        assert harness.attach_flow_features(batch, BOTH.model_config(), store, False).flow.shape == (len(batch), 16)
        for model in ("cv_cs", "lkf"):
            assert run_fold(make_spec(synth_setup, model=model)).report.n_windows > 0
        assert cross_eval(ckpt, tracks_path, stride=5, flow_features=index).n_windows == len(batch)

    def test_a_track_without_weather_is_the_empty_weather_group(self, tmp_path):
        tracks = synth_generate_mixed(("turning", "accelerating"), 3, 1.0, seed=4, n_frames=95)
        tracks[2] = dataclasses.replace(tracks[2], metadata={"city": "arden", "time_of_day": "day"})
        batch = cut_windows(tracks, stride=5)
        harness.score_forecasts(cv_cs_batch(batch.observed), batch, "cv_cs", tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "breakdown_city.csv", "breakdown_time_of_day.csv", "breakdown_weather.csv", "curves.csv", "summary.csv"]
        with (tmp_path / "breakdown_weather.csv").open(newline="") as fh:
            rows = {r["group"]: int(r["n_windows"]) for r in csv.DictReader(fh)}
        assert rows[""] == len(extract_windows(tracks[2], stride=5)) > 0
        assert sum(rows.values()) == len(batch) and len(rows) > 1

    def test_a_track_too_short_for_a_window_adds_no_group(self, tmp_path):
        tracks = synth_generate_mixed(("turning", "accelerating"), 3, 1.0, seed=4, n_frames=95)
        short = dataclasses.replace(tracks[0], track_id=99, boxes=tracks[0].boxes[:MIN_TRACK_FRAMES - 1],
                                    metadata={"city": "nowhere"})  # no weather either
        batch = cut_windows(tracks + [short], stride=5)
        report = harness.score_forecasts(cv_cs_batch(batch.observed), batch, "cv_cs", tmp_path)
        with (tmp_path / "breakdown_city.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        cities = {t.metadata["city"] for t in tracks}
        assert sorted(r["group"] for r in rows) == sorted(cities) and "nowhere" not in cities
        assert sum(int(r["n_windows"]) for r in rows) == report.n_windows
        assert (tmp_path / "breakdown_weather.csv").exists()

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_a_non_finite_forecast_is_refused_naming_its_window_before_anything_is_written(self, tmp_path, bad):
        # IOU compares with NaN as false, so a NaN box would score as a clean miss and the summary be written
        batch = cut_windows(synth_generate_mixed(("turning", "accelerating"), 3, 1.0, seed=4, n_frames=95), stride=5)
        pred = cv_cs_batch(batch.observed)
        first, later = len(batch) // 3, len(batch) // 2
        pred[first, 7, 2] = pred[later, 0, 0] = bad
        expected = f"2 non-finite forecast(s), the first for window {batch.source(first)}"
        with pytest.raises(MofcastError, match=re.escape(expected)):
            harness.score_forecasts(pred, batch, "cv_cs", tmp_path / "scored")
        assert not (tmp_path / "scored").exists()


class TestLoadWindows:
    def test_keeps_the_fold_test_split_and_refuses_an_empty_batch(self, synth_setup, tmp_path):
        tracks_path, splits_path, _ = synth_setup
        tracks = load_tracks(tracks_path)
        for fold in range(3):
            test = make_splits(tracks, SplitConfig.from_file(splits_path), fold).test
            batch = harness.load_windows(tracks_path, 5, splits_path, fold)
            expected = cut_windows(test, stride=5)
            assert batch.tracks == expected.tracks
            assert batch.track_index.tolist() == expected.track_index.tolist()
            assert batch.anchor_frame.tolist() == expected.anchor_frame.tolist()
        assert len(harness.load_windows(tracks_path, 5)) == len(cut_windows(tracks, stride=5))
        short = tmp_path / "short.csv"
        write_tracks([dataclasses.replace(t, boxes=t.boxes[:89]) for t in tracks], short)
        with pytest.raises(MofcastError, match=f"{re.escape(str(short))}: no windows after filtering"):
            harness.load_windows(short, 1)


class TestForecastsToTracks:
    def test_round_trip_parses(self, synth_setup, tmp_path):
        from mofcast.data import load_tracks

        tracks = synth_generate("turning", 2, 0.0, seed=5, n_frames=95)
        batch = cut_windows(tracks, stride=3)
        pred = cv_cs_batch(batch.observed)
        out_tracks = forecasts_to_tracks(batch, pred)
        path = tmp_path / "forecasts.csv"
        write_tracks(out_tracks, path)
        parsed = load_tracks(path)
        assert len(parsed) == len(batch)
        by_key = {t.key: t for t in parsed}
        for i, rows in enumerate(pred):
            source = batch.source(i)
            t = by_key[(source.video_id, i)]
            assert t.start_frame == source.anchor_frame + 1
            assert t.boxes.tobytes() == rows.tobytes()

    def test_sources_and_forecasts_must_pair_up(self):
        batch = cut_windows(synth_generate("turning", 1, 0.0, seed=5, n_frames=95), stride=3)
        pred = cv_cs_batch(batch.observed)
        with pytest.raises(ValueError, match="shorter"):
            forecasts_to_tracks(batch, pred[1:])


def test_manifest_contents(synth_setup):
    result = run_fold(make_spec(synth_setup))
    manifest = json.loads((result.run_dir / "manifest.json").read_text())
    assert set(manifest) >= {"spec_hash", "seed", "package_version", "numpy_version", "wall_clock_seconds"}


@pytest.mark.parametrize(
    "build,error,problem",
    (
        (lambda setup: make_spec(setup, stride=0), ValueError, "ExperimentSpec.stride must be >= 1"),
        # the track minimum is the window length, not a spec field
        (lambda setup: make_spec(setup, min_track_frames=0), TypeError, "unexpected keyword argument 'min_track_frames'"),
        (lambda setup: make_spec(setup, model="encdec", train=TrainConfig(variant="nope")), ValueError,
         "unknown variant 'nope'"),
        (lambda setup: make_spec(setup, flow_features="f.csv"), ValueError,
         "model 'cv_cs' does not read flow_features, got 'f.csv'"),
        (lambda setup: make_spec(setup, model="lkf", synthetic_flow=True), ValueError,
         "model 'lkf' does not read synthetic_flow, got True"),
        (lambda setup: make_spec(setup, lkf_grid="g.json"), ValueError, "model 'cv_cs' does not read lkf_grid"),
        (lambda setup: make_spec(setup, model="encdec", lkf_grid="g.json"), ValueError,
         "model 'encdec' does not read lkf_grid"),
        (lambda setup: make_spec(setup, model="encdec", flow_features="f.csv", synthetic_flow=True), ValueError,
         "give one flow source: flow_features or synthetic_flow, not both"),
        (lambda setup: make_spec(setup, model="encdec", synthetic_flow=True), ValueError,
         "variant 'bb_only' does not read synthetic_flow"),
        (lambda setup: make_spec(setup, model="encdec", train=BOTH), ValueError,
         "variant 'both' reads flow: give flow_features or synthetic_flow"),
        (lambda setup: make_spec(setup, model="encdec", train=dataclasses.replace(BOTH, variant="of_only")),
         ValueError, "variant 'of_only' reads flow"),
    ),
    ids=("stride", "min_track_frames", "variant", "cv_cs-flow", "lkf-synthetic-flow", "cv_cs-grid", "encdec-grid",
         "two-flow-sources", "bb_only-synthetic-flow", "both-no-flow", "of_only-no-flow"),
)
def test_bad_spec_is_refused_before_a_run_directory_exists(synth_setup, build, error, problem):
    with pytest.raises(error, match=problem):
        run_fold(build(synth_setup))
    assert not synth_setup[2].exists()


def test_min_track_frames_default_is_defined_once():
    assert MIN_TRACK_FRAMES == OBSERVED_LEN + FUTURE_LEN
    (track,) = synth_generate("turning", 1, 0.0, seed=1, n_frames=MIN_TRACK_FRAMES)
    assert len(cut_windows([track])) == 1
    assert len(cut_windows([dataclasses.replace(track, boxes=track.boxes[:-1])])) == 0
    with pytest.raises(ValueError, match=f"n_frames must be >= {MIN_TRACK_FRAMES}"):
        synth_generate("turning", 1, 0.0, seed=1, n_frames=MIN_TRACK_FRAMES - 1)


def test_cli_defaults_and_choices_are_the_library_constants():
    args = build_parser().parse_args(["clip-filter", "--flow-magnitudes", "f.csv"])
    assert (args.threshold, args.clip_frames) == (FLOW_MAGNITUDE_THRESHOLD, CLIP_FRAMES)
    args = build_parser().parse_args(["gradcheck"])
    defaults = inspect.signature(grad_check_detailed).parameters
    assert (args.epsilon, args.coords) == (defaults["epsilon"].default, defaults["coords_per_group"].default)
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command in ("eval", "forecast"):
        (model,) = (a for a in subparsers[command]._actions if a.dest == "model")
        assert tuple(model.choices) == MODEL_KINDS


def test_no_fold_cross_eval_or_cli_path_builds_a_bbox(synth_setup, tmp_path, monkeypatch):
    """Tracks, windows and forecasts stay arrays: BBox is only for the per-window wrappers."""

    def refuse(self):
        raise AssertionError("a BBox was built")

    monkeypatch.setattr(BBox, "__post_init__", refuse)
    results = {model: run_fold(make_spec(synth_setup, model=model)) for model in ("cv_cs", "lkf", "encdec")}
    assert cross_eval(results["encdec"].checkpoint_path, synth_setup[0], stride=5).n_windows > 0

    tracks, out = tmp_path / "cli_tracks.csv", tmp_path / "cli"
    assert cli.main(["synth", "--kind", "turning", "--n", "6", "--seed", "2", "--frames", "95",
                     "--out", str(tracks)]) == 0
    assert cli.main(["prepare", "--tracks", str(tracks), "--splits", str(synth_setup[1]),
                     "--out", str(out / "prep")]) == 0
    model_flags = {
        "cv_cs": [],
        "lkf": ["--params", str(results["lkf"].run_dir / "lkf_params.json")],
        "encdec": ["--checkpoint", str(results["encdec"].checkpoint_path)],
    }
    for model, flags in model_flags.items():
        for command in ("eval", "forecast"):
            argv = [command, "--model", model, *flags, "--tracks", str(tracks), "--stride", "5",
                    "--out", str(out / f"{command}_{model}")]
            assert cli.main(argv) == 0


# sha256 of the CV-CS outputs on synth_generate_mixed(KINDS, 6, 1.0, seed=11) at stride 7, fold 0. CV-CS is
# elementwise IEEE arithmetic with no BLAS call, so these bytes do not depend on the host.
CV_CS_GOLDEN = {
    "summary.csv": "3c885737fece62bc6dc6ca5542a5288c2757d4596c91bc9a3923fd6f490416f2",
    "curves.csv": "eaecd1179942c712beffc7714adcaa55d5b48101719ddc0d87b9bd2ffac68052",
    "breakdown_city.csv": "e73cc3f40a167b1cf274b16a5e4b6ac7fc04b1bced1b2920a7c44e1649ae2fd9",
    "breakdown_weather.csv": "e995e7e67583b990986d2659b12681439e1c833bacaa4a4f32538bc0b869dce3",
    "breakdown_time_of_day.csv": "2683f9708e6f07b23933e343f13f9968a0ffe2860e8818132e7e432624382977",
    "forecasts.csv": "3e442b876d586326ae25971590b58a41419679085c646cc8507087698ba2e0ea",
}


def test_cv_cs_fold_and_forecast_write_their_pinned_bytes(tmp_path):
    tracks_path, splits_path = tmp_path / "tracks.csv", tmp_path / "splits.json"
    write_tracks(synth_generate_mixed(KINDS, 6, 1.0, seed=11), tracks_path)
    default_synth_split_config().to_file(splits_path)
    run_dir = run_fold(make_spec((tracks_path, splits_path, tmp_path / "runs"), stride=7)).run_dir
    assert cli.main(["forecast", "--model", "cv_cs", "--tracks", str(tracks_path), "--stride", "7",
                     "--out", str(tmp_path / "forecast")]) == 0
    paths = {name: run_dir / name for name in CV_CS_GOLDEN} | {"forecasts.csv": tmp_path / "forecast" / "forecasts.csv"}
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()} == CV_CS_GOLDEN
