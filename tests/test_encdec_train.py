import dataclasses
import logging
import sys

import numpy as np
import pytest

from mofcast.baselines import cv_cs_batch, cv_cs_extrapolate
from mofcast.core import boxes_to_array
from mofcast.data import (
    KINDS,
    cut_windows,
    default_synth_split_config,
    extract_windows,
    make_splits,
    synth_generate,
    synth_generate_mixed,
)
from mofcast.encdec import (
    ModelConfig,
    TrainConfig,
    assemble_arrays,
    box_features,
    forecast_windows,
    load_checkpoint,
    save_checkpoint,
    synthetic_flow_batch,
    synthetic_flow_feature,
    train,
)
from mofcast.errors import CheckpointError, FlowFeatureError
from mofcast.metrics import aggregate, evaluate_batch


def cv_windows(n_tracks=6, noise=0.0, seed=21, stride=10):
    tracks = synth_generate("constant_velocity", n_tracks, noise, seed)
    split = make_splits(tracks, default_synth_split_config(), fold=0)
    return cut_windows(split.train, stride=stride), cut_windows((*split.val, *split.test), stride=stride)


SMALL = dict(hidden=8, variant="bb_only", epochs=3, batch_size=16, seed=5)


class TestAssembleArrays:
    def test_equals_the_per_window_forms_bit_for_bit(self):
        tracks = synth_generate_mixed(KINDS, 3, 1.0, seed=3, n_frames=150)
        windows = [w for t in sorted(tracks, key=lambda t: t.key) for w in extract_windows(t, stride=7)]
        batch = cut_windows(tracks, stride=7)
        flow = synthetic_flow_batch(batch.observed, 64)
        assert flow.tobytes() == np.stack([synthetic_flow_feature(w, 64) for w in windows]).tobytes()
        arrays = assemble_arrays(dataclasses.replace(batch, flow=flow), ModelConfig(variant="both", flow_dim=64))
        assert len(arrays) == len(windows)
        assert arrays.features.tobytes() == np.stack([box_features(w) for w in windows]).tobytes()
        assert arrays.base.tobytes() == np.stack([cv_cs_extrapolate(w) for w in windows]).tobytes()
        assert arrays.gt.tobytes() == np.stack([w.future_array() for w in windows]).tobytes()
        assert arrays.flow.tobytes() == flow.tobytes()

    def test_flow_variant_needs_batch_flow(self):
        batch, _ = cv_windows()
        with pytest.raises(FlowFeatureError, match="of_only"):
            assemble_arrays(batch, ModelConfig(variant="of_only"))
        assert assemble_arrays(batch, ModelConfig()).flow is None


class TestLrSchedule:
    def test_halving_every_five_epochs(self):
        config = TrainConfig(learning_rate=1e-3, lr_halving_epochs=5)
        assert config.lr_at_epoch(1) == 1e-3
        assert config.lr_at_epoch(5) == 1e-3
        assert config.lr_at_epoch(6) == 5e-4
        assert config.lr_at_epoch(10) == 5e-4
        assert config.lr_at_epoch(11) == 2.5e-4
        assert config.lr_at_epoch(20) == 1.25e-4

    def test_logged_rates_follow_schedule(self):
        train_w, val_w = cv_windows()
        config = TrainConfig(hidden=8, epochs=6, batch_size=32, seed=1, lr_halving_epochs=5)
        result = train(train_w, val_w, config)
        rates = [r.learning_rate for r in result.log.epochs]
        assert rates == [1e-3] * 5 + [5e-4]


class TestNoiselessConstantVelocity:
    def test_validation_ade_never_degrades(self):
        # zero-residual targets put the zero-initialized model at the optimum:
        # gradients vanish identically, so training never moves
        train_w, val_w = cv_windows()
        config = TrainConfig(**SMALL)
        result = train(train_w, val_w, config)
        initial = result.log.initial_val_ade
        assert initial <= 1e-9
        for record in result.log.epochs:
            assert record.val_ade <= initial + 1e-6
        assert result.log.best_epoch == 0  # untrained model never beaten


class TestValidationScoresLikeTest:
    @pytest.mark.parametrize("variant", ("bb_only", "both"))
    def test_untrained_val_ade_is_the_cv_cs_report_ade_exactly(self, variant):
        train_w, val_w = (
            dataclasses.replace(b, flow=synthetic_flow_batch(b.observed, 16))
            for b in cv_windows(n_tracks=12, noise=2.0, stride=3)
        )
        config = TrainConfig(**{**SMALL, "variant": variant, "flow_dim": 16, "epochs": 1, "batch_size": 7})
        result = train(train_w, val_w, config)
        cv_cs = aggregate(evaluate_batch(cv_cs_batch(val_w.observed, val_w.horizon), val_w))
        assert cv_cs.ade > 1.0
        assert result.log.initial_val_ade == cv_cs.ade


class TestDeterminism:
    def test_bit_identical_checkpoints(self, tmp_path):
        train_w, val_w = cv_windows(noise=1.0)
        config = TrainConfig(**SMALL, deterministic=True)
        paths = []
        for run in range(2):
            result = train(train_w, val_w, config)
            path = tmp_path / f"run{run}.mofc"
            save_checkpoint(result.model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_changes_weights(self, tmp_path):
        train_w, val_w = cv_windows(noise=1.0)
        a = train(train_w, val_w, TrainConfig(**{**SMALL, "seed": 1}))
        b = train(train_w, val_w, TrainConfig(**{**SMALL, "seed": 2}))
        assert not np.array_equal(a.model.params.decoder.w_z, b.model.params.decoder.w_z)


class TestBlasPinReport:
    def test_unpinnable_blas_is_warned_once_and_reported(self, monkeypatch, caplog):
        from mofcast.encdec import training

        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # the import now fails
        monkeypatch.setattr(training, "_pin_warning_logged", False)
        train_w, val_w = cv_windows()
        config = TrainConfig(**{**SMALL, "epochs": 1}, deterministic=True)
        with caplog.at_level(logging.WARNING, logger="mofcast.encdec.training"):
            first = train(train_w, val_w, config)
            second = train(train_w, val_w, config)
        assert (first.blas_pinned, second.blas_pinned) == (False, False)
        assert "threadpoolctl" in first.blas_pin_reason
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "not pinned" in warnings[0].getMessage()

    def test_non_deterministic_run_reports_why(self):
        train_w, val_w = cv_windows()
        result = train(train_w, val_w, TrainConfig(**{**SMALL, "epochs": 1}, deterministic=False))
        assert result.blas_pinned is False
        assert "deterministic is off" in result.blas_pin_reason


class TestTrainValidation:
    def test_empty_sets_rejected(self):
        train_w, val_w = cv_windows()
        empty = cut_windows([])
        with pytest.raises(ValueError, match="training set"):
            train(empty, val_w, TrainConfig(**SMALL))
        with pytest.raises(ValueError, match="validation set"):
            train(train_w, empty, TrainConfig(**SMALL))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("name", ("learning_rate", "beta"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf"), -1.0))
    def test_float_fields_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"TrainConfig.{name} must be a finite number > 0"):
            TrainConfig(**{name: value})

    def test_model_defaults_come_from_model_config(self):
        assert TrainConfig().model_config() == ModelConfig()


class TestCheckpoint:
    def make_model(self, variant="bb_only", flow_dim=16):
        train_w, val_w = cv_windows(noise=0.5)
        if variant != "bb_only":
            train_w, val_w = (dataclasses.replace(b, flow=synthetic_flow_batch(b.observed, flow_dim))
                              for b in (train_w, val_w))
        config = TrainConfig(
            hidden=8, variant=variant, flow_dim=flow_dim, epochs=1, batch_size=32, seed=3
        )
        return train(train_w, val_w, config).model, (train_w, val_w)

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_round_trip_bit_exact(self, tmp_path, variant):
        model, _ = self.make_model(variant)
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.stats.mean, model.stats.mean)
        assert np.array_equal(loaded.stats.std, model.stats.std)
        for name, tensor in model.params.tensors().items():
            assert np.array_equal(loaded.params.tensors()[name], tensor), name

    def test_round_trip_forecasts_identical(self, tmp_path):
        model, (train_w, _) = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        before = forecast_windows(model, train_w)
        after = forecast_windows(loaded, train_w)
        for f0, f1 in zip(before, after):
            assert np.array_equal(boxes_to_array(f0.boxes), boxes_to_array(f1.boxes))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.mofc"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_bb_only_checkpoint_runs_without_flow_features(self, tmp_path):
        model, (train_w, _) = self.make_model("bb_only")
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert train_w.flow is None
        forecasts = forecast_windows(loaded, train_w)
        assert len(forecasts) == len(train_w) > 0
