import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from mofcast.baselines import cv_cs_batch, cv_cs_forecast, default_param_grid, lkf_batch, lkf_tune
from mofcast.core import boxes_to_array
from mofcast.data import (
    KINDS,
    cut_windows,
    default_synth_split_config,
    extract_windows,
    make_splits,
    synth_generate,
    synth_generate_mixed,
    write_tracks,
)
from mofcast.encdec import (
    Adam,
    Model,
    ModelConfig,
    TrainConfig,
    assemble_arrays,
    box_features,
    compute_feature_stats,
    forecast_array,
    forward_batch,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    synthetic_flow_batch,
    synthetic_flow_feature,
    tensor_shapes,
    train,
)
from mofcast.encdec import training
from mofcast.encdec.features import FeatureStats, box_features_from_array
from mofcast.encdec.model import forecast_windows
from mofcast.encdec.training import ADAM_BLOCK
from mofcast.errors import CheckpointError, FlowFeatureError, TrainingDivergedError
from mofcast.harness import cross_eval
from mofcast.metrics import aggregate, centroid_ade, evaluate_batch

from conftest import traced_peak


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
        assert arrays.base.tobytes() == np.stack([cv_cs_forecast(w) for w in windows]).tobytes()
        assert arrays.gt.tobytes() == np.stack([boxes_to_array(w.future) for w in windows]).tobytes()
        assert arrays.flow.tobytes() == flow.tobytes()

    def test_flow_variant_needs_batch_flow(self):
        batch, _ = cv_windows()
        with pytest.raises(FlowFeatureError, match="of_only"):
            assemble_arrays(batch, ModelConfig(variant="of_only"))
        assert assemble_arrays(batch, ModelConfig()).flow is None


class TestLrSchedule:
    def test_halving_every_five_epochs(self):
        config = TrainConfig(learning_rate=1e-3)
        assert config.lr_at_epoch(1) == 1e-3
        assert config.lr_at_epoch(5) == 1e-3
        assert config.lr_at_epoch(6) == 5e-4
        assert config.lr_at_epoch(10) == 5e-4
        assert config.lr_at_epoch(11) == 2.5e-4
        assert config.lr_at_epoch(20) == 1.25e-4

    def test_logged_rates_follow_schedule(self):
        train_w, val_w = cv_windows()
        config = TrainConfig(hidden=8, epochs=6, batch_size=32, seed=1)
        result = train(train_w, val_w, config)
        rates = [r.learning_rate for r in result.log.epochs]
        assert rates == [1e-3] * 5 + [5e-4]


class TestAdam:
    def test_matches_algorithm_1_of_kingma_and_ba(self):
        """Adam.step against Algorithm 1 of Kingma & Ba 2015 ("Adam: A Method for Stochastic Optimization",
        arXiv:1412.6980), written out one scalar at a time with the paper's constants; each step has its own
        gradient scale and learning rate, and the 1e-4 scale makes eps change the update's third digit."""
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        rng = np.random.default_rng(4)
        tensors = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=5)}
        steps = [({name: rng.normal(size=p.shape) * scale for name, p in tensors.items()}, lr)
                 for scale, lr in ((1.0, 1e-3), (1e-4, 3e-2), (10.0, 5e-4), (1e-3, 1e-2))]
        expected = {}
        for name, p in tensors.items():
            theta = p.ravel().tolist()
            m, v = [0.0] * len(theta), [0.0] * len(theta)
            for t, (grads, lr) in enumerate(steps, start=1):
                for i, g in enumerate(grads[name].ravel().tolist()):
                    m[i] = beta1 * m[i] + (1 - beta1) * g
                    v[i] = beta2 * v[i] + (1 - beta2) * g * g
                    m_hat = m[i] / (1 - beta1**t)
                    v_hat = v[i] / (1 - beta2**t)
                    theta[i] -= lr * m_hat / (math.sqrt(v_hat) + eps)
            expected[name] = theta
        optimizer = Adam()
        for grads, lr in steps:
            optimizer.step(tensors, grads, lr)
        for name, p in tensors.items():
            np.testing.assert_allclose(p.ravel(), expected[name], rtol=1e-15, atol=0)

    def test_blocked_step_equals_the_whole_array_expression_bit_for_bit(self):
        """The oracle is the same update as whole-array expressions. Both tensors hold 2 * ADAM_BLOCK + 5
        elements, so the last block is ragged; the gradient scales span 1e-4..10, so eps matters."""
        beta1, beta2, eps = Adam.beta1, Adam.beta2, Adam.eps
        n = 2 * ADAM_BLOCK + 5
        rng = np.random.default_rng(8)
        tensors = {"flat": rng.normal(size=n), "matrix": rng.normal(size=(9, n // 9))}
        expected = {name: p.copy() for name, p in tensors.items()}
        m = {name: np.zeros_like(p) for name, p in tensors.items()}
        v = {name: np.zeros_like(p) for name, p in tensors.items()}
        optimizer = Adam()
        for t, lr in enumerate((1e-3, 3e-2, 5e-4, 1e-2), start=1):
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.uniform(-4, 1, size=p.shape)
                     for name, p in tensors.items()}
            bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
            for name, p in expected.items():
                g = grads[name]
                m[name] *= beta1
                m[name] += (1.0 - beta1) * g
                v[name] *= beta2
                v[name] += (1.0 - beta2) * g * g
                p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
            optimizer.step(tensors, grads, lr)
            for name, p in tensors.items():
                assert p.tobytes() == expected[name].tobytes(), (name, t)
                assert optimizer.m[name].tobytes() == m[name].tobytes(), (name, t)
                assert optimizer.v[name].tobytes() == v[name].tobytes(), (name, t)

    def test_a_strided_tensor_is_refused_by_name_before_any_tensor_moves(self):
        tensors = {"first": np.ones(3), "strided": np.ones((4, 6))[:, ::2]}
        grads = {name: np.ones(p.shape) for name, p in tensors.items()}
        optimizer = Adam()
        with pytest.raises(ValueError, match="'strided' is not C-contiguous"):
            optimizer.step(tensors, grads, 1e-3)
        assert (tensors["first"] == 1.0).all() and optimizer.t == 0


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
        cv_cs = aggregate(evaluate_batch(cv_cs_batch(val_w.observed), val_w))
        assert cv_cs.ade > 1.0
        assert result.log.initial_val_ade == cv_cs.ade

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_an_untrained_model_forecasts_the_cv_cs_centroids_bit_for_bit(self, variant):
        """The premise of scoring epoch 0 as CV-CS without a forward pass: the zero output layer adds ±0."""
        _, val_w = cv_windows(n_tracks=12, noise=2.0, stride=3)
        val_w = dataclasses.replace(val_w, flow=synthetic_flow_batch(val_w.observed, 16))
        config = ModelConfig(variant=variant, hidden=16, flow_dim=16)
        stats = (compute_feature_stats(box_features_from_array(val_w.observed)) if config.uses_boxes
                 else FeatureStats.identity())
        pred = forecast_array(Model(params=init_params(config, 3), stats=stats), val_w)
        assert pred[..., :2].tobytes() == cv_cs_batch(val_w.observed)[..., :2].tobytes()

    def test_train_forecasts_the_validation_windows_once_per_epoch(self, monkeypatch):
        train_w, val_w = cv_windows(noise=2.0)
        seen = []

        def counting(model, batch, *args, **kwargs):
            seen.append(batch)
            return forecast_array(model, batch, *args, **kwargs)

        monkeypatch.setattr(training, "forecast_array", counting)
        result = train(train_w, val_w, TrainConfig(**SMALL))
        assert len(seen) == SMALL["epochs"] == len(result.log.epochs)
        assert all(batch is val_w for batch in seen)

    @pytest.mark.parametrize("entry", ("forward_batch", "forecast_array", "assemble_arrays", "train"))
    @pytest.mark.parametrize("variant", ("of_only", "both"))
    def test_every_entry_refuses_a_flow_variant_without_flow_with_one_message(self, monkeypatch, variant, entry):
        train_w, val_w = cv_windows()
        config = TrainConfig(**{**SMALL, "variant": variant, "flow_dim": 16})
        model = Model(params=init_params(config.model_config(), 0))

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "loss_and_gradients", no_step)
        calls = {
            "forward_batch": lambda: forward_batch(model.params, model.stats,
                                                   box_features_from_array(val_w.observed), None),
            "forecast_array": lambda: forecast_array(model, val_w),
            "assemble_arrays": lambda: assemble_arrays(val_w, config.model_config()),
            "train": lambda: train(dataclasses.replace(train_w, flow=synthetic_flow_batch(train_w.observed, 16)),
                                   val_w, config),
        }
        with pytest.raises(FlowFeatureError, match=f"^variant '{variant}' needs flow features$"):
            calls[entry]()

    def test_a_validation_batch_without_the_flow_its_variant_reads_is_refused_before_any_step(self, monkeypatch):
        train_w, val_w = cv_windows()
        train_w = dataclasses.replace(train_w, flow=synthetic_flow_batch(train_w.observed, 16))

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "loss_and_gradients", no_step)
        config = TrainConfig(**{**SMALL, "variant": "both", "flow_dim": 16})
        with pytest.raises(FlowFeatureError, match="needs flow features"):
            train(train_w, val_w, config)
        with pytest.raises(FlowFeatureError, match="flow feature dim 8 != configured 16"):
            train(train_w, dataclasses.replace(val_w, flow=synthetic_flow_batch(val_w.observed, 8)), config)

    def test_the_returned_model_is_the_best_epochs(self):
        # a set-up whose best epoch is not the last, so returning the last epoch's weights shows
        train_w = cut_windows(synth_generate("turning", 24, 1.0, seed=1), stride=7)
        val_w = cut_windows(synth_generate("turning", 6, 1.0, seed=2), stride=7)
        config = TrainConfig(hidden=8, variant="bb_only", epochs=5, batch_size=32, learning_rate=0.1, seed=1)
        result = train(train_w, val_w, config)
        log = {epoch: val_ade for epoch, _, _, val_ade in result.log.rows()}
        assert 0 < result.log.best_epoch < config.epochs
        returned = centroid_ade(forecast_array(result.model, val_w), val_w.future)
        assert returned == log[result.log.best_epoch] != log[config.epochs]


class TestLearning:
    def test_a_trained_model_beats_cv_cs_and_the_tuned_lkf_on_turning_tracks(self):
        """The paper's headline claim, at desk scale: on turning tracks, where both baselines are wrong,
        training and forecasting through the library beat CV-CS by a wide margin and the LKF tuned on val.
        Measured: 0.644 x CV-CS (28.7 px against 44.7), LKF 42.0, best epoch 10."""
        train_batch, val, test = (cut_windows(synth_generate("turning", n, 0.0, seed, n_frames=150), stride=7)
                                  for n, seed in ((96, 1), (8, 2), (8, 3)))
        config = TrainConfig(variant="bb_only", hidden=32, batch_size=32, learning_rate=3e-3, epochs=10, seed=0)
        result = train(train_batch, val, config)
        trained = centroid_ade(forecast_array(result.model, test), test.future)
        lkf = centroid_ade(lkf_batch(test.observed, lkf_tune(val, default_param_grid()).params), test.future)
        assert trained <= 0.8 * centroid_ade(cv_cs_batch(test.observed), test.future)
        assert trained < lkf
        assert result.log.best_epoch >= 1

    def test_a_saved_model_trained_on_noisy_tracks_beats_both_baselines_on_unseen_tracks(self, tmp_path):
        """The paper's cross-dataset claim at desk scale: a model trained on noisy turning tracks, saved and
        scored by cross_eval on 64 unseen tracks, noiseless and noisy, beats CV-CS by a wide margin and the LKF
        tuned on the training validation set. Measured: 0.594 and 0.569 x CV-CS, where the LKF reads 1.009 and
        0.969 x; best epoch 9. On the noisy set the bound is 0.7: a trainer that never shuffles reads 0.728."""
        def turning(n, noise, seed):
            return synth_generate("turning", n, noise, seed, n_frames=150)

        train_batch, val = (cut_windows(turning(n, 1.0, seed), stride=7) for n, seed in ((192, 1), (8, 2)))
        config = TrainConfig(variant="bb_only", hidden=32, batch_size=32, learning_rate=3e-3, epochs=10, seed=0)
        result = train(train_batch, val, config)
        assert result.log.best_epoch >= 1
        checkpoint = tmp_path / "model.mofc"
        save_checkpoint(result.model, checkpoint)
        lkf_params = lkf_tune(val, default_param_grid()).params
        for noise, seed, bound in ((0.0, 99, 0.8), (1.0, 100, 0.7)):
            tracks, path = turning(64, noise, seed), tmp_path / f"unseen_{seed}.csv"
            write_tracks(tracks, path)
            test = cut_windows(tracks, stride=7)
            ade = cross_eval(checkpoint, path, stride=7).ade
            assert ade <= bound * centroid_ade(cv_cs_batch(test.observed), test.future)
            assert ade < centroid_ade(lkf_batch(test.observed, lkf_params), test.future)


class TestDeterminism:
    def test_bit_identical_checkpoints(self, tmp_path):
        train_w, val_w = cv_windows(noise=1.0)
        config = TrainConfig(**SMALL)
        paths = []
        for run in range(2):
            result = train(train_w, val_w, config)
            path = tmp_path / f"run{run}.mofc"
            save_checkpoint(result.model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bit_identical_checkpoints_at_paper_size(self, tmp_path):
        # H=512 GEMMs are large enough for BLAS to thread, unlike the tiny model
        # above, so this also guards the GRU's reused buffers and out= writes.
        train_w = cut_windows(synth_generate_mixed(KINDS, 2, 1.0, seed=4, n_frames=150), stride=30)
        val_w = cut_windows(synth_generate_mixed(KINDS, 1, 1.0, seed=5, n_frames=150), stride=60)
        assert len(train_w) == 24
        config = TrainConfig(hidden=512, variant="bb_only", epochs=1, batch_size=12, seed=1)
        paths, logs = [], []
        for run in range(2):
            result = train(train_w, val_w, config)
            assert result.log.best_epoch == 1  # the checkpoint holds trained weights, not the initial ones
            path = tmp_path / f"run{run}" / "checkpoint.mofc"
            path.parent.mkdir()
            save_checkpoint(result.model, path)
            paths.append(path)
            logs.append(result.log.rows())
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert repr(logs[0]) == repr(logs[1])

    def test_different_seed_changes_weights(self, tmp_path):
        train_w, val_w = cv_windows(noise=1.0)
        a = train(train_w, val_w, TrainConfig(**{**SMALL, "seed": 1}))
        b = train(train_w, val_w, TrainConfig(**{**SMALL, "seed": 2}))
        assert not np.array_equal(a.model.params.tensors()["decoder.w_z"], b.model.params.tensors()["decoder.w_z"])


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

    @pytest.mark.parametrize(
        "owner,name,value,bound",
        (("TrainConfig", "seed", -1, ">= 0"), ("ModelConfig", "flow_dim", 0, ">= 1"), ("ModelConfig", "hidden", 0, ">= 1")),
        ids=("seed--1->= 0", "flow_dim-0->= 1", "hidden-0->= 1"),
    )
    def test_int_fields_are_range_checked_by_name(self, owner, name, value, bound):
        # hidden and flow_dim are checked once, by the ModelConfig that TrainConfig builds
        with pytest.raises(ValueError, match=f"{owner}.{name} must be {bound}"):
            TrainConfig(**{name: value})

    def test_model_defaults_come_from_model_config(self):
        assert TrainConfig().model_config() == ModelConfig()


class TestTrainMemory:
    @pytest.mark.parametrize("batch_size", (48, 16))
    def test_a_step_runs_beside_no_earlier_steps_gradients(self, batch_size):
        """Across steps train keeps the params, the best-epoch copy and Adam's m and v, four tables of the
        params' size; a step adds its own caches and gradients. Holding the previous step's gradients through
        the next step's passes adds a fifth. Measured: 4.26 and 4.20 x the params; 5.26 and 5.20 x when the
        gradients outlive their step."""
        train_w = cut_windows(synth_generate_mixed(KINDS, 4, 1.0, seed=1, n_frames=150), stride=30)
        val_w = cut_windows(synth_generate_mixed(KINDS, 1, 1.0, seed=2, n_frames=150), stride=60)
        assert len(train_w) == 48
        config = TrainConfig(hidden=128, variant="bb_only", epochs=3, batch_size=batch_size, seed=0)
        arrays = assemble_arrays(train_w, config.model_config())
        params = init_params(config.model_config(), 0)
        param_bytes = sum(t.nbytes for t in params.tensors().values())
        _, step_peak = traced_peak(
            loss_and_gradients, params, compute_feature_stats(arrays.features), arrays.features[:batch_size],
            None, arrays.targets[:batch_size],
        )
        _, train_peak = traced_peak(train, train_w, val_w, config)
        assert train_peak <= step_peak + 4.5 * param_bytes, (train_peak - step_peak) / param_bytes


class TestDivergence:
    def test_a_non_finite_loss_raises_naming_its_epoch_with_the_completed_epochs_logged(self):
        # one step per epoch: epoch 1 moves the zero output layer by ~lr, so epoch 2's residuals overflow
        train_w = cut_windows(synth_generate_mixed(KINDS, 1, 1.0, seed=1, n_frames=150), stride=30)
        val_w = cut_windows(synth_generate_mixed(KINDS, 1, 1.0, seed=2, n_frames=150), stride=60)
        config = TrainConfig(hidden=8, variant="bb_only", epochs=3, batch_size=len(train_w), learning_rate=1e305)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDivergedError, match="^non-finite loss at epoch 2$"
        ) as raised:
            train(train_w, val_w, config)
        log = raised.value.log
        assert [r.epoch for r in log.epochs] == [1]
        assert math.isfinite(log.epochs[0].train_loss)


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
        assert path.read_bytes()[9] == 1  # the rectifier flag byte
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.stats.mean, model.stats.mean)
        assert np.array_equal(loaded.stats.std, model.stats.std)
        for name, tensor in model.params.tensors().items():
            assert np.array_equal(loaded.params.tensors()[name], tensor), name

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_loaded_model_is_read_only(self, tmp_path, variant):
        model, _ = self.make_model(variant)
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        tensors = loaded.params.tensors()
        for name, arr in [*tensors.items(), ("stats.mean", loaded.stats.mean), ("stats.std", loaded.stats.std)]:
            assert not arr.flags.writeable, name
            assert arr.base is None or not arr.base.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            tensors["out.w"][0, 0] = 1.0
        grads = {name: np.ones_like(arr) for name, arr in tensors.items()}
        with pytest.raises(ValueError, match="read-only"):
            Adam().step(tensors, grads, 1e-3)
        trainable = loaded.params.copy()
        assert all(arr.flags.writeable for arr in trainable.tensors().values())
        Adam().step(trainable.tensors(), grads, 1e-3)
        assert not np.array_equal(trainable.tensors()["out.w"], model.params.tensors()["out.w"])

    def test_round_trip_forecasts_identical(self, tmp_path):
        model, (train_w, _) = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        before = forecast_windows(model, train_w)
        after = forecast_windows(loaded, train_w)
        for f0, f1 in zip(before, after):
            assert np.array_equal(f0, f1)

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_one_table_names_every_tensor(self, tmp_path, variant):
        config = ModelConfig(variant=variant, hidden=6, flow_dim=5)
        path = tmp_path / "model.mofc"
        save_checkpoint(Model(init_params(config, 0)), path)
        want = list(tensor_shapes(config).items())
        gru = [f"{kind}_{gate}" for kind in "wub" for gate in "zrh"]
        boxes = [f"encoder.{n}" for n in gru] + ["fc1.w", "fc1.b"] if config.uses_boxes else []
        assert [name for name, _ in want] == boxes + [f"decoder.{n}" for n in gru] + ["out.w", "out.b"]
        for params in (init_params(config, 0), load_checkpoint(path).params):
            assert [(name, t.shape) for name, t in params.tensors().items()] == want

    # sha256 of the init checkpoints as first written; the draw order of
    # init_params is part of the checkpoint, so a reordered draw shows here.
    INIT_DIGESTS = {
        ("bb_only", False): "99b299ee994ffb41839f2a3234fc6c51c90e43d97e883e92bf815fec964677ea",
        ("bb_only", True): "d1a2748fab4eedace2ecf441b4bc6946f7920c1bac451d96bfc492a4d5055ba7",
        ("of_only", False): "b6740928d21b78266b1bfc37b2cd8e7a3d764b34d695a57f075754f76545d7d3",
        ("of_only", True): "7934c8616bf776d994bc22d440f39530152c9104af8589e5fa8192864c4bf980",
        ("both", False): "dd154209a72e727277b9a6995c3e360c0da57fe8a7b40eedbd396810fba26851",
        ("both", True): "eae28cc8b0f0eca66965addcf79165cdc56644c061414a4e13fd71c656c65552",
    }

    @pytest.mark.parametrize("variant,zero_output", list(INIT_DIGESTS))
    def test_init_checkpoint_bytes_are_pinned(self, tmp_path, variant, zero_output):
        config = ModelConfig(variant=variant, hidden=16, flow_dim=24)
        path = tmp_path / "init.mofc"
        save_checkpoint(Model(init_params(config, 7, zero_output=zero_output)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.INIT_DIGESTS[variant, zero_output]

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
        header = struct.calcsize("<4sIBB5I")
        # half the file, one byte short, the header alone, the header and the two stats vectors
        for size in (len(data) // 2, len(data) - 1, header, header + 2 * 8 * 8):
            path.write_bytes(data[:size])
            with pytest.raises(CheckpointError, match="model\\.mofc: truncated file"):
                load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        data = path.read_bytes()
        for extra in (b"junk", b"\x00"):
            path.write_bytes(data + extra)
            with pytest.raises(CheckpointError, match=f"model\\.mofc: {len(extra)} unexpected trailing bytes"):
                load_checkpoint(path)

    def test_huge_hidden_is_refused_before_any_tensor_is_allocated(self, tmp_path):
        # hidden = 2**20 implies a file of over 30 TB: the size check refuses it from the header
        model, _ = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[14:18] = struct.pack("<I", 2**20)  # the hidden dim, after magic, version, two flags and input dim
        path.write_bytes(bytes(data))

        def load_refused():
            with pytest.raises(CheckpointError, match="model\\.mofc: truncated file"):
                load_checkpoint(path)

        _, peak = traced_peak(load_refused)
        assert peak < 1 << 20, peak

    def test_unsupported_version(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "offset,value,problem",
        ((9, b"\x07", "rectifier flag 7, expected 1"),
         (9, b"\x00", "rectifier flag 0, expected 1"),
         (18, struct.pack("<I", 128), r"dimension inconsistency \(input 8, box code 128, output 4\)")),
        ids=("rectifier-flag", "rectifier-off", "box-code-dim"),
    )
    def test_malformed_header_field_rejected(self, tmp_path, monkeypatch, offset, value, problem):
        model, _ = self.make_model()
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[offset : offset + len(value)] = value
        path.write_bytes(bytes(data))
        monkeypatch.setattr(np, "fromfile", None)  # refused from the header: no tensor is read
        with pytest.raises(CheckpointError, match=rf"model\.mofc: {problem}"):
            load_checkpoint(path)

    def test_bb_only_checkpoint_runs_without_flow_features(self, tmp_path):
        model, (train_w, _) = self.make_model("bb_only")
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert train_w.flow is None
        forecasts = forecast_windows(loaded, train_w)
        assert len(forecasts) == len(train_w) > 0
