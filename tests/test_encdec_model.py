import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from mofcast.baselines import cv_cs_batch, cv_cs_forecast
from mofcast.core import BBox, ObservationWindow, WindowSource, boxes_to_array
from mofcast.data import cut_windows, extract_windows, synth_generate, synth_generate_mixed
from mofcast.encdec import (
    FeatureStats,
    GRUParams,
    Model,
    ModelConfig,
    assemble_arrays,
    backward_batch,
    box_features,
    compute_feature_stats,
    forecast_array,
    forward_batch,
    grad_check_detailed,
    gru_backward,
    gru_forward,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    smooth_l1,
    smooth_l1_grad,
    standardize,
    synthetic_flow_batch,
    synthetic_flow_feature,
)
from mofcast.encdec import model as model_module
from mofcast.encdec.features import box_features_from_array
from mofcast.encdec.model import forecast_windows, residuals_to_boxes
from mofcast.encdec.gru import sigmoid
from mofcast.errors import FlowFeatureError

from conftest import batch_of, linear_track, traced_peak, window_of
from encdec_oracle import (
    decode,
    destandardize,
    encode,
    forward_residuals_batch_major,
    gru_backward_batch_major,
    gru_cell,
    gru_forward_batch_major,
)
from encdec_oracle import sigmoid as oracle_sigmoid


class TestBoxFeatures:
    def test_five_frame_velocity(self):
        # cx over frames j-4..j is 10,11,12,13,14 at the last observed frame
        window = window_of(linear_track(vx=1.0, cx0=-15.0, length=90))
        feats = box_features(window)
        assert feats.shape == (30, 8)
        assert feats[-1, 4] == pytest.approx(4.0)  # v_x = x_t - x_{t-4}

    def test_stationary_window_has_zero_velocity_terms(self):
        window = window_of(linear_track(vx=0.0, vy=0.0, length=90))
        feats = box_features(window)
        assert np.all(feats[:, 4:] == 0.0)

    def test_constant_size_moving_centroid(self):
        window = window_of(linear_track(vx=2.0, vy=1.0, length=90))
        feats = box_features(window)
        assert np.all(feats[:, 6] == 0.0)  # dw
        assert np.all(feats[:, 7] == 0.0)  # dh

    def test_padding_rule_uses_earliest_frame(self):
        window = window_of(linear_track(vx=1.0, length=90))
        feats = box_features(window)
        # frames 0..3 difference against frame 0: v_x = j - 0
        assert feats[0, 4] == 0.0
        assert feats[1, 4] == pytest.approx(1.0)
        assert feats[3, 4] == pytest.approx(3.0)
        assert feats[4, 4] == pytest.approx(4.0)

    def test_positions_copied_verbatim(self):
        window = window_of(linear_track(vx=0.5, vy=0.25, w=11.0, h=22.0, length=90))
        feats = box_features(window)
        assert np.array_equal(feats[:, :4], window.observed_array())


class TestStandardize:
    def test_train_mean_maps_to_zero(self, rng):
        features = rng.normal(size=(20, 30, 8)) * 5 + 3
        stats = compute_feature_stats(features)
        standardized = standardize(features, stats)
        assert np.allclose(standardized.reshape(-1, 8).mean(axis=0), 0.0, atol=1e-12)

    def test_round_trip_inverse(self, rng):
        features = rng.normal(size=(4, 30, 8))
        stats = compute_feature_stats(features)
        assert np.allclose(destandardize(standardize(features, stats), stats), features, atol=1e-12)

    def test_not_idempotent(self, rng):
        features = rng.normal(size=(4, 30, 8)) + 7.0
        stats = compute_feature_stats(features)
        once = standardize(features, stats)
        twice = standardize(once, stats)
        assert not np.allclose(once, twice)

    def test_stats_keep_read_only_copies(self):
        mean, std = np.arange(8.0), np.full(8, 2.0)
        stats = FeatureStats(mean=mean, std=std)
        mean[:] = std[:] = -1.0  # the caller's arrays stay writable and are not the stats' arrays
        assert np.array_equal(stats.mean, np.arange(8.0)) and np.all(stats.std == 2.0)
        for arr in (stats.mean, stats.std):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_constant_channel_floored(self):
        features = np.zeros((3, 30, 8))
        stats = compute_feature_stats(features)
        assert np.all(stats.std == 1e-6)
        assert np.all(np.isfinite(standardize(features, stats)))


def zero_gru(input_dim: int, hidden_dim: int) -> GRUParams:
    """A GRU layer whose weights and biases are all zero."""
    shapes = {"w": (hidden_dim, input_dim), "u": (hidden_dim, hidden_dim), "b": (hidden_dim,)}
    return GRUParams(**{f"{kind}_{gate}": np.zeros(shape) for kind, shape in shapes.items() for gate in "zrh"})


def random_gru(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> GRUParams:
    """A GRU layer with uniform ±1/sqrt(fan-in) weights, drawn w_z, w_r, w_h, u_z, u_r, u_h, and zero biases."""
    wb, ub = 1.0 / np.sqrt(input_dim), 1.0 / np.sqrt(hidden_dim)
    draws = {f"w_{g}": rng.uniform(-wb, wb, (hidden_dim, input_dim)) for g in "zrh"}
    draws.update({f"u_{g}": rng.uniform(-ub, ub, (hidden_dim, hidden_dim)) for g in "zrh"})
    return GRUParams(**draws, **{f"b_{g}": np.zeros(hidden_dim) for g in "zrh"})


def time_major(dh_out: np.ndarray) -> np.ndarray:
    """A fresh (T, B, H) copy of a (B, T, H) ``dh_out``: the layout gru_backward takes, and uses up."""
    return dh_out.transpose(1, 0, 2).copy()


class TestGruCell:
    def test_zero_weights_zero_state(self):
        params = zero_gru(4, 6)
        h = gru_cell(np.zeros(4), np.zeros(6), params)
        assert np.all(h == 0.0)

    def test_zero_weights_halve_state(self, rng):
        # z = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0, so h' = h/2
        params = zero_gru(4, 6)
        h = rng.normal(size=6)
        out = gru_cell(rng.normal(size=4), h, params)
        assert np.allclose(out, 0.5 * h, atol=1e-15)

    def test_bounded_by_max_of_state_and_one(self, rng):
        params = random_gru(rng, 4, 6)
        h = rng.normal(size=6) * 3
        out = gru_cell(rng.normal(size=4), h, params)
        assert np.all(np.abs(out) <= np.maximum(np.abs(h), 1.0) + 1e-12)

    def test_gru_forward_steps_the_cell(self, rng):
        params = random_gru(rng, 4, 6)
        x = rng.normal(size=(3, 7, 4))
        hs, _ = gru_forward(params, x)
        h = np.zeros((3, 6))
        for k in range(7):
            h = gru_cell(x[:, k], h, params)
            assert np.allclose(hs[k], h, atol=1e-14)


class TestGruHotPath:
    """The tanh sigmoid, and a time-constant (stride-0) input projected once."""

    def test_sigmoid_matches_the_oracle(self):
        x = np.concatenate([np.linspace(-1000.0, 1000.0, 200_001), [-1000.0, 1000.0, -745.2, 745.2, -0.0, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(x)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.max(np.abs(out - oracle_sigmoid(x))) <= 1e-15

    @pytest.mark.parametrize("t", (1, 7))
    def test_time_constant_input_equals_its_copy(self, rng, t):
        b, i, hd = 3, 5, 6
        params = random_gru(rng, i, hd)
        params.b_z[:] = rng.normal(size=hd)
        params.b_r[:] = rng.normal(size=hd)
        params.b_h[:] = rng.normal(size=hd)
        shared = np.broadcast_to(rng.normal(size=(b, 1, i)), (b, t, i))
        copied = np.ascontiguousarray(shared)
        dh_out = rng.normal(size=(b, t, hd))

        hs_shared, cache_shared = gru_forward(params, shared)
        hs_copied, cache_copied = gru_forward(params, copied)
        np.testing.assert_allclose(hs_shared, hs_copied, rtol=1e-12, atol=0.0)
        dx_shared, g_shared = gru_backward(params, cache_shared, time_major(dh_out))
        dx_copied, g_copied = gru_backward(params, cache_copied, time_major(dh_out))
        for name, g in g_shared.tensors().items():
            np.testing.assert_allclose(g, getattr(g_copied, name), rtol=1e-12, atol=0.0, err_msg=name)
        assert dx_shared.shape == (1, b, i)
        np.testing.assert_allclose(dx_shared, dx_copied.sum(axis=0, keepdims=True), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_decoder_input_is_a_view_of_the_code(self, rng, cv_window, variant):
        config = ModelConfig(variant=variant, hidden=8, flow_dim=12)
        cache = forward_batch(init_params(config, 0), FeatureStats.identity(), box_features(cv_window)[None],
                              rng.normal(size=(1, 12)))
        assert cache.dec_cache.x.shape == (1, 60, config.code_dim)
        assert cache.dec_cache.x.strides[1] == 0
        assert np.shares_memory(cache.dec_cache.x[:, -1], cache.dec_cache.x[:, 0])


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestTimeMajorGru:
    """The time-major GRU against the batch-major one it replaced: same forward bits, gradients to rounding."""

    @pytest.mark.parametrize(
        "b,t,i,hd,shared",
        (
            (5, 7, 6, 9, False),
            (4, 6, 8, 10, True),
            (3, 1, 4, 5, False),
            (3, 1, 4, 5, True),
            (1, 9, 4, 5, False),
            (1, 9, 4, 5, True),
            (24, 6, 8, 512, False),  # large enough for BLAS to thread
            (24, 6, 64, 512, True),
            (96, 2, 2304, 512, True),  # the both decoder at paper size; its projection does not depend on T
        ),
        ids=("plain", "stride0", "t1", "t1-stride0", "b1", "b1-stride0", "h512", "h512-stride0", "paper-stride0"),
    )
    def test_matches_the_batch_major_oracle(self, rng, b, t, i, hd, shared):
        params = random_gru(rng, i, hd)
        for name in ("b_z", "b_r", "b_h"):
            getattr(params, name)[:] = rng.normal(size=hd)
        x = np.broadcast_to(rng.normal(size=(b, 1, i)), (b, t, i)) if shared else rng.normal(size=(b, t, i))
        dh_out = rng.normal(size=(b, t, hd))

        hs, cache = gru_forward(params, x)
        hs_ref, cache_ref = gru_forward_batch_major(params, x)
        assert hs.shape == (t, b, hd)
        assert cache.x is x
        assert _bits(hs.transpose(1, 0, 2)) == _bits(hs_ref)
        assert cache.hs.shape == (t + 1, b, hd) and cache.gates.shape == (t, b, 3 * hd)
        # compared before the backward, which overwrites the gates with their gradients; each step's
        # B*3H values hold z | r as one (B, 2H) block, then h~ as one (B, H) block
        steps = cache.gates.reshape(t, 3 * b * hd)
        zr, htil = steps[:, : 2 * b * hd].reshape(t, b, 2 * hd), steps[:, 2 * b * hd :].reshape(t, b, hd)
        for got, want in ((cache.hs, cache_ref.hs), (zr, cache_ref.zr), (htil, cache_ref.htil)):
            assert _bits(got.transpose(1, 0, 2)) == _bits(want)

        # forward-only, every state: the same states, and one step of gates, the last
        hs_fwd, cache_fwd = gru_forward(params, x, keep="states")
        assert _bits(hs_fwd) == _bits(hs) and _bits(cache_fwd.hs) == _bits(cache.hs)
        assert cache_fwd.gates.shape == (1, b, 3 * hd)
        assert _bits(cache_fwd.gates) == _bits(cache.gates[-1:])

        # forward-only, last state: two states, h_{T-1} then h_T, and the same last step of gates
        hs_last, cache_last = gru_forward(params, x, keep="last")
        assert cache_last.hs.shape == (2, b, hd) and hs_last.shape == (1, b, hd)
        assert _bits(cache_last.hs) == _bits(cache.hs[-2:])
        assert _bits(hs_last) == _bits(hs[-1:])
        assert _bits(cache_last.gates) == _bits(cache.gates[-1:])

        dx, grads = gru_backward(params, cache, time_major(dh_out))
        dx_ref, grads_ref = gru_backward_batch_major(params, cache_ref, dh_out)
        assert dx.shape == ((1, b, i) if shared and t > 1 else (t, b, i))
        pairs = {"dx": (dx.transpose(1, 0, 2), dx_ref)}
        pairs.update({name: (g, getattr(grads_ref, name)) for name, g in grads.tensors().items()})
        for name, (got, want) in pairs.items():
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max(), err_msg=name)

    @pytest.mark.parametrize("variant,hidden", (("bb_only", 12), ("of_only", 12), ("both", 12), ("both", 512)))
    def test_forward_batch_residuals_are_bit_identical(self, rng, variant, hidden):
        config = ModelConfig(variant=variant, hidden=hidden, flow_dim=24)
        params = init_params(config, 7, zero_output=False)
        stats = FeatureStats(mean=rng.normal(size=8), std=rng.uniform(0.5, 2.0, size=8))
        features, flow = rng.normal(size=(16, 30, 8)), rng.normal(size=(16, 24))
        residuals = forward_batch(params, stats, features, flow).residuals
        assert residuals.flags.c_contiguous
        assert _bits(residuals) == _bits(forward_residuals_batch_major(params, stats, features, flow))


class TestForwardOnly:
    """Forecasting keeps no per-step gate cache, and a backward refuses the cache it leaves."""

    @pytest.mark.parametrize("keep", ("states", "last"))
    @pytest.mark.parametrize("shared", (False, True), ids=("plain", "stride0"))
    def test_backward_refuses_a_forward_only_cache(self, rng, shared, keep):
        params = random_gru(rng, 4, 5)
        x = np.broadcast_to(rng.normal(size=(3, 1, 4)), (3, 7, 4)) if shared else rng.normal(size=(3, 7, 4))
        _, cache = gru_forward(params, x, keep=keep)
        with pytest.raises(ValueError, match="gates of 1 step\\(s\\) for a 7-step sequence"):
            gru_backward(params, cache, rng.normal(size=(3, 7, 5)))

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_backward_batch_refuses_a_forward_only_cache(self, rng, variant):
        params = init_params(ModelConfig(variant=variant, hidden=6, flow_dim=5), 1, zero_output=False)
        cache = forward_batch(params, FeatureStats.identity(), rng.normal(size=(4, 30, 8)),
                              rng.normal(size=(4, 5)), for_backward=False)
        with pytest.raises(ValueError, match="for a 60-step sequence"):
            backward_batch(params, cache, rng.normal(size=(4, 60, 4)))

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_forecast_array_equals_the_cached_pass(self, variant):
        batch = cut_windows(synth_generate_mixed(("turning", "stop_and_go"), 2, 1.0, 3, n_frames=95), stride=3)
        batch = dataclasses.replace(batch, flow=synthetic_flow_batch(batch.observed, 12))
        features = box_features_from_array(batch.observed)
        config = ModelConfig(variant=variant, hidden=16, flow_dim=12)
        model = Model(params=init_params(config, 5, zero_output=False), stats=compute_feature_stats(features))
        cached = forward_batch(model.params, model.stats, features, batch.flow, for_backward=True).residuals
        expected = cv_cs_batch(batch.observed) + cached
        expected[..., 2:] = np.maximum(expected[..., 2:], 1.0)
        assert _bits(forecast_array(model, batch)) == _bits(expected)

    def test_forecast_array_at_paper_size_matches_the_batch_major_oracle(self, rng):
        # both at H=512, flow 2048: the oracle projects the decoder input through stacked [W_z; W_r; W_h]
        batch = cut_windows(synth_generate_mixed(("turning", "stop_and_go"), 1, 1.0, 3, n_frames=95), stride=2)
        batch = dataclasses.replace(batch, flow=rng.normal(size=(len(batch), 2048)))
        features = box_features_from_array(batch.observed)
        config = ModelConfig(variant="both", hidden=512, flow_dim=2048)
        model = Model(params=init_params(config, 5, zero_output=False), stats=compute_feature_stats(features))
        expected = cv_cs_batch(batch.observed) + forward_residuals_batch_major(
            model.params, model.stats, features, batch.flow)
        expected[..., 2:] = np.maximum(expected[..., 2:], 1.0)
        assert _bits(forecast_array(model, batch)) == _bits(expected)

    def test_forecast_encoder_holds_no_input_projection_and_only_its_last_two_states(self, rng, monkeypatch):
        # bb_only at H=64, B=96: the encoder's (T+1, B, H) float64 states are 1.5 MB and a (T*B, 3H)
        # projection of its whole input 4.4 MB; its two states and step buffers peak at 0.66 MB (6.5 MB
        # when it held both)
        b, hd, p = 96, 64, 30
        params = init_params(ModelConfig(variant="bb_only", hidden=hd), 0, zero_output=False)
        features = rng.normal(size=(b, p, 8))
        forward_batch(params, FeatureStats.identity(), features[:2], None, for_backward=False)  # BLAS setup
        peaks = {}

        def traced_gru_forward(gru, x, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = gru_forward(gru, x, **kwargs)
            peaks[x.shape[1]] = tracemalloc.get_traced_memory()[1] - start
            return result

        monkeypatch.setattr(model_module, "gru_forward", traced_gru_forward)
        cache, _ = traced_peak(forward_batch, params, FeatureStats.identity(), features, None, for_backward=False)
        assert cache.enc_cache.hs.shape == (2, b, hd)
        assert cache.enc_cache.gates.shape == (1, b, 3 * hd)
        states = (p + 1) * b * hd * 8
        assert peaks[p] < states, (peaks[p], states)

    def test_forecast_peak_memory_stays_below_one_gate_cache(self):
        # both at H=64, B=64: one full decoder gate cache, (60, B, 3H) float64, is 5.9 MB; the
        # forward-only pass holds the decoder's (T+1, B, H) states
        b, hd = 64, 64
        batch = cut_windows(synth_generate_mixed(("turning", "stop_and_go"), 2, 1.0, 3, n_frames=120), stride=2)
        assert len(batch) == b  # 4 tracks of 16 windows
        batch = dataclasses.replace(batch, flow=synthetic_flow_batch(batch.observed, 16))
        model = Model(params=init_params(ModelConfig(variant="both", hidden=hd, flow_dim=16), 0, zero_output=False))
        gate_cache = 60 * b * 3 * hd * 8
        forecast_array(model, batch)  # first call outside the trace: lazy imports and BLAS setup
        _, peak = traced_peak(forecast_array, model, batch)
        assert peak < gate_cache, (peak, gate_cache)


class TestBackwardUsesUpTheCache:
    """The backward writes its gate gradients over the forward's gates, so a cache serves one backward."""

    @pytest.mark.parametrize("shared", (False, True), ids=("plain", "stride0"))
    def test_gru_backward_refuses_a_used_cache(self, rng, shared):
        params = random_gru(rng, 4, 5)
        x = np.broadcast_to(rng.normal(size=(3, 1, 4)), (3, 7, 4)) if shared else rng.normal(size=(3, 7, 4))
        _, cache = gru_forward(params, x)
        dh_out = rng.normal(size=(3, 7, 5))
        gru_backward(params, cache, time_major(dh_out))
        assert not cache.gates.flags.writeable
        with pytest.raises(ValueError, match="cache already holds the gradients of an earlier backward"):
            gru_backward(params, cache, time_major(dh_out))

    @pytest.mark.parametrize("layout", ("batch-major", "read-only", "non-contiguous"))
    def test_gru_backward_refuses_a_dh_out_it_cannot_use_up(self, rng, layout):
        # the backward writes r * h over dh's time-major steps; it makes no copy of another layout
        params = random_gru(rng, 4, 5)
        _, cache = gru_forward(params, rng.normal(size=(3, 7, 4)))
        dh = rng.normal(size=(3, 7, 5))
        dh_out = {"batch-major": dh, "read-only": time_major(dh), "non-contiguous": dh.transpose(1, 0, 2)}[layout]
        dh_out.flags.writeable = layout != "read-only"
        with pytest.raises(ValueError, match="dh must be a writable, C-contiguous \\(T, B, H\\) = \\(7, 3, 5\\) array"):
            gru_backward(params, cache, dh_out)
        assert cache.gates.flags.writeable  # refused before any step is read: the cache still serves a backward
        gru_backward(params, cache, time_major(dh))

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_backward_batch_refuses_a_used_cache(self, rng, variant):
        params = init_params(ModelConfig(variant=variant, hidden=6, flow_dim=5), 1, zero_output=False)
        cache = forward_batch(params, FeatureStats.identity(), rng.normal(size=(4, 30, 8)), rng.normal(size=(4, 5)))
        dres = rng.normal(size=(4, 60, 4))
        backward_batch(params, cache, dres)
        with pytest.raises(ValueError, match="cache already holds the gradients of an earlier backward"):
            backward_batch(params, cache, dres)

    def test_decoder_backward_peak_memory_stays_below_one_gate_array(self, rng):
        # a decoder-like cache: stride-0 input, T=60, B=64, H=64; one (T, B, 3H) float64 array is 5.9 MB,
        # and the backward holds (B, ·) step buffers beside its results (the r * h products go into dh_out)
        b, t, i, hd = 64, 60, 256, 64
        params = random_gru(rng, i, hd)
        x = np.broadcast_to(rng.normal(size=(b, 1, i)), (b, t, i))
        dh_out = rng.normal(size=(t, b, hd))
        gru_backward(params, gru_forward(params, x)[1], dh_out.copy())  # untraced first call: BLAS setup
        _, cache = gru_forward(params, x)
        (dx, _), peak = traced_peak(gru_backward, params, cache, dh_out)
        assert dx.shape == (1, b, i)
        gate_array = t * b * 3 * hd * 8
        assert peak < gate_array, (peak, gate_array)


class TestTrainingStepMemory:
    """One bb_only training step at B=128, H=128, where each (60, B, H) float64 array is 7.5 MiB."""

    B, H = 128, 128

    def _step(self):
        rng = np.random.default_rng(5)
        params = init_params(ModelConfig(variant="bb_only", hidden=self.H), 0, zero_output=False)
        features, targets = rng.normal(size=(self.B, 30, 8)), rng.normal(size=(self.B, 60, 4))
        loss_and_gradients(params, FeatureStats.identity(), features[:2], None, targets[:2])  # untraced: BLAS setup
        return params, FeatureStats.identity(), features, None, targets

    def test_peak_holds_both_caches_and_one_output_gradient(self):
        # the decoder backward holds both GRU caches and the decoder's (60, B, H) output gradient, which it
        # reuses for its r * h products; the room left for step buffers and weight-sized temporaries is 3/4
        # of one more (60, B, H) array, so a separate (60, B, H) r * h array breaks the bound
        b, hd = self.B, self.H
        caches = 8 * b * hd * ((31 + 3 * 30) + (61 + 3 * 60))  # encoder and decoder (T+1, B, H) hs and gates
        output_gradient = 8 * 60 * b * hd
        _, peak = traced_peak(loss_and_gradients, *self._step())
        bound = caches + output_gradient + 0.75 * output_gradient
        assert peak < bound, (peak, bound)

    def test_encoder_backward_runs_below_the_decoder_backward(self, monkeypatch):
        # backward_batch drops the decoder's cache and output gradient before the encoder backward
        peaks = []

        def traced_gru_backward(*args):
            tracemalloc.reset_peak()
            result = gru_backward(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return result

        step = self._step()
        monkeypatch.setattr(model_module, "gru_backward", traced_gru_backward)
        traced_peak(loss_and_gradients, *step)
        decoder, encoder = peaks
        assert encoder < decoder, (encoder, decoder)


class TestEncodeDecode:
    """The step-by-step oracle, and the batched forward pass against it."""

    def test_bb_only_code_dim(self, cv_window):
        config = ModelConfig(variant="bb_only", hidden=16)
        model = Model(params=init_params(config, 0), stats=FeatureStats.identity())
        code = encode(cv_window, model)
        assert code.shape == (256,)
        batched = forward_batch(model.params, model.stats, box_features(cv_window)[None], None).dec_cache.x[0, 0]
        assert np.allclose(batched, code, atol=1e-12)

    def test_both_code_dim_is_sum(self, cv_window):
        config = ModelConfig(variant="both", hidden=16, flow_dim=2048)
        flow = synthetic_flow_feature(cv_window, 2048)
        model = Model(params=init_params(config, 0), stats=FeatureStats.identity())
        code = encode(cv_window, model, flow)
        assert code.shape == (256 + 2048,)
        batched = forward_batch(model.params, model.stats, box_features(cv_window)[None], flow[None]).dec_cache.x[0, 0]
        assert np.allclose(batched, code, atol=1e-12)

    def test_missing_flow_feature_raises(self, cv_window):
        config = ModelConfig(variant="of_only", hidden=16, flow_dim=32)
        model = Model(params=init_params(config, 0), stats=FeatureStats.identity())
        with pytest.raises(FlowFeatureError):
            forward_batch(model.params, model.stats, None, None)
        with pytest.raises(FlowFeatureError, match="of_only"):
            forecast_array(model, batch_of([cv_window]))

    def test_encode_deterministic(self, cv_window):
        config = ModelConfig(variant="bb_only", hidden=16)
        model = Model(params=init_params(config, 3), stats=FeatureStats.identity())
        a = encode(cv_window, model)
        b = encode(cv_window, model)
        assert np.array_equal(a, b)

    def test_decode_zero_output_layer_gives_zero_residuals(self, rng, cv_window):
        config = ModelConfig(variant="bb_only", hidden=16)
        params = init_params(config, 0)  # output layer zeros by default
        residuals = decode(rng.normal(size=256), params)
        assert residuals.shape == (60, 4)
        assert np.all(residuals == 0.0)
        cache = forward_batch(params, FeatureStats.identity(), box_features(cv_window)[None], None)
        assert np.all(cache.residuals == 0.0)

    def test_decode_deterministic_and_sized(self, rng):
        config = ModelConfig(variant="bb_only", hidden=16)
        params = init_params(config, 0, zero_output=False)
        code = rng.normal(size=256)
        a = decode(code, params)
        b = decode(code, params)
        assert a.shape == (60, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ("bb_only", "of_only", "both"))
    def test_forward_batch_matches_the_oracle(self, variant):
        tracks = synth_generate_mixed(("turning", "stop_and_go"), 2, 1.0, 5, n_frames=95)
        windows = [w for t in tracks for w in extract_windows(t, stride=20)]
        flow = np.stack([synthetic_flow_feature(w, 12) for w in windows])
        features = np.stack([box_features(w) for w in windows])
        config = ModelConfig(variant=variant, hidden=8, flow_dim=12)
        model = Model(params=init_params(config, 4, zero_output=False), stats=compute_feature_stats(features))
        cache = forward_batch(model.params, model.stats, features, flow)
        for i, window in enumerate(windows):
            code = encode(window, model, flow[i])
            assert np.allclose(cache.dec_cache.x[i, 0], code, atol=1e-12)
            assert np.allclose(cache.residuals[i], decode(code, model.params), atol=1e-12)


class TestResidualsToBoxes:
    def test_zero_residuals_equal_cv_cs(self, cv_window):
        forecast = residuals_to_boxes(cv_window, np.zeros((60, 4)))
        reference = cv_cs_forecast(cv_window)
        diff = boxes_to_array(forecast.boxes) - boxes_to_array(reference.boxes)
        assert np.max(np.abs(diff)) <= 1e-9

    def test_exact_inverse_construction(self, cv_window):
        from mofcast.baselines import cv_cs_batch

        gt = boxes_to_array(cv_window.future)
        residuals = gt - cv_cs_batch(cv_window.observed_array()[None])[0]
        forecast = residuals_to_boxes(cv_window, residuals)
        assert np.allclose(boxes_to_array(forecast.boxes), gt, atol=1e-12)

    def test_size_clamped_at_one_pixel(self, cv_window):
        residuals = np.zeros((60, 4))
        residuals[-1, 2] = -(cv_window.observed[-1].w - 0.5)
        forecast = residuals_to_boxes(cv_window, residuals)
        assert forecast.boxes[-1].w == 1.0


class TestUntrainedModelEqualsCvCs:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_forecasts_agree_exactly(self, seed):
        tracks = synth_generate_mixed(("turning", "stop_and_go"), 3, 1.0, seed, n_frames=95)
        windows = [w for t in tracks for w in extract_windows(t, stride=3)]
        features = np.stack([box_features(w) for w in windows])
        config = ModelConfig(variant="bb_only", hidden=16)
        model = Model(params=init_params(config, seed), stats=compute_feature_stats(features))
        forecasts = forecast_windows(model, batch_of(windows))
        for window, forecast in zip(windows, forecasts):
            reference = cv_cs_forecast(window)
            diff = boxes_to_array(forecast.boxes) - boxes_to_array(reference.boxes)
            assert np.max(np.abs(diff)) <= 1e-9


class TestForecastArray:
    def test_equals_per_window_residuals_to_boxes(self):
        tracks = synth_generate_mixed(("turning", "stop_and_go"), 2, 1.0, 3, n_frames=95)
        windows = [w for t in tracks for w in extract_windows(t, stride=2)]
        features = np.stack([box_features(w) for w in windows])
        config = ModelConfig(variant="bb_only", hidden=8)
        model = Model(params=init_params(config, 3, zero_output=False), stats=compute_feature_stats(features))
        batch = batch_of(windows)
        pred = forecast_array(model, batch, batch_size=7)
        assert pred.shape == (len(windows), 60, 4)
        residuals = np.concatenate(  # same 7-window forward passes as forecast_array
            [forward_batch(model.params, model.stats, features[lo : lo + 7], None).residuals
             for lo in range(0, len(windows), 7)]
        )
        for row, window, res in zip(pred, windows, residuals):
            assert np.array_equal(row, boxes_to_array(residuals_to_boxes(window, res).boxes))
        forecasts = forecast_windows(model, batch, batch_size=7)
        assert [f.source for f in forecasts] == [w.source for w in windows]
        assert all(np.array_equal(boxes_to_array(f.boxes), row) for f, row in zip(forecasts, pred))

    def test_flow_comes_from_the_batch(self):
        tracks = synth_generate_mixed(("turning", "stop_and_go"), 2, 1.0, 3, n_frames=95)
        batch = cut_windows(tracks, stride=9)
        flow = synthetic_flow_batch(batch.observed, 16)
        config = ModelConfig(variant="both", hidden=8, flow_dim=16)
        model = Model(params=init_params(config, 3, zero_output=False), stats=FeatureStats.identity())
        pred = forecast_array(model, dataclasses.replace(batch, flow=flow), batch_size=5)
        features = box_features_from_array(batch.observed)
        expected = cv_cs_batch(batch.observed) + forward_batch(model.params, model.stats, features, flow).residuals
        expected[..., 2:] = np.maximum(expected[..., 2:], 1.0)
        assert np.allclose(pred, expected, atol=1e-9)

    @pytest.mark.parametrize("batch_size", (0, -5))
    def test_batch_size_below_one_is_refused(self, cv_window, batch_size):
        model = Model(params=init_params(ModelConfig(hidden=8), 0))
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            forecast_array(model, batch_of([cv_window]), batch_size=batch_size)

    def test_empty_batch(self):
        model = Model(params=init_params(ModelConfig(hidden=8), 0))
        empty = cut_windows([linear_track(length=89)])
        assert forecast_array(model, empty).shape == (0, 60, 4)
        assert forecast_windows(model, empty) == []


class TestRectifierOff:
    """A model without the box-code rectifier, which only a checkpoint can now carry."""

    def model_and_batch(self, variant):
        batch = cut_windows(synth_generate_mixed(("turning", "stop_and_go"), 2, 1.0, 3, n_frames=95), stride=9)
        batch = dataclasses.replace(batch, flow=synthetic_flow_batch(batch.observed, 12))
        config = ModelConfig(variant=variant, hidden=8, flow_dim=12, fc_activation=False)
        stats = compute_feature_stats(box_features_from_array(batch.observed))
        return Model(params=init_params(config, 6, zero_output=False), stats=stats), batch

    @pytest.mark.parametrize("variant", ("bb_only", "both"))
    def test_forecast_array_matches_the_oracle(self, variant):
        model, batch = self.model_and_batch(variant)
        pred = forecast_array(model, batch, batch_size=5)
        features = box_features_from_array(batch.observed)
        expected = cv_cs_batch(batch.observed) + forward_residuals_batch_major(
            model.params, model.stats, features, batch.flow
        )
        expected[..., 2:] = np.maximum(expected[..., 2:], 1.0)
        assert np.allclose(pred, expected, atol=1e-9)
        rectified = Model(
            params=dataclasses.replace(model.params, config=ModelConfig(variant=variant, hidden=8, flow_dim=12)),
            stats=model.stats,
        )
        assert not np.allclose(pred, forecast_array(rectified, batch), atol=1e-6)  # the flag is read

    def test_checkpoint_keeps_flag_zero(self, tmp_path):
        model, batch = self.model_and_batch("both")
        path = tmp_path / "model.mofc"
        save_checkpoint(model, path)
        assert path.read_bytes()[9] == 0  # the rectifier flag byte
        loaded = load_checkpoint(path)
        assert loaded.config.fc_activation is False
        assert np.array_equal(forecast_array(loaded, batch), forecast_array(model, batch))

    @pytest.mark.parametrize("variant", ("bb_only", "both"))
    def test_gradients_match_finite_differences(self, variant):
        model, batch = self.model_and_batch(variant)
        arrays = assemble_arrays(batch, model.config)
        detailed = grad_check_detailed(model.params, model.stats, arrays, coords_per_group=8, seed=2)
        assert max(detailed.values()) < 1e-4


class TestSmoothL1:
    def test_zero_at_equality(self, rng):
        x = rng.normal(size=(60, 4))
        assert smooth_l1(x, x) == 0.0

    def test_quadratic_branch(self):
        pred = np.zeros((60, 4))
        target = np.zeros((60, 4))
        pred[0, 0] = 0.5
        assert smooth_l1(pred, target, beta=1.0) == pytest.approx((0.5 * 0.25) / 240)

    def test_linear_branch(self):
        pred = np.zeros((60, 4))
        target = np.zeros((60, 4))
        pred[0, 0] = 2.0
        assert smooth_l1(pred, target, beta=1.0) == pytest.approx(1.5 / 240)

    def test_continuous_and_differentiable_at_seam(self):
        target = np.zeros((1, 1))
        eps = 1e-9
        below = smooth_l1(np.array([[1.0 - eps]]), target, beta=1.0)
        above = smooth_l1(np.array([[1.0 + eps]]), target, beta=1.0)
        assert above - below == pytest.approx(2 * eps, rel=1e-3)
        g_below = smooth_l1_grad(np.array([[1.0 - eps]]), target, beta=1.0)
        g_above = smooth_l1_grad(np.array([[1.0 + eps]]), target, beta=1.0)
        assert g_below[0, 0] == pytest.approx(g_above[0, 0], abs=1e-6)

    def test_loss_non_negative(self, rng):
        pred, target = rng.normal(size=(8, 60, 4)), rng.normal(size=(8, 60, 4))
        assert smooth_l1(pred, target) >= 0.0

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            smooth_l1(np.zeros(3), np.zeros(3), beta=0.0)


class TestTranslationEquivariance:
    def test_pipeline_translates_with_recomputed_stats(self):
        tracks = synth_generate("turning", 2, 0.0, seed=4, n_frames=95)
        windows = [w for t in tracks for w in extract_windows(t, stride=6)]
        dx, dy = 210.0, -35.0

        def shift_window(w):
            return dataclasses.replace(
                w,
                observed=tuple(BBox(b.cx + dx, b.cy + dy, b.w, b.h) for b in w.observed),
                future=tuple(BBox(b.cx + dx, b.cy + dy, b.w, b.h) for b in w.future),
            )

        shifted = [shift_window(w) for w in windows]
        config = ModelConfig(variant="bb_only", hidden=16)
        params = init_params(config, 9, zero_output=False)

        stats = compute_feature_stats(np.stack([box_features(w) for w in windows]))
        stats_shifted = compute_feature_stats(np.stack([box_features(w) for w in shifted]))
        base = forecast_windows(Model(params=params, stats=stats), batch_of(windows))
        moved = forecast_windows(Model(params=params, stats=stats_shifted), batch_of(shifted))
        for f0, f1 in zip(base, moved):
            a, b = boxes_to_array(f0.boxes), boxes_to_array(f1.boxes)
            assert np.allclose(b[:, 0], a[:, 0] + dx, atol=1e-6)
            assert np.allclose(b[:, 1], a[:, 1] + dy, atol=1e-6)
            assert np.allclose(b[:, 2:], a[:, 2:], atol=1e-6)
