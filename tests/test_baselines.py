import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from mofcast.baselines import (
    KalmanParams,
    cv_cs_batch,
    cv_cs_extrapolate,
    cv_cs_forecast,
    cv_velocity,
    default_param_grid,
    lkf_batch,
    lkf_forecast_window,
    lkf_operator,
    lkf_tune,
    load_param_grid,
    save_param_grid,
)
from mofcast.core import BBox, ObservationWindow, WindowSource, boxes_to_array
from mofcast.data import cut_windows, extract_windows, synth_generate
from mofcast.metrics import aggregate, evaluate_batch, evaluate_window

import metrics_oracle
from conftest import batch_of, linear_track, window_of
from lkf_oracle import KalmanState, lkf_filter, lkf_forecast, lkf_roll_out


def make_window(observed_boxes, future_boxes):
    return ObservationWindow(
        source=WindowSource("v", 0, len(observed_boxes) - 1),
        observed=tuple(observed_boxes),
        future=tuple(future_boxes),
    )


class TestCvCs:
    def test_closed_form_linear_extrapolation(self):
        # cx over the last five observed frames: 10,11,12,13,14
        observed = [BBox(10.0 + j, 5.0, 4.0, 8.0) for j in range(30)]
        future = [BBox(0, 0, 1, 1)] * 60  # unused by the forecaster
        # shift so the last five observed frames have cx 10..14
        observed = [BBox(b.cx - 25.0, b.cy, b.w, b.h) for b in observed]
        window = make_window(observed, future)
        forecast = cv_cs_forecast(window)
        for k, box in enumerate(forecast.boxes, start=1):
            assert box.cx == pytest.approx(14.0 + k, abs=1e-12)
            assert box.cy == 5.0
            assert (box.w, box.h) == (4.0, 8.0)
        assert forecast.boxes[-1].cx == pytest.approx(74.0, abs=1e-12)

    def test_stationary_object(self):
        observed = [BBox(7.0, 9.0, 3.0, 5.0)] * 30
        window = make_window(observed, [BBox(7.0, 9.0, 3.0, 5.0)] * 60)
        forecast = cv_cs_forecast(window)
        assert all(b == BBox(7.0, 9.0, 3.0, 5.0) for b in forecast.boxes)

    def test_underestimates_accelerating_motion(self):
        # cx(t) = 0.05 * t^2: strictly accelerating; the 5-frame velocity lags
        observed = [BBox(0.05 * t * t + 1.0, 5.0, 4.0, 8.0) for t in range(30)]
        future = [BBox(0.05 * t * t + 1.0, 5.0, 4.0, 8.0) for t in range(30, 90)]
        forecast = cv_cs_forecast(make_window(observed, future))
        for pred, gt in zip(forecast.boxes, future):
            assert pred.cx < gt.cx

    def test_translation_equivariance(self, cv_window):
        base = boxes_to_array(cv_cs_forecast(cv_window).boxes)
        dx, dy = 37.5, -12.25
        shifted = make_window(
            [BBox(b.cx + dx, b.cy + dy, b.w, b.h) for b in cv_window.observed],
            [BBox(b.cx + dx, b.cy + dy, b.w, b.h) for b in cv_window.future],
        )
        moved = boxes_to_array(cv_cs_forecast(shifted).boxes)
        assert np.allclose(moved[:, 0], base[:, 0] + dx, atol=1e-9)
        assert np.allclose(moved[:, 1], base[:, 1] + dy, atol=1e-9)
        assert np.array_equal(moved[:, 2:], base[:, 2:])

    def test_zero_ade_on_noiseless_constant_velocity(self):
        tracks = synth_generate("constant_velocity", 5, 0.0, seed=11)
        scores = [
            evaluate_window(cv_cs_forecast(window), window.future)
            for track in tracks
            for window in extract_windows(track)
        ]
        assert metrics_oracle.aggregate(metrics_oracle.rows_of(*scores)).ade <= 1e-9

    def test_velocity_definition(self, cv_window):
        # linear_track vx=1, vy=0.5 -> per-frame velocity (1, 0.5)
        v = cv_velocity(cv_window.observed_array())
        assert v == pytest.approx([1.0, 0.5], abs=1e-12)


class TestKalmanParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            KalmanParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            KalmanParams(1.0, 1.0, -1.0)

    def test_file_round_trip(self, tmp_path):
        params = KalmanParams(1e-2, 1e-4, 0.1, 50.0)
        path = tmp_path / "params.json"
        params.to_file(path)
        assert KalmanParams.from_file(path) == params

    def test_grid_file_round_trip(self, tmp_path):
        grid = default_param_grid()
        assert len(grid) == 27
        path = tmp_path / "grid.json"
        save_param_grid(grid, path)
        assert load_param_grid(path) == grid


class TestLkfFilter:
    params = KalmanParams(
        process_noise_pos=1e-4, process_noise_vel=1e-4, observation_noise=1e-2
    )

    def test_recovers_constant_velocity(self):
        window = window_of(linear_track(vx=2.0, vy=-1.0, length=90))
        state = lkf_filter(window, self.params)
        assert state.mean[4] == pytest.approx(2.0, abs=1e-3)
        assert state.mean[5] == pytest.approx(-1.0, abs=1e-3)
        assert state.mean[6] == pytest.approx(0.0, abs=1e-3)
        assert state.mean[7] == pytest.approx(0.0, abs=1e-3)

    def test_stationary_observations(self):
        observed = [BBox(50.0, 60.0, 10.0, 20.0)] * 30
        window = make_window(observed, [observed[0]] * 60)
        state = lkf_filter(window, self.params)
        assert np.allclose(state.mean[:4], [50.0, 60.0, 10.0, 20.0], atol=1e-6)
        assert np.all(np.abs(state.mean[4:]) < 1e-6)

    def test_covariance_symmetric_psd(self):
        window = window_of(linear_track(vx=1.5, length=90))
        state = lkf_filter(window, self.params)
        p = state.covariance
        assert np.allclose(p, p.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-12

    def test_tiny_observation_noise_reproduces_last_observation(self):
        window = window_of(linear_track(vx=0.7, vy=0.3, length=90))
        params = KalmanParams(1e-2, 1e-2, 1e-12, 100.0)
        state = lkf_filter(window, params)
        last = window.observed_array()[-1]
        assert np.allclose(state.mean[:4], last, rtol=1e-6)


class TestLkfForecast:
    def test_linear_roll_out(self):
        mean = np.array([10.0, 20.0, 5.0, 9.0, 1.0, 0.0, 0.0, 0.0])
        state = KalmanState(mean=mean, covariance=np.eye(8), source=WindowSource("v", 0, 29))
        forecast = lkf_forecast(state)
        assert forecast.boxes[-1].cx == pytest.approx(10.0 + 60.0)
        assert forecast.boxes[0].cx == pytest.approx(11.0)

    def test_zero_velocity_posterior(self):
        mean = np.array([10.0, 20.0, 5.0, 9.0, 0.0, 0.0, 0.0, 0.0])
        state = KalmanState(mean=mean, covariance=np.eye(8), source=WindowSource("v", 0, 29))
        forecast = lkf_forecast(state)
        assert len(set(forecast.boxes)) == 1

    def test_negative_size_velocity_clamped(self):
        mean = np.array([10.0, 20.0, 5.0, 9.0, 0.0, 0.0, -1.0, -2.0])
        state = KalmanState(mean=mean, covariance=np.eye(8), source=WindowSource("v", 0, 29))
        forecast = lkf_forecast(state)
        assert forecast.boxes[-1].w == 1.0
        assert forecast.boxes[-1].h == 1.0


class TestLkfTune:
    def windows(self):
        return cut_windows(synth_generate("constant_velocity", 3, 2.0, seed=5), stride=10)

    def test_single_element_grid(self):
        grid = [KalmanParams(1e-2, 1e-2, 1.0)]
        assert lkf_tune(self.windows(), grid).params == grid[0]

    def test_argmin_selection(self):
        windows = self.windows()
        grid = default_param_grid()
        result = lkf_tune(windows, grid)
        best_ade = min(ade for _, ade in result.table)
        chosen_ade = dict((p, a) for p, a in result.table)[result.params]
        assert chosen_ade == best_ade
        assert len(result.table) == len(grid)

    def test_tie_breaks_to_earlier_entry(self):
        windows = self.windows()
        p = KalmanParams(1e-2, 1e-2, 1.0)
        duplicate = KalmanParams(1e-2, 1e-2, 1.0, 100.0)  # identical values
        result = lkf_tune(windows, [p, duplicate])
        assert result.params is p

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            lkf_tune(cut_windows([]), default_param_grid())
        with pytest.raises(ValueError):
            lkf_tune(self.windows(), [])


def test_tuned_lkf_beats_cv_on_noisy_constant_velocity():
    tracks = synth_generate("constant_velocity", 24, 2.0, seed=13)
    val = cut_windows(tracks[0::2], stride=15)
    test = cut_windows(tracks[1::2], stride=15)
    tuned = lkf_tune(val, default_param_grid())
    lkf_report = aggregate(evaluate_batch(lkf_batch(test.observed, tuned.params), test))
    cv_report = aggregate(evaluate_batch(cv_cs_batch(test.observed), test))
    assert lkf_report.ade <= cv_report.ade


def _random_windows(seed: int, n: int = 4, p: int = 30, q: int = 60) -> list[ObservationWindow]:
    """Noisy linear motion; every size shrinks, window 0 fast enough that its forecast hits the 1-px clamp."""
    rng = np.random.default_rng(seed)
    windows = []
    t = np.arange(p + q, dtype=np.float64)
    for i in range(n):
        w0, h0 = rng.uniform(5.0, 100.0), rng.uniform(10.0, 200.0)
        shrink = 0.9 if i == 0 else rng.uniform(0.0, 0.9)
        rows = np.stack(
            [
                rng.uniform(200.0, 1000.0) + rng.uniform(-2.0, 2.0) * t,
                rng.uniform(200.0, 800.0) + rng.uniform(-2.0, 2.0) * t,
                w0 - shrink * (w0 - 1.0) / p * t,
                h0 - shrink * (h0 - 1.0) / p * t,
            ],
            axis=1,
        )
        rows[:, :2] += rng.normal(0.0, rng.uniform(0.0, 2.0), (p + q, 2))
        rows[:, 2:] = np.maximum(rows[:, 2:], 0.5)  # the truth stays a valid box
        boxes = [BBox(*r) for r in rows]
        windows.append(make_window(boxes[:p], boxes[p:]))
    return windows


class TestBatchedBaselines:
    def test_cv_cs_batch_equals_per_window_extrapolation(self):
        tracks = synth_generate("accelerating", 3, 1.5, seed=2)
        windows = [w for t in tracks for w in extract_windows(t, stride=4)]
        pred = cv_cs_batch(batch_of(windows).observed)
        for row, w in zip(pred, windows):
            assert np.array_equal(row, cv_cs_extrapolate(w))
            assert np.array_equal(row, boxes_to_array(cv_cs_forecast(w).boxes))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_lkf_batch_matches_the_filter_loop_on_every_stock_grid_point(self, seed):
        windows = _random_windows(seed)
        observed = batch_of(windows).observed
        for params in default_param_grid():
            want = np.stack([lkf_roll_out(lkf_filter(w, params)) for w in windows])
            assert np.any(want[0, :, 2:] == 1.0)  # the size clamp is exercised
            np.testing.assert_allclose(lkf_batch(observed, params), want, rtol=1e-9, atol=0.0)

    def test_single_window_forecast_matches_the_loop(self, cv_window):
        params = KalmanParams(1e-2, 1e-4, 1.0)
        got = boxes_to_array(lkf_forecast_window(cv_window, params).boxes)
        want = boxes_to_array(lkf_forecast(lkf_filter(cv_window, params)).boxes)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_operator_is_cached_and_read_only(self):
        params = KalmanParams(1e-2, 1e-2, 1.0)
        op = lkf_operator(params)
        assert op.shape == (60, 30)
        assert lkf_operator(KalmanParams(1e-2, 1e-2, 1.0)) is op
        assert not op.flags.writeable
        # a constant input stays constant: every forecast row's weights sum to 1
        np.testing.assert_allclose(op.sum(axis=1), 1.0, rtol=1e-12)

    def test_tune_table_matches_the_filter_loop(self):
        windows = _random_windows(7, n=6)
        val = batch_of(windows)
        result = lkf_tune(val, default_param_grid())
        want = [
            metrics_oracle.aggregate(
                metrics_oracle.rows_of(*(evaluate_window(lkf_forecast(lkf_filter(w, p)), w.future) for w in windows))
            ).ade
            for p in default_param_grid()
        ]
        np.testing.assert_allclose([ade for _, ade in result.table], want, rtol=1e-9)
        assert result.params == default_param_grid()[int(np.argmin(want))]
