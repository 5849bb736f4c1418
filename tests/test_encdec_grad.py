"""Gradient correctness against a test-local finite-difference oracle.

The oracle below re-derives every gradient from loss evaluations alone and
never touches the package's backward pass, so a bug in backpropagation
cannot hide in both places.
"""

import dataclasses

import numpy as np
import pytest

from mofcast.data import cut_windows, synth_generate_mixed
from mofcast.encdec import (
    FeatureStats,
    ModelConfig,
    assemble_arrays,
    compute_feature_stats,
    grad_check_detailed,
    init_params,
    loss_and_gradients,
    smooth_l1,
    synthetic_flow_batch,
)
from mofcast.encdec.model import forward_batch
from mofcast.errors import GradientError

from conftest import batch_of

EPS = 1e-5


def build_sample(variant: str, flow_dim: int, seed: int, n_tracks: int = 2):
    config = ModelConfig(variant=variant, hidden=12, flow_dim=flow_dim)
    tracks = synth_generate_mixed(("turning", "accelerating"), n_tracks, 1.0, seed, n_frames=91)
    batch = cut_windows(tracks)
    if config.uses_flow:
        batch = dataclasses.replace(batch, flow=synthetic_flow_batch(batch.observed, flow_dim))
    arrays = assemble_arrays(batch, config)
    stats = compute_feature_stats(arrays.features) if config.uses_boxes else FeatureStats.identity()
    params = init_params(config, seed, zero_output=False)
    return config, params, stats, arrays


def grad_check(params, stats, sample, **kwargs) -> float:
    """Max relative error of ``grad_check_detailed`` over all parameter groups."""
    return max(grad_check_detailed(params, stats, sample, **kwargs).values())


def numeric_gradient(params, stats, sample, name, idx):
    tensor = params.tensors()[name]
    original = tensor.flat[idx]

    def loss_at(value):
        tensor.flat[idx] = value
        cache = forward_batch(params, stats, sample.features, sample.flow)
        return smooth_l1(cache.residuals, sample.targets)

    up = loss_at(original + EPS)
    down = loss_at(original - EPS)
    tensor.flat[idx] = original
    return (up - down) / (2 * EPS)


@pytest.mark.parametrize("variant,flow_dim", [("bb_only", 8), ("of_only", 8), ("both", 8)])
def test_backward_matches_finite_differences(variant, flow_dim):
    config, params, stats, sample = build_sample(variant, flow_dim, seed=3)
    loss, analytic = loss_and_gradients(params, stats, sample.features, sample.flow, sample.targets)
    assert np.isfinite(loss)
    fd_noise = 2.0 * np.finfo(np.float64).eps * max(1.0, abs(loss)) / EPS
    floor = fd_noise / 1e-4
    rng = np.random.default_rng(0)
    for name, grad in analytic.items():
        for idx in rng.choice(grad.size, size=min(8, grad.size), replace=False):
            numeric = numeric_gradient(params, stats, sample, name, idx)
            a = grad.flat[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            assert rel < 1e-4, f"{name}[{idx}]: analytic {a} vs numeric {numeric}"


def test_gradient_zero_at_loss_minimum(cv_window):
    # zero output layer and zero targets: the model already sits at the optimum
    config = ModelConfig(variant="bb_only", hidden=12)
    params = init_params(config, 0)  # zero output layer
    arrays = assemble_arrays(batch_of([cv_window]), config)
    stats = compute_feature_stats(arrays.features)
    targets = np.zeros_like(arrays.targets)
    loss, grads = loss_and_gradients(params, stats, arrays.features, None, targets)
    assert loss == 0.0
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_duplicating_the_batch_leaves_gradients_unchanged():
    config, params, stats, sample = build_sample("bb_only", 8, seed=5)
    _, single = loss_and_gradients(params, stats, sample.features, sample.flow, sample.targets)
    features = np.concatenate([sample.features, sample.features])
    targets = np.concatenate([sample.targets, sample.targets])
    _, twice = loss_and_gradients(params, stats, features, None, targets)
    for name in single:
        assert np.allclose(single[name], twice[name], atol=1e-12), name


def test_non_finite_gradient_is_reported_with_group():
    config, params, stats, sample = build_sample("bb_only", 8, seed=7)
    params.tensors()["out.w"][0, 0] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf inside backward is the point
        with pytest.raises(GradientError) as excinfo:
            loss_and_gradients(params, stats, sample.features, sample.flow, sample.targets)
    assert excinfo.value.group


class TestPackagedGradCheck:
    def test_reports_small_error_for_correct_gradients(self):
        config, params, stats, sample = build_sample("bb_only", 8, seed=1)
        err = grad_check(params, stats, sample, epsilon=EPS, coords_per_group=10, seed=1)
        assert err < 1e-4

    def test_covers_every_parameter_group(self):
        config, params, stats, sample = build_sample("both", 8, seed=2)
        detailed = grad_check_detailed(params, stats, sample, coords_per_group=5, seed=2)
        assert set(detailed) == set(params.tensors())

    def test_larger_epsilon_degrades_accuracy(self):
        # documented diagnostic behaviour: truncation error grows with epsilon
        config, params, stats, sample = build_sample("bb_only", 8, seed=4)
        fine = grad_check(params, stats, sample, epsilon=1e-5, coords_per_group=12, seed=4)
        coarse = grad_check(params, stats, sample, epsilon=1e-1, coords_per_group=12, seed=4)
        assert coarse > fine

    def test_deterministic_given_inputs(self):
        config, params, stats, sample = build_sample("bb_only", 8, seed=6)
        a = grad_check(params, stats, sample, coords_per_group=6, seed=9)
        b = grad_check(params, stats, sample, coords_per_group=6, seed=9)
        assert a == b

    def test_catches_an_injected_gradient_bug(self, monkeypatch):
        import mofcast.encdec.gradcheck as gradcheck_module

        config, params, stats, sample = build_sample("bb_only", 8, seed=8)
        real = loss_and_gradients

        def corrupted(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            grads["decoder.u_h"] = grads["decoder.u_h"] * 1.05
            return loss, grads

        monkeypatch.setattr(gradcheck_module, "loss_and_gradients", corrupted)
        detailed = grad_check_detailed(params, stats, sample, coords_per_group=30, seed=8)
        assert detailed["decoder.u_h"] > 1e-3
