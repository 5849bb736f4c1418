"""Central finite-difference verification of the analytic gradients.

For each parameter tensor, perturb a random sample of coordinates by
+/- epsilon, difference the loss, and compare against the backpropagated
gradient.

A double-precision central difference carries irreducible rounding noise of
about ``2 * eps64 * |loss| / epsilon`` (~1e-10 here); gradient coordinates
smaller than that noise divided by the resolution target cannot be certified
relatively. The relative-error denominator is therefore floored at
``noise / resolution``, which keeps the check honest: a systematic backprop
bug perturbs coordinates well above the floor and still reads as O(1) error,
while oracle noise on near-zero coordinates stays below the resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureStats
from .loss import smooth_l1
from .model import ModelParams, forward_batch, loss_and_gradients

DEFAULT_RESOLUTION = 1e-4


@dataclass(frozen=True)
class GradSample:
    """One batch to differentiate through: raw features, flow, residual targets."""

    features: np.ndarray | None
    flow: np.ndarray | None
    targets: np.ndarray


def grad_check_detailed(
    params: ModelParams,
    stats: FeatureStats,
    sample: GradSample,
    epsilon: float = 1e-5,
    coords_per_group: int = 50,
    seed: int = 0,
    beta: float = 1.0,
    resolution: float = DEFAULT_RESOLUTION,
) -> dict[str, float]:
    """Max relative error per parameter group."""
    rng = np.random.default_rng(seed)
    loss0, analytic = loss_and_gradients(
        params, stats, sample.features, sample.flow, sample.targets, beta=beta
    )
    fd_noise = 2.0 * np.finfo(np.float64).eps * max(1.0, abs(loss0)) / epsilon
    denom_floor = fd_noise / resolution

    def loss_now() -> float:
        cache = forward_batch(params, stats, sample.features, sample.flow, horizon=sample.targets.shape[1])
        return smooth_l1(cache.residuals, sample.targets, beta)

    errors: dict[str, float] = {}
    for name, tensor in params.tensors().items():
        n_coords = min(coords_per_group, tensor.size)
        coords = rng.choice(tensor.size, size=n_coords, replace=False)
        worst = 0.0
        for c in coords:
            original = tensor.flat[c]
            tensor.flat[c] = original + epsilon
            up = loss_now()
            tensor.flat[c] = original - epsilon
            down = loss_now()
            tensor.flat[c] = original
            numeric = (up - down) / (2.0 * epsilon)
            a = analytic[name].flat[c]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), denom_floor)
            worst = max(worst, rel)
        errors[name] = worst
    return errors

