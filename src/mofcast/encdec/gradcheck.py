"""Central finite-difference verification of the analytic gradients.

For each parameter tensor, perturb a random sample of coordinates by
+/- epsilon, difference the loss, and compare against the backpropagated
gradient.

The loss is smooth-L1 with its default 1 px seam. A double-precision
central difference carries irreducible rounding noise of about
``2 * eps64 * |loss| / epsilon`` (~1e-10 here); gradient coordinates
smaller than that noise divided by the resolution target (1e-4) cannot be
certified relatively. The relative-error denominator is therefore floored at
``noise / resolution``, which keeps the check honest: a systematic backprop
bug perturbs coordinates well above the floor and still reads as O(1) error,
while oracle noise on near-zero coordinates stays below the resolution.
"""

from __future__ import annotations

import numpy as np

from .features import FeatureStats
from .loss import smooth_l1
from .model import ModelParams, forward_batch, loss_and_gradients
from .training import WindowArrays

RESOLUTION = 1e-4
EPSILON = 1e-5  # finite-difference step
COORDS_PER_GROUP = 50  # coordinates sampled per parameter tensor


def grad_check_detailed(
    params: ModelParams,
    stats: FeatureStats,
    arrays: WindowArrays,
    epsilon: float = EPSILON,
    coords_per_group: int = COORDS_PER_GROUP,
    seed: int = 0,
) -> dict[str, float]:
    """Max relative error per parameter group, differentiating the loss of ``arrays``' residual targets."""
    rng = np.random.default_rng(seed)
    features, flow, targets = arrays.features, arrays.flow, arrays.targets
    loss0, analytic = loss_and_gradients(params, stats, features, flow, targets)
    fd_noise = 2.0 * np.finfo(np.float64).eps * max(1.0, abs(loss0)) / epsilon
    denom_floor = fd_noise / RESOLUTION

    def loss_now() -> float:
        return smooth_l1(forward_batch(params, stats, features, flow, for_backward=False).residuals, targets)

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

