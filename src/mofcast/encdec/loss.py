"""Smooth L1 (Huber) loss on residual targets, in raw pixels.

Quadratic below ``beta``, linear above; continuous and once-differentiable
at the seam. The loss is the mean over every element of the batch, so
duplicating samples leaves both the loss and its gradients unchanged.
"""

from __future__ import annotations

import numpy as np

SMOOTH_L1_BETA = 1.0  # the seam, in pixels: the default of every loss call and of TrainConfig.beta


def smooth_l1(pred: np.ndarray, target: np.ndarray, beta: float = SMOOTH_L1_BETA) -> float:
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    d = np.abs(np.asarray(pred) - np.asarray(target))
    vals = np.where(d < beta, 0.5 * d * d / beta, d - 0.5 * beta)
    return float(vals.mean())


def smooth_l1_grad(pred: np.ndarray, target: np.ndarray, beta: float = SMOOTH_L1_BETA) -> np.ndarray:
    """d(loss)/d(pred), including the 1/N of the elementwise mean."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    d = np.asarray(pred) - np.asarray(target)
    g = np.where(np.abs(d) < beta, d / beta, np.sign(d))
    return g / d.size
