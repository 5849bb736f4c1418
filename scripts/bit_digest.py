"""Print the sha256 of a fixed set of training bits, one line each, and the BLAS thread count.

Usage: python scripts/bit_digest.py

Run it at two commits and diff the two outputs: a change that keeps the
bits of the loss, every gradient and a short training run prints the same
lines. The paper-size (H=512) lines hold only at one BLAS thread count
(OpenBLAS picks its kernels and their split by thread count), so the first
line states it and the outputs of two runs compare only when it matches.

- ``grads <variant> H=<hidden> B=<batch>``: the loss and every gradient of
  one ``loss_and_gradients`` call on seeded random features, flow and
  targets, with the output layer drawn (``zero_output=False``) so that every
  gradient is nonzero.
- ``forecast <variant> H=<hidden> B=<windows>``: one ``forecast_array``
  call at its default chunk size on the first windows of seeded synthetic
  tracks, with the output layer drawn: the residuals of every forward pass
  it makes, in order, then the forecasts. The residuals are hashed on their
  own because adding them to the CV-CS boxes, hundreds of pixels, rounds
  their last bits away. B=513 runs a full chunk and a one-window tail.
- ``train bb_only H=512``: the stats and weights of a 2-epoch ``train`` on
  synthetic tracks (fold 0, stride 5, batch 48), and its log rows.

Not part of tier-1: it takes a few seconds.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from mofcast.data import (  # noqa: E402
    KINDS,
    WindowBatch,
    cut_windows,
    default_synth_split_config,
    make_splits,
    synth_generate_mixed,
)
from mofcast.encdec import (  # noqa: E402
    Model,
    ModelConfig,
    TrainConfig,
    compute_feature_stats,
    forecast_array,
    init_params,
    loss_and_gradients,
    train,
)
from mofcast.encdec import model as model_module  # noqa: E402
from mofcast.encdec.features import FeatureStats, box_features_from_array  # noqa: E402
from run import _blas_threads  # noqa: E402

FLOW_DIM = 64
GRADS = [("bb_only", 512, 48), ("bb_only", 512, 1), ("both", 64, 32), ("of_only", 16, 7), ("bb_only", 8, 5)]
FORECASTS = [("bb_only", 512, 1), ("bb_only", 512, 2), ("bb_only", 512, 96), ("bb_only", 512, 513),
             ("both", 64, 96), ("both", 64, 513)]


def _hash_floats(digest, *values: float) -> None:
    digest.update(struct.pack(f"<{len(values)}d", *values))


def grads_digest(variant: str, hidden: int, batch: int) -> str:
    config = ModelConfig(variant=variant, hidden=hidden, flow_dim=FLOW_DIM)
    rng = np.random.default_rng(hidden * 1000 + batch)
    params = init_params(config, rng, zero_output=False)
    features = rng.normal(size=(batch, 30, 8)) if config.uses_boxes else None
    flow = rng.normal(size=(batch, FLOW_DIM)) if config.uses_flow else None
    targets = rng.normal(scale=5.0, size=(batch, 60, 4))
    stats = compute_feature_stats(features) if config.uses_boxes else FeatureStats.identity()
    loss, grads = loss_and_gradients(params, stats, features, flow, targets)
    digest = hashlib.sha256()
    _hash_floats(digest, loss)
    for name in sorted(grads):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(grads[name]))
    return digest.hexdigest()


def forecast_digest(variant: str, hidden: int, windows: int) -> str:
    config = ModelConfig(variant=variant, hidden=hidden, flow_dim=FLOW_DIM)
    rng = np.random.default_rng(hidden * 1000 + windows)
    full = cut_windows(synth_generate_mixed(KINDS, 3, 1.0, seed=5, n_frames=150))
    tracks = full.tracks[: full.track_index[windows - 1] + 1]
    flow = rng.normal(size=(windows, FLOW_DIM)) if config.uses_flow else None
    batch = WindowBatch(full.observed[:windows], full.future[:windows], tracks, full.track_index[:windows],
                        full.anchor_frame[:windows], flow)
    stats = compute_feature_stats(box_features_from_array(full.observed))
    model = Model(init_params(config, rng, zero_output=False), stats)
    forward_batch, residuals = model_module.forward_batch, []

    def recording(*args, **kwargs):
        cache = forward_batch(*args, **kwargs)
        residuals.append(cache.residuals)
        return cache

    model_module.forward_batch = recording
    try:
        forecasts = forecast_array(model, batch)
    finally:
        model_module.forward_batch = forward_batch
    digest = hashlib.sha256()
    for array in (*residuals, forecasts):
        digest.update(np.ascontiguousarray(array))
    return f"{digest.hexdigest()}  forecast {variant} H={hidden} B={windows}: {len(residuals)} forward pass(es)"


def train_digest() -> tuple[str, str]:
    split = make_splits(synth_generate_mixed(KINDS, 4, 1.0, seed=7), default_synth_split_config(), fold=0)
    train_batch = cut_windows(split.train, stride=5)
    val_batch = cut_windows((*split.val, *split.test), stride=5)
    result = train(train_batch, val_batch, TrainConfig(hidden=512, epochs=2, batch_size=48, seed=3))
    weights = hashlib.sha256()
    weights.update(np.ascontiguousarray(result.model.stats.mean))
    weights.update(np.ascontiguousarray(result.model.stats.std))
    for name, tensor in result.model.params.tensors().items():
        weights.update(name.encode("utf-8"))
        weights.update(np.ascontiguousarray(tensor))
    log = hashlib.sha256()
    for row in result.log.rows():
        _hash_floats(log, *map(float, row))
    _hash_floats(log, result.log.best_epoch)
    label = f"train bb_only H=512 B=48: {len(train_batch)} train / {len(val_batch)} val windows, 2 epochs"
    return f"{weights.hexdigest()}  {label}, weights", f"{log.hexdigest()}  {label}, log"


def main() -> None:
    threads = _blas_threads(Path(np.__file__).parent.parent / "numpy.libs")
    print(f"blas_threads {threads} (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})")
    for variant, hidden, batch in GRADS:
        print(f"{grads_digest(variant, hidden, batch)}  grads {variant} H={hidden} B={batch}")
    for variant, hidden, windows in FORECASTS:
        print(forecast_digest(variant, hidden, windows))
    for line in train_digest():
        print(line)


if __name__ == "__main__":
    if len(sys.argv) != 1:
        raise SystemExit(__doc__)
    main()
