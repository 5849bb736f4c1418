"""Binary checkpoint format (version 1).

Layout, all little-endian:

    bytes 0-3    magic "MOFC"
    uint32       format version (1)
    uint8        variant: 0 = bb_only, 1 = of_only, 2 = both
    uint8        box-code rectifier flag: always 1 (the box code is always
                 rectified); any other value, 0 too, is refused
    uint32 x 5   dims: input (8), hidden, box code (256), flow, output (4)
    float64 x 8  standardization means
    float64 x 8  standardization stds
    tensors      raw float64, row-major, in the fixed order below

Tensor order: the table of :func:`mofcast.encdec.model.tensor_shapes`, which
names each tensor and gives its shape. Loading a checkpoint restores every
tensor bit-exactly.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from .features import FEATURE_DIM, FeatureStats
from .model import BOX_CODE_DIM, OUTPUT_DIM, Model, ModelConfig, ModelParams, tensor_shapes

MAGIC = b"MOFC"
VERSION = 1

_VARIANT_TAGS = {"bb_only": 0, "of_only": 1, "both": 2}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}

_HEADER = struct.Struct("<4sIBB5I")


def save_checkpoint(model: Model, path: str | Path) -> None:
    config = model.config
    header = _HEADER.pack(MAGIC, VERSION, _VARIANT_TAGS[config.variant], 1,  # 1: the rectifier flag
                          FEATURE_DIM, config.hidden, BOX_CODE_DIM, config.flow_dim, OUTPUT_DIM)
    tensors = model.params.tensors()
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.stats.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.stats.std, dtype="<f8").tobytes())
        for name, shape in tensor_shapes(config).items():
            tensor = tensors[name]
            if tensor.shape != shape:
                raise CheckpointError(f"tensor {name} has shape {tensor.shape}, expected {shape}")
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def _header_config(path: str | Path, header: bytes) -> ModelConfig:
    """The model configuration a checkpoint header describes, every field checked."""
    if len(header) < _HEADER.size or header[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    _, version, variant_tag, fc_flag, input_dim, hidden, box_code_size, flow_dim, output_dim = _HEADER.unpack(header)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if variant_tag not in _TAG_VARIANTS:
        raise CheckpointError(f"{path}: unknown variant tag {variant_tag}")
    if fc_flag != 1:
        raise CheckpointError(f"{path}: rectifier flag {fc_flag}, expected 1")
    if (input_dim, box_code_size, output_dim) != (FEATURE_DIM, BOX_CODE_DIM, OUTPUT_DIM):
        raise CheckpointError(
            f"{path}: dimension inconsistency (input {input_dim}, box code {box_code_size}, output {output_dim})"
        )
    if hidden < 1 or flow_dim < 1:
        raise CheckpointError(f"{path}: dimension inconsistency (non-positive dim)")
    return ModelConfig(variant=_TAG_VARIANTS[variant_tag], hidden=hidden, flow_dim=flow_dim)  # type: ignore[arg-type]


def load_checkpoint(path: str | Path) -> Model:
    """Read a checkpoint; every tensor is read straight from the file into its own array.

    The loaded model is frozen: every tensor, and its base array, is
    read-only, so an in-place update (an item write, an Adam step) raises
    at the write. ``model.params.copy()`` gives writable tensors to train.

    The file size is checked against the size the header's dims imply
    before any tensor is read or allocated. Every stat and tensor must be
    finite: the first that is not is refused by name (``stats.std``,
    ``decoder.u_h``), so a damaged model is never scored. Each tensor gets
    its own array rather than a view into one buffer: the data starts at
    byte 158, which is not 8-aligned, and BLAS wants aligned float64
    operands.
    """
    with Path(path).open("rb") as fh:
        config = _header_config(path, fh.read(_HEADER.size))
        table = tensor_shapes(config)
        expected = _HEADER.size + 8 * (2 * FEATURE_DIM + sum(math.prod(shape) for shape in table.values()))
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise CheckpointError(f"{path}: truncated file")
        if size > expected:
            raise CheckpointError(f"{path}: {size - expected} unexpected trailing bytes")

        def take(name: str, shape: tuple[int, ...]) -> np.ndarray:
            count = math.prod(shape)
            arr = np.fromfile(fh, dtype="<f8", count=count)
            if arr.size != count:  # the file shrank after the size check
                raise CheckpointError(f"{path}: truncated file")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: {name} holds a non-finite value")
            arr.setflags(write=False)  # before the reshape, so no writable alias exists
            return arr.reshape(shape)

        mean = take("stats.mean", (FEATURE_DIM,))
        std = take("stats.std", (FEATURE_DIM,))
        tensors = {name: take(name, shape) for name, shape in table.items()}
    return Model(params=ModelParams(config, tensors), stats=FeatureStats(mean=mean, std=std))
