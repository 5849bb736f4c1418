"""Binary checkpoint format (version 1).

Layout, all little-endian:

    bytes 0-3    magic "MOFC"
    uint32       format version (1)
    uint8        variant: 0 = bb_only, 1 = of_only, 2 = both
    uint8        box-code rectifier flag: 0 = off, 1 = on
    uint32 x 5   dims: input (8), hidden, box code (256), flow, output (4)
    float64 x 8  standardization means
    float64 x 8  standardization stds
    tensors      raw float64, row-major, in the fixed order below

Tensor order: encoder w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h; fc1 w, b
(both blocks only for variants that use boxes); decoder (same nine); out w, b.
Loading a checkpoint restores every tensor bit-exactly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from .features import FEATURE_DIM, FeatureStats
from .gru import GRUParams
from .model import BOX_CODE_DIM, OUTPUT_DIM, Model, ModelConfig, ModelParams

MAGIC = b"MOFC"
VERSION = 1

_VARIANT_TAGS = {"bb_only": 0, "of_only": 1, "both": 2}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}

_HEADER = struct.Struct("<4sIBB5I")


def _tensor_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    h = config.hidden
    shapes: list[tuple[str, tuple[int, ...]]] = []

    def gru_block(prefix: str, input_dim: int):
        for gate in ("z", "r", "h"):
            shapes.append((f"{prefix}.w_{gate}", (h, input_dim)))
        for gate in ("z", "r", "h"):
            shapes.append((f"{prefix}.u_{gate}", (h, h)))
        for gate in ("z", "r", "h"):
            shapes.append((f"{prefix}.b_{gate}", (h,)))

    if config.uses_boxes:
        gru_block("encoder", FEATURE_DIM)
        shapes.append(("fc1.w", (BOX_CODE_DIM, h)))
        shapes.append(("fc1.b", (BOX_CODE_DIM,)))
    gru_block("decoder", config.code_dim)
    shapes.append(("out.w", (OUTPUT_DIM, h)))
    shapes.append(("out.b", (OUTPUT_DIM,)))
    return shapes


def save_checkpoint(model: Model, path: str | Path) -> None:
    config = model.config
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _VARIANT_TAGS[config.variant],
        1 if config.fc_activation else 0,
        FEATURE_DIM,
        config.hidden,
        BOX_CODE_DIM,
        config.flow_dim,
        OUTPUT_DIM,
    )
    tensors = model.params.tensors()
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.stats.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.stats.std, dtype="<f8").tobytes())
        for name, shape in _tensor_shapes(config):
            tensor = tensors[name]
            if tensor.shape != shape:
                raise CheckpointError(f"tensor {name} has shape {tensor.shape}, expected {shape}")
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Model:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    _, version, variant_tag, fc_flag, input_dim, hidden, box_code_size, flow_dim, output_dim = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if variant_tag not in _TAG_VARIANTS:
        raise CheckpointError(f"{path}: unknown variant tag {variant_tag}")
    if fc_flag not in (0, 1):
        raise CheckpointError(f"{path}: rectifier flag {fc_flag}, expected 0 or 1")
    if (input_dim, box_code_size, output_dim) != (FEATURE_DIM, BOX_CODE_DIM, OUTPUT_DIM):
        raise CheckpointError(
            f"{path}: dimension inconsistency (input {input_dim}, box code {box_code_size}, output {output_dim})"
        )
    if hidden < 1 or flow_dim < 1:
        raise CheckpointError(f"{path}: dimension inconsistency (non-positive dim)")
    config = ModelConfig(
        variant=_TAG_VARIANTS[variant_tag],  # type: ignore[arg-type]
        hidden=hidden,
        flow_dim=flow_dim,
        fc_activation=bool(fc_flag),
    )

    offset = _HEADER.size

    def take(count: int, shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated file")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
        return arr

    mean = take(FEATURE_DIM, (FEATURE_DIM,))
    std = take(FEATURE_DIM, (FEATURE_DIM,))
    tensors = {}
    for name, shape in _tensor_shapes(config):
        tensors[name] = take(int(np.prod(shape)), shape)
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} unexpected trailing bytes")

    def gru_block(prefix: str) -> GRUParams:
        return GRUParams(**{k: tensors[f"{prefix}.{k}"] for k in
                            ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")})

    params = ModelParams(
        config=config,
        encoder=gru_block("encoder") if config.uses_boxes else None,
        fc1_w=tensors.get("fc1.w"),
        fc1_b=tensors.get("fc1.b"),
        decoder=gru_block("decoder"),
        out_w=tensors["out.w"],
        out_b=tensors["out.b"],
    )
    return Model(params=params, stats=FeatureStats(mean=mean, std=std))
