"""Byte-mutated input files either load or are refused with their reader's own error, naming the file.

Each reader gets a valid file of a few rows, mutated by up to three of the
operators below: a deleted span, an inserted token (a quote, CR, NUL, bytes
that are not UTF-8, a BOM, ``1e999``, ``1_0``, a field or line break), an
overwritten span, a truncation, a duplicated line. Warnings are errors in
this suite, so a reader that warns on a mutated file fails too.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mofcast.core import Track, WindowSource
from mofcast.data import FlowFeatureStore, load_flow_magnitudes, load_tracks, write_flow_features, write_tracks
from mofcast.encdec import Model, ModelConfig, init_params, load_checkpoint, save_checkpoint
from mofcast.errors import CheckpointError, FlowFeatureError, TrackFormatError

TOKENS = (b'"', b"\r", b"\x00", b"\xff", b"\xc3(", b"\xe2\x82", b"\xef\xbb\xbf", b"1e999", b"1_0", b",", b"\n")


@st.composite
def mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("delete", "insert", "overwrite", "truncate", "duplicate")))
        at = draw(st.integers(0, len(data)))
        if op == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)) :]
        elif op == "insert":
            data = data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
        elif op == "overwrite":
            new = draw(st.binary(min_size=1, max_size=4))
            data = data[:at] + new + data[at + len(new) :]
        elif op == "truncate":
            data = data[:at]
        elif lines := data.splitlines(keepends=True):
            i = draw(st.integers(0, len(lines) - 1))
            data = b"".join(lines[: i + 1] + lines[i:])
    return data


def _tracks(path: Path) -> None:
    boxes = np.array([[10.5, 20.25, 3.0, 6.0], [11.5, 20.5, 3.0, 6.5], [12.5, 21.0, 3.5, 6.5]])
    write_tracks([Track("v0", 7, 0, boxes, {"city": "arden", "weather": "sun"}), Track("v1", 2, 4, boxes[:2])], path)


def _flow_magnitudes(path: Path) -> None:
    path.write_bytes(b"video_id,frame,mean_flow_magnitude\r\nv0,0,0.5\r\nv0,1,1.25\r\nv1,0,2.0\r\n")


def _sidecar(path: Path) -> None:
    rows = np.arange(12.0).reshape(3, 4) / 8
    sources = (WindowSource("v0", 7, 29), WindowSource("v0", 7, 30), WindowSource("v1", 2, 33))
    write_flow_features(zip(sources, rows), path)


def _checkpoint(path: Path) -> None:
    save_checkpoint(Model(init_params(ModelConfig(variant="both", hidden=2, flow_dim=3), 0, zero_output=False)), path)


# name -> (file written, the valid file's writer, the file mutated, the reader, its error)
READERS = {
    "tracks": ("tracks.csv", _tracks, "tracks.csv", load_tracks, TrackFormatError),
    "flow-magnitudes": ("magnitudes.csv", _flow_magnitudes, "magnitudes.csv", load_flow_magnitudes,
                        TrackFormatError),
    "sidecar-index": ("flow.csv", _sidecar, "flow.csv", FlowFeatureStore.open, FlowFeatureError),
    "sidecar-blob": ("flow.csv", _sidecar, "flow.bin", FlowFeatureStore.open, FlowFeatureError),
    "checkpoint": ("model.mofc", _checkpoint, "model.mofc", load_checkpoint, CheckpointError),
}


@pytest.mark.parametrize("reader", READERS)
def test_a_mutated_file_loads_or_is_refused_naming_it(tmp_path_factory, reader):
    opened, write, target, read, error = READERS[reader]
    folder = tmp_path_factory.mktemp(reader)
    write(folder / opened)
    valid = (folder / target).read_bytes()
    read(folder / opened)  # the unmutated file loads
    named = tuple(str(path) for path in folder.iterdir())  # a sidecar's refusal names its index or its blob

    @given(data=mutated(valid))
    @settings(max_examples=200, deadline=None, database=None)
    def loads_or_is_refused(data):
        (folder / target).write_bytes(data)
        try:
            read(folder / opened)
        except error as exc:
            assert str(exc).startswith(named), str(exc)

    loads_or_is_refused()
