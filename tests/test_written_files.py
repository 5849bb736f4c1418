"""Every text file the program writes is in one dialect, and only two modules touch files.

CSV: UTF-8, the ``csv`` module's default dialect (``,``, minimal ``"``
quoting, CRLF after every row). JSON: UTF-8, indented by 2 spaces, with a
final newline. ``data/io.py`` writes both through ``write_csv`` and
``write_json``; ``encdec/checkpoint.py`` writes the binary checkpoint.
"""

import ast
import csv
import io
import json
from pathlib import Path

import numpy as np

import mofcast
from mofcast.cli import main
from mofcast.data import (
    CLIP_FRAMES,
    KINDS,
    cut_windows,
    default_synth_split_config,
    load_tracks,
    synth_generate_mixed,
    write_flow_features,
    write_tracks,
)
from mofcast.encdec import TrainConfig
from mofcast.harness import ExperimentSpec, run_all_folds, run_fold

SRC = Path(mofcast.__file__).resolve().parent
FILE_MODULES = {"data/io.py", "encdec/checkpoint.py"}
# Names that open, read or write a file, by any receiver: builtin or Path open, Path's text and bytes
# helpers, numpy's raw binary I/O and csv's readers and writers.
FILE_NAMES = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "fromfile", "tofile"}
CSV_NAMES = {"reader", "writer", "DictReader", "DictWriter"}


def csv_in_dialect(data: bytes) -> bool:
    text = data.decode("utf-8")
    out = io.StringIO(newline="")
    csv.writer(out).writerows(csv.reader(io.StringIO(text, newline="")))
    return out.getvalue() == text


def json_in_dialect(data: bytes) -> bool:
    text = data.decode("utf-8")
    return text == json.dumps(json.loads(text), indent=2) + "\n"


def test_every_written_csv_and_json_file_is_in_the_one_dialect(tmp_path):
    out = tmp_path / "out"  # every file under it is written by the program
    out.mkdir()
    tracks, splits, flow = out / "tracks.csv", out / "splits.json", tmp_path / "flow_magnitudes.csv"
    write_tracks(synth_generate_mixed(KINDS, 6, 1.0, seed=11), tracks)
    default_synth_split_config().to_file(splits)
    flow.write_text("video_id,frame,mean_flow_magnitude\n"
                    + "".join(f'"cam,{v} ""n""",{f},1.0\n' for v in range(2) for f in range(CLIP_FRAMES)))
    batch = cut_windows(load_tracks(tracks), stride=7)
    write_flow_features(((batch.source(i), np.ones(4)) for i in range(len(batch))), out / "flow_features.csv")

    def spec(model, **kw):
        return ExperimentSpec(tracks=str(tracks), splits=str(splits), fold=0, model=model, out_dir=str(out / model),
                              stride=7, **kw)

    run_all_folds(spec("cv_cs"))
    run_fold(spec("lkf"))
    run_fold(spec("encdec", train=TrainConfig(hidden=4, epochs=1, batch_size=64, seed=1)))
    for argv in (
        ["prepare", "--tracks", str(tracks), "--splits", str(splits), "--stride", "7", "--out", str(out / "prep")],
        ["clip-filter", "--flow-magnitudes", str(flow), "--out", str(out / "clips")],
        ["forecast", "--model", "cv_cs", "--tracks", str(tracks), "--stride", "7", "--out", str(out / "fc")],
    ):
        assert main(argv) == 0, argv

    written = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.suffix in (".csv", ".json")}
    names = {name.rsplit("/", 1)[-1] for name in written}
    assert names >= {
        "tracks.csv", "splits.json", "flow_features.csv", "folds_summary.csv", "summary.csv", "curves.csv",
        "breakdown_city.csv", "spec.json", "manifest.json", "lkf_grid.json", "lkf_params.json",
        "lkf_grid_table.csv", "train_log.csv", "filtered_tracks.csv", "prepare_stats.json", "clips.csv",
        "forecasts.csv",
    }
    assert written["clips/clips.csv"].count(b'"cam,1 ""n"""') == 1  # quoting round-trips too
    off = sorted(name for name, data in written.items()
                 if not (csv_in_dialect if name.endswith(".csv") else json_in_dialect)(data))
    assert off == []


def file_access(tree: ast.AST) -> list[str]:
    """What in a module's syntax tree opens, reads or writes a file, or uses csv, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "open":
            found.append(f"{node.lineno}: open")
        elif isinstance(node, ast.Attribute) and node.attr in FILE_NAMES:
            if not (node.attr == "open" and isinstance(node.value, ast.Name) and node.value.id == "FlowFeatureStore"):
                found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Attribute) and node.attr in CSV_NAMES and isinstance(node.value, ast.Name) \
                and node.value.id == "csv":
            found.append(f"{node.lineno}: csv.{node.attr}")
        elif isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append(f"{node.lineno}: import csv")
    return found


def test_only_the_io_and_checkpoint_modules_touch_files():
    modules = {p.relative_to(SRC).as_posix(): p for p in SRC.rglob("*.py")}
    assert FILE_MODULES <= set(modules) and "harness.py" in modules
    offenders = {name: found for name, path in sorted(modules.items()) if name not in FILE_MODULES
                 if (found := file_access(ast.parse(path.read_text(encoding="utf-8"))))}
    assert offenders == {}
    for name in FILE_MODULES:  # the guard sees what these two modules do
        assert file_access(ast.parse(modules[name].read_text(encoding="utf-8")))


def test_the_guard_sees_each_way_to_touch_a_file():
    allowed = "FlowFeatureStore.open(p)\nstore.rows(keys)\njson.dumps(x)\n"
    assert file_access(ast.parse(allowed)) == []
    for line in ("open(p)", "Path(p).open('w')", "Path(p).write_text(s)", "Path(p).read_text()", "import csv",
                 "from csv import writer", "csv.writer(fh)", "csv.reader(fh)", "np.fromfile(p)", "a.tofile(p)",
                 "Path(p).write_bytes(b)", "f = open"):
        assert file_access(ast.parse(line)), line
