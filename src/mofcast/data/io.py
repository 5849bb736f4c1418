"""File formats: track CSV, flow-magnitude CSV, flow-feature sidecar.

Track file: UTF-8 CSV with header
``video_id,city,weather,time_of_day,frame,track_id,cx,cy,w,h`` and one row
per (track, frame). Metadata columns may be empty, and all rows of a track
carry the same metadata. A loaded :class:`~mofcast.core.Track` holds its
rows' ``cx,cy,w,h`` as one (n, 4) float64 array in frame order.

Flow-magnitude file: UTF-8 CSV with header ``video_id,frame,mean_flow_magnitude``.

Flow-feature sidecar: an index CSV with header
``video_id,track_id,anchor_frame`` next to a flat binary blob of
little-endian 32-bit floats. The blob's path is the index path with its
suffix replaced by ``.bin`` (``flow.csv`` -> ``flow.bin``). Index row i owns
blob floats ``[i*dim, (i+1)*dim)``: the feature dimension ``dim`` is the
blob's float32 count divided by the number of index rows, so the blob must be
a non-empty whole number of rows. The blob's size is checked once the index
parses, before the index's values.

Written files. Every CSV and JSON file the program writes goes through
:func:`write_csv` or :func:`write_json`, so all share one dialect: UTF-8; CSV
in :mod:`csv`'s default dialect (minimal quoting, CRLF after every row);
JSON indented by 2 spaces with a final newline. CSV: track files
(``filtered_tracks.csv``, ``forecasts.csv``), the sidecar index,
``summary.csv``, ``curves.csv``, ``breakdown_<field>.csv``,
``folds_summary.csv``, ``train_log.csv``, ``lkf_grid_table.csv`` and
``clips.csv``. JSON: ``spec.json``, ``manifest.json``, ``lkf_params.json``,
``lkf_grid.json``, split configs and ``prepare_stats.json``.

Reading. Each CSV file's header is read with :mod:`csv`; the rest is parsed
by one :func:`numpy.loadtxt` call (``,`` between fields, ``"`` around a
field, ``""`` for a quote inside one, no comment character) and every check
runs on the parsed columns as array operations.

Fields. A text field is taken as written, after unquoting: quoted, it may
hold commas, quotes and line breaks, and it may begin with ``#``. An integer
is ASCII digits with an optional sign, within int64. A float is what
Python's ``float`` accepts without underscores or non-ASCII digits:
decimal or exponent notation, ``inf``/``nan`` in any case; it parses to the
same double as ``float`` would. Numbers may be padded with whitespace. So
``1_000``, ``1.0`` as an integer, and integers outside int64 are rejected
with their line. A blank line is skipped; a line of only whitespace is a
row of one field, and rejected.

Errors name ``path:line`` or, for a frame-sequence fault, the track or
video. Lines count CSV records, blank ones included: the header is line 1,
and a line break inside a quoted field does not start a new line. When a
file has several faults, the first of these is reported:

1. an empty file, a bad header, or a byte that is not UTF-8, whichever
   the reader meets first: it decodes the file in blocks, so a bad byte
   in the first block is reported before a bad header;
2. the first row that does not parse (wrong field count, or a number outside
   the grammar), even when a row before it has a value fault;
3. the first row, in file order, with a value fault. Within a row the checks
   run in this order. Track file: a non-finite coordinate, a degenerate box
   (w or h <= 0), metadata that differs from its track's first row.
   Flow-magnitude file: a negative or non-finite magnitude. Sidecar index: a
   window seen on an earlier row;
4. the first track (flow-magnitude file: video), in order of first
   appearance, whose sorted frames have a gap or a duplicate.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core import METADATA_FIELDS, Track, WindowSource
from ..errors import FlowFeatureError, TrackFormatError

TRACK_HEADER = ["video_id", "city", "weather", "time_of_day", "frame", "track_id", "cx", "cy", "w", "h"]
FLOW_MAGNITUDE_HEADER = ["video_id", "frame", "mean_flow_magnitude"]
FLOW_INDEX_HEADER = ["video_id", "track_id", "anchor_frame"]

# One field per header column, except the track file's cx,cy,w,h: one (4,) field.
_TRACK_DTYPE = np.dtype(
    [(name, object) for name in TRACK_HEADER[:4]]
    + [("frame", np.int64), ("track_id", np.int64), ("box", np.float64, (4,))]
)
_FLOW_MAGNITUDE_DTYPE = np.dtype([("video_id", object), ("frame", np.int64), ("magnitude", np.float64)])
_FLOW_INDEX_DTYPE = np.dtype([("video_id", object)] + [(name, np.int64) for name in FLOW_INDEX_HEADER[1:]])

_NOT_LINE_END = re.compile(r"[^\r\n]")
_UNDECODED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, as errors="surrogateescape" keeps it
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_GRAMMAR = {"i": "an int64 integer", "f": "a decimal float"}


def _read_table(path: Path, header: list[str], dtype: np.dtype, error: type[Exception]) -> tuple[np.ndarray, str]:
    """The rows of the CSV file ``path`` under ``header``, parsed into ``dtype``, and
    the text after the header, which the error paths find lines in."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            found = next(csv.reader(fh), None)
            if found is None:
                raise error(f"{path}: empty file")
            if found != header:
                raise error(f"{path}: bad header {found!r}, expected {header!r}")
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{_undecodable_record(path)}: not UTF-8: {exc.reason} 0x{exc.object[exc.start]:02x}") from None
    if not _NOT_LINE_END.search(body):  # loadtxt warns on input with no rows
        return np.empty(0, dtype), body
    try:
        rows = np.loadtxt(
            io.StringIO(body, newline=""), dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
        )
    except ValueError as exc:
        raise error(_malformed_row(path, body, header, dtype) or f"{path}: malformed file: {exc}") from None
    return rows, body


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` then ``rows`` to the CSV file ``path`` in the one dialect of every written CSV."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload: object) -> None:
    """Write ``payload`` to ``path`` as UTF-8 JSON, indented by 2 spaces, with a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path, error: type[Exception]) -> object:
    """The parsed JSON file ``path``; a file that is not JSON raises ``error`` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None


def _undecodable_record(path: Path) -> str:
    """``path:line`` of the first CSV record of the file ``path`` that holds a byte that is not UTF-8.

    The bytes are decoded with each bad byte kept as a lone surrogate,
    which no UTF-8 text holds, and the records are counted as on the other
    error paths, the header being line 1. ``path`` alone if the records
    cannot be split.
    """
    text = path.read_bytes().decode("utf-8", errors="surrogateescape")
    records = enumerate(csv.reader(io.StringIO(text, newline="")), start=1)
    try:
        return next(f"{path}:{line}" for line, fields in records if _UNDECODED.search(",".join(fields)))
    except (StopIteration, csv.Error):
        return str(path)


def _records(body: str) -> Iterable[tuple[int, list[str]]]:
    """(line, fields) of each non-blank CSV record of the text after the header."""
    return ((line, r) for line, r in enumerate(csv.reader(io.StringIO(body, newline="")), start=2) if r)


def _line_of(body: str, row: int) -> int:
    """The line of parsed row ``row``."""
    return next(itertools.islice(_records(body), row, None))[0]


def _parses(text: str, kind: str) -> bool:
    """Whether ``text`` is in the number grammar of a numpy dtype kind ('O' takes any text)."""
    if kind == "O":
        return True
    text = text.strip()
    if not text.isascii() or "_" in text:
        return False
    if kind == "i":
        return _INTEGER.fullmatch(text) is not None and _INT64_MIN <= int(text) <= _INT64_MAX
    try:
        float(text)
    except ValueError:
        return False
    return True


def _malformed_row(path: Path, body: str, header: list[str], dtype: np.dtype) -> str | None:
    """The message naming the first record that does not parse into ``dtype``.

    Only called once loadtxt has failed; None if no record fails here.
    """
    kinds = [dtype[name].base.kind for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    for line, fields in _records(body):
        if len(fields) != len(header):
            return f"{path}:{line}: expected {len(header)} fields, got {len(fields)}"
        for name, kind, text in zip(header, kinds, fields):
            if not _parses(text, kind):
                return f"{path}:{line}: malformed row: {name} {text!r} is not {_GRAMMAR[kind]}"
    return None


def _first_fault(*masks: np.ndarray) -> tuple[int, int] | None:
    """(row, check) of the first row any mask flags, the check being the first mask that flags it."""
    flagged = np.logical_or.reduce(masks)
    if not flagged.any():
        return None
    row = int(np.argmax(flagged))
    return row, next(k for k, mask in enumerate(masks) if mask[row])


def _group_by_first_appearance(*columns: np.ndarray) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """Number the distinct keys of the rows (one value per column) by first appearance.

    Returns the keys in that order, each row's key number and each key's
    first row. Consecutive rows with one key form a run; the Python work is
    once per run, not per row.
    """
    n = len(columns[0])
    new_run = np.zeros(n, dtype=bool)
    new_run[0] = True
    for column in columns:
        new_run[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(new_run)
    numbers: dict[tuple, int] = {}
    run_key = [numbers.setdefault(key, len(numbers)) for key in zip(*(c[starts].tolist() for c in columns))]
    first_row = starts[np.unique(run_key, return_index=True)[1]]
    return list(numbers), np.repeat(run_key, np.diff(starts, append=n)), first_row


def _frame_order(group: np.ndarray, frame: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Row order by (group, frame), stable, and the bounds of each group's rows in that order."""
    order = np.lexsort((frame, group))
    return order, np.searchsorted(group[order], np.arange(n_groups + 1))


def load_tracks(path: str | Path) -> list[Track]:
    """Parse a track file into one Track per (video_id, track_id), sorted by that key.

    Rows may arrive in any order; boxes are sorted by frame. Malformed rows,
    rows whose metadata differs from their track's first row, gaps or
    duplicates in a track's frame sequence, and degenerate boxes are
    rejected with the offending line or track named (see the module
    docstring for the grammar and which fault is reported first).
    """
    path = Path(path)
    rows, body = _read_table(path, TRACK_HEADER, _TRACK_DTYPE, TrackFormatError)
    if not rows.size:
        return []
    keys, track_of_row, first_row = _group_by_first_appearance(rows["video_id"], rows["track_id"])
    boxes = rows["box"]
    first_of_row = first_row[track_of_row]
    fault = _first_fault(
        ~np.isfinite(boxes).all(axis=1),
        (boxes[:, 2:] <= 0).any(axis=1),
        np.logical_or.reduce([rows[name] != rows[name][first_of_row] for name in METADATA_FIELDS]),
    )
    if fault is not None:
        i, check = fault
        where = f"{path}:{_line_of(body, i)}"
        if check == 0:
            raise TrackFormatError(f"{where}: non-finite coordinate")
        if check == 1:
            w, h = boxes[i, 2:].tolist()
            raise TrackFormatError(f"{where}: degenerate box (w={w}, h={h})")
        meta = tuple(rows[name][i] for name in METADATA_FIELDS)
        first = tuple(rows[name][first_of_row[i]] for name in METADATA_FIELDS)
        raise TrackFormatError(
            f"{where}: track {keys[track_of_row[i]]}: metadata {meta!r} differs from the track's first row {first!r}"
        )

    order, bounds = _frame_order(track_of_row, rows["frame"], len(keys))
    frames = rows["frame"][order]
    step = np.diff(frames)
    # A step across two tracks' rows is not a gap; every other step must be 1.
    step[bounds[1:-1] - 1] = 1
    gap = np.flatnonzero(step != 1)
    if gap.size:
        j = int(gap[0])
        key = keys[int(np.searchsorted(bounds, j, side="right")) - 1]
        raise TrackFormatError(f"{path}: track {key}: non-consecutive frames ({frames[j]} -> {frames[j + 1]})")

    boxes = boxes[order]
    metadata = zip(*(rows[name][first_row].tolist() for name in METADATA_FIELDS))
    tracks = [
        Track(
            video_id=video_id,
            track_id=track_id,
            start_frame=start,
            boxes=boxes[lo:hi],
            metadata={k: v for k, v in zip(METADATA_FIELDS, meta) if v} or None,
        )
        for (video_id, track_id), start, lo, hi, meta in zip(
            keys, frames[bounds[:-1]].tolist(), bounds[:-1], bounds[1:], metadata
        )
    ]
    tracks.sort(key=lambda t: t.key)
    return tracks


def write_tracks(tracks: Iterable[Track], path: str | Path) -> None:
    """Emit tracks in the track-file format (round-trips through load_tracks)."""
    write_csv(path, TRACK_HEADER, (
        [t.video_id, *((t.metadata or {}).get(name, "") for name in METADATA_FIELDS), t.start_frame + offset,
         t.track_id, *box]
        for t in tracks for offset, box in enumerate(t.boxes.tolist())
    ))


def load_flow_magnitudes(path: str | Path) -> dict[str, np.ndarray]:
    """Read per-frame mean flow magnitudes, keyed by video_id in order of first appearance.

    Frames must be consecutive from 0 within each video; values must be
    finite and non-negative.
    """
    path = Path(path)
    rows, body = _read_table(path, FLOW_MAGNITUDE_HEADER, _FLOW_MAGNITUDE_DTYPE, TrackFormatError)
    if not rows.size:
        return {}
    magnitude = rows["magnitude"]
    fault = _first_fault(~(np.isfinite(magnitude) & (magnitude >= 0)))
    if fault is not None:
        raise TrackFormatError(f"{path}:{_line_of(body, fault[0])}: flow magnitude must be finite and >= 0")

    keys, video_of_row, _ = _group_by_first_appearance(rows["video_id"])
    order, bounds = _frame_order(video_of_row, rows["frame"], len(keys))
    # Each frame must equal its position within its video's sorted rows.
    position = np.arange(len(order)) - np.repeat(bounds[:-1], np.diff(bounds))
    off = np.flatnonzero(rows["frame"][order] != position)
    if off.size:
        (video_id,) = keys[int(np.searchsorted(bounds, off[0], side="right")) - 1]
        raise TrackFormatError(f"{path}: video {video_id}: frames not consecutive from 0")
    magnitude = magnitude[order]
    return {video_id: magnitude[lo:hi] for (video_id,), lo, hi in zip(keys, bounds[:-1], bounds[1:])}


class FlowFeatureStore:
    """Random access to precomputed per-window flow features.

    Backed by the sidecar format: the index CSV names each window's row of
    its ``.bin`` blob (``blob``), read whole into one read-only (rows, dim)
    float32 array. :meth:`rows` gathers the features of many windows, as
    stored, into one float32 array; their values are checked where they are
    used, not here.
    """

    def __init__(self, index: Mapping[tuple[str, int, int], int], features: np.ndarray, blob: Path):
        self._row = dict(index)
        self._features = features
        self.dim = features.shape[1]
        self.blob = blob

    @classmethod
    def open(cls, index_path: str | Path) -> "FlowFeatureStore":
        index_path = Path(index_path)
        rows, body = _read_table(index_path, FLOW_INDEX_HEADER, _FLOW_INDEX_DTYPE, FlowFeatureError)
        if not rows.size:
            raise FlowFeatureError(f"{index_path}: no entries")
        blob_path = index_path.with_suffix(".bin")
        size = blob_path.stat().st_size
        if not size or size % (4 * rows.size):
            raise FlowFeatureError(f"{blob_path}: {size} bytes is not a non-zero whole number of float32 values "
                                   f"per index row ({rows.size} rows)")
        features = np.fromfile(blob_path, dtype="<f4").reshape(rows.size, -1)
        features.setflags(write=False)
        index: dict[tuple[str, int, int], int] = {}
        for i, key in enumerate(zip(*(rows[name].tolist() for name in FLOW_INDEX_HEADER))):
            if index.setdefault(key, i) != i:
                raise FlowFeatureError(f"{index_path}:{_line_of(body, i)}: duplicate entry for window {key}")
        return cls(index, features, blob_path)

    def rows(self, keys: Iterable[tuple[str, int, int]]) -> np.ndarray:
        """The (N, dim) float32 features of the windows ``keys`` names by (video_id, track_id, anchor_frame),
        in order. The first window without one is a :class:`FlowFeatureError` naming it."""
        try:
            return self._features[np.array([self._row[key] for key in keys], dtype=np.intp)]
        except KeyError as exc:
            raise FlowFeatureError(f"no flow feature for window {exc.args[0]}") from None

    def __len__(self) -> int:
        return len(self._row)


def write_flow_features(entries: Iterable[tuple[WindowSource, np.ndarray]], index_path: str | Path) -> None:
    """Write the flow-feature sidecar: the index CSV at ``index_path``, the float32 blob next to it as ``.bin``.

    Entry i's window is index row i and its vector is blob row i. Every entry
    is checked before either file is written, so a sidecar that
    :meth:`FlowFeatureStore.open` would reject is never written, nor one that
    holds a value float32 cannot. There must be at least one entry. Each
    entry's vector must be 1-D, as long as the first entry's, finite and
    within the float32 range, and its window must be one no earlier entry
    names.
    """
    index_path = Path(index_path)
    f32_max = float(np.finfo(np.float32).max)
    chunks: dict[tuple[str, int, int], np.ndarray] = {}  # window -> its blob row, in entry order
    for source, vec in entries:
        vec = np.asarray(vec)
        key = (source.video_id, source.track_id, source.anchor_frame)
        first = next(iter(chunks.values()), vec)
        if vec.ndim != 1:
            problem = "must be 1-D"
        elif vec.size != first.size:
            problem = f"has length {vec.size}, the first entry {first.size}"
        elif key in chunks:
            problem = "repeats an earlier entry's window"
        elif not np.all(np.isfinite(vec)):
            problem = "is not finite"
        elif np.any(np.abs(vec) > f32_max):
            problem = "is outside the float32 range"
        else:
            chunks[key] = np.ascontiguousarray(vec, dtype="<f4")
            continue
        raise FlowFeatureError(f"flow feature for {source} {problem}")
    if not chunks:
        raise FlowFeatureError(f"{index_path}: no entries to write")
    write_csv(index_path, FLOW_INDEX_HEADER, chunks.keys())
    with index_path.with_suffix(".bin").open("wb") as fh:
        for chunk in chunks.values():
            fh.write(chunk.tobytes())
