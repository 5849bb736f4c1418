"""The array track loader against the row-by-row oracle: same tracks, bytes included, or the same rejected line."""

import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mofcast.core import METADATA_FIELDS, Track
from mofcast.data import KINDS, load_tracks, synth_generate_mixed, write_tracks
from mofcast.errors import TrackFormatError

from track_oracle import load_tracks_oracle

HEADER = "video_id,city,weather,time_of_day,frame,track_id,cx,cy,w,h"


def rows(video_id="v0", n=3, track_id=7, meta="arden,sun,day", box="10.5,20.25,3.0,6.0", start=0):
    return [f"{video_id},{meta},{start + f},{track_id},{box}" for f in range(n)]


def text(lines, end="\n"):
    return end.join([HEADER, *lines]) + end


# name -> file contents. Each file is either valid or has one fault.
CORPUS = {
    "plain": text(rows()),
    "quoted-comma-id": text(rows('"v,0"') + rows("v0")),
    "quoted-quote-id": text(rows('"v""0"', track_id=1) + rows('"""v0"""', track_id=1)),
    "quoted-newline-id": text(rows('"v\n0"') + rows("v1")),
    "quoted-crlf-id": text(rows('"v\r\n0"'), end="\r\n"),
    "fault-after-quoted-newline": text(rows('"v\n0"') + ["v1,,,,0,7,10,20,0,6"]),
    "hash-video-id": text(rows("#v0") + rows('"#v,1"') + rows("#")),
    "blank-lines": text(["", *rows()[:2], "", "", rows()[2], ""]),
    "fault-after-blank-lines": text(["", *rows(n=2), "", "", "v0,arden,sun,day,2,7,10,20,3,-6"]),
    "crlf": text(rows() + rows("v1"), end="\r\n"),
    "crlf-fault-after-blank-lines": text(["", *rows(), "", "v0,arden,sun,day,3,7,nan,20,3,6"], end="\r\n"),
    "whitespace-only-line": text([*rows(n=2), "   ", *rows(start=2, n=1)]),
    "tab-only-line": text([*rows(n=2), "\t", *rows(start=2, n=1)]),
    "padded-numbers": text([
        "v0,arden,sun,day, 0 ,+7, 1.5 ,2.0 ,3,4",
        "v0,arden,sun,day,001, 7 ,1.5e0,  2,3.,4",
        "v0,arden,sun,day,+2,007,.15E1,2,3,4 ",
    ]),
    "quoted-numbers": text(['v0,arden,sun,day,"0","7","1.5","2","3","4"']),
    "negative-cx": text(rows(box="-12.5,-0.0,3,6")),
    "subnormal-and-huge": text(
        rows(box="5e-324,-1e308,1e308,2.5e-324") + rows("v1", box="1.7976931348623157e308,0,4e-320,1")
    ),
    "infinity-coordinate": text(rows(box="Infinity,1,1,1")),
    "nan-size": text(rows(box="1,1,NaN,1")),
    "duplicate-frame": text(rows(n=3) + ["v0,arden,sun,day,1,7,10.5,20.25,3.0,6.0"]),
    "frame-gap": text(rows(n=2) + rows(start=3, n=2)),
    "gap-in-second-track": text(rows("v0", n=2) + rows("v1", n=1) + rows("v1", start=2, n=1)),
    "interleaved-unsorted": text([
        "v1,arden,sun,day,2,1,3,3,3,3", "v0,bexley,rain,night,5,7,1,1,1,1", "v1,arden,sun,day,0,1,1,1,1,1",
        "v0,bexley,rain,night,4,7,2,2,2,2", "v1,arden,sun,day,1,1,2,2,2,2", "v0,bexley,rain,night,6,7,3,3,3,3",
    ]),
    "one-id-two-tracks": text(
        rows("v0", track_id=1) + rows("v0", track_id=2, meta="bexley,,") + rows("v0", track_id=-1)
    ),
    "metadata-differs": text(rows(n=2) + rows(start=2, n=1, meta="arden,rain,day")),
    "metadata-differs-after-interleaving": text(
        rows("v0", n=1) + rows("v1") + rows("v0", start=1, n=1, meta="arden,sun,")
    ),
    "empty-metadata": text(rows(meta=",,") + rows("v1", meta=",sun,")),
    "empty-ids": text(rows("", meta=",,")),
    "degenerate-width": text(rows(n=2) + rows(start=2, n=1, box="1,1,0,6")),
    "too-few-fields": text(rows(n=2) + ["v0,arden,sun,day,2,7,1,1,1"]),
    "too-many-fields": text(rows(n=2) + ["v0,arden,sun,day,2,7,1,1,1,1,"]),
    "word-as-frame": text(rows(n=2) + ["v0,arden,sun,day,two,7,1,1,1,1"]),
    "empty-coordinate": text(rows(n=2) + ["v0,arden,sun,day,2,7,,1,1,1"]),
    "float-as-frame": text(["v0,arden,sun,day,0.0,7,1,1,1,1"]),
    "hex-coordinate": text(["v0,arden,sun,day,0,7,0x1p3,1,1,1"]),
    "header-only": text([]),
    "header-and-blank-lines": text(["", "", ""]),
    "no-final-newline": text(rows())[:-1],
    "bad-header": "video_id,city,weather,time_of_day,frame,track,cx,cy,w,h\n" + "\n".join(rows()) + "\n",
    "empty-file": "",
}


def write(tmp_path, contents, name="tracks.csv"):
    path = tmp_path / name
    path.write_bytes(contents.encode("utf-8"))
    return path


def outcome(load, path):
    """("tracks", the tracks) or ("rejected", where): ``path:line`` when the message names a line, else the message."""
    try:
        return "tracks", load(path)
    except TrackFormatError as exc:
        message = str(exc)
        at_line = re.match(rf"{re.escape(str(path))}:\d+", message)
        return "rejected", at_line[0] if at_line else message


class TestMatchesTheOracle:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_same_tracks_or_same_rejected_line(self, tmp_path, name):
        path = write(tmp_path, CORPUS[name])
        expected = outcome(load_tracks_oracle, path)
        assert outcome(load_tracks, path) == expected

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_synthetic_files(self, tmp_path, seed):
        path = tmp_path / "synth.csv"
        write_tracks(synth_generate_mixed(KINDS, 6, noise_sigma=1.0, seed=seed, n_frames=150), path)
        assert load_tracks(path) == load_tracks_oracle(path)  # Track equality compares boxes bit for bit

    def test_value_faults_keep_the_oracle_message(self, tmp_path):
        for name in ("fault-after-quoted-newline", "fault-after-blank-lines", "crlf-fault-after-blank-lines",
                     "metadata-differs-after-interleaving", "duplicate-frame", "gap-in-second-track"):
            path = write(tmp_path, CORPUS[name])
            with pytest.raises(TrackFormatError) as expected:
                load_tracks_oracle(path)
            with pytest.raises(TrackFormatError) as got:
                load_tracks(path)
            assert str(got.value) == str(expected.value)


class TestNumberGrammar:
    """Where the loader is stricter than Python's int/float: the line is named."""

    @pytest.mark.parametrize(
        "row",
        (
            "v0,arden,sun,day,1_000,7,1,1,1,1",
            "v0,arden,sun,day,0,9223372036854775808,1,1,1,1",
            "v0,arden,sun,day,0,-9223372036854775809,1,1,1,1",
            "v0,arden,sun,day,١,7,1,1,1,1",
            "v0,arden,sun,day,0,7,1_0.5,1,1,1",
        ),
    )
    def test_rejected_with_its_line(self, tmp_path, row):
        path = write(tmp_path, text(["", row]))
        with pytest.raises(TrackFormatError, match=rf"tracks\.csv:3: malformed row: \w+ '.*' is not"):
            load_tracks(path)

    def test_int64_extremes_load(self, tmp_path):
        path = write(tmp_path, text(["v0,,,,9223372036854775807,-9223372036854775808,1,1,1,1"]))
        (track,) = load_tracks(path)
        assert (track.start_frame, track.track_id) == (2**63 - 1, -(2**63))
        assert track == load_tracks_oracle(path)[0]

    def test_parse_fault_wins_over_an_earlier_value_fault(self, tmp_path):
        path = write(tmp_path, text(["v0,,,,0,7,1,1,0,1", "v0,,,,1,7,one,1,1,1"]))
        with pytest.raises(TrackFormatError, match=r":2: degenerate"):
            load_tracks_oracle(path)
        with pytest.raises(TrackFormatError, match=r":3: malformed row: cx 'one' is not a decimal float"):
            load_tracks(path)


@pytest.mark.parametrize(
    "bad, reason",
    ((b"\xff", "invalid start byte 0xff"), (b"\xc3(", "invalid continuation byte 0xc3")),
    ids=("start-byte", "continuation"),
)
def test_a_byte_that_is_not_utf8_is_refused_naming_its_line(tmp_path, bad, reason):
    # records 2 and 3 each hold a quoted line break, which starts no line, so the fourth row is line 5
    data = text(rows('"v\n0"', n=2) + rows("v1", n=2)).encode("utf-8")
    path = tmp_path / "tracks.csv"
    path.write_bytes(data.replace(b"v1,arden,sun,day,1", b"v1,ard" + bad + b"en,sun,day,1"))
    with pytest.raises(TrackFormatError, match=rf"tracks\.csv:5: not UTF-8: {reason}$"):
        load_tracks(path)


@pytest.mark.parametrize("body", ("", "\n", "\r\n\r\n\n"))
def test_header_only_file_is_empty_without_warnings(tmp_path, body):
    path = write(tmp_path, HEADER + "\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_tracks(path) == []


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
_COORD = st.floats(allow_nan=False, allow_infinity=False)
_SIZE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _tracks(draw):
    n = draw(st.integers(1, 4))
    return Track(
        video_id=draw(_TEXT),
        track_id=draw(st.integers(-(2**63), 2**63 - 1)),
        start_frame=draw(st.integers(-(2**63), 2**63 - n)),
        boxes=draw(st.lists(st.tuples(_COORD, _COORD, _SIZE, _SIZE), min_size=n, max_size=n)),
        metadata=draw(st.none() | st.dictionaries(st.sampled_from(METADATA_FIELDS), _TEXT.filter(bool), min_size=1)),
    )


@given(tracks=st.lists(_tracks(), max_size=4, unique_by=lambda t: t.key))
@settings(max_examples=150, deadline=None)
def test_write_then_load_round_trips_bit_exactly(tmp_path_factory, tracks):
    path = tmp_path_factory.mktemp("round-trip") / "tracks.csv"
    write_tracks(tracks, path)
    loaded = load_tracks(path)
    assert loaded == sorted(tracks, key=lambda t: t.key)
    assert loaded == load_tracks_oracle(path)
