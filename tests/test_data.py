import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mofcast.core import FUTURE_LEN, OBSERVED_LEN, Track, boxes_to_array
from mofcast.data import (
    ClipInterval,
    FlowFeatureStore,
    SplitConfig,
    WindowBatch,
    count_windows,
    cut_windows,
    default_synth_split_config,
    extract_windows,
    filter_short_tracks,
    load_flow_magnitudes,
    load_tracks,
    make_splits,
    motion_filter_clips,
    synth_generate,
    synth_generate_mixed,
    write_flow_features,
    write_tracks,
)
from mofcast.core import WindowSource
from mofcast.errors import FlowFeatureError, SplitError, TrackFormatError

from clip_oracle import motion_filter_clips_oracle
from conftest import batch_of, linear_track

HEADER = "video_id,city,weather,time_of_day,frame,track_id,cx,cy,w,h\n"


def write_csv(tmp_path, rows, name="tracks.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(rows), encoding="utf-8")
    return path


class TestLoadTracks:
    def test_minimal_file(self, tmp_path):
        rows = [f"v0,arden,sun,day,{f},7,10.5,20.5,3.0,6.0\n" for f in range(3)]
        tracks = load_tracks(write_csv(tmp_path, rows))
        assert len(tracks) == 1
        t = tracks[0]
        assert t.key == ("v0", 7)
        assert t.start_frame == 0 and len(t) == 3
        assert t.metadata == {"city": "arden", "weather": "sun", "time_of_day": "day"}

    def test_frame_gap_rejected(self, tmp_path):
        rows = [f"v0,,,,{f},7,10,20,3,6\n" for f in (0, 1, 3)]
        with pytest.raises(TrackFormatError, match="non-consecutive"):
            load_tracks(write_csv(tmp_path, rows))

    def test_degenerate_box_rejected_with_line(self, tmp_path):
        rows = ["v0,,,,0,7,10,20,3,6\n", "v0,,,,1,7,10,20,0,6\n"]
        with pytest.raises(TrackFormatError, match=r":3: degenerate"):
            load_tracks(write_csv(tmp_path, rows))

    def test_malformed_row_reports_line(self, tmp_path):
        rows = ["v0,,,,0,7,10,20,3,6\n", "v0,,,,one,7,10,20,3,6\n"]
        with pytest.raises(TrackFormatError, match=r":3"):
            load_tracks(write_csv(tmp_path, rows))

    def test_unsorted_rows_are_ordered_by_frame(self, tmp_path):
        rows = [f"v0,,,,{f},7,{10 + f},20,3,6\n" for f in (2, 0, 1)]
        (t,) = load_tracks(write_csv(tmp_path, rows))
        assert t.boxes[:, 0].tolist() == [10, 11, 12]

    @pytest.mark.parametrize("changed", ("bexley,sun,day", "arden,rain,day", "arden,sun,night", "arden,,day"))
    def test_metadata_must_agree_within_a_track(self, tmp_path, changed):
        rows = ["v0,arden,sun,day,0,7,10,20,3,6\n", "v1,bexley,sun,day,0,7,10,20,3,6\n",
                f"v0,{changed},1,7,10,20,3,6\n"]
        with pytest.raises(TrackFormatError, match=r"tracks\.csv:4: track \('v0', 7\): metadata"):
            load_tracks(write_csv(tmp_path, rows))

    def test_round_trip(self, tmp_path):
        tracks = [linear_track(vx=0.37, cy0=55.25, video_id="va", track_id=3)]
        path = tmp_path / "rt.csv"
        write_tracks(tracks, path)
        assert load_tracks(path) == tracks


class TestFilterShortTracks:
    def test_threshold_at_90(self):
        tracks = [linear_track(length=n, track_id=i) for i, n in enumerate((89, 90, 91))]
        kept = filter_short_tracks(tracks)
        assert [len(t) for t in kept] == [90, 91]

    def test_empty_input(self):
        assert filter_short_tracks([]) == []

    def test_all_long_unchanged(self):
        tracks = [linear_track(length=300, track_id=i) for i in range(3)]
        assert filter_short_tracks(tracks) == tracks

    def test_idempotent(self):
        tracks = [linear_track(length=n, track_id=i) for i, n in enumerate((50, 90, 200))]
        once = filter_short_tracks(tracks)
        assert filter_short_tracks(once) == once


class TestExtractWindows:
    def test_exact_length_gives_one_window(self):
        windows = extract_windows(linear_track(length=90))
        assert len(windows) == 1
        assert windows[0].source.anchor_frame == 29

    def test_too_short_gives_none(self):
        assert extract_windows(linear_track(length=89)) == []

    def test_three_anchors(self):
        windows = extract_windows(linear_track(length=92))
        assert [w.source.anchor_frame for w in windows] == [29, 30, 31]

    def test_stride(self):
        windows = extract_windows(linear_track(length=100), stride=5)
        assert [w.source.anchor_frame for w in windows] == [29, 34, 39]

    def test_window_slices_are_contiguous(self):
        track = linear_track(length=95)
        for w in extract_windows(track):
            t = w.source.anchor_frame - track.start_frame
            assert np.array_equal(boxes_to_array(w.observed), track.boxes[t - 29 : t + 1])
            assert np.array_equal(boxes_to_array(w.future), track.boxes[t + 1 : t + 61])
            assert w.metadata == track.metadata


def cut_by_index(tracks, stride):
    """Windows by plain index arithmetic, independent of cut_windows and extract_windows: tracks in key order,
    anchor rows p-1, p-1+stride, ... while anchor + q < len, each frame offset by its track's start_frame.
    Returns observed, future, anchor_frame and track_index (an index into the tracks that yield a window)."""
    p, q = OBSERVED_LEN, FUTURE_LEN
    observed, future, anchor_frame, track_index = [], [], [], []
    kept = [t for t in sorted(tracks, key=lambda t: t.key) if (p - 1) + q < len(t)]  # those with a first window
    for k, track in enumerate(kept):
        anchor = p - 1
        while anchor + q < len(track):
            observed.append(track.boxes[anchor - p + 1 : anchor + 1])
            future.append(track.boxes[anchor + 1 : anchor + q + 1])
            anchor_frame.append(track.start_frame + anchor)
            track_index.append(k)
            anchor += stride
    return (np.reshape(observed, (-1, p, 4)), np.reshape(future, (-1, q, 4)),
            np.array(anchor_frame, dtype=np.int64), np.array(track_index, dtype=np.int64))


class TestCutWindows:
    @settings(max_examples=150, deadline=None)
    @given(
        shapes=st.lists(st.tuples(st.one_of(st.sampled_from((89, 90, 91)), st.integers(1, 250)),
                                  st.integers(0, 10**6)), max_size=5),  # (length, start_frame)
        stride=st.one_of(st.sampled_from((1, 7, 60)), st.integers(1, 200)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shapes=[(89, 0), (90, 5), (91, 17)], stride=1, seed=0)
    @example(shapes=[(91, 3), (90, 0), (150, 40)], stride=60, seed=1)
    def test_equals_plain_index_arithmetic(self, shapes, stride, seed):
        rng = np.random.default_rng(seed)
        # listed out of key order (two videos, track ids descending), so key order is cut_windows' job
        tracks = [Track(video_id=f"v{k % 2}", track_id=len(shapes) - k, start_frame=start,
                        boxes=rng.uniform(1.0, 100.0, size=(length, 4)))
                  for k, (length, start) in enumerate(shapes)]
        batch = cut_windows(tracks, stride=stride)
        observed, future, anchor_frame, track_index = cut_by_index(tracks, stride)
        assert batch.observed.shape == observed.shape and batch.observed.tobytes() == observed.tobytes()
        assert batch.future.shape == future.shape and batch.future.tobytes() == future.tobytes()
        assert batch.anchor_frame.dtype == np.int64 and batch.anchor_frame.tolist() == anchor_frame.tolist()
        assert batch.track_index.dtype == np.int64 and batch.track_index.tolist() == track_index.tolist()

    @pytest.mark.parametrize("stride", (1, 7, 60))
    @pytest.mark.parametrize("length", (89, 90, 150))
    def test_equals_extract_windows(self, stride, length):
        tracks = synth_generate_mixed(("turning", "accelerating"), 2, 1.0, seed=4, n_frames=150)
        tracks = [dataclasses.replace(t, boxes=t.boxes[:length]) for t in reversed(tracks)]  # key order is cut_windows' job
        windows = [w for t in sorted(tracks, key=lambda t: t.key) for w in extract_windows(t, stride=stride)]
        batch = cut_windows(tracks, stride=stride)
        assert len(batch) == len(windows)
        assert batch.observed.shape == (len(windows), 30, 4)
        assert batch.future.shape == (len(windows), 60, 4)
        assert [batch.source(i) for i in range(len(batch))] == [w.source for w in windows]
        assert [batch.tracks[k].metadata for k in batch.track_index] == [w.metadata for w in windows]
        if windows:
            expected = batch_of(windows)
            assert batch.observed.tobytes() == expected.observed.tobytes()
            assert batch.future.tobytes() == expected.future.tobytes()

    @pytest.mark.parametrize("stride", (1, 7, 60))
    @pytest.mark.parametrize("length", (0, 89, 90, 91, 150))
    def test_count_windows_equals_cut(self, stride, length):
        tracks = [linear_track(length=length)] if length else []
        assert count_windows(length, stride=stride) == len(cut_windows(tracks, stride=stride))

    def test_count_windows_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            count_windows(150, stride=0)

    def test_empty_input_gives_empty_batch(self):
        batch = cut_windows([linear_track(length=89)])
        assert len(batch) == 0
        assert batch.observed.shape == (0, 30, 4) and batch.future.shape == (0, 60, 4)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            cut_windows([linear_track()], stride=0)

    def test_mismatched_fields_rejected(self):
        track = linear_track()
        for column in ("track_index", "anchor_frame"):
            fields = {"track_index": [0, 0], "anchor_frame": [29, 30], column: [0]}
            with pytest.raises(ValueError, match=re.escape(f"{column} must be (2,) for 2 windows, got shape (1,)")):
                WindowBatch(observed=np.zeros((2, 30, 4)), future=np.zeros((2, 60, 4)), tracks=(track,), **fields)

    @pytest.mark.parametrize("track_index", ([0, 2], [0, 0], [-1, 0]), ids=("past-the-table", "unused", "negative"))
    def test_the_track_index_names_each_track_and_no_other(self, track_index):
        tracks = (linear_track(track_id=0), linear_track(track_id=1))
        with pytest.raises(ValueError, match="track_index must name each of the 2 tracks and no other"):
            WindowBatch(observed=np.zeros((2, 30, 4)), future=np.zeros((2, 60, 4)), tracks=tracks,
                        track_index=track_index, anchor_frame=[29, 29])

    def test_a_window_is_two_integers_and_a_track_row(self):
        short, long_, other = linear_track(length=89), linear_track(length=92, track_id=1), linear_track(track_id=2)
        batch = cut_windows([other, short, long_], stride=2)
        assert batch.tracks == (long_, other)  # key order; the short track yields no window and is left out
        assert batch.track_index.dtype == batch.anchor_frame.dtype == np.int64
        assert batch.track_index.tolist() == [0, 0, 1] and batch.anchor_frame.tolist() == [29, 31, 29]
        assert batch.source(1) == WindowSource("vid-0", 1, 31)

    def test_groups_come_from_the_tracks(self):
        tracks = [linear_track(track_id=k, city=city) for k, city in enumerate(("bexley", "arden", "bexley"))]
        batch = cut_windows(tracks + [linear_track(length=89, track_id=3, city="cardiff")], stride=30)
        codes, labels = batch.groups("city")
        assert labels.tolist() == ["arden", "bexley"]  # sorted; cardiff's track yields no window
        assert codes.tolist() == [1, 0, 1]
        bare = dataclasses.replace(tracks[0], track_id=9, metadata={"city": "arden"})
        codes, labels = cut_windows(tracks + [bare], stride=30).groups("weather")
        assert labels.tolist() == ["", tracks[0].metadata["weather"]] and codes.tolist() == [1, 1, 1, 0]
        assert cut_windows([bare]).groups("weather") is None


class TestWindowBatch:
    def batch(self, n_tracks=2):
        return cut_windows([linear_track(track_id=i) for i in range(n_tracks)])

    def test_flow_validation(self):
        batch = self.batch()
        flow = np.ones((2, 3))
        flow[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite") as excinfo:
            dataclasses.replace(batch, flow=flow)
        assert str(batch.source(1)) in str(excinfo.value)

    @pytest.mark.parametrize("shape", ((2,), (3, 4), (2, 1, 4)))
    def test_flow_needs_one_row_per_window(self, shape):
        with pytest.raises(ValueError, match="flow must be"):
            dataclasses.replace(self.batch(), flow=np.zeros(shape))

    @pytest.mark.parametrize(
        "observed,future",
        (((2, 30, 3), (2, 60, 4)), ((2, 29, 4), (2, 60, 4)), ((2, 31, 4), (2, 60, 4)),
         ((2, 30, 4), (2, 59, 4)), ((2, 30, 4), (2, 61, 4))),
        ids=("3-channels", "p29", "p31", "q59", "q61"),
    )
    def test_window_batch_rejects_off_protocol_shapes(self, observed, future):
        with pytest.raises(ValueError, match=re.escape(f"got {observed} and {future}")):
            WindowBatch(observed=np.zeros(observed), future=np.zeros(future), tracks=(), track_index=[0, 0],
                        anchor_frame=[0, 0])

    def test_flow_is_read_only_and_keeps_its_dtype(self):
        assert self.batch().flow is None
        for dtype in (np.float32, np.float64):  # a sidecar's, --synthetic-flow's
            batch = dataclasses.replace(self.batch(), flow=np.arange(8, dtype=dtype).reshape(2, 4))
            assert batch.flow.dtype == dtype and not batch.flow.flags.writeable
            assert np.array_equal(batch.flow, np.arange(8).reshape(2, 4))
            with pytest.raises(ValueError, match="read-only"):
                batch.flow[0, 0] = 1.0


class TestMotionFilterClips:
    def test_all_below_threshold(self):
        clips = motion_filter_clips([1.0] * 600)
        assert clips == [ClipInterval(0, 599)]

    def test_single_spike_blocks_everything(self):
        mags = [1.0] * 600
        mags[300] = 2.0
        assert motion_filter_clips(mags) == []

    def test_greedy_tiling(self):
        assert motion_filter_clips([1.0] * 1200) == [ClipInterval(0, 599), ClipInterval(600, 1199)]

    def test_exactly_at_threshold_is_allowed(self):
        assert motion_filter_clips([1.5] * 600) == [ClipInterval(0, 599)]

    def test_clip_after_spike(self):
        mags = [9.0] * 10 + [0.5] * 600
        assert motion_filter_clips(mags) == [ClipInterval(10, 609)]

    def test_no_selected_frame_exceeds_threshold_property(self, rng):
        mags = rng.uniform(0.0, 3.0, size=2000)
        clips = motion_filter_clips(mags, threshold=1.5, clip_frames=50)
        prev_end = -1
        for clip in clips:
            assert clip.start_frame > prev_end  # disjoint
            assert clip.end_frame - clip.start_frame + 1 == 50
            assert np.all(mags[clip.start_frame : clip.end_frame + 1] <= 1.5)
            prev_end = clip.end_frame

    @settings(max_examples=300, deadline=None)
    @given(mags=st.lists(st.sampled_from((0.0, 1.0, 1.5, 2.0, 9.0)), max_size=60), clip_frames=st.integers(1, 12))
    def test_matches_the_greedy_scan(self, mags, clip_frames):
        expected = motion_filter_clips_oracle(np.array(mags), 1.5, clip_frames)
        assert motion_filter_clips(mags, 1.5, clip_frames) == expected

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError):
            motion_filter_clips([-1.0, 0.5])

    @pytest.mark.parametrize("threshold", (float("nan"), float("inf"), -float("inf")))
    def test_rejects_a_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold!r}"):
            motion_filter_clips([9.0] * 1200, threshold=threshold)


class TestMakeSplits:
    def make_tracks(self):
        cities = ["a-town", "b-town", "c-town"]
        return [
            linear_track(video_id=f"vid-{i}", track_id=i, city=cities[i % 3], length=95)
            for i in range(12)
        ]

    def config(self):
        return SplitConfig(folds={"a-town": 0, "b-town": 1, "c-town": 2})

    def test_holdout_city_never_trains(self):
        split = make_splits(self.make_tracks(), self.config(), fold=0)
        assert split.train_cities == {"b-town", "c-town"}
        assert split.holdout_cities == {"a-town"}

    def test_partition(self):
        tracks = self.make_tracks()
        split = make_splits(tracks, self.config(), fold=1)
        combined = sorted((*split.train, *split.val, *split.test), key=lambda t: t.key)
        assert combined == sorted(tracks, key=lambda t: t.key)
        keys = [set(t.key for t in side) for side in (split.train, split.val, split.test)]
        assert not (keys[0] & keys[1] or keys[0] & keys[2] or keys[1] & keys[2])

    def test_deterministic(self):
        a = make_splits(self.make_tracks(), self.config(), fold=2)
        b = make_splits(self.make_tracks(), self.config(), fold=2)
        assert a == b

    def test_unknown_city_is_an_error(self):
        tracks = self.make_tracks() + [linear_track(video_id="vx", track_id=99, city="nowhere")]
        with pytest.raises(SplitError, match="nowhere"):
            make_splits(tracks, self.config(), fold=0)

    def test_single_city_dataset_warns_on_empty_train(self):
        tracks = [linear_track(video_id=f"v{i}", track_id=i, city="solo") for i in range(4)]
        config = SplitConfig(folds={"solo": 0})
        with pytest.warns(UserWarning, match="empty"):
            split = make_splits(tracks, config, fold=0)
        assert split.train == ()
        assert len(split.val) + len(split.test) == 4

    def test_config_file_round_trip(self, tmp_path):
        config = dataclasses.replace(default_synth_split_config(), val_fraction=0.4)
        path = tmp_path / "splits.json"
        config.to_file(path)
        assert SplitConfig.from_file(path) == config

    def test_duplicate_city_in_file_rejected(self, tmp_path):
        path = tmp_path / "splits.json"
        path.write_text('{"folds": {"0": ["x"], "1": ["x"]}, "val_fraction": 0.5}')
        with pytest.raises(SplitError, match="x"):
            SplitConfig.from_file(path)


class TestSynthGenerate:
    def test_constant_velocity_has_constant_displacement(self):
        (track,) = synth_generate("constant_velocity", 1, 0.0, seed=7)
        steps = np.diff(track.boxes[:, :2], axis=0)
        assert np.allclose(steps, steps[0], atol=1e-9)

    def test_deterministic(self):
        a = synth_generate("constant_velocity", 3, 1.0, seed=7)
        b = synth_generate("constant_velocity", 3, 1.0, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = synth_generate("turning", 1, 0.0, seed=1)
        b = synth_generate("turning", 1, 0.0, seed=2)
        assert a != b

    @pytest.mark.parametrize("kind", ("constant_velocity", "accelerating", "turning", "stop_and_go"))
    def test_all_kinds_yield_valid_long_tracks(self, kind):
        tracks = synth_generate(kind, 4, 0.5, seed=3)
        for t in tracks:
            assert len(t) >= 90
            assert t.metadata and "city" in t.metadata

    def test_cities_round_robin(self):
        tracks = synth_generate("turning", 7, 0.0, seed=0)
        cities = [t.metadata["city"] for t in tracks]
        assert cities[0] == cities[6] and len(set(cities)) == 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            synth_generate("warp", 1, 0.0, seed=0)


class TestFlowFiles:
    def test_flow_magnitude_loading(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text(
            "video_id,frame,mean_flow_magnitude\nv0,0,1.0\nv0,1,2.5\nv1,0,0.25\n", encoding="utf-8"
        )
        mags = load_flow_magnitudes(path)
        assert set(mags) == {"v0", "v1"}
        assert np.array_equal(mags["v0"], [1.0, 2.5])

    def test_flow_feature_sidecar_round_trip(self, tmp_path, rng):
        entries = [
            (WindowSource("v0", 1, 29), rng.normal(size=16).astype(np.float32)),
            (WindowSource("v0", 1, 30), rng.normal(size=16).astype(np.float32)),
        ]
        index = tmp_path / "flow_features.csv"
        write_flow_features(entries, index)
        assert index.read_bytes() == b"video_id,track_id,anchor_frame\r\nv0,1,29\r\nv0,1,30\r\n"
        assert index.with_suffix(".bin").read_bytes() == entries[0][1].tobytes() + entries[1][1].tobytes()
        store = FlowFeatureStore.open(index)
        assert store.dim == 16 and len(store) == 2
        got = store.rows([("v0", 1, 30), ("v0", 1, 29), ("v0", 1, 30)])
        assert got.dtype == np.float32  # as stored: the model upcasts per forward pass
        assert got.tobytes() == np.stack([entries[1][1], entries[0][1], entries[1][1]]).tobytes()
        assert store.rows([]).shape == (0, 16)

    @pytest.mark.parametrize(
        "second, problem",
        (
            (("v0", 1, 30, np.zeros(5)), "has length 5, the first entry 4"),
            (("v0", 1, 29, np.zeros(4)), "repeats an earlier entry's window"),
            (("v0", 1, 30, np.array([0.0, np.nan, 0.0, 0.0])), "is not finite"),
            (("v0", 1, 30, np.array([0.0, -1e39, 0.0, 0.0])), "is outside the float32 range"),
        ),
        ids=("length", "repeat", "nan", "float32-range"),
    )
    def test_writer_rejects_what_open_would(self, tmp_path, second, problem):
        index = tmp_path / "flow_features.csv"
        *key, vec = second
        entries = [(WindowSource("v0", 1, 29), np.ones(4)), (WindowSource(*key), vec)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no float32-cast overflow warning either
            with pytest.raises(FlowFeatureError, match=rf"flow feature for WindowSource\(.*{problem}"):
                write_flow_features(entries, index)
        assert not index.exists() and not index.with_suffix(".bin").exists()

    def test_writer_rejects_an_empty_sidecar(self, tmp_path):
        index = tmp_path / "flow_features.csv"
        with pytest.raises(FlowFeatureError, match=r"flow_features\.csv: no entries to write"):
            write_flow_features([], index)
        assert not index.exists()

    def test_missing_window_feature(self, tmp_path, rng):
        index = tmp_path / "flow_features.csv"
        write_flow_features([(WindowSource("v0", 1, 29), rng.normal(size=8).astype(np.float32))], index)
        store = FlowFeatureStore.open(index)
        with pytest.raises(FlowFeatureError, match=re.escape("no flow feature for window ('v0', 1, 99)")):
            store.rows([("v0", 1, 29), ("v0", 1, 99)])

    def test_rows_gather_a_batch_by_its_keys(self, tmp_path, rng):
        tracks = [linear_track(length=95, track_id=k) for k in (2, 1)]
        batch = cut_windows(tracks, stride=2)
        vectors = rng.normal(size=(len(batch), 4)).astype(np.float32)
        order = rng.permutation(len(batch))  # the index need not be in window order
        index = tmp_path / "flow_features.csv"
        write_flow_features([(batch.source(int(i)), vectors[i]) for i in order], index)
        store = FlowFeatureStore.open(index)
        assert list(batch.keys()) == [(s.video_id, s.track_id, s.anchor_frame) for s in map(batch.source, range(len(batch)))]
        rows = store.rows(batch.keys())
        assert rows.dtype == np.float32 and rows.tobytes() == vectors.tobytes()
        write_flow_features([(batch.source(int(i)), vectors[i]) for i in order if i not in (1, 4)], index)
        with pytest.raises(FlowFeatureError, match=re.escape("no flow feature for window ('vid-0', 1, 31)")):  # window 1
            FlowFeatureStore.open(index).rows(batch.keys())

    @pytest.mark.parametrize("missing,named", ((("csv", "bin"), "csv"), (("bin",), "bin")), ids=("index", "blob"))
    def test_a_missing_file_is_named_by_its_own_path(self, tmp_path, rng, missing, named):
        # the index is read first: a missing index is named even when its blob is missing too
        index = tmp_path / "flow_features.csv"
        write_flow_features([(WindowSource("v0", 1, 29), rng.normal(size=4))], index)
        for suffix in missing:
            index.with_suffix(f".{suffix}").unlink()
        with pytest.raises(FileNotFoundError) as excinfo:
            FlowFeatureStore.open(index)
        assert excinfo.value.filename == str(index.with_suffix(f".{named}"))

    def test_duplicate_window_rejected_with_line(self, tmp_path):
        index = tmp_path / "flow_features.csv"
        blob = tmp_path / "flow_features.bin"
        cases = (
            ("v0,1,29\nv0,1,30\nv0,1,29\n", r"flow_features\.csv:4: duplicate entry for window \('v0', 1, 29\)"),
            # rows A, B, C, B, A: A and B differ only in track_id; the blank line counts, so the second B is line 6
            ("v0,1,29\nv0,2,29\nv1,1,30\n\nv0,2,29\nv0,1,29\n",
             r"flow_features\.csv:6: duplicate entry for window \('v0', 2, 29\)"),
        )
        for rows, duplicate in cases:
            index.write_text("video_id,track_id,anchor_frame\n" + rows, encoding="utf-8")
            blob.write_bytes(np.zeros(4 * len(rows.split()), dtype="<f4").tobytes())  # 4 floats per row
            with pytest.raises(FlowFeatureError, match=duplicate):
                FlowFeatureStore.open(index)

    def test_a_three_column_index_is_read_in_row_order(self, tmp_path):
        # index row i owns blob row i; dim is the blob's float count over the row count
        index = tmp_path / "flow_features.csv"
        index.write_text("video_id,track_id,anchor_frame\nv1,2,40\n\nv0,1,29\nv0,1,30\n", encoding="utf-8")
        (tmp_path / "flow_features.bin").write_bytes(np.arange(6, dtype="<f4").tobytes())
        store = FlowFeatureStore.open(index)
        assert store.dim == 2 and len(store) == 3
        got = store.rows([("v0", 1, 30), ("v1", 2, 40), ("v0", 1, 29)])
        assert got.dtype == np.float32 and got.tolist() == [[4.0, 5.0], [0.0, 1.0], [2.0, 3.0]]

    @pytest.mark.parametrize("floats", (10, 0), ids=("partial-row", "empty"))
    def test_blob_not_a_whole_number_of_rows_rejected(self, tmp_path, floats):
        index = tmp_path / "flow_features.csv"
        index.write_text("video_id,track_id,anchor_frame\nv0,1,29\nv0,1,30\nv0,1,31\n", encoding="utf-8")
        (tmp_path / "flow_features.bin").write_bytes(np.zeros(floats, dtype="<f4").tobytes())
        with pytest.raises(FlowFeatureError, match=rf"flow_features\.bin: {4 * floats} bytes is not a non-zero whole "
                                                   r"number of float32 values per index row \(3 rows\)"):
            FlowFeatureStore.open(index)

    def test_blob_of_partial_float32_rejected(self, tmp_path, rng):
        index = tmp_path / "flow_features.csv"
        write_flow_features([(WindowSource("v0", 1, 29), rng.normal(size=4))], index)
        blob = index.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes() + b"\x00\x00\x00")
        with pytest.raises(FlowFeatureError, match=r"flow_features\.bin: 19 bytes is not a non-zero whole number"):
            FlowFeatureStore.open(index)

    def test_a_five_column_index_is_refused_by_its_header(self, tmp_path):
        index = tmp_path / "flow_features.csv"
        index.write_text("video_id,track_id,anchor_frame,offset,length\nv0,1,29,0,4\n", encoding="utf-8")
        (tmp_path / "flow_features.bin").write_bytes(np.zeros(4, dtype="<f4").tobytes())
        with pytest.raises(FlowFeatureError, match=r"flow_features\.csv: bad header \[.*'offset', 'length'\], "
                                                   r"expected \['video_id', 'track_id', 'anchor_frame'\]"):
            FlowFeatureStore.open(index)

    def test_index_without_entries_rejected(self, tmp_path):
        index = tmp_path / "flow_features.csv"
        (tmp_path / "flow_features.bin").write_bytes(b"")
        index.write_text("video_id,track_id,anchor_frame\n\n", encoding="utf-8")
        with pytest.raises(FlowFeatureError, match="no entries"):
            FlowFeatureStore.open(index)

    @pytest.mark.parametrize(
        "rows, error",
        (
            ("v0,0,1.0\nv1,1,2.0\nv1,2,2.0\n", r"flow\.csv: video v1: frames not consecutive from 0"),
            ("v0,0,1.0\nv0,0,1.0\n", r"flow\.csv: video v0: frames not consecutive from 0"),
            ("v0,0,1.0\n\nv0,1,-0.5\n", r"flow\.csv:4: flow magnitude must be finite and >= 0"),
            ("v0,0,1.0\nv0,1,nan\n", r"flow\.csv:3: flow magnitude must be finite and >= 0"),
            ("v0,0,1.0\nv0,one,1.0\n", r"flow\.csv:3: malformed row"),
            ("v0,0\n", r"flow\.csv:2: "),
        ),
    )
    def test_flow_magnitude_faults_name_the_line_or_video(self, tmp_path, rows, error):
        path = tmp_path / "flow.csv"
        path.write_text("video_id,frame,mean_flow_magnitude\n" + rows, encoding="utf-8")
        with pytest.raises(TrackFormatError, match=error):
            load_flow_magnitudes(path)

    def test_a_flow_magnitude_byte_that_is_not_utf8_is_refused_naming_its_line(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_bytes(b"video_id,frame,mean_flow_magnitude\nv0,0,1.0\n\nv0,1,2\xff5\n")
        with pytest.raises(TrackFormatError, match=r"flow\.csv:4: not UTF-8: invalid start byte 0xff$"):
            load_flow_magnitudes(path)

    def test_a_sidecar_index_byte_that_is_not_utf8_is_refused_naming_its_line(self, tmp_path):
        index = tmp_path / "flow_features.csv"
        index.write_bytes(b'video_id,track_id,anchor_frame\r\nv0,1,29\r\n"v\r\n\xfe",1,30\r\n')
        (tmp_path / "flow_features.bin").write_bytes(np.zeros(8, dtype="<f4").tobytes())
        with pytest.raises(FlowFeatureError, match=r"flow_features\.csv:3: not UTF-8: invalid start byte 0xfe$"):
            FlowFeatureStore.open(index)

    def test_flow_magnitudes_sorted_by_frame(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("video_id,frame,mean_flow_magnitude\nv1,1,0.5\nv0,0,3.0\nv1,0,0.25\n", encoding="utf-8")
        mags = load_flow_magnitudes(path)
        assert list(mags) == ["v1", "v0"]
        assert mags["v1"].tolist() == [0.25, 0.5] and mags["v0"].tolist() == [3.0]
