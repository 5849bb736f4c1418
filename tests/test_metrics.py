import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mofcast.core import BBox, Forecast, Track, WindowSource, boxes_to_array
from mofcast.data import WindowBatch
from mofcast.metrics import (
    SCORE_CHUNK,
    MetricReport,
    WindowScores,
    aggregate,
    box_errors,
    breakdown,
    evaluate_batch,
    evaluate_window,
    write_curve_csv,
    write_summary_csv,
)

import metrics_oracle as oracle
from box_oracle import centroid_distance, iou
from conftest import traced_peak
from metrics_oracle import Row, scores_of

SRC = WindowSource("v", 0, 29)


def forecast_of(boxes):
    return Forecast(source=SRC, boxes=tuple(boxes), model_id="test")


def gt_boxes(n=60):
    return tuple(BBox(10.0 + k, 20.0, 5.0, 9.0) for k in range(n))


class TestEvaluateWindow:
    def test_perfect_forecast(self):
        gt = gt_boxes()
        ev = evaluate_window(forecast_of(gt), gt)
        assert np.all(ev.displacements == 0.0)
        assert np.all(ev.ious == 1.0)

    def test_constant_offset_three_four_five(self):
        gt = gt_boxes()
        pred = [BBox(b.cx + 3, b.cy + 4, b.w, b.h) for b in gt]
        ev = evaluate_window(forecast_of(pred), gt)
        assert np.allclose(ev.displacements, 5.0)

    def test_disjoint_boxes_have_zero_iou(self):
        gt = gt_boxes()
        pred = [BBox(b.cx + 1000, b.cy, b.w, b.h) for b in gt]
        ev = evaluate_window(forecast_of(pred), gt)
        assert np.all(ev.ious == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate_window(forecast_of(gt_boxes(59)), gt_boxes(60))


def assert_within_one_ulp(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= np.spacing(np.maximum(np.abs(got), np.abs(want))))


BOX_PAIRS = {
    "disjoint": (BBox(10.0, 10.0, 4.0, 4.0), BBox(100.0, 10.0, 4.0, 4.0)),
    "edge_touching": (BBox(10.0, 10.0, 4.0, 4.0), BBox(14.0, 11.0, 4.0, 6.0)),  # iw == 0
    "corner_touching": (BBox(10.0, 10.0, 4.0, 4.0), BBox(14.0, 14.0, 4.0, 4.0)),
    "contained": (BBox(10.0, 10.0, 20.0, 20.0), BBox(12.0, 11.0, 4.0, 6.0)),
    "identical": (BBox(10.3, 7.1, 3.7, 9.9), BBox(10.3, 7.1, 3.7, 9.9)),
    "partial": (BBox(10.0, 10.0, 4.0, 4.0), BBox(11.5, 9.25, 3.0, 5.0)),
}


class TestBoxErrors:
    @pytest.mark.parametrize("case", sorted(BOX_PAIRS))
    def test_matches_per_box_functions(self, case):
        a, b = BOX_PAIRS[case]
        disp, ious = box_errors(boxes_to_array([a])[None], boxes_to_array([b])[None])
        assert disp.shape == ious.shape == (1, 1)
        assert_within_one_ulp(disp[0, 0], centroid_distance(a, b))
        assert_within_one_ulp(ious[0, 0], iou(a, b))

    def test_special_cases_are_exact(self):
        pairs = [BOX_PAIRS[k] for k in ("disjoint", "edge_touching", "corner_touching", "identical")]
        _, ious = box_errors(boxes_to_array([a for a, _ in pairs]), boxes_to_array([b for _, b in pairs]))
        assert ious.tolist() == [0.0, 0.0, 0.0, 1.0]

    @given(
        st.lists(
            st.tuples(*[st.floats(-50, 50)] * 2, *[st.floats(0.5, 30)] * 2,
                      *[st.floats(-50, 50)] * 2, *[st.floats(0.5, 30)] * 2),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_random_boxes_match_per_box_functions(self, rows):
        pred = [BBox(*r[:4]) for r in rows]
        gt = [BBox(*r[4:]) for r in rows]
        disp, ious = box_errors(boxes_to_array(pred), boxes_to_array(gt))
        assert_within_one_ulp(disp, [centroid_distance(a, b) for a, b in zip(pred, gt)])
        assert_within_one_ulp(ious, [iou(a, b) for a, b in zip(pred, gt)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            box_errors(np.zeros((2, 60, 4)), np.zeros((2, 59, 4)))
        # evaluate_batch checks the whole arrays, not chunk by chunk: an empty prediction is refused too
        batch = WindowBatch(observed=np.ones((2, 30, 4)), future=np.ones((2, 60, 4)),
                            tracks=(Track("a", 0, 0, np.ones((1, 4))),), track_index=[0, 0], anchor_frame=[29, 30])
        with pytest.raises(ValueError, match="disagree: \\(0, 60, 4\\) predicted vs \\(2, 60, 4\\)"):
            evaluate_batch(np.ones((0, 60, 4)), batch)


class TestEvaluateBatch:
    def test_one_evaluation_per_window_and_no_window_identity(self, rng):
        gt = boxes_to_array(gt_boxes())
        future = np.stack([gt, gt + [1.0, 0.0, 0.0, 0.0]])
        tracks = (Track("a", 0, 0, np.ones((1, 4)), {"city": "arden"}), Track("b", 3, 0, np.ones((1, 4))))
        batch = WindowBatch(observed=np.ones((2, 30, 4)), future=future, tracks=tracks, track_index=[0, 1],
                            anchor_frame=[29, 40])
        pred = np.stack([gt, gt])
        scores = evaluate_batch(pred, batch)
        assert len(scores) == 2
        assert scores.displacements.shape == scores.ious.shape == (2, 60)
        assert [f.name for f in dataclasses.fields(scores)] == ["displacements", "ious"]
        assert np.all(scores.displacements[0] == 0.0) and np.all(scores.ious[0] == 1.0)
        assert np.allclose(scores.displacements[1], 1.0)
        single = evaluate_window(forecast_of(gt_boxes()), [BBox(*r) for r in future[1]])
        assert len(single) == 1
        assert np.array_equal(single.displacements, scores.displacements[1:])
        assert np.array_equal(single.ious, scores.ious[1:])

    def test_chunked_scores_are_one_whole_call_in_less_memory(self, rng):
        # two full chunks and a tail: the bytes of one whole box_errors call, without its full-size temporaries
        n = 2 * SCORE_CHUNK + 7
        future = np.abs(rng.normal(50.0, 20.0, size=(n, 60, 4))) + 1.0
        pred = future + rng.normal(0.0, 5.0, size=future.shape)
        batch = WindowBatch(observed=np.ones((n, 30, 4)), future=future, tracks=(Track("a", 0, 0, np.ones((1, 4))),),
                            track_index=np.zeros(n, dtype=np.int64), anchor_frame=np.arange(n))
        (disp, ious), whole_peak = traced_peak(box_errors, pred, future)
        scores, peak = traced_peak(evaluate_batch, pred, batch)
        assert scores.displacements.tobytes() == disp.tobytes() and scores.ious.tobytes() == ious.tobytes()
        assert peak < 0.75 * whole_peak, (peak, whole_peak)


def eval_with(disps, ious, metadata=None) -> Row:
    return Row(np.asarray(disps, dtype=float), np.asarray(ious, dtype=float), SRC, metadata)


def aggregate_rows(rows) -> MetricReport:
    return aggregate(scores_of(rows)[0])


def breakdown_rows(rows, field: str) -> list[MetricReport]:
    scores, batch = scores_of(rows)
    return breakdown(scores, *batch.groups(field))


class TestAggregate:
    def test_single_window_final_error_only(self):
        ev = eval_with([0.0] * 59 + [5.0], [1.0] * 60)
        report = aggregate_rows([ev])
        assert report.ade == pytest.approx(5.0 / 60.0)
        assert report.fde == 5.0
        assert report.n_windows == 1

    def test_cross_window_mean(self):
        a = eval_with([0.0] * 60, [1.0] * 60)
        b = eval_with([0.0] * 60, [0.0] * 60)
        report = aggregate_rows([a, b])
        assert report.aiou == 0.5
        assert report.fiou == 0.5

    def test_perfect_window(self):
        report = aggregate_rows([eval_with([0.0] * 60, [1.0] * 60)])
        assert (report.ade, report.fde, report.aiou, report.fiou) == (0.0, 0.0, 1.0, 1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate(WindowScores(np.empty((0, 60)), np.empty((0, 60))))

    def test_scalars_match_curves_exactly(self, rng):
        evals = [
            eval_with(rng.uniform(0, 50, 60), rng.uniform(0, 1, 60)) for _ in range(7)
        ]
        r = aggregate_rows(evals)
        assert r.ade == np.mean(r.displacement_curve)
        assert r.fde == r.displacement_curve[-1]
        assert r.aiou == np.mean(r.iou_curve)
        assert r.fiou == r.iou_curve[-1]

    def test_concatenation_equals_weighted_combination(self, rng):
        first = [eval_with(rng.uniform(0, 9, 60), rng.uniform(0, 1, 60)) for _ in range(3)]
        second = [eval_with(rng.uniform(0, 9, 60), rng.uniform(0, 1, 60)) for _ in range(5)]
        ra, rb, rall = aggregate_rows(first), aggregate_rows(second), aggregate_rows(first + second)
        combined_ade = (3 * ra.ade + 5 * rb.ade) / 8
        combined_aiou = (3 * ra.aiou + 5 * rb.aiou) / 8
        assert rall.ade == pytest.approx(combined_ade, abs=1e-12)
        assert rall.aiou == pytest.approx(combined_aiou, abs=1e-12)

    @given(offset=st.floats(-500, 500))
    @settings(max_examples=20)
    def test_translation_invariance_of_all_metrics(self, offset):
        gt = gt_boxes()
        pred = [BBox(b.cx + 2, b.cy - 1, b.w + 1, b.h) for b in gt]
        base = aggregate(evaluate_window(forecast_of(pred), gt))
        gt2 = [BBox(b.cx + offset, b.cy + offset, b.w, b.h) for b in gt]
        pred2 = [BBox(b.cx + offset, b.cy + offset, b.w, b.h) for b in pred]
        moved = aggregate(evaluate_window(forecast_of(pred2), gt2))
        assert moved.ade == pytest.approx(base.ade, abs=1e-9)
        assert moved.fde == pytest.approx(base.fde, abs=1e-9)
        assert moved.aiou == pytest.approx(base.aiou, abs=1e-9)
        assert moved.fiou == pytest.approx(base.fiou, abs=1e-9)

    def test_iou_one_implies_zero_displacement(self):
        gt = gt_boxes()
        pred = [BBox(b.cx + (0 if k % 2 else 4), b.cy, b.w, b.h) for k, b in enumerate(gt)]
        scores = evaluate_window(forecast_of(pred), gt)
        assert np.all(scores.displacements[scores.ious == 1.0] == 0.0)


class TestBreakdown:
    def test_single_group_equals_global(self):
        evals = [eval_with([1.0] * 60, [0.5] * 60, {"city": "arden"}) for _ in range(4)]
        (report,) = breakdown_rows(evals, "city")
        global_report = aggregate_rows(evals)
        assert report.group_key == "arden"
        assert report.ade == global_report.ade
        assert report.n_windows == 4

    def test_identical_groups_give_identical_reports(self):
        a = eval_with([2.0] * 60, [0.25] * 60, {"city": "a"})
        b = eval_with([2.0] * 60, [0.25] * 60, {"city": "b"})
        ra, rb = breakdown_rows([a, b], "city")
        assert (ra.ade, ra.aiou) == (rb.ade, rb.aiou)

    def test_sorted_by_aiou_descending(self):
        worse = eval_with([9.0] * 60, [0.0] * 60, {"city": "bad"})
        better = eval_with([0.0] * 60, [1.0] * 60, {"city": "good"})
        reports = breakdown_rows([worse, better], "city")
        assert [r.group_key for r in reports] == ["good", "bad"]

    def test_a_field_no_track_carries_has_no_groups(self):
        ev = eval_with([0.0] * 60, [1.0] * 60, {"city": "a"})
        assert scores_of([ev])[1].groups("weather") is None
        bare = Row(ev.displacements, ev.ious, WindowSource("bare", 4, 77), None)
        assert scores_of([bare])[1].groups("city") is None
        codes, labels = scores_of([ev, bare])[1].groups("city")  # a track that lacks it is the group ""
        assert codes.tolist() == [1, 0] and labels.tolist() == ["", "a"]

    def test_codes_name_each_row_group(self):
        scores = WindowScores(np.array([[1.0], [3.0], [5.0]]), np.array([[0.5], [0.5], [1.0]]))
        best, rest = breakdown(scores, np.array([1, 1, 0]), ["zulu", "alpha"])
        assert (best.group_key, best.n_windows, best.ade) == ("zulu", 1, 5.0)
        assert (rest.group_key, rest.n_windows, rest.ade) == ("alpha", 2, 2.0)


# First appearance in the order listed here differs from the sorted order.
GROUP_VALUES = ("delta", "alpha", "charlie", "bravo")


def assert_same_report(got: MetricReport, want: MetricReport) -> None:
    """Equal bit for bit: scalars, curves, window count and group key."""
    assert (got.ade, got.fde, got.aiou, got.fiou) == (want.ade, want.fde, want.aiou, want.fiou)
    assert got.displacement_curve.tobytes() == want.displacement_curve.tobytes()
    assert got.iou_curve.tobytes() == want.iou_curve.tobytes()
    assert (got.n_windows, got.group_key, type(got.group_key)) == (want.n_windows, want.group_key, type(want.group_key))


@st.composite
def scored_windows(draw) -> list[Row]:
    n, q = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    disp = draw(arrays(np.float64, (n, q), elements=st.floats(0.0, 1e3)))
    # Dyadic IOUs sum exactly, so groups of identical rows tie on AIOU exactly.
    iou_values = st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)
    if draw(st.booleans()):
        ious = np.tile(draw(arrays(np.float64, q, elements=st.sampled_from((0.0, 0.25, 0.5, 1.0)))), (n, 1))
    else:
        ious = draw(arrays(np.float64, (n, q), elements=iou_values))
    values = draw(st.lists(st.sampled_from(GROUP_VALUES), min_size=n, max_size=n))
    return [
        Row(disp[k].copy(), ious[k].copy(), WindowSource("v", k, 29 + k), {"city": value})
        for k, value in enumerate(values)
    ]


class TestAgainstRowOracle:
    @given(rows=scored_windows())
    @settings(max_examples=200, deadline=None)
    def test_reports_equal_the_row_by_row_oracle_bit_for_bit(self, rows):
        scores, batch = scores_of(rows)
        assert_same_report(aggregate(scores), oracle.aggregate(rows))
        got, want = breakdown(scores, *batch.groups("city")), oracle.breakdown(rows, "city")
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_report(g, w)

    def test_one_window_groups_and_aiou_ties_keep_the_value_order(self):
        tied = [0.5] * 4
        rows = [
            eval_with([1.0, 2.0, 3.0, 4.0], tied, {"city": "delta"}),
            eval_with([0.0] * 4, [1.0] * 4, {"city": "echo"}),
            eval_with([5.0] * 4, tied, {"city": "alpha"}),
            eval_with([7.0] * 4, tied, {"city": "charlie"}),
            eval_with([9.0] * 4, tied, {"city": "alpha"}),
        ]
        got = breakdown_rows(rows, "city")
        assert [r.group_key for r in got] == ["echo", "alpha", "charlie", "delta"]
        assert [r.n_windows for r in got] == [1, 2, 1, 1]
        for g, w in zip(got, oracle.breakdown(rows, "city"), strict=True):
            assert_same_report(g, w)

    def test_evaluate_batch_rows_are_the_per_window_scores(self, rng):
        future = rng.uniform(5.0, 50.0, (5, 60, 4))
        pred = future + rng.normal(0.0, 3.0, future.shape)
        # three tracks, two of them with two windows each, not adjacent in the batch
        tracks = tuple(Track("v", k, 0, np.ones((1, 4)), {"city": GROUP_VALUES[k]}) for k in range(3))
        batch = WindowBatch(observed=np.ones((5, 30, 4)), future=future, tracks=tracks,
                            track_index=[k % 3 for k in range(5)], anchor_frame=[29 + k for k in range(5)])
        scores = evaluate_batch(pred, batch)
        singles = [
            evaluate_window(Forecast(batch.source(k), tuple(BBox(*r) for r in p)), [BBox(*r) for r in f])
            for k, (p, f) in enumerate(zip(pred, future))
        ]
        rows = oracle.rows_of(*singles, batch=batch)
        assert [r.source for r in rows] == [WindowSource("v", k % 3, 29 + k) for k in range(5)]
        assert [r.metadata["city"] for r in rows] == [GROUP_VALUES[k % 3] for k in range(5)]
        assert_same_report(aggregate(scores), oracle.aggregate(rows))
        for g, w in zip(breakdown(scores, *batch.groups("city")), oracle.breakdown(rows, "city"), strict=True):
            assert_same_report(g, w)


class TestReportFiles:
    def test_summary_and_curve_files(self, tmp_path):
        report = aggregate_rows([eval_with([1.0] * 60, [0.5] * 60)])
        summary = tmp_path / "summary.csv"
        curves = tmp_path / "curves.csv"
        write_summary_csv([report], summary, model_id="cv_cs")
        write_curve_csv(report, curves)
        lines = summary.read_text().splitlines()
        assert lines[0] == "model,group,n_windows,ade,fde,aiou,fiou"
        assert lines[1].startswith("cv_cs,,1,1.000000,1.000000,0.500000,0.500000")
        curve_lines = curves.read_text().splitlines()
        assert curve_lines[0] == "step,mean_displacement,mean_iou"
        assert len(curve_lines) == 61
        assert curve_lines[1] == "1,1.000000,0.500000"
        assert curve_lines[60].startswith("60,")
