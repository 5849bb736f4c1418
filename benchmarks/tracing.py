"""Traced rounds: wrap the public functions of every module at the attribute
their caller looks up, and reduce the recorded spans to per-layer metrics.

Per-box functions (``iou``, ``centroid_distance``, ``BBox``) are not wrapped:
the wrapper would cost more than the call. All counts are computed from
arguments, results and array shapes, never sampled.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict

import numpy as np
from mofcast.encdec import FEATURE_DIM

from spans import SpanRecorder, wrap

MB = 1024.0 * 1024.0


def _gru_name(direction: str):
    """Encoder or decoder, told apart by the GRUParams passed: the encoder reads the 8 box features."""
    return lambda params, *a, **k: f"encdec.gru.{direction}_{'enc' if params.input_dim == FEATURE_DIM else 'dec'}"


def _gru_forward_counts(result, params, x, *args, **kwargs) -> dict:
    """GEMM FLOPs from shapes: 6·B·T·H·I input projection plus 6·B·T·H² recurrence."""
    b, t, i = x.shape
    hd = params.hidden_dim
    return {"input_flops": 6.0 * b * t * hd * i, "flops": 6.0 * b * t * hd * (i + hd),
            "cache_mb": sum(a.nbytes for a in result[1]) / MB}


def _gru_backward_counts(result, params, cache, *args, **kwargs) -> dict:
    """Backward GEMM FLOPs: twice the forward (gradients of both weights and inputs)."""
    b, t, i = cache.x.shape
    return {"flops": 12.0 * b * t * params.hidden_dim * (i + params.hidden_dim)}


def _arrays_mb(result, *args, **kwargs) -> dict:
    arrays = [result.features, result.flow, result.base, result.gt]
    return {"mb": sum(a.nbytes for a in arrays if a is not None) / MB, "windows": len(result)}


def _file_mb(path) -> float:
    return os.path.getsize(path) / MB


# (module, attribute or Class.attribute, span name or a function of the call's
# arguments giving it, counter)
TRACED = [
    ("mofcast.harness", "run_fold", "harness.run_fold", None),
    ("mofcast.harness", "cross_eval", "harness.cross_eval", None),
    ("mofcast.harness", "load_tracks", "data.io.load_tracks",
     lambda r, *a, **k: {"tracks": len(r), "rows": sum(len(t) for t in r)}),
    ("mofcast.harness", "make_splits", "data.splits.make_splits", None),
    ("mofcast.harness", "extract_windows", "data.windows.extract_windows", lambda r, *a, **k: {"windows": len(r)}),
    ("mofcast.harness", "FlowFeatureStore.open", "data.io.flow_store_open",
     lambda r, *a, **k: {"mb": len(r) * r.dim * 4 / MB, "entries": len(r)}),
    ("mofcast.harness", "attach_flow_features", "harness.attach_flow_features",
     lambda r, *a, **k: {"windows": len(r)}),
    ("mofcast.harness", "cv_cs_forecast", "baselines.cv_cs_forecast", lambda r, *a, **k: {"windows": 1}),
    ("mofcast.harness", "lkf_tune", "baselines.lkf_tune",
     lambda r, windows, grid, **k: {"windows": len(windows), "grid_points": len(grid)}),
    ("mofcast.harness", "lkf_forecast_window", "baselines.lkf_forecast_window", None),
    ("mofcast.baselines", "lkf_forecast_window", "baselines.lkf_forecast_window", None),
    ("mofcast.harness", "evaluate_window", "metrics.evaluate_window", lambda r, *a, **k: {"windows": 1}),
    ("mofcast.baselines", "evaluate_window", "metrics.evaluate_window", lambda r, *a, **k: {"windows": 1}),
    ("mofcast.harness", "aggregate", "metrics.aggregate", None),
    ("mofcast.baselines", "aggregate", "metrics.aggregate", None),
    ("mofcast.metrics", "aggregate", "metrics.aggregate", None),
    ("mofcast.harness", "breakdown", "metrics.breakdown", None),
    ("mofcast.harness", "write_summary_csv", "metrics.write_csv", None),
    ("mofcast.harness", "write_curve_csv", "metrics.write_csv", None),
    ("mofcast.harness", "train", "encdec.training.train",
     lambda r, tr, val, cfg, **k: {"train_windows": len(tr), "val_windows": len(val), "epochs": cfg.epochs}),
    ("mofcast.encdec.training", "assemble_arrays", "encdec.training.assemble_arrays", _arrays_mb),
    ("mofcast.encdec.training", "box_features", "encdec.features.box_features", lambda r, *a, **k: {"windows": 1}),
    ("mofcast.encdec.model", "box_features", "encdec.features.box_features", lambda r, *a, **k: {"windows": 1}),
    ("mofcast.encdec.training", "loss_and_gradients", "encdec.model.loss_and_gradients", None),
    ("mofcast.encdec.training", "forward_batch", "encdec.model.forward_batch",
     lambda r, *a, **k: {"rows": r.residuals.shape[0]}),
    ("mofcast.encdec.model", "forward_batch", "encdec.model.forward_batch",
     lambda r, *a, **k: {"rows": r.residuals.shape[0]}),
    ("mofcast.encdec.model", "backward_batch", "encdec.model.backward_batch", None),
    ("mofcast.encdec.model", "gru_forward", _gru_name("forward"), _gru_forward_counts),
    ("mofcast.encdec.model", "gru_backward", _gru_name("backward"), _gru_backward_counts),
    ("mofcast.encdec.training", "Adam.step", "encdec.training.adam_step", None),
    ("mofcast.harness", "forecast_windows", "encdec.model.forecast_windows",
     lambda r, model, windows, *a, **k: {"windows": len(windows)}),
    ("mofcast.encdec.model", "residuals_to_boxes", "encdec.model.residuals_to_boxes", lambda r, *a, **k: {"windows": 1}),
    ("mofcast.harness", "save_checkpoint", "encdec.checkpoint.save",
     lambda r, model, path, **k: {"mb": _file_mb(path)}),
    ("mofcast.harness", "load_checkpoint", "encdec.checkpoint.load", lambda r, path, **k: {"mb": _file_mb(path)}),
    ("mofcast.harness", "weights_checksum", "harness.weights_checksum", None),
]


class Tracer:
    """Installs the wrappers of ``TRACED`` for the duration of a ``with`` block."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self._undo = []

    def __enter__(self) -> SpanRecorder:
        for module_name, attr, name, count in TRACED:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self._undo.append(wrap(self.recorder, owner, attr, name, count))
        return self.recorder

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()


def gemm_gflops(m: int = 256, k: int = 512, n: int = 512, reps: int = 30) -> float:
    """Median float64 GEMM rate of this process, (m×k)·(k×n)."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def round_layers(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``.s``/``.ms`` metrics are the round's total time in that layer's calls,
    except those built with ``per_call``; ``per_window``/``per_call`` metrics
    are medians over calls of the call's time divided by its work count. Only
    the ``self_*`` metrics subtract the time of wrapped callees.
    """
    spans = recorder.spans
    self_t = recorder.self_times()
    calls = defaultdict(list)  # name -> [(span, self time)]
    for s, st in zip(spans, self_t):
        calls[s.name].append((s, st))

    def total(name):
        return sum(s.duration for s, _ in calls[name])

    def per_call(name, scale=1.0, key=None, own=False):
        return _median((st if own else s.duration) * scale / s.counts.get(key, 1) for s, st in calls[name])

    def count_sum(name, key):
        return float(sum(s.counts.get(key, 0) for s, _ in calls[name]))

    out = {
        "data.io.load_tracks.s": total("data.io.load_tracks"),
        "data.io.load_tracks.rows": count_sum("data.io.load_tracks", "rows"),
        "data.windows.extract_windows.s": total("data.windows.extract_windows"),
        "data.windows.extract_windows.windows": count_sum("data.windows.extract_windows", "windows"),
        "data.splits.make_splits.ms": total("data.splits.make_splits") * 1e3,
        "data.io.flow_store_open.s": total("data.io.flow_store_open"),
        "data.io.flow_store_open.mb": count_sum("data.io.flow_store_open", "mb"),
        "harness.attach_flow_features.s": total("harness.attach_flow_features"),
        "baselines.cv_cs_forecast.us_per_window": per_call("baselines.cv_cs_forecast", 1e6),
        "metrics.evaluate_window.us_per_window": per_call("metrics.evaluate_window", 1e6),
        "baselines.lkf_forecast_window.us_per_call": per_call("baselines.lkf_forecast_window", 1e6),
        "baselines.lkf_forecast_window.calls": float(len(calls["baselines.lkf_forecast_window"])),
        "baselines.lkf_tune.s": total("baselines.lkf_tune"),
        "baselines.lkf_tune.grid_points": count_sum("baselines.lkf_tune", "grid_points"),
        "metrics.aggregate.ms": total("metrics.aggregate") * 1e3,
        "metrics.breakdown.ms": total("metrics.breakdown") * 1e3,
        "metrics.write_csv.ms": total("metrics.write_csv") * 1e3,
        "encdec.features.box_features.us_per_window": per_call("encdec.features.box_features", 1e6),
        "encdec.training.assemble_arrays.s": total("encdec.training.assemble_arrays"),
        "encdec.training.assemble_arrays.mb": count_sum("encdec.training.assemble_arrays", "mb"),
        "encdec.model.forward_batch.self_ms": per_call("encdec.model.forward_batch", 1e3, own=True),
        "encdec.model.forward_batch.rows_per_call": _median(
            s.counts["rows"] for s, _ in calls["encdec.model.forward_batch"]
        ),
        "encdec.model.backward_batch.self_ms": per_call("encdec.model.backward_batch", 1e3, own=True),
        "encdec.training.adam_step.ms": per_call("encdec.training.adam_step", 1e3),
        "encdec.model.forecast_windows.ms_per_window": per_call("encdec.model.forecast_windows", 1e3, key="windows"),
        "encdec.model.residuals_to_boxes.us_per_window": per_call("encdec.model.residuals_to_boxes", 1e6),
        "encdec.checkpoint.save.ms": per_call("encdec.checkpoint.save", 1e3),
        "encdec.checkpoint.load.ms": per_call("encdec.checkpoint.load", 1e3),
        "encdec.checkpoint.mb": _median(
            s.counts["mb"] for n in ("encdec.checkpoint.save", "encdec.checkpoint.load") for s, _ in calls[n]
        ),
        "harness.weights_checksum.ms": per_call("harness.weights_checksum", 1e3),
        "harness.run_fold.self_s": per_call("harness.run_fold", own=True),
        "harness.cross_eval.self_s": per_call("harness.cross_eval", own=True),
        "trace.spans": float(len(spans)),
    }

    # forward_batch calls made by train() itself, outside loss_and_gradients, are validation.
    validation = 0.0
    for s, _ in calls["encdec.model.forward_batch"]:
        if s.parent >= 0 and spans[s.parent].name == "encdec.training.train":
            validation += s.duration
    out["encdec.training.validation.s"] = validation

    cache_mb = [s.counts["cache_mb"] for s, _ in calls["encdec.gru.forward_enc"] + calls["encdec.gru.forward_dec"]]
    out["encdec.gru.cache.mb"] = max(cache_mb, default=0.0)
    for direction in ("forward", "backward"):
        for part in ("enc", "dec"):
            name = f"encdec.gru.{direction}_{part}"
            out[f"{name}.ms_per_call"] = per_call(name, 1e3)
            busy = total(name)
            out[f"{name}.gflops_per_s"] = count_sum(name, "flops") / busy / 1e9 if busy else 0.0
    dec_flops = count_sum("encdec.gru.forward_dec", "flops")
    out["encdec.gru.forward_dec.input_proj_flop_frac"] = (
        count_sum("encdec.gru.forward_dec", "input_flops") / dec_flops if dec_flops else 0.0
    )

    # Windows a round consumes (reach a forecaster's fit or predict) over windows it cuts.
    consumed = sum(
        1 for s, _ in calls["metrics.evaluate_window"]
        if s.parent >= 0 and spans[s.parent].name in ("harness.run_fold", "harness.cross_eval")
    )
    consumed += count_sum("baselines.lkf_tune", "windows")
    consumed += count_sum("encdec.training.train", "train_windows") + count_sum("encdec.training.train", "val_windows")
    cut = out["data.windows.extract_windows.windows"]
    out["data.windows.used_frac"] = consumed / cut if cut else 0.0
    return out
