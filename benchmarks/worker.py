"""The workload process: one fresh interpreter per set-up sample and per run.

    python3 benchmarks/worker.py setup PLAN
    python3 benchmarks/worker.py jobs PLAN SECONDS TRACE OUT

``setup`` times, in this fresh process, ``import mofcast`` and the load path
(load_tracks → filter_short_tracks → make_splits → extract_windows, plus
load_checkpoint and FlowFeatureStore.open when the primary job is
``xeval``) and prints the seconds. ``jobs`` runs the plan's jobs for
SECONDS (see ``jobs``) and writes the job results, per-layer metrics and its
peak RSS to OUT.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(plan: dict) -> float:
    started = time.perf_counter()
    import mofcast  # noqa: F401  (the import is part of set-up)
    from mofcast.data import SplitConfig, extract_windows, filter_short_tracks, load_tracks, make_splits

    job = plan["setup"]
    tracks = filter_short_tracks(load_tracks(job["tracks"]))
    split = make_splits(tracks, SplitConfig.from_file(plan["splits"]), 0)
    windows = [w for t in split.train + split.val + split.test for w in extract_windows(t, stride=job["stride"])]
    if job["kind"] == "xeval":
        from mofcast.data import FlowFeatureStore
        from mofcast.encdec import load_checkpoint

        load_checkpoint(job["checkpoint"])
        FlowFeatureStore.open(job["flow"])
    elapsed = time.perf_counter() - started
    if not windows:
        raise RuntimeError("set-up cut no windows")
    return elapsed


def _run(job: dict, plan: dict, out_dir: Path, traced: bool) -> dict:
    import workloads

    probe = workloads.host_probe()  # outside the job's wall time
    t0 = time.perf_counter()
    try:
        result, error = workloads.run_job(job, plan, out_dir), None
    except Exception:  # a failed job is counted, not fatal
        result, error = None, traceback.format_exc()
        print(error, file=sys.stderr)
    return {"kind": job["kind"], "traced": traced, "wall_s": time.perf_counter() - t0,
            "probe_s": probe, "result": result, "error": error}


def jobs(plan: dict, seconds: float, trace: bool) -> dict:
    """Untraced: every job once, then always the job whose kind has the least
    weighted wall time so far, until SECONDS have passed. Traced: rounds of
    every job once, every other round traced."""
    import mofcast.harness  # noqa: F401  (imported before timing: setup_s covers imports)
    import tracing
    import workloads

    out_root = Path(plan["work"]) / "runs"
    done, layers = [], []
    started = time.perf_counter()
    if trace:
        while len(layers) < 1 or time.perf_counter() - started < seconds:
            for traced in (False, True):
                with tracing.Tracer() if traced else contextlib.nullcontext() as recorder:
                    done += [_run(job, plan, out_root / f"{len(done)}", traced) for job in plan["jobs"]]
                if traced:
                    layers.append(tracing.round_layers(recorder))
    else:
        own = workloads.PRIMARY_WEIGHT / len(plan["primary"])
        weight = {j["kind"]: own if j["kind"] in plan["primary"] else 1.0 for j in plan["jobs"]}
        spent = dict.fromkeys(weight, 0.0)
        queue = list(plan["jobs"])
        while queue or time.perf_counter() - started < seconds:
            job = queue.pop(0) if queue else min(plan["jobs"], key=lambda j: spent[j["kind"]] / weight[j["kind"]])
            done.append(_run(job, plan, out_root / f"{len(done)}", False))
            spent[job["kind"]] += done[-1]["wall_s"]
    out = {"jobs": done, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        out["layers"] = layers
        out["gemm_gflops"] = tracing.gemm_gflops()
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    mode, plan = argv[0], json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if mode == "setup":
        print(json.dumps({"setup_s": setup(plan)}))
    else:
        seconds, trace, out = float(argv[2]), argv[3] == "1", Path(argv[4])
        out.write_text(json.dumps(jobs(plan, seconds, trace)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
