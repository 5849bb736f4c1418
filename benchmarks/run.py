"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Generates the workload's inputs from
the seed under ``.bench_work/``, times set-up in fresh processes, runs the
jobs in one workload process for S seconds, gates every job's outputs
against the oracles, and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Earlier lines carry the environment, one record per job and
the rates before the host-speed correction.
See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 150


def _child(args: list[str], timeout: float) -> str:
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    return done.stdout


def _blas_threads(lib_dir: Path) -> int | None:
    """Threads the bundled OpenBLAS will use, asked through its own C API."""
    for path in sorted(lib_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    pinned = importlib.util.find_spec("threadpoolctl") is not None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(Path(np.__file__).parent.parent / "numpy.libs"),
        "blas_pinned": pinned,
        "blas_pinned_reason": (
            "threadpoolctl is importable, so TrainConfig.deterministic pins BLAS to 1 thread in train()"
            if pinned else
            "TrainConfig.deterministic is a no-op: threadpoolctl is not installed, BLAS keeps its default threads"
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mofcast" / "__init__.py").is_file():
        print(f"no mofcast sources under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = workloads.make_plan(args.workload, args.seed, work)
        workloads.generate(plan)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        setups = [] if args.trace else [
            json.loads(_child(["setup", str(plan_path)], CHILD_TIMEOUT_S).splitlines()[-1])["setup_s"]
            for _ in range(SETUP_RUNS)
        ]
        out_path = work / "worker.json"
        _child(["jobs", str(plan_path), str(args.seconds), str(args.trace), str(out_path)], CHILD_TIMEOUT_S)
        worker = json.loads(out_path.read_text(encoding="utf-8"))
        summary, records = workloads.judge(plan, worker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(workloads.json_line({"environment": environment()}))
    for record in records:
        print(workloads.json_line(record))
    print(workloads.json_line({"wall_clock_rates": summary["wall_clock_rates"]}))

    values = workloads.metric_values(worker, summary, setups)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured (every job of their kind failed?): {missing}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]} for m in wanted if m["name"] in values}
    print(json.dumps({
        "correct": summary["failed"] == 0 and not missing,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
