"""Workload plans, input generation, the jobs, and how their results are judged.

A round runs four jobs through the public entry points
``mofcast.harness.run_fold`` and ``mofcast.harness.cross_eval``:

- ``cv_cs``:  ``run_fold(model="cv_cs")`` on fold 0;
- ``lkf``:    ``run_fold(model="lkf")`` with the stock 27-point grid, fold 0;
- ``encdec``: ``run_fold(model="encdec")``, bb_only, H=512, batch 1024;
- ``xeval``:  ``cross_eval`` of a ``both`` checkpoint (H=512, 2048-d flow
  read from a sidecar) over a whole track file, batch 512.

Every workload runs all four, because every workload reports every
end-to-end metric. A workload differs in which job kinds take most of its
run (and, for the GRU jobs, their size): those dominate its run, its peak
memory and its trace; the others run small.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

import gate

JOB_KINDS = ("cv_cs", "lkf", "encdec", "xeval")

# Tracks per motion family (four families, so 4n tracks), window stride and
# model size of every job. Tracks are TRACK_FRAMES long, so stride 1 cuts 61
# windows per track, stride 24 cuts 3, stride 60 cuts 2 and stride 120 one.
# SHARED sizes every job; a workload enlarges the GRU jobs it is about and
# gives its own job kinds most of the run (PRIMARY_WEIGHT). The baseline jobs
# are the same size everywhere and short (~0.2 s CV-CS, ~0.7 s LKF): the
# host alternates between a fast state and one ~1.6x slower in phases of
# seconds to a minute, and short jobs interleave the kinds finely, so every
# kind's rate averages over the same mix of host states.
SHARED = {
    "cv_cs": {"n": 6, "stride": 1},
    # ~27 filter runs per validation window, hence the sparse stride.
    "lkf": {"n": 12, "stride": 60},
    "encdec": {"n": 6, "stride": 120, "epochs": 2, "hidden": 512},
    "xeval": {"n": 12, "stride": 120, "hidden": 512},
}
WORKLOADS = {
    # Object-heavy path: validated BBox tuples, the per-window Kalman loop
    # and per-box IOU take 3/5 of the run. The GRU jobs stay at 16 training /
    # 48 forecast windows.
    "baselines_fold": {"primary": ("cv_cs", "lkf")},
    # Both uses of the GRU at the paper's H=512. Training: forward and
    # backward, Adam and assemble_arrays on 48 windows, one Adam step per
    # epoch. Cross-eval: forward only, 96 windows in one batch, a 2304-d
    # decoder code re-projected at every step, flow-sidecar I/O. Set-up
    # follows the cross-eval inputs, so it includes load_checkpoint and
    # FlowFeatureStore.open.
    "encdec_train": {
        "primary": ("xeval", "encdec"),
        "encdec": {"n": 6, "stride": 24, "epochs": 2, "hidden": 512},
        "xeval": {"n": 8, "stride": 24, "hidden": 512},
    },
}

# Every job at desk-test size: same code paths, seconds in total.
TINY = {
    "cv_cs": {"n": 12, "stride": 30},
    "lkf": {"n": 12, "stride": 120},
    "encdec": {"n": 12, "stride": 60, "epochs": 2, "hidden": 8},
    "xeval": {"n": 12, "stride": 60, "hidden": 8},
}

# A run gives the workload's own job kinds, together, this many times the
# wall time of each other job kind.
PRIMARY_WEIGHT = 3.0
TRACK_FRAMES = 150
FLOW_DIM = 2048
XEVAL_BATCH = 512


# The host probe: two fixed loops that call no mofcast code, timed before
# every job. On the shared host the same job runs up to ~1.6x slower when
# the host is busy (see README "Host speed"); the probe slows with it, and a
# rate divides that out. Pure Python tracks the baseline jobs, a GEMM of the
# GRU's shape the GRU jobs.
PROBE_KIND = {"cv_cs": "python", "lkf": "python", "encdec": "gemm", "xeval": "gemm"}
_PROBE_A = np.random.default_rng(0).standard_normal((256, 512))
_PROBE_B = np.random.default_rng(1).standard_normal((512, 512))


def host_probe() -> dict[str, float]:
    """Seconds taken by each fixed probe loop, now."""
    t0 = time.perf_counter()
    boxes = [(i * 0.5, (i % 97) * 0.25, 10.0 + i % 7, 12.0 + i % 5) for i in range(6000)]
    acc, seen = 0.0, {}
    for a, b in zip(boxes, boxes[1:]):
        w = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
        h = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
        inter = max(w, 0.0) * max(h, 0.0)
        acc += inter / (a[2] * a[3] + b[2] * b[3] - inter)
        seen[int(a[1]) % 101] = acc
    t1 = time.perf_counter()
    for _ in range(4):
        _PROBE_A @ _PROBE_B
    return {"python": t1 - t0, "gemm": time.perf_counter() - t1}


def make_plan(workload: str, seed: int, work: Path, tiny: bool = False) -> dict:
    sizes = {**SHARED, **WORKLOADS[workload]}
    jobs = []
    for kind in JOB_KINDS:
        job = {"kind": kind, **(TINY if tiny else sizes)[kind]}
        job["tracks"] = str(work / f"tracks_{job['n']}.csv")
        if kind == "xeval":
            job["checkpoint"] = str(work / "both.mofc")
            job["flow"] = str(work / "flow.csv")
        jobs.append(job)
    primary = next(j for j in jobs if j["kind"] == sizes["primary"][0])
    return {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "work": str(work),
        "splits": str(work / "splits.json"),
        "primary": list(sizes["primary"]),
        "setup": primary,
        "jobs": jobs,
    }


def _all_windows(tracks, stride: int):
    from mofcast.data import extract_windows

    return [w for t in sorted(tracks, key=lambda t: t.key) for w in extract_windows(t, stride=stride)]


def synth_tracks(n: int, seed: int):
    """4n synthetic tracks whose ids do not depend on the seed.

    The split sends held-out tracks to validation or test by a hash of the
    video id, and the generator puts the seed into the id. With seed-free ids
    and one track length, every seed cuts the same windows into the same
    splits: the seed changes motion and noise, not the amount of work.
    """
    from mofcast.data import KINDS, synth_generate_mixed

    tracks = synth_generate_mixed(KINDS, n, noise_sigma=1.0, seed=seed, n_frames=TRACK_FRAMES)
    return [dataclasses.replace(t, video_id=f"synth-{KINDS[m % len(KINDS)]}-{t.track_id:04d}")
            for m, t in enumerate(tracks)]


def both_model(job: dict, seed: int, windows):
    """The frozen ``both`` model that ``xeval`` evaluates; a pure function of the seed."""
    from mofcast.encdec import Model, ModelConfig, box_features, compute_feature_stats, init_params

    config = ModelConfig(variant="both", hidden=job["hidden"], flow_dim=FLOW_DIM)
    params = init_params(config, seed, zero_output=False)
    stats = compute_feature_stats(np.stack([box_features(w) for w in windows]))
    return Model(params=params, stats=stats)


def generate(plan: dict) -> None:
    """Write every input file of the plan. Nothing here is timed."""
    from mofcast.data import default_synth_split_config, write_flow_features, write_tracks
    from mofcast.encdec import save_checkpoint, synthetic_flow_feature

    work = Path(plan["work"])
    work.mkdir(parents=True, exist_ok=True)
    default_synth_split_config().to_file(plan["splits"])
    for job in plan["jobs"]:
        if not Path(job["tracks"]).exists():
            write_tracks(synth_tracks(job["n"], plan["seed"]), job["tracks"])
        if job["kind"] == "xeval":
            from mofcast.data import filter_short_tracks, load_tracks

            windows = _all_windows(filter_short_tracks(load_tracks(job["tracks"])), job["stride"])
            write_flow_features(((w.source, synthetic_flow_feature(w, FLOW_DIM)) for w in windows), job["flow"])
            save_checkpoint(both_model(job, plan["seed"], windows), job["checkpoint"])


def run_job(job: dict, plan: dict, out_dir: Path) -> dict:
    """One job through the harness; returns what the gate needs."""
    import mofcast.harness as harness
    from mofcast.encdec import TrainConfig

    if job["kind"] == "xeval":
        report = harness.cross_eval(
            job["checkpoint"], job["tracks"], out_dir=out_dir, stride=job["stride"],
            flow_features=job["flow"], batch_size=XEVAL_BATCH,
        )
        return {"report": _report(report)}
    train = TrainConfig(epochs=job.get("epochs", 1), hidden=job.get("hidden", 512), seed=plan["seed"])
    spec = harness.ExperimentSpec(
        tracks=job["tracks"], splits=plan["splits"], fold=0, model=job["kind"],
        out_dir=str(out_dir), stride=job["stride"], train=train,
    )
    result = harness.run_fold(spec)
    out = {"report": _report(result.report)}
    if result.lkf_params is not None:
        out["lkf_params"] = dataclasses.asdict(result.lkf_params)
    if result.train_log is not None:
        log = result.train_log
        out["initial_val_ade"] = log.initial_val_ade
        out["epochs"] = [[e.train_loss, e.val_ade] for e in log.epochs]
        out["best_epoch"] = log.best_epoch
        out["checkpoint"] = str(result.checkpoint_path)
        out["batch_size"] = train.batch_size
        out["beta"] = train.beta
    return out


def _report(report) -> dict:
    return {k: getattr(report, k) for k in ("ade", "fde", "aiou", "fiou", "n_windows")}


class Judge:
    """Expected outputs of every job of a plan, from the oracles; computed once
    per job kind because every round of a run sees the same inputs."""

    def __init__(self, plan: dict):
        from mofcast.data import SplitConfig, filter_short_tracks, load_tracks, make_splits

        self.plan = plan
        reference = gate.load_reference()
        self.tolerance = reference["tolerance"]
        self.probe_ref = reference["host_probe_s"]
        key = "tiny" if plan["tiny"] else plan["workload"]  # tiny plans are the same for every workload
        self.reference = reference["seeds"].get(key, {}).get(str(plan["seed"]), {})
        self.expected: dict[str, dict] = {}
        self.work: dict[str, float] = {}  # units of work per job, the rates' numerators
        self._checked_checkpoints: dict[str, list[str]] = {}
        split_config = SplitConfig.from_file(plan["splits"])
        for job in plan["jobs"]:
            tracks = filter_short_tracks(load_tracks(job["tracks"]))
            if job["kind"] == "xeval":
                windows = _all_windows(tracks, job["stride"])
                self.windows_xeval = windows
                self.work["xeval"] = len(windows)
                continue
            split = make_splits(tracks, split_config, 0)
            parts = {name: gate.window_arrays(_all_windows(getattr(split, name), job["stride"]))
                     for name in ("train", "val", "test")}
            self._prepare(job, parts)

    def _prepare(self, job: dict, parts: dict) -> None:
        kind = job["kind"]
        n_train, n_val, n_test = (parts[k][0].shape[0] for k in ("train", "val", "test"))
        test = parts["test"]
        if kind == "cv_cs":
            self.work[kind] = n_test
            self.expected[kind] = {"report": gate.scores(gate.cvcs(test[0], test[1].shape[1]), test[1])}
        elif kind == "lkf":
            from mofcast.baselines import default_param_grid

            grid = [dataclasses.asdict(p) for p in default_param_grid()]
            best, report = gate.lkf_tuned(parts["val"], test, grid)
            self.work[kind] = n_val * len(grid) + n_test
            self.expected[kind] = {"report": report, "lkf_params": grid[best]}
        else:
            self.work[kind] = job["epochs"] * n_train
            self.parts_encdec = parts
            self.expected[kind] = {"initial_val_ade": gate.untrained_val_ade(parts["val"])}

    def check(self, kind: str, result: dict) -> list[str]:
        """Every way the job's outputs differ from the oracles and references."""
        tol = self.tolerance
        exp = self.expected.setdefault(kind, {})
        problems = []
        if kind in ("cv_cs", "lkf"):
            problems += gate.compare(result["report"], exp["report"], tol["baselines_rtol"], kind)
            if kind == "lkf" and result["lkf_params"] != exp["lkf_params"]:
                problems.append(f"lkf: tuned {result['lkf_params']}, oracle picks {exp['lkf_params']}")
        elif kind == "encdec":
            problems += self._check_training(result)
        else:
            if "report" not in exp:
                exp["report"] = self._xeval_expected()
            problems += gate.compare(result["report"], exp["report"], tol["encdec_rtol"], kind)
        ref = self.reference.get(kind)
        if ref:
            got = dict(result["report"])
            if "epochs" in result:
                got["last_train_loss"], got["last_val_ade"] = result["epochs"][-1]
            problems += gate.compare(got, ref, tol["reference_rtol"], f"{kind} vs reference.json")
        return problems

    def _check_training(self, result: dict) -> list[str]:
        tol = self.tolerance
        parts = self.parts_encdec
        problems = []
        want = self.expected["encdec"]["initial_val_ade"]
        if not gate.close(result["initial_val_ade"], want, tol["untrained_rtol"]):
            problems.append(f"encdec: untrained val ADE {result['initial_val_ade']!r} != CV-CS val ADE {want!r}")
        losses = [loss for loss, _ in result["epochs"]]
        if parts["train"][0].shape[0] <= result["batch_size"]:
            want = gate.untrained_loss(parts["train"], result["beta"])
            if not gate.close(losses[0], want, tol["untrained_rtol"]):
                problems.append(f"encdec: epoch-1 loss {losses[0]!r} != untrained smooth-L1 {want!r}")
        if any(b >= a for a, b in zip(losses, losses[1:])):
            problems.append(f"encdec: training loss did not fall every epoch: {losses}")
        # Rounds train identically; the oracle forward runs once per distinct checkpoint.
        digest = hashlib.sha256(Path(result["checkpoint"]).read_bytes()).hexdigest()
        if digest not in self._checked_checkpoints:
            from mofcast.encdec import load_checkpoint

            model = load_checkpoint(result["checkpoint"])
            test = parts["test"]
            report = gate.scores(gate.encdec(model, test[0], None, test[1].shape[1]), test[1])
            self._checked_checkpoints[digest] = gate.compare(result["report"], report, tol["encdec_rtol"], "encdec")
        return problems + self._checked_checkpoints[digest]

    def _xeval_expected(self) -> dict:
        from mofcast.encdec import synthetic_flow_feature

        job = next(j for j in self.plan["jobs"] if j["kind"] == "xeval")
        windows = self.windows_xeval
        model = both_model(job, self.plan["seed"], windows)
        flow = np.stack([synthetic_flow_feature(w, FLOW_DIM) for w in windows]).astype("<f4").astype(np.float64)
        obs, fut = gate.window_arrays(windows)
        return gate.scores(gate.encdec(model, obs, flow, fut.shape[1]), fut)


RATE_NAMES = {
    "cv_cs": "cvcs_windows_per_s",
    "lkf": "lkf_window_evals_per_s",
    "encdec": "train_samples_per_s",
    "xeval": "eval_windows_per_s",
}


def judge(plan: dict, worker: dict) -> tuple[dict, list[dict]]:
    """Gate every job; returns the run summary and one record per job."""
    judge_ = Judge(plan)
    probe_ref = judge_.probe_ref
    records = []
    # [work, wall seconds, wall seconds at the reference host speed] of the passing jobs
    totals: dict[tuple[bool, str], list[float]] = {}
    jobs = worker["jobs"]
    for index, job in enumerate(jobs):
        kind = job["kind"]
        problems = [job["error"]] if job["error"] else judge_.check(kind, job["result"])
        records.append({"index": index, "traced": job["traced"], "job": kind, "wall_s": job["wall_s"],
                        "probe_s": job["probe_s"], "problems": problems, "values": job["result"] or {}})
        if not problems:
            # the host's speed during the job: the probes just before and just after it
            probe = PROBE_KIND[kind]
            after = jobs[index + 1]["probe_s"] if index + 1 < len(jobs) else job["probe_s"]
            slowdown = (job["probe_s"][probe] + after[probe]) / 2.0 / probe_ref[probe]
            total = totals.setdefault((job["traced"], kind), [0.0, 0.0, 0.0])
            total[0] += judge_.work[kind]
            total[1] += job["wall_s"]
            total[2] += job["wall_s"] / slowdown
    names = {key: ("traced." if key[0] else "") + RATE_NAMES[key[1]] for key in totals}
    summary = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "rates": {names[key]: work / ref_wall for key, (work, _, ref_wall) in totals.items()},
        "wall_clock_rates": {names[key]: work / wall for key, (work, wall, _) in totals.items()},
    }
    return summary, records


def metric_values(worker: dict, summary: dict, setups: list[float]) -> dict[str, float]:
    """Per-layer metrics when the worker traced, end-to-end metrics otherwise.

    Untraced: a rate is the work of the run's passing jobs of a kind over
    their summed wall time at the reference host speed (``judge``),
    ``setup_s`` the median of the fresh-process set-ups. Traced: each layer
    metric is the median over the traced rounds, next to the traced rates and
    the tracing overhead: the sum over job kinds of the median traced job
    wall, over the same sum untraced, minus one.
    """
    if "layers" not in worker:
        values = {k: v for k, v in summary["rates"].items() if not k.startswith("traced.")}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = worker["peak_rss_mb"]
        return values
    layers = worker["layers"]
    values = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
    values["blas.gemm_f64.gflops_per_s"] = worker["gemm_gflops"]
    values.update({k: v for k, v in summary["rates"].items() if k.startswith("traced.")})
    walls = {
        traced: sum(
            statistics.median(j["wall_s"] for j in worker["jobs"] if j["traced"] == traced and j["kind"] == kind)
            for kind in JOB_KINDS
        )
        for traced in (False, True)
    }
    values["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return values


def json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=float)
