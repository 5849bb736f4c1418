"""One tiny-size pass of each workload through the correctness gate."""

from __future__ import annotations

import copy
import json
import sys

import pytest

import worker

sys.path.insert(0, str(worker.SRC))

import workloads  # noqa: E402

SPEC = json.loads((worker.SRC.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_pass(workload: str, work, trace: bool):
    plan = workloads.make_plan(workload, seed=0, work=work, tiny=True)
    workloads.generate(plan)
    out = worker.jobs(plan, seconds=0.0, trace=trace)
    return plan, out


@pytest.fixture(scope="module")
def baselines_untraced(tmp_path_factory):
    return tiny_pass("baselines_fold", tmp_path_factory.mktemp("tiny"), trace=False)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_gate_and_reports_every_metric(workload, tmp_path):
    plan, out = tiny_pass(workload, tmp_path, trace=True)
    assert worker.setup(plan) > 0.0
    summary, records = workloads.judge(plan, out)
    assert [(r["job"], r["traced"], r["problems"]) for r in records] == (
        [(k, False, []) for k in workloads.JOB_KINDS] + [(k, True, []) for k in workloads.JOB_KINDS]
    )
    assert summary == {**summary, "attempted": 8, "failed": 0}
    # the stored tiny-size reference values were part of the gate
    assert workloads.Judge(plan).reference.keys() == set(workloads.JOB_KINDS)

    traced = workloads.metric_values(out, summary, setups=[])
    assert set(traced) == {m["name"] for m in SPEC["per_layer"]}
    out_untraced = {"jobs": [j for j in out["jobs"] if not j["traced"]], "peak_rss_mb": out["peak_rss_mb"]}
    untraced = workloads.metric_values(out_untraced, workloads.judge(plan, out_untraced)[0], setups=[1.0])
    assert set(untraced) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in untraced.values())


@pytest.mark.parametrize(
    "kind, path, factor",
    [
        ("cv_cs", ("report", "ade"), 1 + 1e-6),
        ("lkf", ("report", "fiou"), 1 - 1e-6),
        ("encdec", ("initial_val_ade",), 1 + 1e-9),
        ("xeval", ("report", "aiou"), 1 + 1e-4),
    ],
)
def test_gate_rejects_a_perturbed_output(baselines_untraced, kind, path, factor):
    plan, out = baselines_untraced
    out = copy.deepcopy(out)
    job = next(j for j in out["jobs"] if j["kind"] == kind)
    holder = job["result"]
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] *= factor
    summary, records = workloads.judge(plan, out)
    assert summary["failed"] == 1
    assert [r["job"] for r in records if r["problems"]] == [kind]


def test_gate_rejects_training_whose_loss_does_not_fall(baselines_untraced):
    plan, out = baselines_untraced
    out = copy.deepcopy(out)
    job = next(j for j in out["jobs"] if j["kind"] == "encdec")
    first, last = job["result"]["epochs"][0][0], job["result"]["epochs"][-1]
    last[0] = first
    summary, records = workloads.judge(plan, out)
    assert summary["failed"] == 1
    assert any("did not fall" in p for r in records for p in r["problems"])


def test_rates_divide_out_the_host_slowdown_the_probes_saw(baselines_untraced):
    plan, out = baselines_untraced
    out = copy.deepcopy(out)
    ref = workloads.Judge(plan).probe_ref
    for job in out["jobs"]:
        job["probe_s"] = {name: 2.0 * seconds for name, seconds in ref.items()}
    summary, _ = workloads.judge(plan, out)
    assert summary["rates"].keys() == summary["wall_clock_rates"].keys()
    for name, rate in summary["rates"].items():
        assert rate == pytest.approx(2.0 * summary["wall_clock_rates"][name])
