"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tracing ---------------------------------------------------------------------


def test_self_times_telescope_on_a_synthetic_span_list():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9] > d [5, 6], e [7, 8.5]
    parents = [-1, 0, 1, 0, 3, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
    selfs = tracer.self_times(parents, starts, ends)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(selfs) == pytest.approx(ends[0] - starts[0])


def _steps(leaf):
    for value in range(2):
        leaf(100)
        yield value


def _traced_calls() -> tracer.Tracer:
    trace = tracer.Tracer(origin=time.monotonic())
    leaf = trace.wrap("features", lambda n: sum(range(n)))

    def body():
        for _ in range(3):
            leaf(2000)
        assert list(trace.wrap_generator("mfs", _steps)(leaf)) == [0, 1]

    trace.wrap("model", body)()
    trace.finish(time.monotonic())
    return trace


def test_running_self_times_match_the_recorded_spans():
    trace = _traced_calls()
    selfs = tracer.self_times(trace.parent, trace.start, trace.end)
    for lid in range(len(tracer.NAMES)):
        own = sum(s for s, name in zip(selfs, trace.name) if name == lid)
        assert trace.self_s[lid] == pytest.approx(own, abs=1e-9)
    assert sum(trace.self_s) == pytest.approx(
        trace.end[0] - trace.start[0], abs=1e-9
    )
    assert trace.calls[trace.ids["features"]] == 5
    # One span per resumption: two yields and the final return.
    assert trace.calls[trace.ids["mfs"]] == 3


def test_the_span_check_catches_misparented_and_overlapping_spans(tmp_path):
    trace = _traced_calls()
    layers = trace.layer_stats()
    path = tmp_path / "spans.json"
    trace.dump(str(path))
    assert run.span_problems(path, layers) == []
    good = json.loads(path.read_text())
    leaf = good["name"].index(trace.ids["features"])

    misparented = json.loads(json.dumps(good))
    misparented["parent"][leaf] = 0
    path.write_text(json.dumps(misparented))
    assert {p.split()[0] for p in run.span_problems(path, layers)} == {
        "root", "model"
    }

    overlapping = json.loads(json.dumps(good))
    overlapping["end"][leaf] = good["end"][0] + 1.0
    path.write_text(json.dumps(overlapping))
    assert "a features span lies outside its parent" in run.span_problems(
        path, layers
    )


# -- statistics --------------------------------------------------------------------


def test_percentile_and_the_ten_samples_beyond_rule():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 0.5) == statistics.median(values)
    assert run.percentile(values, 0.9) == pytest.approx(90.1)
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(91, 0.9) == 9
    # One follow repetition alone has ten refreshes beyond p90.
    assert run.samples_beyond(child.FOLLOW_CHUNKS, 0.9) >= 10


# -- output checks ----------------------------------------------------------------


def test_the_search_check_rejects_a_perturbed_report():
    from repro.analysis.serialize import report_to_dict
    from repro.core import Collie

    report = report_to_dict(
        Collie.for_subsystem("H", seed=1, budget_hours=10.0).run()
    )
    assert report["anomalies"], "the check needs an MFS to perturb"
    good = {"H/1": checks.digest(report)}
    perturbed = [
        dict(report, experiments=report["experiments"] + 1),
        dict(report, skipped_points=report["skipped_points"] + 1),
        dict(report, anomalies=report["anomalies"][1:]),
    ]
    moved = json.loads(json.dumps(report))
    moved["anomalies"][0]["witness"]["num_qps"] += 1
    perturbed.append(moved)
    for bad in perturbed:
        actual = {"H/1": checks.digest(bad)}
        assert checks.failed_searches(good, actual, {}) == {"H/1"}
        assert checks.failed_searches({}, actual, good) == {"H/1"}
    assert checks.failed_searches(good, good, good) == set()
    assert checks.failed_searches(good, {}, {}) == {"H/1"}


def test_the_follow_check_rejects_a_drifted_live_metric():
    live = {
        "time_to_first_anomaly_seconds": 120.0,
        "acceptance_rate": 0.4,
        "coverage_fraction": 0.3,
        "latency_p99_us_median": 12.5,
    }
    assert checks.follow_mismatches(live, dict(live)) == []
    assert checks.follow_mismatches(
        live, dict(live, acceptance_rate=0.41)
    ) == ["acceptance_rate"]
    assert checks.follow_mismatches(
        live, dict(live, time_to_first_anomaly_seconds=None)
    ) == ["time_to_first_anomaly_seconds"]


# -- the command ------------------------------------------------------------------


def test_benchmark_json_lists_what_the_harness_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        run.per_layer_specs()
    )


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_budget_smoke_prints_every_metric_with_its_unit(
    workload, trace, monkeypatch, capsys
):
    monkeypatch.setattr(run, "HOURS", 0.3)
    code = run.main([
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", trace,
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        PERFBENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
