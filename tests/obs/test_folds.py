"""The journal metric folds: one definition, independent of record order."""

import json
import os
import random

import pytest

from repro.analysis.journaldiff import journal_metrics
from repro.obs.folds import FirstAnomaly, run_folds

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def population_records() -> list:
    """The committed two-chain population journal (schema v5)."""
    with open(os.path.join(FIXTURES, "v5.jsonl")) as handle:
        return [json.loads(line) for line in handle]


def reinterleave(records, seed=None) -> list:
    """The same chain streams merged in another order: chains back to
    back in reverse (``seed=None``) or randomly interleaved."""
    by_chain: dict = {}
    for record in records:
        by_chain.setdefault(record.get("chain"), []).append(record)
    streams = list(by_chain.values())
    if seed is None:
        return [record for stream in reversed(streams) for record in stream]
    rng = random.Random(seed)
    merged = []
    while streams:
        stream = rng.choice(streams)
        merged.append(stream.pop(0))
        if not stream:
            streams.remove(stream)
    return merged


@pytest.mark.parametrize("seed", (None, 0, 1, 2))
def test_chain_interleaving_leaves_journal_metrics_unchanged(seed):
    records = population_records()
    assert journal_metrics(reinterleave(records, seed)) == (
        journal_metrics(records)
    )


def test_ttfa_is_the_earliest_run_not_the_first_line():
    """Two runs journaled one after another (``--workers``): the
    second run's earlier anomaly is the journal's TTFA."""

    def run(first_anomaly):
        return [
            {"t": "run_start", "subsystem": "H"},
            {"t": "experiment", "time_seconds": 10.0, "symptom": "healthy"},
            {"t": "experiment", "time_seconds": first_anomaly,
             "symptom": "pause frame"},
            {"t": "run_end"},
        ]

    (ttfa,) = run_folds(run(50.0) + run(20.0), FirstAnomaly())
    assert ttfa.result() == 20.0


@pytest.mark.parametrize("fixture", ("v3.jsonl", "v7.jsonl", "v8.jsonl"))
def test_report_json_builds_each_workload_once(fixture, monkeypatch, capsys):
    """``report --json`` runs the coverage and report folds in one pass;
    they share each record's parsed workload (and MFS witness) instead
    of building it once each."""
    from repro.cli import main
    from repro.hardware.workload import WorkloadDescriptor

    built = []
    post_init = WorkloadDescriptor.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    path = os.path.join(FIXTURES, fixture)
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    carrying = sum(
        record["t"] in ("experiment", "anomaly")
        or (record["t"] == "skip" and "workload" in record)
        for record in records
    )
    monkeypatch.setattr(WorkloadDescriptor, "__post_init__", counting)
    assert main(["report", "--json", path]) == 0
    capsys.readouterr()
    assert len(built) == carrying
