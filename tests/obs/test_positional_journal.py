"""Positional journals rebuild the searches that wrote them.

Each execution mode that journals — a solo search, a population, an
isolation search, campaigns journaled after the fact, a resumed
campaign — writes only current-schema records in the positional shape
v8 introduced (one per experiment, no ``latency`` records), and
:func:`~repro.obs.journal.reports_from_journal` gives back reports
equal to the in-memory ones, latency summaries and victim interference
included.  A journal whose older runs are v7 and newer ones positional
reads the same way.  ("v8" in the names below is that shape.)
"""

import json

import pytest

from repro.analysis import campaign as campaign_module
from repro.analysis.campaign import APPROACHES, run_campaign
from repro.analysis.isolation import default_victim
from repro.core import Collie
from repro.core.population import PopulationCollie
from repro.obs import (
    VERIFY_OK,
    SCHEMA_VERSION,
    FlightRecorder,
    RunJournal,
    journal_summary,
    read_journal,
    reports_from_journal,
    verify_journal,
)
from tests.obs.journal_shapes import as_keyed


def journaled(path, run):
    """``run(recorder)``'s result, with the journal closed."""
    recorder = FlightRecorder(journal=RunJournal(path))
    try:
        return run(recorder)
    finally:
        recorder.close()


def assert_only_current(path) -> list:
    records = read_journal(path)
    assert {record["v"] for record in records} == {SCHEMA_VERSION}
    assert "latency" not in journal_summary(records)["by_type"]
    assert verify_journal(path)[0] == VERIFY_OK
    return records


class TestRebuiltEqualsInMemory:
    def test_solo_search(self, tmp_path):
        path = tmp_path / "solo.jsonl"
        report = journaled(path, lambda recorder: Collie.for_subsystem(
            "F", budget_hours=1.0, seed=2, recorder=recorder,
        ).run())
        assert_only_current(path)
        assert any(event.latency is not None for event in report.events)
        assert reports_from_journal(path) == [report]

    def test_population(self, tmp_path):
        path = tmp_path / "chains.jsonl"
        population = journaled(path, lambda recorder: PopulationCollie(
            "F", chains=3, budget_hours=0.5, seed=1, recorder=recorder,
        ).run())
        assert_only_current(path)
        assert reports_from_journal(path) == population.reports

    def test_isolation_search(self, tmp_path):
        path = tmp_path / "victim.jsonl"
        report = journaled(path, lambda recorder: Collie.for_subsystem(
            "F", budget_hours=2.0, seed=2, recorder=recorder,
            victim=default_victim(), victim_share=0.5,
        ).run())
        records = assert_only_current(path)
        (preamble,) = [r for r in records if r["t"] == "isolation"]
        assert isinstance(preamble["victim"], list)
        assert any(event.interference is not None for event in report.events)
        assert reports_from_journal(path) == [report]

    def test_campaign_over_every_approach(self, tmp_path):
        path = tmp_path / "campaigns.jsonl"
        results = journaled(path, lambda recorder: [
            run_campaign(
                approach, subsystem="H", seeds=(1,), budget_hours=0.3,
                recorder=recorder,
            )
            for approach in APPROACHES
        ])
        assert_only_current(path)
        written = [report for result in results for report in result.reports]
        rebuilt = reports_from_journal(path)
        assert len(rebuilt) == len(written) == len(APPROACHES)
        for approach, report, again in zip(APPROACHES, written, rebuilt):
            # Baselines keep no MFS bookkeeping: compare what they keep.
            assert again.events == report.events, approach
            assert again.experiments == report.experiments, approach
            assert again.elapsed_seconds == report.elapsed_seconds, approach
            if hasattr(report, "anomalies"):
                assert again == report, approach


class TestMixedVersions:
    """A v7 campaign prefix resumed by current code, and a file holding
    both."""

    SEEDS = (1, 2, 3)

    def campaign(self, **kwargs):
        return run_campaign(
            "collie", subsystem="H", seeds=self.SEEDS, budget_hours=0.3,
            **kwargs,
        )

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("mixed") / "full.jsonl"
        result = journaled(path, lambda recorder: self.campaign(
            recorder=recorder,
        ))
        return result, path

    @staticmethod
    def write(path, records) -> None:
        path.write_text("".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in records
        ))

    @staticmethod
    def after_second_run_end(records) -> int:
        ends = [i for i, r in enumerate(records) if r["t"] == "run_end"]
        return ends[1] + 1

    def test_v7_prefix_resumes_bit_identically(self, full, tmp_path):
        result, path = full
        twin = as_keyed(read_journal(path))
        prefix = tmp_path / "prefix-v7.jsonl"
        self.write(prefix, twin[:self.after_second_run_end(twin)])
        assert {r["v"] for r in read_journal(prefix)} == {7}
        resumed_path = tmp_path / "resumed.jsonl"
        resumed = journaled(resumed_path, lambda recorder: self.campaign(
            resume_from=str(prefix), recorder=recorder,
        ))
        assert resumed.resumed_seeds == (1, 2)
        assert resumed.reports == result.reports
        assert_only_current(resumed_path)
        assert reports_from_journal(resumed_path) == result.reports

    def test_v7_bayesopt_mfs_prefix_resumes_with_a_journal(self, tmp_path):
        # BO+MFS probe events keep no counter snapshot: a v7 writer wrote
        # "counters": {}, and the positional shape writes [].
        def campaign(**kwargs):
            return run_campaign(
                "bayesopt+mfs", subsystem="H", seeds=self.SEEDS,
                budget_hours=0.3, **kwargs,
            )

        path = tmp_path / "full.jsonl"
        journaled(path, lambda recorder: campaign(recorder=recorder))
        twin = as_keyed(assert_only_current(path))
        prefix = twin[:self.after_second_run_end(twin)]
        assert any(
            r["t"] == "experiment" and r["counters"] == {} for r in prefix
        )
        prefix_path = tmp_path / "prefix-v7.jsonl"
        self.write(prefix_path, prefix)
        resumed_path = tmp_path / "resumed.jsonl"
        resumed = journaled(resumed_path, lambda recorder: campaign(
            resume_from=str(prefix_path), recorder=recorder,
        ))
        assert resumed.resumed_seeds == (1, 2)
        assert_only_current(resumed_path)
        assert reports_from_journal(resumed_path) == reports_from_journal(path)

    def test_a_run_v8_cannot_hold_fails_before_any_seed_runs(
        self, full, tmp_path, monkeypatch
    ):
        _, path = full
        twin = as_keyed(read_journal(path))
        prefix = twin[:self.after_second_run_end(twin)]
        experiment = next(r for r in prefix if r["t"] == "experiment")
        del experiment["counters"]["qpc_cache_miss"]  # a partial snapshot
        partial = tmp_path / "partial-v7.jsonl"
        self.write(partial, prefix)

        def no_seed(payload):
            raise AssertionError(f"seed {payload['seed']} was computed")

        monkeypatch.setattr(campaign_module, "_run_seed", no_seed)
        new = tmp_path / "new.jsonl"
        with pytest.raises(ValueError, match=(
            "resumed seed 1's experiment 0 cannot be journaled: "
            "KeyError: 'qpc_cache_miss'"
        )):
            journaled(new, lambda recorder: self.campaign(
                resume_from=str(partial), recorder=recorder,
            ))
        assert new.read_text() == ""

    def test_a_v7_then_v8_file_reads_as_one_journal(self, full, tmp_path):
        result, path = full
        records = read_journal(path)
        twin = as_keyed(records)
        cut = self.after_second_run_end(records)
        mixed = tmp_path / "mixed.jsonl"
        # Runs 1 and 2 as a v7 writer wrote them, run 3 as the current
        # writer writes it.
        self.write(
            mixed, twin[:self.after_second_run_end(twin)] + records[cut:]
        )
        assert {r["v"] for r in read_journal(mixed)} == {7, SCHEMA_VERSION}
        assert verify_journal(mixed)[0] == VERIFY_OK
        assert reports_from_journal(mixed) == result.reports
        resumed = self.campaign(resume_from=str(mixed))
        assert resumed.resumed_seeds == self.SEEDS
        assert resumed.reports == result.reports
