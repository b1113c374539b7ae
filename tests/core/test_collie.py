"""Collie end-to-end: orchestration, reports, developer workflows."""

import numpy as np
import pytest

from repro.core import Collie
from repro.core.space import SearchSpace
from repro.hardware.counters import DIAGNOSTIC_COUNTERS
from repro.verbs.constants import Opcode, QPType


@pytest.fixture(scope="module")
def short_report():
    return Collie.for_subsystem("F", seed=5, budget_hours=2.0).run()


class TestConfiguration:
    def test_invalid_counter_mode(self):
        with pytest.raises(ValueError):
            Collie.for_subsystem("F", counter_mode="magic")

    def test_perf_mode_uses_throughput_counters(self):
        collie = Collie.for_subsystem("F", counter_mode="perf")
        assert set(collie._candidate_counters()) <= {
            "tx_bytes_per_sec", "rx_bytes_per_sec",
            "tx_packets_per_sec", "rx_packets_per_sec",
        }

    def test_diag_mode_uses_the_nine(self):
        collie = Collie.for_subsystem("F", counter_mode="diag")
        assert collie._candidate_counters() == DIAGNOSTIC_COUNTERS


class TestRun:
    def test_budget_respected(self, short_report):
        assert short_report.elapsed_seconds <= 2.0 * 3600 + 60

    def test_finds_easy_anomalies_fast(self, short_report):
        """Half the space is anomalous; two hours must find several."""
        assert len(short_report.anomalies) >= 3
        assert len(short_report.found_tags()) >= 3

    def test_counter_ranking_covers_probed_counters(self, short_report):
        assert set(short_report.counter_ranking) <= set(DIAGNOSTIC_COUNTERS)
        assert short_report.counter_ranking  # non-empty

    def test_first_hit_times_only_counts_anomalous_events(self, short_report):
        hits = short_report.first_hit_times()
        for tag, seconds in hits.items():
            assert 0 <= seconds <= short_report.elapsed_seconds

    def test_mfs_probe_budget_is_accounted(self, short_report):
        assert short_report.experiments == len(short_report.events)

    def test_summary_mentions_subsystem_and_count(self, short_report):
        text = short_report.summary()
        assert "subsystem F" in text
        assert f"{len(short_report.anomalies)} anomalies" in text

    def test_determinism(self):
        a = Collie.for_subsystem("F", seed=9, budget_hours=0.5).run()
        b = Collie.for_subsystem("F", seed=9, budget_hours=0.5).run()
        assert a.found_tags() == b.found_tags()
        assert a.experiments == b.experiments


class TestDeveloperWorkflows:
    def test_diagnose_reuses_the_completed_campaign(self):
        collie = Collie.for_subsystem("H", seed=6, budget_hours=1.5)
        report = collie.run()
        experiments_after_run = report.experiments
        witness = report.anomalies[0].witness if report.anomalies else None
        if witness is not None:
            matched = collie.diagnose(witness)
            assert matched is not None
        # diagnose must not have launched a second campaign
        assert collie.last_report.experiments == experiments_after_run

    def test_check_restricted_space_returns_anomaly_list(self):
        collie = Collie.for_subsystem("H", seed=6, budget_hours=1.0)
        anomalies = collie.check_restricted_space()
        assert anomalies is collie.last_report.anomalies


class TestRestrictedSpace:
    def test_restricted_space_limits_findings(self):
        """§7.3: developers restrict the space to their app's workloads."""
        space = SearchSpace.for_subsystem(
            "F", qp_types=(QPType.RC,), opcodes=(Opcode.WRITE,),
        )
        collie = Collie.for_subsystem(
            "F", space=space, seed=2, budget_hours=1.5
        )
        report = collie.run()
        for event in report.events:
            assert event.workload.qp_type is QPType.RC


@pytest.fixture(scope="module")
def chain_reports():
    from repro.core.population import PopulationCollie

    return PopulationCollie(
        "H", chains=3, budget_hours=0.3, seed=1
    ).run().reports


def _population(reports):
    from repro.core.population import PopulationReport

    return PopulationReport(
        subsystem_name="H", chains=len(reports), reports=reports,
        generations=0, exchanges=0, mode="independent",
    )


def _fleet(reports):
    from repro.core.parallel import ParallelReport

    return ParallelReport(
        subsystem_name="H", machines=len(reports), reports=reports
    )


def _campaign(reports):
    from repro.analysis.campaign import CampaignResult

    return CampaignResult(
        approach="collie", subsystem="H", budget_hours=0.3, reports=reports
    )


@pytest.mark.parametrize("merge", [_population, _fleet, _campaign])
def test_every_report_type_merges_runs_the_same_way(merge, chain_reports):
    merged = merge(chain_reports)
    per_run = [report.first_hit_times() for report in chain_reports]
    earliest: dict = {}
    for hits in per_run:
        for tag, seconds in hits.items():
            earliest[tag] = min(seconds, earliest.get(tag, seconds))
    assert merged.anomalies == [
        mfs for report in chain_reports for mfs in report.anomalies
    ]
    assert merged.total_experiments == sum(
        report.experiments for report in chain_reports
    )
    assert merged.elapsed_seconds == max(
        report.elapsed_seconds for report in chain_reports
    )
    assert merged.per_seed_hits() == per_run
    assert merged.first_hit_times() == earliest
    assert merged.found_tags() == sorted(earliest)
    assert merged.union_tags() == set(earliest)
    assert merged.mean_found() == sum(map(len, per_run)) / len(per_run)
    assert merged.events() == sorted(
        (event for report in chain_reports for event in report.events),
        key=lambda event: event.time_seconds,
    )
