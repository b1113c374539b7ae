"""The parallel-fleet extension (§8)."""

import pytest

from repro.core import Collie
from repro.core.evalcache import EvalCache
from repro.core.parallel import ParallelCollie
from repro.obs import FlightRecorder, RunJournal, read_journal
from tests.core.test_determinism import report_key


class TestConfiguration:
    def test_machine_count_validation(self):
        with pytest.raises(ValueError):
            ParallelCollie("F", machines=0)

    def test_partition_is_round_robin_and_covers_all(self):
        fleet = ParallelCollie("F", machines=3)
        ranked = ["a", "b", "c", "d", "e"]
        shares = fleet._partition(ranked)
        assert shares == [("a", "d"), ("b", "e"), ("c",)]
        assert sorted(sum(shares, ())) == sorted(ranked)

    def test_more_machines_than_counters(self):
        fleet = ParallelCollie("F", machines=5)
        shares = fleet._partition(["a", "b"])
        assert shares == [("a",), ("b",)]  # idle machines dropped


@pytest.fixture(scope="module")
def small_fleet():
    return ParallelCollie("H", machines=2, budget_hours=1.5, seed=3).run()


class TestRun:
    def test_one_report_per_busy_machine(self, small_fleet):
        assert 1 <= len(small_fleet.reports) <= 2
        assert small_fleet.machines == 2

    def test_machines_search_disjoint_counters(self, small_fleet):
        rankings = [set(r.counter_ranking) for r in small_fleet.reports]
        for i, a in enumerate(rankings):
            for b in rankings[i + 1:]:
                assert not a & b

    def test_wall_clock_is_concurrent_not_additive(self, small_fleet):
        assert small_fleet.elapsed_seconds <= 1.5 * 3600 + 60
        assert small_fleet.total_experiments > max(
            r.experiments for r in small_fleet.reports
        )

    def test_merged_hits_take_earliest_time(self, small_fleet):
        merged = small_fleet.first_hit_times()
        for tag, seconds in merged.items():
            per_machine = [
                r.first_hit_times()[tag]
                for r in small_fleet.reports
                if tag in r.first_hit_times()
            ]
            assert seconds == min(per_machine)

    def test_finds_anomalies(self, small_fleet):
        assert len(small_fleet.found_tags()) >= 2

    def test_events_merged_chronologically(self, small_fleet):
        times = [e.time_seconds for e in small_fleet.events()]
        assert times == sorted(times)


class TestMultiChainFleet:
    """Each machine steps a population over its counter share."""

    def test_chains_equal_standalone_runs_for_any_worker_count(self):
        def fleet(workers):
            return ParallelCollie(
                "H", machines=2, chains=2, budget_hours=0.2, seed=5,
                workers=workers,
            )

        serial = fleet(1)
        serial_report = serial.run()
        pooled_report = fleet(2).run()
        keys = [report_key(r) for r in serial_report.reports]
        assert keys == [report_key(r) for r in pooled_report.reports]
        # Chain c of machine m is a standalone search of the machine's
        # share at seed * 1000 + m * chains + c.
        shares = serial._partition(serial._rank_counters())
        standalone = [
            Collie(
                serial.subsystem, counters=share, budget_hours=0.2,
                seed=5000 + machine * 2 + chain,
            ).run()
            for machine, share in enumerate(shares)
            for chain in range(2)
        ]
        assert len(shares) == 2
        assert keys == [report_key(r) for r in standalone]

    def test_no_two_chains_of_a_fleet_share_a_seed(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        ParallelCollie(
            "H", machines=3, chains=2, budget_hours=0.1, seed=1,
            recorder=recorder,
        ).run()
        recorder.close()
        seeds = [
            record["seed"] for record in read_journal(path)
            if record["t"] == "run_start"
        ]
        assert seeds == [1000, 1001, 1002, 1003, 1004, 1005]


class TestCachedFleet:
    def test_worker_count_changes_neither_reports_nor_cache(self):
        def fleet(workers):
            cache = EvalCache()
            report = ParallelCollie(
                "H", machines=2, budget_hours=0.2, seed=5,
                workers=workers, cache=cache,
            ).run()
            return report, cache

        serial, serial_cache = fleet(1)
        pooled, pooled_cache = fleet(2)
        assert [report_key(r) for r in serial.reports] \
            == [report_key(r) for r in pooled.reports]
        assert len(serial_cache) > 0
        assert serial_cache.export_entries() == pooled_cache.export_entries()


class TestScaling:
    def test_fleet_beats_single_machine(self):
        """The §8 claim: a fleet with per-machine counter shares finds
        more of the table in the same wall-clock budget."""
        single = ParallelCollie("F", machines=1, budget_hours=4.0, seed=5).run()
        fleet = ParallelCollie("F", machines=9, budget_hours=4.0, seed=5).run()
        assert len(fleet.found_tags()) >= len(single.found_tags())
        assert fleet.elapsed_seconds <= 4.0 * 3600 + 60
