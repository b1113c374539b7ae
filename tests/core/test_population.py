"""Population-stepped SA: bit-identity, determinism, tempering.

The population driver's whole contract is that lockstep is invisible:
a chain stepped with N-1 siblings, each on its own testbed, must
journal, measure and report exactly what it would have standalone.
These tests pin that contract from every side — 1-chain vs legacy,
chain c vs standalone seed + c, population vs the ``--seeds`` campaign
path at any worker count, a shared user cache, and tempering
determinism.
"""

import json

import pytest

from repro.analysis.campaign import run_campaign
from repro.cli import main
from repro.core.annealing import SearchSignal
from repro.core.collie import Collie
from repro.core.evalcache import EvalCache
from repro.core.population import PopulationCollie
from repro.obs import (
    FlightRecorder,
    RunJournal,
    read_journal,
    reports_from_journal,
)
from tests.core.test_determinism import report_key

SUBSYSTEMS = ["A", "B", "C", "D", "E", "F", "G", "H"]


class TestOneChainIsLegacy:
    @pytest.mark.parametrize("subsystem", SUBSYSTEMS)
    def test_single_chain_population_matches_scalar_run(self, subsystem):
        legacy = Collie.for_subsystem(
            subsystem, budget_hours=0.15, seed=7,
        ).run()
        population = PopulationCollie(
            subsystem, chains=1, budget_hours=0.15, seed=7,
        ).run()
        assert population.chains == 1
        assert report_key(population.reports[0]) == report_key(legacy)

    def test_single_chain_journal_is_record_identical(self, tmp_path):
        legacy_path = tmp_path / "legacy.jsonl"
        recorder = FlightRecorder(journal=RunJournal(legacy_path))
        Collie.for_subsystem(
            "F", budget_hours=0.2, seed=3, recorder=recorder,
        ).run()
        recorder.close()

        population_path = tmp_path / "population.jsonl"
        recorder = FlightRecorder(journal=RunJournal(population_path))
        PopulationCollie(
            "F", chains=1, budget_hours=0.2, seed=3, recorder=recorder,
        ).run()
        recorder.close()

        legacy = read_journal(legacy_path)
        population = read_journal(population_path)
        assert population == legacy
        # No chain stamps on a 1-chain journal: it *is* the legacy one.
        assert not any("chain" in record for record in population)


class TestChainsAreIndependent:
    @pytest.mark.parametrize("subsystem", SUBSYSTEMS)
    def test_each_chain_matches_standalone_seed(self, subsystem):
        population = PopulationCollie(
            subsystem, chains=4, budget_hours=0.5, seed=5,
        ).run()
        assert population.generations > 0
        for chain, report in enumerate(population.reports):
            standalone = Collie.for_subsystem(
                subsystem, budget_hours=0.5, seed=5 + chain,
            ).run()
            assert report_key(report) == report_key(standalone)

    def test_population_repeats_bit_identically(self):
        first = PopulationCollie(
            "H", chains=4, budget_hours=0.2, seed=9,
        ).run()
        second = PopulationCollie(
            "H", chains=4, budget_hours=0.2, seed=9,
        ).run()
        assert (
            [report_key(r) for r in first.reports]
            == [report_key(r) for r in second.reports]
        )
        assert first.generations == second.generations

    def test_each_chain_journals_its_solo_run_end(
        self, tmp_path, monkeypatch, capsys
    ):
        """Chain c's ``run_end``, less its chain stamp, is the one its
        solo twin (seed + c) journals: no total counts the other
        chains (up to v8, the shared registry dump counted them all)."""
        monkeypatch.chdir(tmp_path)

        def run_ends(path, *flags):
            assert main(["search", "H", "--hours", "0.3", *flags,
                         "--journal", path]) == 0
            with open(path) as handle:
                return [record for record in map(json.loads, handle)
                        if record["t"] == "run_end"]

        chains = {
            record.pop("chain"): record
            for record in run_ends(
                "chains.jsonl", "--seed", "2", "--chains", "3"
            )
        }
        assert sorted(chains) == [0, 1, 2]
        for chain, record in chains.items():
            assert [record] == run_ends(
                f"solo{chain}.jsonl", "--seed", str(2 + chain)
            )
        capsys.readouterr()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_population_equals_seed_campaign(self, workers):
        campaign = run_campaign(
            "collie", subsystem="G", seeds=range(4, 7),
            budget_hours=0.2, workers=workers,
        )
        population = PopulationCollie(
            "G", chains=3, budget_hours=0.2, seed=4,
        ).run()
        assert (
            [report_key(r) for r in population.reports]
            == [report_key(r) for r in campaign.reports]
        )


class TestPopulationJournal:
    def test_interleaved_journal_reconstructs_per_chain_reports(
        self, tmp_path
    ):
        path = tmp_path / "population.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        population = PopulationCollie(
            "F", chains=3, budget_hours=0.2, seed=5, recorder=recorder,
        ).run()
        recorder.close()
        replayed = reports_from_journal(path)
        assert (
            [report_key(r) for r in replayed]
            == [report_key(r) for r in population.reports]
        )

    def test_no_cache_is_created_and_no_batch_metrics_journaled(
        self, tmp_path
    ):
        path = tmp_path / "population.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        driver = PopulationCollie(
            "H", chains=3, budget_hours=0.2, seed=2, recorder=recorder,
        )
        driver.run()
        recorder.close()
        assert driver.cache is None
        ends = [r for r in read_journal(path) if r["t"] == "run_end"]
        assert len(ends) == 3
        assert not [r for r in ends if "metrics" in r]

    def test_user_cache_lookups_are_the_chains_own(self, tmp_path):
        path = tmp_path / "cached.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        # One hour: long enough for SA search steps after MFS probes.
        cached = PopulationCollie(
            "F", chains=3, budget_hours=1.0, seed=5, recorder=recorder,
            cache=EvalCache(),
        ).run()
        recorder.close()
        uncached = PopulationCollie(
            "F", chains=3, budget_hours=1.0, seed=5,
        ).run()
        lookups = [r for r in read_journal(path) if r["t"] == "cache"]
        assert lookups
        # Cache events are population-global: no chain stamp.
        assert not any("chain" in record for record in lookups)
        phases = {record["phase"] for record in lookups}
        assert "search" in phases
        assert phases <= {"search", "probe", "mfs"}
        assert (
            [report_key(r) for r in cached.reports]
            == [report_key(r) for r in uncached.reports]
        )


class TestValidation:
    def test_rejects_zero_chains(self):
        with pytest.raises(ValueError, match="at least one chain"):
            PopulationCollie("F", chains=0)

    def test_rejects_single_rung_ladder(self):
        with pytest.raises(ValueError, match=">= 2 rungs"):
            PopulationCollie("F", temperature_ladder=(1.0,))

    def test_rejects_non_positive_temperatures(self):
        with pytest.raises(ValueError, match="positive"):
            PopulationCollie("F", temperature_ladder=(1.0, -0.5))

    def test_ladder_fixes_the_chain_count(self):
        driver = PopulationCollie(
            "F", chains=1, temperature_ladder=(2.0, 1.0, 0.5),
        )
        assert driver.chains == 3


class TestTempering:
    def test_tempering_repeats_bit_identically(self):
        kwargs = dict(
            budget_hours=0.4, seed=3,
            temperature_ladder=(2.0, 1.0, 0.5),
            counters=("qpc_cache_miss",), exchange_every=5,
        )
        first = PopulationCollie("H", **kwargs).run()
        second = PopulationCollie("H", **kwargs).run()
        assert (
            [report_key(r) for r in first.reports]
            == [report_key(r) for r in second.reports]
        )
        assert first.exchanges == second.exchanges

    def test_exchange_sweep_swaps_when_hot_holds_better_point(self):
        driver = PopulationCollie(
            "F", temperature_ladder=(2.0, 1.0),
            counters=("qpc_cache_miss",),
        )
        hot, cold = driver._collies[0].search, driver._collies[1].search
        flip = -1.0 if SearchSignal("qpc_cache_miss").lower_is_better else 1.0
        better, worse = ("hot-point", 100.0), ("cold-point", 10.0)
        if flip < 0:
            better, worse = (better[0], 10.0), (worse[0], 100.0)
        hot.exchange_state = ("qpc_cache_miss",) + better
        cold.exchange_state = ("qpc_cache_miss",) + worse
        driver._exchange_sweep()
        assert driver.exchanges == 1
        assert hot.exchange_inbox == worse
        assert cold.exchange_inbox == better

    def test_exchange_sweep_keeps_points_when_cold_already_better(self):
        driver = PopulationCollie(
            "F", temperature_ladder=(2.0, 1.0),
            counters=("qpc_cache_miss",),
        )
        hot, cold = driver._collies[0].search, driver._collies[1].search
        flip = -1.0 if SearchSignal("qpc_cache_miss").lower_is_better else 1.0
        better, worse = ("cold-point", 100.0), ("hot-point", 10.0)
        if flip < 0:
            better, worse = (better[0], 10.0), (worse[0], 100.0)
        hot.exchange_state = ("qpc_cache_miss",) + worse
        cold.exchange_state = ("qpc_cache_miss",) + better
        driver._exchange_sweep()
        assert driver.exchanges == 0
        assert hot.exchange_inbox is None
        assert cold.exchange_inbox is None

    def test_exchange_sweep_skips_incomparable_counters(self):
        driver = PopulationCollie(
            "F", temperature_ladder=(2.0, 1.0),
        )
        hot, cold = driver._collies[0].search, driver._collies[1].search
        hot.exchange_state = ("qpc_cache_miss", "p", 100.0)
        cold.exchange_state = ("rx_icrc_errors", "q", 10.0)
        driver._exchange_sweep()
        assert driver.exchanges == 0
        assert hot.exchange_inbox is None

    def test_exchange_sweep_bubbles_a_point_down_the_ladder(self):
        driver = PopulationCollie(
            "F", temperature_ladder=(4.0, 2.0, 1.0),
            counters=("qpc_cache_miss",),
        )
        searches = [c.search for c in driver._collies]
        flip = -1.0 if SearchSignal("qpc_cache_miss").lower_is_better else 1.0
        values = [300.0, 20.0, 10.0] if flip > 0 else [1.0, 20.0, 30.0]
        for search, value in zip(searches, values):
            search.exchange_state = ("qpc_cache_miss", f"p{value}", value)
        driver._exchange_sweep()
        # The strong hot point swaps into rung 1, then rung 2, in one
        # sweep; each displaced point moves up exactly one rung.
        assert driver.exchanges == 2
        assert searches[2].exchange_inbox == (f"p{values[0]}", values[0])
