"""Determinism suite: parallel == serial, cached == uncached, no
shared mutable state leaking between experiments.

These tests pin the contracts the executor and cache are built on: a
run's outcome is a pure function of its seed, so process fan-out and
memoization are observably transparent.
"""

import numpy as np
import pytest

from repro.analysis.campaign import run_campaign
from repro.analysis.serialize import mfs_to_dict, workload_to_dict
from repro.cluster.clock import SimulatedClock
from repro.cluster.host import Host
from repro.cluster.testbed import Testbed
from repro.core import Collie, EvalCache
from repro.core.mfs import MFSExtractor
from repro.core.monitor import AnomalyMonitor
from repro.core.parallel import ParallelCollie
from repro.core.space import SearchSpace
from repro.hardware.subsystems import get_subsystem
from repro.verbs.constants import QPType
from repro.verbs.device import QPNumberAllocator
from repro.verbs.qp import QPCapabilities
from repro.workloads.appendix import APPENDIX_SETTINGS


def event_key(event):
    """Everything observable about one experiment, exactly."""
    return (
        event.time_seconds,
        event.counter,
        event.counter_value,
        event.symptom,
        event.tags,
        event.kind,
        workload_to_dict(event.workload),
        sorted(event.counters.items()),
    )


def report_key(report):
    """Anomaly set + full trajectory of one search run."""
    return (
        [mfs_to_dict(a) for a in getattr(report, "anomalies", [])],
        [event_key(e) for e in report.events],
    )


class TestParallelEqualsSerial:
    @pytest.mark.parametrize(
        "approach,hours",
        [("collie", 0.2), ("random", 0.1), ("genetic", 0.1)],
    )
    def test_campaign_bit_identical_across_workers(self, approach, hours):
        seeds = (1, 2, 3, 4)
        serial = run_campaign(
            approach, subsystem="H", seeds=seeds, budget_hours=hours,
            workers=1,
        )
        parallel = run_campaign(
            approach, subsystem="H", seeds=seeds, budget_hours=hours,
            workers=4,
        )
        assert [report_key(r) for r in serial.reports] \
            == [report_key(r) for r in parallel.reports]
        assert parallel.executor_stats.tasks == len(seeds)

    def test_fleet_bit_identical_across_workers(self):
        def fleet(workers):
            return ParallelCollie(
                "H", machines=2, budget_hours=0.2, seed=5, workers=workers
            ).run()

        serial, pooled = fleet(1), fleet(3)
        assert [report_key(r) for r in serial.reports] \
            == [report_key(r) for r in pooled.reports]
        assert serial.first_hit_times() == pooled.first_hit_times()

    def test_cache_does_not_change_a_campaign(self):
        seeds = (1, 2, 3)
        plain = run_campaign(
            "collie", subsystem="H", seeds=seeds, budget_hours=0.2
        )
        cache = EvalCache()
        cached = run_campaign(
            "collie", subsystem="H", seeds=seeds, budget_hours=0.2,
            workers=3, cache=cache,
        )
        assert [report_key(r) for r in plain.reports] \
            == [report_key(r) for r in cached.reports]
        assert len(cache) > 0
        assert cache.hits + cache.misses > 0


class TestMFSCacheHitRate:
    def test_mfs_probing_on_known_witness_exceeds_half_hits(self):
        """Regression: MFS necessity probing must be cache-friendly.

        Extracting the MFS of a known witness twice with a shared cache
        replays the probe sequence; if the canonical key ever started
        incorporating probe-order state, the second pass would miss and
        this bound would collapse.
        """
        setting = next(
            s for s in APPENDIX_SETTINGS if s.subsystem == "H"
        )
        subsystem = get_subsystem("H")
        space = SearchSpace.for_subsystem(subsystem)
        cache = EvalCache()
        monitor = AnomalyMonitor(subsystem)

        def extract_once():
            testbed = Testbed(
                subsystem, clock=SimulatedClock(), cache=cache
            )
            rng = np.random.default_rng(0)

            def probe(candidate):
                result = testbed.run(candidate, rng=rng, phase="mfs")
                return monitor.classify(result.measurement).symptom

            return MFSExtractor(space, probe).construct(
                setting.workload, setting.expected_symptom, at_seconds=0.0
            )

        first = extract_once()
        assert first is not None, "appendix witness must extract an MFS"
        before_hits, before_misses = cache.snapshot()
        second = extract_once()
        hits, misses = cache.snapshot()
        warm_hits = hits - before_hits
        warm_misses = misses - before_misses
        hit_rate = warm_hits / (warm_hits + warm_misses)
        assert hit_rate > 0.5, f"warm MFS probing hit rate {hit_rate:.1%}"
        assert mfs_to_dict(second) == mfs_to_dict(first)
        assert cache.phase_stats()["mfs"].hits == warm_hits


class TestSharedStateAudit:
    """No module-level mutable state may leak between experiments."""

    def _burst_qpns(self, topology):
        """QP numbers of one two-host setup sharing a fresh allocator."""
        qpns = QPNumberAllocator()
        host_a = Host("audit-a", topology, qpn_allocator=qpns)
        host_b = Host("audit-b", topology, qpn_allocator=qpns)
        numbers = []
        for host in (host_a, host_b):
            pd = host.context.alloc_pd()
            cq = host.context.create_cq(16)
            qp = host.context.create_qp(
                pd, QPType.RC, cq, cq, QPCapabilities()
            )
            numbers.append(qp.qp_num)
        return numbers

    def test_qp_numbering_is_history_independent(self):
        topology = get_subsystem("H").topology
        first = self._burst_qpns(topology)
        # Interleave unrelated fabric activity: a full testbed run plus
        # a stray setup. Neither may shift the next setup's numbering.
        Testbed(get_subsystem("H")).run(
            SearchSpace.for_subsystem(get_subsystem("H")).random(
                np.random.default_rng(0)
            ),
            rng=np.random.default_rng(0),
        )
        self._burst_qpns(topology)
        assert self._burst_qpns(topology) == first
        assert first[0] == QPNumberAllocator.FIRST_QPN

    def test_qp_numbers_unique_within_a_shared_allocator(self):
        topology = get_subsystem("H").topology
        numbers = self._burst_qpns(topology)
        assert len(set(numbers)) == len(numbers)

    def test_clocks_do_not_alias(self):
        ticking = SimulatedClock(100.0)
        bystander = SimulatedClock(100.0)
        ticking.advance(42.0)
        assert bystander.now == 0.0
        assert ticking.now == 42.0

    def test_testbeds_do_not_share_clocks(self):
        subsystem = get_subsystem("H")
        first = Testbed(subsystem)
        second = Testbed(subsystem)
        point = SearchSpace.for_subsystem(subsystem).random(
            np.random.default_rng(1)
        )
        first.run(point, rng=np.random.default_rng(1))
        assert second.clock.now == 0.0
        assert first.clock.now > 0.0

    def test_subsystem_singletons_never_mutated_by_runs(self):
        """get_subsystem caches instances; searches must not write them."""
        from repro.core.evalcache import subsystem_fingerprint

        subsystem = get_subsystem("H")
        before = subsystem_fingerprint(subsystem)
        Collie.for_subsystem("H", budget_hours=0.1, seed=2).run()
        assert get_subsystem("H") is subsystem
        assert subsystem_fingerprint(subsystem) == before

    def test_runs_with_same_seed_identical_back_to_back(self):
        """End-to-end: no hidden state survives one run into the next."""
        first = Collie.for_subsystem("H", budget_hours=0.1, seed=9).run()
        second = Collie.for_subsystem("H", budget_hours=0.1, seed=9).run()
        assert report_key(first) == report_key(second)
