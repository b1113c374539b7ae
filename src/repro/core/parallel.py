"""Parallel Collie: the §8 "multiple machines" extension.

"Though powerful data centers can run Collie on multiple machines for a
longer time, the search algorithm is also important" (§8).  This module
implements the natural fleet parallelisation: the diagnostic counters
are ranked once on a shared probe set, partitioned round-robin across
``machines`` independent two-server testbeds, and each machine runs the
full SA search on its counter share for the whole budget.  Results merge
by earliest discovery; wall-clock time is the *maximum* machine clock
(they run concurrently), so a counter that previously shared a 10-hour
budget with eight siblings now gets hours of dedicated attention.

With ``workers > 1`` the machines really do run concurrently: each
machine is one task for the :class:`~repro.core.executor.CampaignExecutor`
process pool.  Every machine's RNG and clock are built inside the worker
from the machine's own seed, so the merged report is bit-identical to a
serial fleet run.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.annealing import SAParams, TraceEvent
from repro.core.collie import SearchReport
from repro.core.evalcache import EvalCache
from repro.core.executor import CampaignExecutor, ExecutorStats
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.mfs import MinimalFeatureSet
from repro.core.population import PopulationCollie
from repro.core.space import SearchSpace
from repro.hardware.counters import DIAGNOSTIC_COUNTERS
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import Subsystem, get_subsystem


@dataclasses.dataclass
class ParallelReport:
    """Merged outcome of a machine fleet."""

    subsystem_name: str
    machines: int
    reports: list[SearchReport]
    elapsed_seconds: float  #: max over machines (concurrent execution).

    @property
    def anomalies(self) -> list[MinimalFeatureSet]:
        merged: list[MinimalFeatureSet] = []
        for report in self.reports:
            merged.extend(report.anomalies)
        return merged

    def first_hit_times(self) -> dict:
        """Tag → earliest concurrent discovery time across machines."""
        hits: dict = {}
        for report in self.reports:
            for tag, seconds in report.first_hit_times().items():
                if tag not in hits or seconds < hits[tag]:
                    hits[tag] = seconds
        return hits

    def found_tags(self) -> list[str]:
        return sorted(self.first_hit_times())

    @property
    def total_experiments(self) -> int:
        return sum(r.experiments for r in self.reports)

    def events(self) -> list[TraceEvent]:
        merged = [e for r in self.reports for e in r.events]
        return sorted(merged, key=lambda e: e.time_seconds)


def _run_machine(payload: dict) -> dict:
    """One fleet machine, executed inside a worker process.

    The machine's chains — clocks, RNGs, testbeds — are built here from
    the payload's seed, so the machine's trajectory does not depend on
    which process runs it.  A per-machine :class:`EvalCache` is attached
    when requested; its entries and stats travel back for merging.

    The machine steps a lockstep SA population over its counter share:
    chain ``c`` seeds at ``seed + c``, and the machine returns one
    report per chain, each bit-identical to a standalone run of that
    seed.  With one chain that is the single Collie trajectory.
    """
    cache = EvalCache() if payload["use_cache"] else None
    if cache is not None and payload["cache_entries"]:
        cache.import_entries(payload["cache_entries"])
    reports = PopulationCollie(
        payload["subsystem"],
        chains=payload["chains"],
        space=payload["space"],
        counters=payload["share"],
        budget_hours=payload["budget_hours"],
        seed=payload["seed"],
        sa_params=payload["sa_params"],
        noise=payload["noise"],
        cache=cache,
        latency=payload["latency"],
    ).run().reports
    return {
        "reports": reports,
        "cache_entries": (
            cache.export_entries(new_only=True)
            if payload["use_cache"] and cache else None
        ),
        "cache_stats": (
            cache.stats_dict()
            if payload["use_cache"] and cache else None
        ),
    }


class ParallelCollie:
    """Runs Collie's counter passes across a fleet of testbeds."""

    def __init__(
        self,
        subsystem: "Subsystem | str",
        machines: int = 3,
        budget_hours: float = 10.0,
        seed: int = 0,
        space: Optional[SearchSpace] = None,
        sa_params: SAParams = SAParams(),
        noise: float = 0.02,
        workers: int = 1,
        cache: Optional[EvalCache] = None,
        recorder=None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        latency: bool = True,
        chains: int = 1,
    ) -> None:
        if machines <= 0:
            raise ValueError("need at least one machine")
        if chains <= 0:
            raise ValueError("need at least one chain per machine")
        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        self.subsystem = subsystem
        self.machines = machines
        self.budget_hours = budget_hours
        self.seed = seed
        self.space = space or SearchSpace.for_subsystem(subsystem)
        self.sa_params = sa_params
        self.noise = noise
        #: Optional flight recorder.  A recorder's journal handle cannot
        #: cross the process boundary, so the fleet journals post-hoc:
        #: each machine's report is replayed into the journal on return.
        self.recorder = recorder
        self.executor = CampaignExecutor(
            workers=workers,
            metrics=recorder.metrics if recorder is not None else None,
            progress=recorder.task_progress if recorder is not None else None,
            retry=retry,
            faults=faults,
            recorder=recorder,
        )
        #: Parent-side cache: warm-starts every machine and absorbs
        #: their entries/stats after the fleet completes.
        self.cache = cache
        #: Threaded into every machine's chains (``--no-latency``).
        self.latency = latency
        #: SA chains per machine: each machine steps a lockstep
        #: population over its counter share (chain ``c`` of machine
        #: ``m`` seeds at ``seed * 1000 + m + c``) and contributes one
        #: report per chain to the merge.
        self.chains = chains

    @property
    def executor_stats(self) -> Optional[ExecutorStats]:
        return self.executor.last_stats

    def _rank_counters(self) -> list[str]:
        """Shared ranking pass: 10 random probes, std/mean descending."""
        rng = np.random.default_rng(self.seed)
        model = SteadyStateModel(self.subsystem, noise=self.noise)
        observations: dict = {name: [] for name in DIAGNOSTIC_COUNTERS}
        for _ in range(10):
            measurement = model.evaluate(self.space.random(rng), rng)
            for name in DIAGNOSTIC_COUNTERS:
                observations[name].append(float(measurement.counters[name]))

        def dispersion(name: str) -> float:
            values = np.array(observations[name])
            mean = values.mean()
            return float(values.std() / mean) if mean > 0 else 0.0

        ranked = sorted(DIAGNOSTIC_COUNTERS, key=dispersion, reverse=True)
        return [name for name in ranked if dispersion(name) > 0.0]

    def _partition(self, ranked: list[str]) -> list[tuple[str, ...]]:
        """Round-robin counter shares, one per machine."""
        shares: list[list[str]] = [[] for _ in range(self.machines)]
        for index, counter in enumerate(ranked):
            shares[index % self.machines].append(counter)
        return [tuple(share) for share in shares if share]

    def run(self) -> ParallelReport:
        ranked = self._rank_counters()
        warm_entries = (
            self.cache.export_entries() if self.cache is not None else None
        )
        payloads = [
            {
                "subsystem": self.subsystem,
                "space": self.space,
                "share": share,
                "budget_hours": self.budget_hours,
                "seed": self.seed * 1000 + machine,
                "sa_params": self.sa_params,
                "noise": self.noise,
                "use_cache": self.cache is not None,
                "cache_entries": warm_entries,
                "latency": self.latency,
                "chains": self.chains,
            }
            for machine, share in enumerate(self._partition(ranked))
        ]
        outcomes = self.executor.map(_run_machine, payloads)
        reports: list[SearchReport] = []
        seeds: list[int] = []
        for machine, outcome in enumerate(outcomes):
            for chain, report in enumerate(outcome["reports"]):
                reports.append(report)
                seeds.append(self.seed * 1000 + machine + chain)
        if self.recorder is not None:
            if self.executor.last_stats is not None:
                self.recorder.fanout(self.executor.last_stats)
            for report, report_seed in zip(reports, seeds):
                self.recorder.record_report(
                    report, self.budget_hours, seed=report_seed,
                )
        if self.cache is not None:
            for outcome in outcomes:
                if outcome["cache_entries"]:
                    self.cache.import_entries(outcome["cache_entries"])
                if outcome["cache_stats"]:
                    self.cache.merge_stats(outcome["cache_stats"])
        return ParallelReport(
            subsystem_name=self.subsystem.name,
            machines=self.machines,
            reports=reports,
            elapsed_seconds=max(r.elapsed_seconds for r in reports),
        )
