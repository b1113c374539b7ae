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

The machines go through :func:`~repro.core.executor.fan_out`, one task
each; with ``workers > 1`` they really do run concurrently.  Every
machine's RNG and clock are built inside the worker from the machine's
own seed, so the merged report is bit-identical to a serial fleet run.
Machine ``m`` of a fleet with ``chains`` chains per machine runs chain
``c`` at ``seed * 1000 + m * chains + c``, so no two chains of a fleet
share a seed.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.collie import (
    RANKING_PROBES,
    MergedRuns,
    SearchReport,
    rank_by_dispersion,
)
from repro.core.evalcache import EvalCache
from repro.core.executor import (
    ExecutorStats,
    fan_out,
    worker_cache,
    worker_result,
)
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.population import PopulationCollie
from repro.core.space import SearchSpace
from repro.hardware.counters import DIAGNOSTIC_COUNTERS
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import Subsystem, get_subsystem


@dataclasses.dataclass
class ParallelReport(MergedRuns):
    """Merged outcome of a machine fleet."""

    subsystem_name: str
    machines: int
    reports: list[SearchReport]


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
    cache = worker_cache(payload)
    reports = PopulationCollie(
        payload["subsystem"],
        chains=payload["chains"],
        counters=payload["share"],
        budget_hours=payload["budget_hours"],
        seed=payload["seed"],
        cache=cache,
        latency=payload["latency"],
    ).run().reports
    return worker_result(cache, reports=reports)


class ParallelCollie:
    """Runs Collie's counter passes across a fleet of testbeds."""

    def __init__(
        self,
        subsystem: "Subsystem | str",
        machines: int = 3,
        budget_hours: float = 10.0,
        seed: int = 0,
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
        self.space = SearchSpace.for_subsystem(subsystem)
        self.workers = workers
        #: Optional flight recorder.  A recorder's journal handle cannot
        #: cross the process boundary, so the fleet journals post-hoc:
        #: each machine's report is replayed into the journal on return.
        self.recorder = recorder
        self.retry = retry
        self.faults = faults
        #: Parent-side cache: warm-starts every machine and absorbs
        #: their entries/stats after the fleet completes.
        self.cache = cache
        #: Threaded into every machine's chains (``--no-latency``).
        self.latency = latency
        #: SA chains per machine: each machine steps a lockstep
        #: population over its counter share (chain ``c`` of machine
        #: ``m`` seeds at ``seed * 1000 + m * chains + c``) and
        #: contributes one report per chain to the merge.
        self.chains = chains
        #: Fan-out accounting of the last :meth:`run` (None before one).
        self.executor_stats: Optional[ExecutorStats] = None

    def _rank_counters(self) -> list[str]:
        """Shared ranking pass: 10 random probes, std/mean descending."""
        rng = np.random.default_rng(self.seed)
        model = SteadyStateModel(self.subsystem)
        observations: dict = {name: [] for name in DIAGNOSTIC_COUNTERS}
        for _ in range(RANKING_PROBES):
            measurement = model.evaluate(self.space.random(rng), rng)
            for name in DIAGNOSTIC_COUNTERS:
                observations[name].append(float(measurement.counters[name]))
        return rank_by_dispersion(observations)[0]

    def _partition(self, ranked: list[str]) -> list[tuple[str, ...]]:
        """Round-robin counter shares, one per machine."""
        shares: list[list[str]] = [[] for _ in range(self.machines)]
        for index, counter in enumerate(ranked):
            shares[index % self.machines].append(counter)
        return [tuple(share) for share in shares if share]

    def run(self) -> ParallelReport:
        shares = self._partition(self._rank_counters())
        outcomes, self.executor_stats = fan_out(
            _run_machine,
            [
                {
                    "subsystem": self.subsystem,
                    "share": share,
                    "budget_hours": self.budget_hours,
                    "seed": self.seed * 1000 + machine * self.chains,
                    "latency": self.latency,
                    "chains": self.chains,
                }
                for machine, share in enumerate(shares)
            ],
            workers=self.workers, cache=self.cache, recorder=self.recorder,
            retry=self.retry, faults=self.faults,
        )
        reports = [
            report for outcome in outcomes for report in outcome["reports"]
        ]
        if self.recorder is not None:
            # Report ``m * chains + c`` is chain ``c`` of machine ``m``.
            for index, report in enumerate(reports):
                self.recorder.record_report(
                    report, self.budget_hours,
                    seed=self.seed * 1000 + index,
                )
        return ParallelReport(
            subsystem_name=self.subsystem.name,
            machines=self.machines,
            reports=reports,
        )
