"""The two-server experiment runner with simulated time accounting."""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.clock import SimulatedClock
from repro.hardware.model import Measurement
from repro.hardware.subsystems import Subsystem, get_subsystem
from repro.hardware.workload import WorkloadDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache

#: Reusable no-op context for profiler-disabled span sites.
_NO_SPAN = nullcontext()


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """One experiment: its measurement and what it cost in testbed time."""

    measurement: Measurement
    setup_seconds: float
    measurement_seconds: float
    started_at: float  #: simulated clock reading when the experiment began.

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.measurement_seconds

    @property
    def finished_at(self) -> float:
        return self.started_at + self.total_seconds


class Testbed:
    """Two servers + lossless switch, running one experiment at a time.

    (``__test__`` opts out of pytest collection — this is a simulation
    testbed, not a test case.)

    Every ``run`` charges the simulated clock with the experiment's setup
    and measurement cost, reproducing the paper's 20–60 s per-experiment
    budget that Figures 4–6 are measured against.
    """

    __test__ = False

    def __init__(
        self,
        subsystem: "Subsystem | str",
        clock: Optional[SimulatedClock] = None,
        noise: float = 0.02,
        functional_check: bool = False,
        cache: Optional["EvalCache"] = None,
        metrics=None,
        profiler=None,
        victim: Optional[WorkloadDescriptor] = None,
        victim_share: float = 0.5,
    ) -> None:
        from repro.core.engine import WorkloadEngine

        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        self.subsystem = subsystem
        self.clock = clock or SimulatedClock()
        self.engine = WorkloadEngine(
            subsystem, noise=noise, cache=cache,
            metrics=metrics, profiler=profiler,
            victim=victim, victim_share=victim_share,
        )
        #: Isolation mode (see :class:`~repro.hardware.coexist.CoRunModel`):
        #: with a pinned victim every run measures the *victim* next to
        #: the given attacker point.  ``None`` leaves the solo datapath
        #: untouched.
        self.victim = victim
        self.victim_share = victim_share
        #: Optional obs.MetricsRegistry accounting experiment costs.
        self.metrics = metrics
        #: Optional obs.SpanProfiler ("solve" spans around evaluation).
        self.profiler = profiler
        #: Functional bursts catch malformed workloads but cost real CPU;
        #: searches (thousands of experiments) disable them and rely on
        #: the space's coercion invariants, which the test suite verifies.
        self.functional_check = functional_check
        self.experiments_run = 0
        #: Population lockstep seam: ``(workload, measurement)`` staged
        #: by :meth:`prime` for the next :meth:`run` call (see
        #: :mod:`repro.core.population`).  Always None outside a
        #: population generation.
        self._prepared: Optional[tuple] = None
        #: Set by the population driver on multi-chain runs: every
        #: yielded point is evaluated in the generation batch, so
        #: scalar-path accelerators (the MFS ladder presolve) would
        #: only re-solve what the generation already covers.  Purely a
        #: performance hint — trajectories are identical either way.
        self.lockstep = False

    @property
    def cache(self) -> Optional["EvalCache"]:
        """The evaluation cache, if one is attached."""
        return self.engine.cache

    @property
    def victim_floor(self):
        """The pinned victim's solo baseline (isolation mode), else None."""
        return getattr(self.engine.model, "floor", None)

    def _before_experiment(
        self, workload: WorkloadDescriptor, phase: str, index: int
    ) -> None:
        """Pre-experiment seam (``index`` = absolute experiment number).

        A no-op here; :class:`repro.core.faults.FaultyTestbed` overrides
        it to raise injected faults *before* the experiment charges the
        clock or consumes RNG draws, so a retried run replays its
        completed prefix bit-identically.
        """

    def presolve(
        self, workloads: list[WorkloadDescriptor], phase: str = "search"
    ) -> int:
        """Batch-solve upcoming points into the cache (stat-less).

        The subsequent scalar ``run`` calls replay over cache hits with
        unchanged clock charging, lookup statistics and RNG draws —
        bit-identical, only faster.
        """
        return self.engine.presolve(workloads, phase=phase)

    def run_many(
        self,
        workloads: list[WorkloadDescriptor],
        rng: Optional[np.random.Generator] = None,
        phase: str = "search",
    ) -> list[ExperimentResult]:
        """Batched :meth:`run` — bit-identical to calling it in a loop.

        Evaluation happens in one vectorized pass; the clock is then
        charged per experiment in order, so every ``started_at`` and the
        final clock reading match the scalar loop exactly.
        """
        if not workloads:
            return []
        if len(workloads) == 1:
            return [self.run(workloads[0], rng=rng, phase=phase)]
        for offset, workload in enumerate(workloads):
            self._before_experiment(
                workload, phase, self.experiments_run + offset
            )
        wall_started = time.perf_counter()
        with (
            self.profiler.span("solve")
            if self.profiler is not None else _NO_SPAN
        ):
            measurements = self.engine.measure_many(
                workloads, rng=rng,
                functional_check=self.functional_check, phase=phase,
            )
        per_point_wall = (
            (time.perf_counter() - wall_started) / len(workloads)
        )
        results = []
        for workload, measurement in zip(workloads, measurements):
            started = self.clock.now
            setup = self.engine.setup_seconds(workload)
            measure = self.engine.measurement_seconds()
            if self.metrics is not None:
                self.metrics.observe(
                    "testbed.measure_wall", per_point_wall, phase=phase
                )
                self.metrics.counter("testbed.experiments", phase=phase)
                self.metrics.observe("testbed.setup_seconds", setup)
                self.metrics.observe("testbed.measurement_seconds", measure)
            self.clock.advance(setup + measure)
            self.experiments_run += 1
            results.append(
                ExperimentResult(
                    measurement=measurement,
                    setup_seconds=setup,
                    measurement_seconds=measure,
                    started_at=started,
                )
            )
        return results

    def prime(
        self, workload: WorkloadDescriptor, measurement: Measurement
    ) -> None:
        """Stage the next :meth:`run` result (population lockstep seam).

        The measurement must have been produced by the batched engine
        from *this* testbed's chain RNG
        (:meth:`~repro.core.batcheval.BatchEvaluator.evaluate_each`),
        so the consuming ``run`` call skips only redundant work: clock
        charging, accounting and the returned result are bit-identical
        to an unprimed scalar evaluation.  The slot holds one workload,
        matched by identity, and is cleared on consumption.
        """
        self._prepared = (workload, measurement)

    def _take_prepared(
        self, workload: WorkloadDescriptor
    ) -> Optional[Measurement]:
        prepared = self._prepared
        if prepared is not None and prepared[0] is workload:
            self._prepared = None
            return prepared[1]
        return None

    def run(
        self,
        workload: WorkloadDescriptor,
        rng: Optional[np.random.Generator] = None,
        phase: str = "search",
    ) -> ExperimentResult:
        """Run one experiment, charging the simulated clock."""
        self._before_experiment(workload, phase, self.experiments_run)
        started = self.clock.now
        setup = self.engine.setup_seconds(workload)
        measure = self.engine.measurement_seconds()
        prepared = self._take_prepared(workload)
        span = (
            self.profiler.span("solve")
            if self.profiler is not None else _NO_SPAN
        )
        if self.metrics is not None:
            with self.metrics.timer("testbed.measure_wall", phase=phase), span:
                measurement = (
                    prepared if prepared is not None
                    else self.engine.measure(
                        workload, rng=rng,
                        functional_check=self.functional_check, phase=phase,
                    )
                )
            self.metrics.counter("testbed.experiments", phase=phase)
            self.metrics.observe("testbed.setup_seconds", setup)
            self.metrics.observe("testbed.measurement_seconds", measure)
        else:
            with span:
                measurement = (
                    prepared if prepared is not None
                    else self.engine.measure(
                        workload, rng=rng,
                        functional_check=self.functional_check, phase=phase,
                    )
                )
        self.clock.advance(setup + measure)
        self.experiments_run += 1
        return ExperimentResult(
            measurement=measurement,
            setup_seconds=setup,
            measurement_seconds=measure,
            started_at=started,
        )
