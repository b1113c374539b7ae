"""The two-server experiment runner with simulated time accounting."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.clock import SimulatedClock
from repro.hardware.model import Measurement
from repro.hardware.subsystems import Subsystem, get_subsystem
from repro.hardware.workload import WorkloadDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache


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
            victim=victim, victim_share=victim_share,
        )
        #: Isolation mode (see :class:`~repro.hardware.coexist.CoRunModel`):
        #: with a pinned victim every run measures the *victim* next to
        #: the given attacker point.  ``None`` leaves the solo datapath
        #: untouched.
        self.victim = victim
        self.victim_share = victim_share
        #: Functional bursts catch malformed workloads but cost real CPU;
        #: searches (thousands of experiments) disable them and rely on
        #: the space's coercion invariants, which the test suite verifies.
        self.functional_check = functional_check
        self.experiments_run = 0

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
        measurement = self.engine.measure(
            workload, rng=rng,
            functional_check=self.functional_check, phase=phase,
        )
        self.clock.advance(setup + measure)
        self.experiments_run += 1
        return ExperimentResult(
            measurement=measurement,
            setup_seconds=setup,
            measurement_seconds=measure,
            started_at=started,
        )
