"""The two-server experiment runner with simulated time accounting."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.clock import SimulatedClock
from repro.hardware.model import Measurement, SteadyStateModel
from repro.hardware.subsystems import Subsystem, get_subsystem
from repro.hardware.workload import WorkloadDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache

#: Four per-second counter fetches plus stabilisation (§6).
MEASUREMENT_SECONDS = 8.0


def setup_seconds(workload: WorkloadDescriptor) -> float:
    """Simulated setup cost of one experiment.

    The paper reports 20–60 s per experiment, "mostly depending on the
    number of QPs to create and the number of MRs to register" (§5).
    """
    base = 12.0
    qp_cost = 0.002 * workload.num_qps * (
        2 if workload.is_bidirectional else 1
    )
    mr_cost = 0.0002 * workload.total_mrs
    return min(52.0, base + qp_cost + mr_cost)


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

    Every ``run`` prices the point with the steady-state model and
    charges the simulated clock with the experiment's setup and
    measurement cost, reproducing the paper's 20–60 s per-experiment
    budget that Figures 4–6 are measured against.
    """

    __test__ = False

    def __init__(
        self,
        subsystem: "Subsystem | str",
        clock: Optional[SimulatedClock] = None,
        noise: float = 0.02,
        cache: Optional["EvalCache"] = None,
        victim: Optional[WorkloadDescriptor] = None,
        victim_share: float = 0.5,
    ) -> None:
        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        self.subsystem = subsystem
        self.clock = clock or SimulatedClock()
        #: Isolation mode: a pinned victim tenant makes every measured
        #: point an *attacker* co-running next to it — the model becomes
        #: a :class:`~repro.hardware.coexist.CoRunModel` and
        #: measurements describe the victim under that neighbor.  With
        #: no victim the solo datapath is untouched.
        if victim is not None:
            from repro.hardware.coexist import CoRunModel

            self.model: SteadyStateModel = CoRunModel(
                subsystem,
                victim,
                victim_share=victim_share,
                noise=noise,
                cache=cache,
            )
        else:
            self.model = SteadyStateModel(subsystem, noise=noise, cache=cache)
        self.experiments_run = 0

    @property
    def victim_floor(self):
        """The pinned victim's solo baseline (isolation mode), else None."""
        return getattr(self.model, "floor", None)

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
        setup = setup_seconds(workload)
        measurement = self.model.evaluate(workload, rng=rng, phase=phase)
        self.clock.advance(setup + MEASUREMENT_SECONDS)
        self.experiments_run += 1
        return ExperimentResult(
            measurement=measurement,
            setup_seconds=setup,
            measurement_seconds=MEASUREMENT_SECONDS,
            started_at=started,
        )
