"""Random input generation: the black-box fuzzing baseline.

"One naive approach is to generate random input in the search space.
This approach is already much better than existing tests because the
design of our search space is more comprehensive than that in existing
tools" (§5) — and indeed it finds the simple anomalies quickly, but, as
Figure 4 shows, plateaus well below Collie.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.clock import SimulatedClock
from repro.cluster.testbed import Testbed
from repro.core.annealing import SearchState, TraceEvent
from repro.core.monitor import AnomalyMonitor
from repro.core.space import SearchSpace
from repro.hardware.subsystems import Subsystem, get_subsystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache
    from repro.obs.recorder import FlightRecorder


@dataclasses.dataclass
class BaselineReport:
    """Search log of a baseline run (same bookkeeping as Collie's)."""

    name: str
    subsystem_name: str
    events: list[TraceEvent]
    experiments: int
    elapsed_seconds: float

    def first_hit_times(self) -> dict:
        hits: dict = {}
        for event in self.events:
            if event.symptom == "healthy":
                continue
            for tag in event.tags:
                hits.setdefault(tag, event.time_seconds)
        return hits

    def found_tags(self) -> list[str]:
        return sorted(self.first_hit_times())


class RandomSearch:
    """Uniform random sampling of the search space under a time budget."""

    def __init__(
        self,
        subsystem: "Subsystem | str",
        budget_hours: float = 10.0,
        seed: int = 0,
        noise: float = 0.02,
        cache: Optional["EvalCache"] = None,
        recorder: Optional["FlightRecorder"] = None,
    ) -> None:
        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        self.subsystem = subsystem
        self.space = SearchSpace.for_subsystem(subsystem)
        self.clock = SimulatedClock(budget_hours * 3600.0)
        self.budget_hours = budget_hours
        self.seed = seed
        #: Optional flight recorder; purely observational (a recorded
        #: run is bit-identical to an unrecorded one).
        self.recorder = recorder
        self.testbed = Testbed(
            subsystem, clock=self.clock, noise=noise, cache=cache
        )
        self.monitor = AnomalyMonitor(subsystem)
        self.rng = np.random.default_rng(seed)

    def run(self) -> BaselineReport:
        recorder = self.recorder
        if recorder is not None:
            recorder.run_start(
                self.subsystem.name, "random", False,
                self.budget_hours, self.seed,
            )
        state = SearchState()
        while not self.clock.expired:
            workload = self.space.random(self.rng)
            result = self.testbed.run(workload, rng=self.rng)
            verdict = self.monitor.classify(result.measurement)
            event = TraceEvent(
                time_seconds=result.finished_at,
                counter="",  # random sampling follows no signal
                counter_value=0.0,
                symptom=verdict.symptom,
                tags=result.measurement.tags,
                workload=workload,
                kind="search",
                # Snapshot kept for Figure 6: random does not *use*
                # the counters, but the paper plots what it saw.
                counters=dict(result.measurement.counters),
            )
            state.events.append(event)
            state.experiments += 1
            if recorder is not None:
                recorder.experiment(event, state)
        if recorder is not None:
            recorder._run_end_totals(
                self.clock.now, state.experiments, 0, 0, [],
            )
        return BaselineReport(
            name="random",
            subsystem_name=self.subsystem.name,
            events=state.events,
            experiments=state.experiments,
            elapsed_seconds=self.clock.now,
        )
