"""Simulated-annealing workload search (paper Algorithm 1).

The search mutates one dimension at a time and drives a chosen hardware
counter to an extreme region — low for performance counters, high for
diagnostic counters.  The energy delta is the paper's relative form
(``(B-A)/A`` for performance, ``(A-B)/B`` for diagnostic), which makes the
algorithm insensitive to each counter's absolute value range (§5.1).

Deviations from textbook SA, as in the paper: the temperature schedule is
deliberately relaxed (the goal is to *visit* many anomalies, not converge
to one optimum), points matching a known MFS are skipped without running
an experiment, and finding a new anomaly triggers MFS extraction followed
by a restart from a fresh random point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.cluster.testbed import Testbed
from repro.core.mfs import MFSExtractor, MinimalFeatureSet, match_any
from repro.core.monitor import AnomalyMonitor, AnomalyVerdict
from repro.core.space import SearchSpace, changed_dimensions
from repro.hardware.counters import MINIMIZED_COUNTERS, is_diagnostic
from repro.hardware.model import LatencySummaryView, Measurement
from repro.hardware.workload import WorkloadDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.recorder import FlightRecorder

#: Ladder levels an MFS extraction probes per ordered dimension.
MFS_PROBES_PER_DIMENSION = 2


@dataclasses.dataclass(frozen=True)
class SearchSignal:
    """One counter being driven to an extreme region."""

    counter: str

    @property
    def diagnostic(self) -> bool:
        return is_diagnostic(self.counter)

    @property
    def lower_is_better(self) -> bool:
        """Whether the search drives this counter toward low values."""
        return self.counter in MINIMIZED_COUNTERS

    def value(self, measurement: Measurement) -> float:
        return float(measurement.counters[self.counter])

    def delta_energy(self, old: float, new: float) -> float:
        """Paper §5.1: relative energy change, negative = improvement."""
        eps = 1e-9
        if self.diagnostic:
            return (old - new) / max(new, eps)
        if self.counter in MINIMIZED_COUNTERS:
            return (new - old) / max(old, eps)
        # Pause duration behaves like a diagnostic: more is "worse is
        # better" for anomaly hunting.
        return (old - new) / max(new, eps)


@dataclasses.dataclass(frozen=True)
class SAParams:
    """Temperature schedule; relaxed per §5.1."""

    t0: float = 1.0
    t_min: float = 0.05
    alpha: float = 0.85
    iterations_per_temperature: int = 10

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.t_min <= 0 or self.t0 <= self.t_min:
            raise ValueError("need t0 > t_min > 0")


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One experiment in the search log (feeds Figures 4–6)."""

    time_seconds: float
    counter: str  #: the signal this experiment was measured under.
    counter_value: float
    symptom: str
    tags: tuple[str, ...]  #: ground truth, never read by the search.
    workload: WorkloadDescriptor
    kind: str  #: ``probe``, ``search``, ``mfs`` or ``skip``.
    new_anomaly_index: Optional[int] = None
    #: Full averaged counter snapshot, so any counter's trajectory can be
    #: plotted across the whole run (Figure 6 follows one diagnostic
    #: counter through every phase of the search).
    counters: dict = dataclasses.field(default_factory=dict)
    #: Per-WR latency summary when the monitor's tail-latency signal is
    #: enabled (a lazily-built ``LatencySummaryView`` in live searches,
    #: a plain dict when rehydrated from a journal); ``None`` otherwise,
    #: so latency-disabled runs journal byte-identically to pre-v4 ones.
    latency: Optional[dict] = None
    #: Isolation runs only: the verdict's victim-shared-over-fair-share
    #: ratio.  ``None`` on solo searches, so their journals stay
    #: byte-identical to pre-v6 ones.
    interference: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class MeasuredPoint:
    """One measurement plus the verdict and event bookkeeping from it.

    ``_measure`` classifies every measurement exactly once; threading the
    verdict (and the trace-event index) through to ``_handle_anomaly``
    keeps the hot path free of repeat classifications and makes the
    anomaly re-tag an O(1) indexed write instead of a backwards scan.
    """

    measurement: Measurement
    verdict: AnomalyVerdict
    event_index: int


@dataclasses.dataclass
class SearchState:
    """Mutable state shared across the per-counter SA passes."""

    anomalies: list[MinimalFeatureSet] = dataclasses.field(default_factory=list)
    events: list[TraceEvent] = dataclasses.field(default_factory=list)
    experiments: int = 0
    skipped: int = 0


class AnnealingSearch:
    """Algorithm 1, parameterised by counter signal and MFS usage."""

    def __init__(
        self,
        testbed: Testbed,
        space: SearchSpace,
        monitor: AnomalyMonitor,
        rng: np.random.Generator,
        params: SAParams = SAParams(),
        use_mfs: bool = True,
        recorder: Optional["FlightRecorder"] = None,
    ) -> None:
        self.testbed = testbed
        self.space = space
        self.monitor = monitor
        self.rng = rng
        self.params = params
        self.use_mfs = use_mfs
        #: Optional flight recorder; observes only, never draws RNG.
        self.recorder = recorder
        #: Parallel-tempering hooks, driven by the population driver and
        #: dormant otherwise (the single-run path never reads them, so
        #: legacy trajectories stay byte-identical).  ``exchange_state``
        #: publishes ``(counter, workload, value)`` at the top of each
        #: SA iteration; the driver injects ``(workload, value)`` into
        #: ``exchange_inbox`` and the chain adopts it — recording an
        #: ``exchange`` transition — at its next iteration boundary.
        self.exchange_enabled = False
        self.exchange_state: Optional[tuple] = None
        self.exchange_inbox: Optional[tuple] = None

    # -- measurement helpers ---------------------------------------------

    def _measure(
        self, state: SearchState, workload: WorkloadDescriptor,
        signal: SearchSignal, kind: str,
    ) -> MeasuredPoint:
        result = self.testbed.run(workload, rng=self.rng, phase=kind)
        state.experiments += 1
        measurement = result.measurement
        verdict = self.monitor.classify(measurement)
        profile = (
            measurement.latency if self.monitor.latency else None
        )
        tags = measurement.tags
        if profile is not None and profile.tags:
            # Latency quirks extend the ground truth (L-tags) only when
            # the signal is enabled, keeping disabled runs byte-identical.
            tags = tuple(sorted(set(tags) | set(profile.tags)))
        event = TraceEvent(
            time_seconds=result.finished_at,
            counter=signal.counter,
            counter_value=signal.value(measurement),
            symptom=verdict.symptom,
            tags=tags,
            workload=workload,
            kind=kind,
            counters=dict(measurement.counters),
            latency=(
                LatencySummaryView(profile) if profile is not None else None
            ),
            interference=verdict.interference,
        )
        event_index = len(state.events)
        state.events.append(event)
        if self.recorder is not None:
            self.recorder.experiment(event, state)
        return MeasuredPoint(
            measurement=measurement, verdict=verdict,
            event_index=event_index,
        )

    def _extract(
        self, state: SearchState, stepper, signal: SearchSignal,
        deadline: float,
    ):
        """Drive an MFS extraction, suspending before each probe.

        A sub-generator: yields every in-budget probe workload right
        before measuring it (``kind="mfs"``), so the population driver
        steps probes from many chains exactly like SA candidates.
        Deadline-expired probes are answered ``"healthy"`` — yielding a
        conservative, narrower MFS — *without* suspending: a suspension
        would add a generation and so move tempering's exchange sweeps.
        """
        try:
            probe = next(stepper)
            while True:
                if self.testbed.clock.now >= deadline:
                    probe = stepper.send("healthy")
                    continue
                yield probe
                measured = self._measure(state, probe, signal, kind="mfs")
                probe = stepper.send(measured.verdict.symptom)
        except StopIteration as stop:
            return stop.value

    def _handle_anomaly(
        self, state: SearchState, workload: WorkloadDescriptor,
        measured: MeasuredPoint, signal: SearchSignal, deadline: float,
    ):
        """Extract an MFS for a newly found anomaly (Alg. 1 lines 14-17).

        A sub-generator (``yield from`` it): yields each MFS probe
        workload immediately before its measurement, and returns True
        when a new anomaly entered the set (callers restart).  Without
        MFS the anomaly is logged but the search keeps climbing.
        """
        verdict = measured.verdict
        if not verdict.is_anomalous:
            return False
        if not self.use_mfs:
            return False
        if match_any(state.anomalies, workload) is not None:
            return False

        extractor = MFSExtractor(
            self.space, None, probes_per_dimension=MFS_PROBES_PER_DIMENSION
        )
        stepper = extractor.construct_steps(
            workload, verdict.symptom, at_seconds=self.testbed.clock.now,
            known=state.anomalies,
        )
        mfs = yield from self._extract(state, stepper, signal, deadline)
        if mfs is None:
            return False  # re-find of a known anomaly; keep climbing
        state.anomalies.append(mfs)
        index = len(state.anomalies) - 1
        # Re-tag the triggering event with the anomaly index; the event
        # slot is the one ``_measure`` just filled for this workload (MFS
        # probes only ever append after it), so the write is O(1).
        event_index = measured.event_index
        state.events[event_index] = dataclasses.replace(
            state.events[event_index], new_anomaly_index=index
        )
        if self.recorder is not None:
            self.recorder.anomaly(index, event_index, mfs)
        return True

    # -- the SA loop -------------------------------------------------------

    def run_pass(
        self, state: SearchState, signal: SearchSignal, deadline: float
    ) -> None:
        """Run SA on one counter until the simulated deadline (Alg. 1).

        Implementation notes beyond the paper's pseudocode: the relaxed
        temperature schedule reheats instead of terminating (§5.1 keeps
        the schedule loose on purpose), and a reheat usually resumes from
        a perturbation of the best point seen in this pass — basin
        hopping — rather than losing the climbed niche entirely.
        """
        for _ in self.iter_pass(state, signal, deadline):
            pass

    def iter_pass(
        self, state: SearchState, signal: SearchSignal, deadline: float
    ):
        """Generator form of the SA pass (see :meth:`run_pass`).

        Yields each workload — SA candidate or MFS probe — immediately
        before it is measured.  Driving the generator to exhaustion is
        exactly the scalar pass — no state crosses the yield, so the RNG
        stream, clock charges and journal records are untouched.  A
        population driver interleaves several of these, resuming each
        chain once per generation.
        """
        clock = self.testbed.clock
        best: Optional[tuple[float, WorkloadDescriptor]] = None
        recorder = self.recorder

        def out_of_time() -> bool:
            return clock.now >= deadline or clock.expired

        def record_transition(action: str, temperature: float,
                              delta: float = 0.0,
                              mutated: tuple = ()) -> None:
            if recorder is not None:
                recorder.transition(
                    clock.now, action, temperature, delta, mutated
                )

        def track_best(value: float, workload: WorkloadDescriptor) -> None:
            nonlocal best
            score = -value if signal.lower_is_better else value
            if best is None or score > best[0]:
                best = (score, workload)

        def reseed(prefer_best: bool):
            """Measure a fresh start point; returns (workload, value).

            A sub-generator (driven with ``yield from``): its yields are
            the pre-measurement suspension points, its return value the
            seeded pair — or None when the budget ran out.
            """
            nonlocal best
            if (
                best is not None
                and self.use_mfs
                and match_any(state.anomalies, best[1]) is not None
            ):
                # The best-seen niche has since been covered by an MFS:
                # perturbations of it would mostly be skipped, so drop it.
                best = None
            while not out_of_time():
                if prefer_best and best is not None and self.rng.random() < 0.5:
                    point = self.space.mutate(best[1], self.rng)
                else:
                    point = self.space.random(self.rng)
                if self.use_mfs and match_any(state.anomalies, point):
                    state.skipped += 1
                    if recorder is not None:
                        recorder.skip(clock.now, point)
                    continue
                yield point
                measured = self._measure(state, point, signal, kind="search")
                value = signal.value(measured.measurement)
                if (yield from self._handle_anomaly(
                    state, point, measured, signal, deadline
                )):
                    record_transition("restart", self.params.t0)
                    continue  # new anomaly: restart again (Alg. 1 line 17)
                track_best(value, point)
                return point, value
            return None

        seeded = yield from reseed(prefer_best=False)
        if seeded is None:
            return
        current, energy_value = seeded

        cycle = 0
        temperature = self.params.t0
        while not out_of_time():
            for _ in range(self.params.iterations_per_temperature):
                if out_of_time():
                    return
                if self.exchange_enabled:
                    if self.exchange_inbox is not None:
                        current, energy_value = self.exchange_inbox
                        self.exchange_inbox = None
                        record_transition("exchange", temperature)
                    self.exchange_state = (
                        signal.counter, current, energy_value
                    )
                candidate = self.space.mutate(current, self.rng)
                # Label the move for mutation-effectiveness diagnostics;
                # pure value comparison, no RNG.
                mutated = (
                    changed_dimensions(current, candidate)
                    if recorder is not None else ()
                )
                if self.use_mfs and match_any(state.anomalies, candidate):
                    state.skipped += 1
                    if recorder is not None:
                        recorder.skip(clock.now, candidate)
                    continue
                yield candidate
                measured = self._measure(
                    state, candidate, signal, kind="search"
                )
                cand_value = signal.value(measured.measurement)
                if (yield from self._handle_anomaly(
                    state, candidate, measured, signal, deadline
                )):
                    record_transition("restart", temperature)
                    seeded = yield from reseed(prefer_best=True)
                    if seeded is None:
                        return
                    current, energy_value = seeded
                    continue
                track_best(cand_value, candidate)
                delta = signal.delta_energy(energy_value, cand_value)
                if delta < 0:
                    current, energy_value = candidate, cand_value
                    record_transition("improve", temperature, delta, mutated)
                else:
                    prob = math.exp(-delta / max(temperature, 1e-9))
                    if self.rng.random() < prob:
                        current, energy_value = candidate, cand_value
                        record_transition(
                            "accept", temperature, delta, mutated
                        )
                    else:
                        record_transition(
                            "reject", temperature, delta, mutated
                        )
            temperature *= self.params.alpha
            if temperature < self.params.t_min:
                # Relaxed schedule (§5.1): reheat instead of terminating —
                # the goal is coverage of many anomalies, not convergence.
                cycle += 1
                temperature = self.params.t0
                record_transition("reheat", temperature)
                seeded = yield from reseed(prefer_best=True)
                if seeded is None:
                    return
                current, energy_value = seeded
