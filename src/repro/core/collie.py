"""Collie's top-level orchestration (paper Fig. 2 + §7.2 procedure).

A run:

1. measures 10 random points and ranks the candidate counters by their
   coefficient of variation (std/mean) over those probes, in decreasing
   order — exactly the §7.2 setup;
2. runs the simulated-annealing search on each counter in that order,
   splitting the remaining time budget evenly;
3. maintains the anomaly set (MFS per anomaly), skipping known regions.

``counter_mode`` selects the signal family: ``"diag"`` uses the 9 vendor
diagnostic counters (Collie (Diag)), ``"perf"`` the always-available
throughput counters (Collie (Perf)).  ``use_mfs=False`` turns the run
into the plain SA baseline of Figure 5.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.clock import SimulatedClock
from repro.cluster.testbed import Testbed
from repro.core.annealing import (
    AnnealingSearch,
    SAParams,
    SearchSignal,
    SearchState,
    TraceEvent,
)
from repro.core.mfs import MinimalFeatureSet, match_any
from repro.core.monitor import AnomalyMonitor
from repro.core.space import SearchSpace
from repro.hardware.counters import DIAGNOSTIC_COUNTERS, MINIMIZED_COUNTERS
from repro.hardware.subsystems import Subsystem, get_subsystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache
    from repro.obs.recorder import FlightRecorder

#: §7.2: "we first generate 10 random points" to rank counters.
RANKING_PROBES = 10

#: Reusable no-op context for profiler-disabled span sites.
_NO_SPAN = nullcontext()


@dataclasses.dataclass
class SearchReport:
    """Everything a Collie run produced."""

    subsystem_name: str
    counter_mode: str
    use_mfs: bool
    anomalies: list[MinimalFeatureSet]
    events: list[TraceEvent]
    experiments: int
    skipped_points: int
    elapsed_seconds: float
    counter_ranking: list[str]

    @property
    def elapsed_hours(self) -> float:
        return self.elapsed_seconds / 3600.0

    def found_tags(self) -> list[str]:
        """Ground-truth anomaly tags hit during the run (benchmark use)."""
        tags: list[str] = []
        for event in self.events:
            for tag in event.tags:
                if tag not in tags:
                    tags.append(tag)
        return tags

    def first_hit_times(self) -> dict:
        """Ground-truth tag → simulated seconds of first anomalous hit.

        Only events the monitor actually classified as anomalous count —
        a tag firing without an observable symptom is not "found".
        """
        hits: dict = {}
        for event in self.events:
            if event.symptom == "healthy":
                continue
            for tag in event.tags:
                hits.setdefault(tag, event.time_seconds)
        return hits

    def summary(self) -> str:
        lines = [
            f"Collie({self.counter_mode}{'' if self.use_mfs else ', no MFS'}) "
            f"on subsystem {self.subsystem_name}: "
            f"{len(self.anomalies)} anomalies (MFS), "
            f"{self.experiments} experiments, "
            f"{self.skipped_points} skipped, "
            f"{self.elapsed_hours:.1f} simulated hours",
        ]
        for i, mfs in enumerate(self.anomalies, 1):
            lines.append(f"  #{i} @{mfs.found_at_seconds / 3600:.2f}h "
                         f"{mfs.describe()}")
        return "\n".join(lines)


class Collie:
    """The search tool: workload engine + anomaly monitor + generator."""

    def __init__(
        self,
        subsystem: Subsystem,
        space: Optional[SearchSpace] = None,
        counter_mode: str = "diag",
        use_mfs: bool = True,
        budget_hours: float = 10.0,
        seed: int = 0,
        sa_params: SAParams = SAParams(),
        noise: float = 0.02,
        mfs_probes_per_dimension: int = 2,
        counters: Optional[tuple] = None,
        cache: Optional["EvalCache"] = None,
        recorder: Optional["FlightRecorder"] = None,
        latency: bool = True,
        victim=None,
        victim_share: float = 0.5,
    ) -> None:
        if counter_mode not in ("diag", "perf"):
            raise ValueError("counter_mode must be 'diag' or 'perf'")
        self.subsystem = subsystem
        self.space = space or SearchSpace.for_subsystem(subsystem)
        self.counter_mode = counter_mode
        #: Restrict the searched counters (the parallel-Collie extension
        #: partitions the ranked counters across machines).
        self.counter_subset = tuple(counters) if counters else None
        self.use_mfs = use_mfs
        self.budget_hours = budget_hours
        self.budget_seconds = budget_hours * 3600.0
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.clock = SimulatedClock(self.budget_seconds)
        #: Memoized evaluation (transparent: results are bit-identical
        #: with or without it; MFS probing is where it pays off most).
        self.cache = cache
        #: Optional flight recorder; its metrics registry is threaded
        #: through the monitor, testbed and cache, its journal through
        #: the annealing loop.  Purely observational: a recorded run is
        #: bit-identical to an unrecorded one.
        self.recorder = recorder
        metrics = recorder.metrics if recorder is not None else None
        profiler = recorder.profiler if recorder is not None else None
        self.profiler = profiler
        if recorder is not None and cache is not None:
            cache.observer = recorder.cache_event
            cache.profiler = profiler
        #: Isolation mode: a pinned victim turns the run into an
        #: adversarial-neighbor search — every searched point is an
        #: attacker co-running next to the victim, and verdicts come
        #: from the isolation monitor's victim-degradation conditions.
        #: ``None`` leaves the solo search byte-identical to before.
        self.victim = victim
        self.victim_share = victim_share
        self.testbed = Testbed(
            subsystem, clock=self.clock, noise=noise, cache=cache,
            metrics=metrics, profiler=profiler,
            victim=victim, victim_share=victim_share,
        )
        #: ``latency=False`` (``--no-latency``) disables the tail-latency
        #: trigger AND latency journaling: the run is then bit-identical
        #: to a pre-v4 throughput-only search.
        self.latency = latency
        if victim is not None:
            from repro.core.monitor import IsolationMonitor

            self.monitor: AnomalyMonitor = IsolationMonitor(
                subsystem, self.testbed.victim_floor,
                metrics=metrics, latency=latency,
            )
        else:
            self.monitor = AnomalyMonitor(
                subsystem, metrics=metrics, latency=latency
            )
        self.search = AnnealingSearch(
            self.testbed,
            self.space,
            self.monitor,
            self.rng,
            params=sa_params,
            use_mfs=use_mfs,
            mfs_probes_per_dimension=mfs_probes_per_dimension,
            recorder=recorder,
        )
        self.last_report: Optional[SearchReport] = None

    @classmethod
    def for_subsystem(cls, letter: str, **kwargs) -> "Collie":
        """Convenience constructor from a Table 1 letter."""
        return cls(get_subsystem(letter), **kwargs)

    # -- the run -------------------------------------------------------------

    def run(self) -> SearchReport:
        """Execute the full §7.2 procedure within the time budget.

        The report is memoised on the instance (``last_report``) for the
        §7.3 developer workflows that interrogate a finished campaign.
        """
        stepper = self.steps()
        while True:
            try:
                next(stepper)
            except StopIteration as stop:
                return stop.value

    def steps(self):
        """Generator twin of :meth:`run`.

        Yields each workload (ranking probe, SA candidate or MFS probe)
        immediately before it is measured; driving it to exhaustion is
        exactly ``run()`` — no state crosses a yield, so the trajectory,
        RNG stream and journal are bit-identical.  The population driver
        interleaves several of these, pre-solving each generation's
        pending points as one batch.  ``StopIteration.value`` is the
        :class:`SearchReport`.
        """
        if self.recorder is not None:
            self.recorder.run_start(
                self.subsystem.name, self.counter_mode, self.use_mfs,
                self.budget_hours, self.seed, space=self.space,
            )
            if self.victim is not None:
                self.recorder.isolation(
                    self.victim, self.victim_share,
                    self.testbed.victim_floor,
                )
        profiler = self.profiler
        with (
            profiler.span("search") if profiler is not None else _NO_SPAN
        ):
            state = SearchState()
            with (
                profiler.span("rank") if profiler is not None else _NO_SPAN
            ):
                ranking = yield from self._rank_counters(state)
            if self.recorder is not None:
                self.recorder.ranking(ranking, self._dispersions)
            yield from self._search_counters(state, ranking)
        self.last_report = SearchReport(
            subsystem_name=self.subsystem.name,
            counter_mode=self.counter_mode,
            use_mfs=self.use_mfs,
            anomalies=state.anomalies,
            events=state.events,
            experiments=state.experiments,
            skipped_points=state.skipped,
            elapsed_seconds=self.clock.now,
            counter_ranking=ranking,
        )
        if self.recorder is not None:
            self.recorder.run_end(self.last_report)
        return self.last_report

    def _candidate_counters(self) -> tuple[str, ...]:
        if self.counter_subset is not None:
            return self.counter_subset
        if self.counter_mode == "diag":
            return DIAGNOSTIC_COUNTERS
        return tuple(sorted(MINIMIZED_COUNTERS))

    def _rank_counters(self, state: SearchState):
        """Probe 10 random points; rank counters by std/mean, descending.

        A sub-generator of :meth:`steps`: yields each probe workload
        right before measuring it, returns the ranking.
        """
        candidates = self._candidate_counters()
        observations: dict = {name: [] for name in candidates}
        signal = SearchSignal(candidates[0])
        for _ in range(RANKING_PROBES):
            if self.clock.expired:
                break
            workload = self.space.random(self.rng)
            yield workload
            measured = self.search._measure(
                state, workload, signal, kind="probe"
            )
            yield from self.search._handle_anomaly(
                state, workload, measured, signal,
                deadline=self.budget_seconds,
            )
            counters = measured.measurement.counters
            for name in candidates:
                observations[name].append(float(counters[name]))

        def dispersion(name: str) -> float:
            values = np.array(observations[name])
            if values.size == 0:
                return 0.0
            mean = values.mean()
            if mean <= 0:
                return 0.0
            return float(values.std() / mean)

        ranked = sorted(candidates, key=dispersion, reverse=True)
        # A counter that never moved across ten random probes carries no
        # searchable signal on this subsystem; spend the budget elsewhere.
        self._dispersions = {name: dispersion(name) for name in ranked}
        return [name for name in ranked if dispersion(name) > 0.0]

    def _search_counters(self, state: SearchState, ranking: list[str]):
        """Run one SA pass per counter, in ranking order.

        Budget allocation is geometric: each pass receives a fixed
        fraction of the remaining budget, so the counters ranked most
        informative — where the hard-to-trigger anomalies hide — get
        hours rather than minutes, while every ranked counter still gets
        a slice before the budget runs out.
        """
        remaining_counters = list(ranking)
        while remaining_counters and not self.clock.expired:
            counter = remaining_counters.pop(0)
            slots_left = len(remaining_counters) + 1
            slice_seconds = max(
                self.clock.remaining * 0.30,
                self.clock.remaining / slots_left,
            )
            deadline = self.clock.now + slice_seconds
            with (
                self.profiler.span("pass")
                if self.profiler is not None else _NO_SPAN
            ):
                yield from self.search.iter_pass(
                    state, SearchSignal(counter), deadline
                )

    # -- §7.3 developer workflows -----------------------------------------

    def check_restricted_space(self) -> list[MinimalFeatureSet]:
        """Anomaly-prevention mode: does a restricted space hit anomalies?

        Developers restrict the space to the workloads their application
        can generate; Collie answers whether that restricted space still
        contains performance anomalies (§5.2 "anomaly prevention").
        """
        if self.last_report is None:
            self.run()
        return self.last_report.anomalies

    def diagnose(self, workload) -> Optional[MinimalFeatureSet]:
        """Debugging mode: match an application workload against the MFS
        set of the completed campaign (running one first if needed)."""
        if self.last_report is None:
            self.run()
        return match_any(self.last_report.anomalies, workload)
