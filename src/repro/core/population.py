"""Population SA: N annealing chains stepped in lockstep in one process.

Each chain is a full §7.2 Collie run — own RNG (``seed + c``), own
simulated clock, own testbed, monitor and anomaly set — reshaped into a
generator (:meth:`~repro.core.collie.Collie.steps`) that suspends
immediately before each measurement, search step and MFS probe alike.
Per generation the driver resumes every live chain once, in chain
order, and each chain measures its pending workload through its own
:meth:`~repro.cluster.testbed.Testbed.run`, as the paper's SA searches
each occupy their own two-server testbed.  A user ``--cache`` is shared
by every chain; nothing else is.

Because nothing crosses the suspension points and the cache is
bit-transparent, every chain is bit-identical to a standalone
``Collie(seed=seed + c).run()``.  Two consequences the test suite pins:

* a 1-chain population *is* the legacy trajectory (same events, RNG
  stream, journal bytes, report);
* an N-chain population equals the ``search --seeds N`` campaign path
  for the same seed range, independent of worker count.

What the lockstep is still for: parallel tempering's exchange sweeps
need every chain at the same generation, and the generation order
fixes the interleaved record order of a ``--chains`` journal and the
reported ``generations`` count.

**Parallel tempering** (``temperature_ladder``): one chain per rung,
each running the relaxed schedule scaled to its rung, with a
deterministic replica-exchange sweep every ``exchange_every``
generations.  Adjacent rungs swap their current points when the hotter
chain holds the better-scoring point and both chains are driving the
same counter — greedy, RNG-free, so tempering runs are bit-identical
across repeats.  The paper couldn't afford a ladder on real hardware
(each rung is another 10-hour testbed occupation); on the simulated
testbed it is one more chain.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.annealing import SAParams, SearchSignal
from repro.core.collie import Collie, MergedRuns, SearchReport
from repro.core.evalcache import EvalCache
from repro.core.space import SearchSpace
from repro.hardware.subsystems import Subsystem, get_subsystem


@dataclasses.dataclass
class PopulationReport(MergedRuns):
    """Merged outcome of one population run."""

    subsystem_name: str
    chains: int
    reports: list[SearchReport]  #: one per chain, in chain order.
    generations: int  #: lockstep rounds until the last chain finished.
    exchanges: int  #: replica swaps performed (tempering only).
    mode: str  #: ``independent`` or ``tempering``.
    temperature_ladder: Optional[tuple] = None

    def summary(self) -> str:
        label = (
            f"tempering ladder {self.temperature_ladder}"
            if self.mode == "tempering" else f"{self.chains} chains"
        )
        lines = [
            f"Population({label}) on subsystem {self.subsystem_name}: "
            f"{len(self.anomalies)} anomalies (MFS), "
            f"{self.total_experiments} experiments, "
            f"{self.generations} generations"
            + (f", {self.exchanges} exchanges" if self.exchanges else ""),
        ]
        for chain, report in enumerate(self.reports):
            lines.append(
                f"  chain {chain}: {len(report.anomalies)} anomalies, "
                f"{report.experiments} experiments, "
                f"{report.elapsed_seconds / 3600:.1f} simulated hours"
            )
        return "\n".join(lines)


class PopulationCollie:
    """Steps N Collie chains in lockstep, each on its own testbed."""

    def __init__(
        self,
        subsystem: "Subsystem | str",
        chains: int = 4,
        budget_hours: float = 10.0,
        seed: int = 0,
        counter_mode: str = "diag",
        use_mfs: bool = True,
        noise: float = 0.02,
        counters: Optional[tuple] = None,
        cache: Optional[EvalCache] = None,
        recorder=None,
        latency: bool = True,
        temperature_ladder: Optional[tuple] = None,
        exchange_every: int = 25,
        victim=None,
        victim_share: float = 0.5,
    ) -> None:
        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        if temperature_ladder is not None:
            ladder = tuple(float(t) for t in temperature_ladder)
            if len(ladder) < 2:
                raise ValueError("a temperature ladder needs >= 2 rungs")
            if any(t <= 0 for t in ladder):
                raise ValueError("ladder temperatures must be positive")
            chains = len(ladder)
        else:
            ladder = None
        if chains < 1:
            raise ValueError("need at least one chain")
        if exchange_every < 1:
            raise ValueError("exchange_every must be >= 1")
        self.subsystem = subsystem
        self.chains = chains
        self.budget_hours = budget_hours
        self.seed = seed
        self.temperature_ladder = ladder
        self.exchange_every = exchange_every
        self.victim = victim
        self.victim_share = victim_share
        self.recorder = recorder
        #: The user's cache, shared by every chain (``None`` without one).
        self.cache = cache
        space = SearchSpace.for_subsystem(subsystem)
        sa_params = SAParams()

        def rung_params(rung: float) -> SAParams:
            # Scale the whole schedule to the rung, preserving the
            # t0/t_min ratio so every rung anneals the same number of
            # temperature steps before reheating.
            return dataclasses.replace(
                sa_params, t0=rung,
                t_min=sa_params.t_min * rung / sa_params.t0,
            )

        self._collies: list[Collie] = []
        for chain in range(chains):
            chain_recorder = None
            if recorder is not None:
                # A 1-chain population records through the parent
                # directly (no chain stamps: the journal is the legacy
                # single-run journal); multi-chain runs get stamped
                # per-chain views sharing the parent's journal.
                chain_recorder = (
                    recorder if chains == 1 else recorder.for_chain(chain)
                )
            collie = Collie(
                subsystem,
                space=space,
                counter_mode=counter_mode,
                use_mfs=use_mfs,
                budget_hours=budget_hours,
                seed=seed + chain,
                sa_params=(
                    rung_params(ladder[chain]) if ladder is not None
                    else sa_params
                ),
                noise=noise,
                counters=counters,
                cache=cache,
                recorder=chain_recorder,
                latency=latency,
                victim=victim,
                victim_share=victim_share,
            )
            if ladder is not None:
                collie.search.exchange_enabled = True
            self._collies.append(collie)
        if cache is not None and chains > 1:
            # Each chain Collie re-wired the shared cache's observer to
            # its own recorder view; route cache events through the
            # unstamped parent instead (they are population-global, not
            # attributable to the chain that happened to be built last).
            cache.observer = (
                recorder.cache_event if recorder is not None else None
            )
        if ladder is not None:
            # Exchange sweeps walk the ladder hottest → coldest.
            self._ladder_order = sorted(
                range(chains), key=lambda c: -ladder[c]
            )
        else:
            self._ladder_order = []
        self.exchanges = 0
        self.generations = 0
        self.last_report: Optional[PopulationReport] = None

    # -- the lockstep loop -------------------------------------------------

    def run(self) -> PopulationReport:
        """Drive every chain to completion, one generation at a time."""
        steppers = [collie.steps() for collie in self._collies]
        pending: dict = {}  # chain index -> workload awaiting measurement
        reports: list = [None] * self.chains
        self.exchanges = 0
        self.generations = 0
        for index, stepper in enumerate(steppers):
            self._advance(index, stepper, pending, reports)
        while pending:
            self.generations += 1
            if (
                self.temperature_ladder is not None
                and self.generations % self.exchange_every == 0
            ):
                self._exchange_sweep()
            # dict preserves insertion order and never re-adds a
            # finished chain, so resumption order is chain order.
            for index in list(pending):
                self._advance(index, steppers[index], pending, reports)
        self.last_report = PopulationReport(
            subsystem_name=self.subsystem.name,
            chains=self.chains,
            reports=reports,
            generations=self.generations,
            exchanges=self.exchanges,
            mode=(
                "tempering" if self.temperature_ladder is not None
                else "independent"
            ),
            temperature_ladder=self.temperature_ladder,
        )
        return self.last_report

    def _advance(self, index, stepper, pending, reports) -> None:
        """Resume one chain until its next pre-measurement suspension."""
        try:
            pending[index] = next(stepper)
        except StopIteration as stop:
            pending.pop(index, None)
            reports[index] = stop.value

    # -- replica exchange (parallel tempering) -----------------------------

    def _exchange_sweep(self) -> None:
        """One deterministic greedy sweep over adjacent ladder rungs.

        For each hot/cold neighbour pair driving the *same* counter,
        swap their current points when the hotter chain holds the
        better score — the strong point continues annealing at the
        colder (exploiting) rung while the displaced one re-enters the
        hot (exploring) rung.  Pure value comparison: no RNG, so
        tempering stays bit-reproducible.  Chains adopt their inbox at
        the top of their next SA iteration and journal an ``exchange``
        transition.
        """
        searches = [collie.search for collie in self._collies]
        order = self._ladder_order
        for hot, cold in zip(order, order[1:]):
            hot_state = searches[hot].exchange_state
            cold_state = searches[cold].exchange_state
            if hot_state is None or cold_state is None:
                continue
            hot_counter, hot_point, hot_value = hot_state
            cold_counter, cold_point, cold_value = cold_state
            if hot_counter != cold_counter:
                continue  # different passes: energies are incomparable
            signal = SearchSignal(hot_counter)
            flip = -1.0 if signal.lower_is_better else 1.0
            if flip * hot_value > flip * cold_value:
                searches[hot].exchange_inbox = (cold_point, cold_value)
                searches[cold].exchange_inbox = (hot_point, hot_value)
                # Update the published states too, so one sweep can
                # bubble a strong point down several rungs without
                # double-donating it to two neighbours.
                searches[hot].exchange_state = (
                    hot_counter, cold_point, cold_value
                )
                searches[cold].exchange_state = (
                    cold_counter, hot_point, hot_value
                )
                self.exchanges += 1
