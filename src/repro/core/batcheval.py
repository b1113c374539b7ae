"""Batched vectorized evaluation of many points at once (S31).

Nothing in src/ calls this module: it stays because perfbench's tracer
and child name its entries, until a benchmark change drops them.

:class:`BatchEvaluator` runs the deterministic half of an evaluation
(features → rule gates → per-direction steady-state solve → ideal
counters) as float64 column arithmetic over a list of points
(:func:`repro.hardware.model.solve_batch`), deduplicating identical
points and consulting/back-filling the
:class:`~repro.core.evalcache.EvalCache` through its bulk API.

**Identity contract.**  Batched evaluation is *bit-identical* to the
scalar path, including RNG consumption: point ``i``'s observation noise
is drawn from its own generator with the one call
:class:`~repro.hardware.counters.VendorMonitor` makes, so measurement
``i`` and the state its generator is left in equal
``model.evaluate(workloads[i], rngs[i])``
(``tests/core/test_batcheval.py`` pins this over subsystems A–H).
Only a point's *active* counters (ideal value > 0) consume noise,
exactly as the scalar monitor does.

**Path selection.**  Every search, population chain, MFS probe,
counter ranking and the Perftest sweep evaluates one point at a time
through :meth:`~repro.hardware.model.SteadyStateModel.evaluate`; the
tests are this kernel's only callers.  A one-point call runs the
scalar path, which is cheaper for a single row.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.evalcache import DEFAULT_PHASE, canonical_point
from repro.hardware.counters import ALL_COUNTERS, CounterSample, average_counters
from repro.hardware.model import (
    Measurement,
    SteadyStateModel,
    latency_for_solve,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.workload import WorkloadDescriptor


# No caller in src/; kept because perfbench/tracer.py wraps it by name.
def observe_each(
    model: SteadyStateModel,
    workloads: "list[WorkloadDescriptor]",
    solves: list,
    rngs: "list[np.random.Generator]",
    sample_seconds: int = 4,
) -> list[Measurement]:
    """Noisy observation with one independent RNG per point.

    Point ``i``'s noise is drawn from ``rngs[i]`` with the exact call
    :meth:`VendorMonitor._sample_rows` would make — one
    ``normal(size=(window, active))`` draw over its active counters
    (ideal value > 0) — so chain ``i``'s generator lands in the
    bit-identical state a standalone scalar evaluation would leave it
    in, while the deterministic row construction and averaging stay
    vectorized across the batch.
    """
    window = int(sample_seconds)
    n = len(workloads)
    base = np.array(
        [
            [s.ideal_counters.get(name, 0.0) for name in ALL_COUNTERS]
            for s in solves
        ],
        dtype=np.float64,
    ).reshape(n, len(ALL_COUNTERS))
    rows = np.repeat(base[:, None, :], window, axis=1)
    if model.noise > 0 and window > 0:
        jitter = base > 0
        active = jitter.sum(axis=1)
        if active.any():
            # Each point's raveled (row-major) block, in point order.
            noise = np.concatenate([
                rngs[i].normal(0.0, model.noise, size=(window, count)).ravel()
                for i, count in enumerate(active.tolist())
                if count
            ])
            clipped = np.maximum(0.0, 1.0 + noise)
            point_idx, cols = np.nonzero(jitter)
            starts = np.concatenate(([0], np.cumsum(window * active)))[:-1]
            group_starts = np.concatenate(([0], np.cumsum(active)))[:-1]
            within = np.arange(point_idx.size) - np.repeat(
                group_starts, active
            )
            first = starts[point_idx] + within
            step = active[point_idx]
            for second in range(window):
                rows[point_idx, second, cols] *= clipped[
                    first + second * step
                ]
    return _measurements_from_rows(model, workloads, solves, rows, window)


def _measurements_from_rows(
    model: SteadyStateModel,
    workloads: "list[WorkloadDescriptor]",
    solves: list,
    rows: np.ndarray,
    window: int,
) -> list[Measurement]:
    """Assemble Measurements from a solved+sampled ``(n, window, c)`` cube."""
    measurements = []
    subsystem_name = model.subsystem.name
    if window:
        # One axis-1 reduction replaces a stack+mean per point; for the
        # short windows in play the summation order (sequential below
        # numpy's pairwise threshold) and thus every bit is the same as
        # scalar ``average_counters``.
        means_list = rows.mean(axis=1).tolist()
    # CounterSample rows are lists: one tolist() of the whole cube.
    for i, (solve, point_rows) in enumerate(zip(solves, rows.tolist())):
        samples = [
            CounterSample(second, row=row)
            for second, row in enumerate(point_rows)
        ]
        if window:
            counters = dict(zip(ALL_COUNTERS, means_list[i]))
        else:
            counters = average_counters(samples)
        measurements.append(Measurement(
            workload=workloads[i],
            subsystem_name=subsystem_name,
            samples=samples,
            counters=counters,
            directions=solve.directions,
            fired=solve.fired,
            features=solve.features,
            latency=latency_for_solve(model.subsystem, solve),
        ))
    return measurements


class BatchEvaluator:
    """Deduplicating, cache-aware batched front end to the solver.

    A one-point call takes the scalar code path; larger calls are
    vectorized.
    """

    def __init__(self, model: SteadyStateModel) -> None:
        self.model = model

    # -- solving --------------------------------------------------------------

    # No caller in src/; kept because perfbench/tracer.py wraps it by name.
    def solve_many(
        self,
        workloads: "list[WorkloadDescriptor]",
        phase: str = DEFAULT_PHASE,
    ) -> list:
        """Deterministic solves for every point (deduped, cache-backed).

        Returns one :class:`~repro.core.evalcache.CachedSolve` per input
        point, in order; duplicates share the unique point's solve, and
        fresh solves back-fill the cache through ``put_many``.
        """
        model = self.model
        if len(workloads) <= 1:
            return [model._solve(w, phase) for w in workloads]
        keys = [canonical_point(w) for w in workloads]
        index_of: dict = {}
        unique: list = []
        for key, workload in zip(keys, workloads):
            if key not in index_of:
                index_of[key] = len(unique)
                unique.append(workload)
        cache = model.cache
        if cache is not None:
            solves = cache.get_many(model.subsystem, unique, phase=phase)
        else:
            solves = [None] * len(unique)
        missing = [i for i, solve in enumerate(solves) if solve is None]
        if missing:
            solve_started = time.perf_counter()
            to_solve = [unique[i] for i in missing]
            for workload in to_solve:
                model._validate(workload)
            solved = model.solve_points(to_solve)
            for i, solve in zip(missing, solved):
                solves[i] = solve
            if cache is not None:
                cache.put_many(model.subsystem, to_solve, solved)
                cache.charge(
                    "solve", time.perf_counter() - solve_started
                )
        return [solves[index_of[key]] for key in keys]

    # No caller in src/; kept because perfbench/tracer.py wraps it by name.
    def presolve(self, workloads: "list[WorkloadDescriptor]") -> int:
        """Back-fill the cache for upcoming points; returns solves done.

        Stat-less by design: membership is checked with ``peek_many``
        (no hit/miss recorded), so the subsequent scalar replay sees the
        exact lookup statistics a non-presolved run would — only faster.
        Points that fail validation are skipped (the scalar path raises
        for them later, unchanged).  A no-op without a cache.
        """
        model = self.model
        cache = model.cache
        if cache is None or not workloads:
            return 0
        seen: set = set()
        unique: list = []
        for workload in workloads:
            key = canonical_point(workload)
            if key not in seen:
                seen.add(key)
                unique.append(workload)
        present = cache.peek_many(model.subsystem, unique)
        to_solve = []
        for workload, hit in zip(unique, present):
            if hit:
                continue
            try:
                model._validate(workload)
            except ValueError:
                continue
            to_solve.append(workload)
        if not to_solve:
            return 0
        started = time.perf_counter()
        solved = model.solve_points(to_solve)
        cache.put_many(model.subsystem, to_solve, solved)
        cache.charge("solve", time.perf_counter() - started)
        return len(to_solve)

    # -- full evaluation ------------------------------------------------------

    # No caller in src/; kept because perfbench/tracer.py wraps it by name.
    def evaluate_each(
        self,
        workloads: "list[WorkloadDescriptor]",
        rngs: "list[np.random.Generator]",
        sample_seconds: int = 4,
        phase: str = DEFAULT_PHASE,
    ) -> list[Measurement]:
        """Batched evaluation with an independent RNG per point.

        N points solved as one deduplicated array program, each point's
        observation noise drawn from its own generator in scalar order.
        Point ``i``'s measurement — and the state ``rngs[i]`` is left
        in — is bit-identical to
        ``model.evaluate(workloads[i], rngs[i], phase=phase)``.
        """
        model = self.model
        if len(workloads) <= 1:
            return [
                model.evaluate(
                    w, rng=r, sample_seconds=sample_seconds, phase=phase
                )
                for w, r in zip(workloads, rngs)
            ]
        solves = self.solve_many(workloads, phase=phase)
        return observe_each(model, workloads, solves, rngs, sample_seconds)
