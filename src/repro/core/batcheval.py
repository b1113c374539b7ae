"""Batched vectorized evaluation of workload points (S31).

Every search workflow evaluates *sets* of closely related points — MFS
necessity ladders and box-validation bursts, the exhaustive Perftest
sweep, population generations.  The scalar pipeline prices them one at
a time; :class:`BatchEvaluator` runs the deterministic half (features →
rule gates → per-direction steady-state solve → ideal counters) as
float64 column arithmetic over the whole batch
(:func:`repro.hardware.model.solve_batch`), deduplicating
identical points and consulting/back-filling the
:class:`~repro.core.evalcache.EvalCache` through its bulk API.

**Identity contract.**  Batched evaluation is *bit-identical* to the
scalar loop, including RNG consumption: observation noise is still
drawn from the caller's generator in the same per-point order.  A
``Generator.normal`` request for N values reads the same bit stream as
N sequential scalar requests, so one flat draw sliced per point equals
the scalar loop's per-point draws exactly — values and final generator
state (``tests/core/test_batcheval.py`` pins this over subsystems A–H).
Only a point's *active* counters (ideal value > 0) consume noise,
exactly as :class:`~repro.hardware.counters.VendorMonitor` does.

**Path selection.**  No switch picks between the batched and the
scalar path; the input does.  A call with one point (or, for
``evaluate_many``, no generator) runs the scalar loop, which is cheaper
for a single row; :meth:`BatchEvaluator.presolve` is a no-op without a
cache.  Only phases whose whole batch is known before any noise draw
are batched (MFS ladders, box validation, the Perftest sweep,
population generations).  Phases that interleave point sampling with
noise draws on one RNG stream (random search, counter ranking) stay
scalar: pre-sampling would change that interleaving.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional

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
    from repro.obs.metrics import MetricsRegistry

#: Reusable no-op context for profiler-disabled span sites.
_NO_SPAN = nullcontext()


def observe_many(
    model: SteadyStateModel,
    workloads: "list[WorkloadDescriptor]",
    solves: list,
    rng: np.random.Generator,
    sample_seconds: int = 4,
) -> list[Measurement]:
    """Noisy observation of pre-solved points, scalar-loop bit stream.

    Mirrors :meth:`VendorMonitor._sample_rows` per point: one flat
    normal draw covers the whole batch and is sliced into each point's
    ``(seconds, active)`` block in original order.
    """
    window = int(sample_seconds)
    return _observe(
        model, workloads, solves, window,
        lambda active: rng.normal(
            0.0, model.noise, size=window * int(active.sum())
        ),
    )


def observe_each(
    model: SteadyStateModel,
    workloads: "list[WorkloadDescriptor]",
    solves: list,
    rngs: "list[np.random.Generator]",
    sample_seconds: int = 4,
) -> list[Measurement]:
    """Noisy observation with one independent RNG per point.

    The population driver's seam: point ``i``'s noise is drawn from
    ``rngs[i]`` with the exact call :meth:`VendorMonitor._sample_rows`
    would make — one ``normal(size=(window, active))`` draw — so chain
    ``i``'s generator lands in the bit-identical state a standalone
    scalar evaluation would leave it in, while the deterministic row
    construction and averaging stay vectorized across the batch.
    """
    window = int(sample_seconds)

    def draw(active: np.ndarray) -> np.ndarray:
        # Raveling each (row-major) block and concatenating in point
        # order yields the flat layout observe_many draws in one request.
        return np.concatenate([
            rngs[i].normal(0.0, model.noise, size=(window, count)).ravel()
            for i, count in enumerate(active.tolist())
            if count
        ])

    return _observe(model, workloads, solves, window, draw)


def _observe(model, workloads, solves, window, draw) -> list[Measurement]:
    """Sample, average and assemble the batch's measurements.

    ``draw(active)`` returns the flat noise for every point's
    ``(window, active[i])`` block in point order, row-major.  Only a
    point's active counters (ideal value > 0) are jittered, as in
    :class:`~repro.hardware.counters.VendorMonitor`.
    """
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
            clipped = np.maximum(0.0, 1.0 + draw(active))
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
        # AnomalyMonitor.is_stable's CV, by its own reductions over each
        # point's tx_bytes_per_sec readings: a last-axis sum adds a row
        # exactly as the 1-d ``mean``/``std`` of one point's readings do
        # (the middle-axis means above can differ in the last bit).
        readings = rows[:, :, ALL_COUNTERS.index("tx_bytes_per_sec")]
        tx_mean = readings.sum(axis=1) / window
        deviation = readings - tx_mean[:, None]
        tx_std = np.sqrt((deviation * deviation).sum(axis=1) / window)
        positive = tx_mean > 0
        cvs = np.divide(
            tx_std, tx_mean, out=np.zeros_like(tx_mean), where=positive
        ).tolist()
        primed = positive.tolist()
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
        measurement = Measurement(
            workload=workloads[i],
            subsystem_name=subsystem_name,
            samples=samples,
            counters=counters,
            directions=solve.directions,
            fired=solve.fired,
            features=solve.features,
            latency=latency_for_solve(model.subsystem, solve),
        )
        if window and primed[i]:
            measurement.tx_cv = cvs[i]
        measurements.append(measurement)
    return measurements


class BatchEvaluator:
    """Deduplicating, cache-aware batched front end to the solver.

    A one-point call takes the scalar code path and counts under
    ``batcheval.points{mode=scalar}``; larger calls are vectorized.
    """

    def __init__(
        self,
        model: SteadyStateModel,
        metrics: Optional["MetricsRegistry"] = None,
        profiler=None,
    ) -> None:
        self.model = model
        self.metrics = metrics
        #: Optional obs.SpanProfiler ("batch" spans on vectorized solves).
        self.profiler = profiler

    def _span(self):
        return (
            self.profiler.span("batch")
            if self.profiler is not None else _NO_SPAN
        )

    def _count_points(self, n: int, mode: str) -> None:
        if self.metrics is not None and n:
            self.metrics.counter("batcheval.points", float(n), mode=mode)

    # -- solving --------------------------------------------------------------

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
            self._count_points(len(workloads), "scalar")
            return [model._solve(w, phase) for w in workloads]
        started = time.perf_counter()
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
            with self._span():
                solved = model.solve_points(to_solve)
            for i, solve in zip(missing, solved):
                solves[i] = solve
            if cache is not None:
                cache.put_many(model.subsystem, to_solve, solved)
                cache.charge(
                    "solve", time.perf_counter() - solve_started
                )
        if self.metrics is not None:
            self.metrics.observe(
                "batcheval.batch_size", float(len(unique)), phase=phase
            )
        self._count_points(len(workloads), "vectorized")
        return [solves[index_of[key]] for key in keys]

    def presolve(
        self,
        workloads: "list[WorkloadDescriptor]",
        phase: str = DEFAULT_PHASE,
    ) -> int:
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
        with self._span():
            solved = model.solve_points(to_solve)
        cache.put_many(model.subsystem, to_solve, solved)
        cache.charge("solve", time.perf_counter() - started)
        if self.metrics is not None:
            self.metrics.observe(
                "batcheval.batch_size", float(len(to_solve)), phase=phase
            )
        self._count_points(len(to_solve), "vectorized")
        return len(to_solve)

    # -- full evaluation ------------------------------------------------------

    def evaluate_each(
        self,
        workloads: "list[WorkloadDescriptor]",
        rngs: "list[np.random.Generator]",
        sample_seconds: int = 4,
        phase: str = DEFAULT_PHASE,
    ) -> list[Measurement]:
        """Batched evaluation with an independent RNG per point.

        The population generation step: N chains' pending points solved
        as one deduplicated array program, each point's observation
        noise drawn from its own chain's generator in scalar order.
        Point ``i``'s measurement — and the state ``rngs[i]`` is left
        in — is bit-identical to
        ``model.evaluate(workloads[i], rngs[i], phase=phase)``.
        """
        model = self.model
        if len(workloads) <= 1:
            self._count_points(len(workloads), "scalar")
            return [
                model.evaluate(
                    w, rng=r, sample_seconds=sample_seconds, phase=phase
                )
                for w, r in zip(workloads, rngs)
            ]
        started = time.perf_counter()
        solves = self.solve_many(workloads, phase=phase)
        measurements = observe_each(
            model, workloads, solves, rngs, sample_seconds
        )
        if self.metrics is not None:
            self.metrics.observe(
                "batcheval.point_seconds",
                (time.perf_counter() - started) / len(workloads),
                phase=phase,
            )
        return measurements

    def evaluate_many(
        self,
        workloads: "list[WorkloadDescriptor]",
        rng: Optional[np.random.Generator] = None,
        sample_seconds: int = 4,
        phase: str = DEFAULT_PHASE,
    ) -> list[Measurement]:
        """Batched :meth:`SteadyStateModel.evaluate` over N points.

        Bit-identical to ``[model.evaluate(w, rng, ...) for w in
        workloads]`` including the RNG draw count and order.  With
        ``rng=None`` each point gets a fresh ``default_rng(0)`` exactly
        like the scalar default, so that case falls back to the loop.
        """
        model = self.model
        if len(workloads) <= 1 or rng is None:
            self._count_points(len(workloads), "scalar")
            return [
                model.evaluate(
                    w, rng=rng, sample_seconds=sample_seconds, phase=phase
                )
                for w in workloads
            ]
        started = time.perf_counter()
        solves = self.solve_many(workloads, phase=phase)
        measurements = observe_many(
            model, workloads, solves, rng, sample_seconds
        )
        if self.metrics is not None:
            self.metrics.observe(
                "batcheval.point_seconds",
                (time.perf_counter() - started) / len(workloads),
                phase=phase,
            )
        return measurements
