"""Process-parallel campaign execution, bit-identical to serial runs.

The paper argues for fleet-parallel search (§8); this repo's campaigns —
multi-seed Figure 4/5 benches, :mod:`repro.analysis.campaign`, the
:class:`~repro.core.parallel.ParallelCollie` machine fleet — are
embarrassingly parallel across seeds/machines, yet ran serially.

:class:`CampaignExecutor` fans an ordered list of picklable task
payloads across :class:`concurrent.futures.ProcessPoolExecutor` workers
and returns results in task order.  Determinism contract: every task
carries its *own* seed and the worker constructs its
``numpy.random.Generator`` from that seed inside the task function —
never from process-global RNG state — so a task's result is a pure
function of its payload and fan-out is bit-identical to a serial loop
(the determinism suite pins this for Collie, random and GA campaigns).

That same purity makes the executor *fault-tolerant*: re-running a
failed attempt reproduces the lost result exactly, so an attached
:class:`~repro.core.faults.RetryPolicy` buys per-task timeouts, bounded
retries with deterministic exponential backoff, and graceful
degradation — tasks are sharded round-robin over *virtual hosts* (one
per worker slot), a host that keeps failing is quarantined after
``quarantine_after`` failed attempts, and its shard is redistributed
across the remaining healthy hosts.  Every retry and quarantine
decision is journaled (``retry``/``quarantine`` records) and counted
in the map's :class:`ExecutorStats` (the ``fanout`` record).  A seeded
:class:`~repro.core.faults.FaultPlan` injects crashes, hangs, transient
errors and slow-host degradation at reproducible points, which is how
the chaos suite pins the exact retry/quarantine trajectory.

Every ``map`` runs that one scheduling loop: without a policy it
allows no retries, so the first failure ends the fan-out with
:class:`~repro.core.faults.TaskFailed` (a worker that dies included)
and the queued tasks are cancelled.  When process pools are
unavailable (restricted sandboxes), the loop runs the tasks in-process,
one after another, and records that it did.

:func:`fan_out` is the one way the program fans runs out: it hands the
parent's :class:`~repro.core.evalcache.EvalCache` entries to every
task, runs the map, journals the ``fanout`` record and merges what the
workers computed back into the parent cache.  Tasks rebuild the warm
cache with :func:`worker_cache` and pack their result with
:func:`worker_result`.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence

from repro.core.evalcache import EvalCache
from repro.core.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RETRYABLE_ERRORS,
    TaskFailed,
    TaskHang,
    TaskTimeout,
    WorkerCrash,
    raise_fault,
)


@dataclasses.dataclass
class ExecutorStats:
    """Wall-time and resilience accounting of one fan-out."""

    workers: int
    tasks: int
    wall_seconds: float = 0.0
    #: Sum of per-task in-worker durations — what a serial loop would
    #: roughly have cost; ``speedup`` compares it against wall time.
    busy_seconds: float = 0.0
    fell_back_serial: bool = False
    #: Failed attempts that were re-run (injected or real).
    retries: int = 0
    #: Retryable failures that were hangs/timeouts specifically.
    timeouts: int = 0
    #: Faults the attached FaultPlan injected (all kinds, incl. slow).
    injected_faults: int = 0
    #: Deterministic backoff schedule total (accrued even when the
    #: policy's base is 0 and no real sleeping happened).
    backoff_seconds: float = 0.0
    #: Virtual hosts quarantined, in decision order.
    quarantined_hosts: tuple = ()
    #: Tasks moved off a quarantined host onto a healthy one.
    redistributed_tasks: int = 0

    @property
    def speedup(self) -> float:
        if self.wall_seconds <= 0:
            return 1.0
        return self.busy_seconds / self.wall_seconds

    def describe(self) -> str:
        mode = "serial (fallback)" if self.fell_back_serial else (
            "serial" if self.workers <= 1 else f"{self.workers} workers"
        )
        line = (
            f"{self.tasks} tasks via {mode}: "
            f"{self.wall_seconds:.3f}s wall, "
            f"{self.busy_seconds:.3f}s busy, "
            f"{self.speedup:.2f}x parallel speedup"
        )
        if self.retries:
            line += (
                f", {self.retries} retried attempt(s) "
                f"({self.backoff_seconds:.3f}s backoff)"
            )
        if self.quarantined_hosts:
            line += (
                f", {len(self.quarantined_hosts)} host(s) quarantined "
                f"({self.redistributed_tasks} task(s) redistributed)"
            )
        return line


def _faulted_call(
    fn: Callable,
    payload,
    fault: Optional[FaultSpec],
    slow: Optional[FaultSpec],
) -> tuple:
    """Run one task attempt in the worker: (result, in-worker seconds).

    A failing fault raises before the task body runs (the attempt's
    result is lost either way, so nothing is computed for it); a
    ``slow`` spec stalls the worker and inflates the reported duration
    without touching the result.
    """
    if fault is not None:
        raise_fault(fault)
    started = time.perf_counter()
    result = fn(payload)
    seconds = time.perf_counter() - started
    if slow is not None:
        if slow.seconds > 0:
            time.sleep(slow.seconds)
        seconds = seconds * slow.factor + slow.seconds
    return result, seconds


class CampaignExecutor:
    """Deterministic fan-out of campaign tasks across worker processes.

    ``workers <= 1`` runs the tasks serially in-process — the reference
    behaviour the parallel path must reproduce bit-for-bit.  A ``retry``
    policy sets the retry budget of the scheduling loop, and a fault
    ``plan`` alone runs under the default :class:`RetryPolicy`; without
    either, a task's first failure ends the map.
    """

    def __init__(
        self,
        workers: int = 1,
        progress: Optional[Callable[[int, int], None]] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        recorder=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.last_stats: Optional[ExecutorStats] = None
        #: Optional ``progress(done, total)`` callback, invoked in the
        #: parent as each task's result lands (task order).
        self.progress = progress
        #: Resilience policy; None = no retries (or the default policy
        #: when a fault plan is attached).
        self.retry = retry
        #: Deterministic fault injection plan (chaos testing).
        self.faults = faults
        #: Optional FlightRecorder journaling retry/quarantine records.
        self.recorder = recorder

    def map(self, fn: Callable, payloads: Sequence) -> list:
        """Apply ``fn`` to every payload; results come back in order.

        ``fn`` must be a module-level callable and each payload picklable
        when ``workers > 1`` (the standard multiprocessing contract).
        Retryable failures are re-attempted within the policy's budget;
        only :class:`~repro.core.faults.TaskFailed` (budget exhausted)
        or a fatal error propagates, and the queued tasks are
        cancelled.
        """
        payloads = list(payloads)
        stats = ExecutorStats(
            workers=min(self.workers, max(len(payloads), 1)),
            tasks=len(payloads),
        )
        if self.retry is not None:
            policy = self.retry
        elif self.faults is not None:  # an empty plan is falsy
            policy = RetryPolicy()
        else:
            policy = RetryPolicy(max_retries=0)
        plan = self.faults if self.faults is not None else FaultPlan()
        started = time.perf_counter()
        scheduler = _ResilientRun(self, fn, payloads, stats, policy, plan)
        try:
            results = scheduler.run()
        finally:
            scheduler.shutdown()
        stats.wall_seconds = time.perf_counter() - started
        self.last_stats = stats
        return results

    def _make_pool(self, tasks: int):
        try:
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.workers, tasks)
            )
        except (OSError, PermissionError, ValueError):
            return None

    def _task_done(self, done: int, stats: ExecutorStats) -> None:
        if self.recorder is not None:
            # Liveness for the telemetry plane (a no-op unless the
            # recorder asked for heartbeats).  The worker slot is
            # derived from the deterministic task-order index, so
            # serial and pooled runs report identically.
            self.recorder.heartbeat(
                (done - 1) % stats.workers, done, stats.tasks
            )
        if self.progress is not None:
            self.progress(done, stats.tasks)

    # -- fault-event fan-in (stats, and the journal via the recorder) --------

    def _on_retry(
        self, task: int, host: int, attempt: int, error: Exception,
        backoff: float, stats: ExecutorStats,
    ) -> None:
        stats.retries += 1
        stats.backoff_seconds += backoff
        kind = _error_kind(error)
        if kind in ("hang", "timeout"):
            stats.timeouts += 1
        if self.recorder is not None:
            self.recorder.retry(task, host, attempt, kind, backoff)

    def _on_quarantine(
        self, host: int, failures: int, redistributed: int,
        stats: ExecutorStats,
    ) -> None:
        stats.quarantined_hosts += (host,)
        stats.redistributed_tasks += redistributed
        if self.recorder is not None:
            self.recorder.quarantine(host, failures, redistributed)


def fan_out(
    task: Callable,
    payloads: Sequence[dict],
    *,
    workers: int = 1,
    cache: Optional[EvalCache] = None,
    recorder=None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> tuple[list, Optional[ExecutorStats]]:
    """Run ``task`` over ``payloads`` in worker processes, in task order.

    Each payload is stamped with the parent ``cache``'s entries
    (``cache_entries``, None without a cache), the map runs, the
    ``recorder`` journals the ``fanout`` record, and every worker's new
    entries and stats merge back into ``cache``.  Returns the results
    and the executor's stats; no payloads run nothing, write nothing
    and return ``([], None)``.
    """
    if not payloads:
        return [], None
    entries = cache.export_entries() if cache is not None else None
    executor = CampaignExecutor(
        workers=workers,
        progress=recorder.task_progress if recorder is not None else None,
        retry=retry,
        faults=faults,
        recorder=recorder,
    )
    results = executor.map(
        task, [dict(payload, cache_entries=entries) for payload in payloads]
    )
    if recorder is not None:
        recorder.fanout(executor.last_stats)
    if cache is not None:
        for result in results:
            cache.import_entries(result["cache_entries"])
            cache.merge_stats(result["cache_stats"])
    return results, executor.last_stats


def worker_cache(payload: dict) -> Optional[EvalCache]:
    """The warm cache a :func:`fan_out` task starts from (or None)."""
    if payload["cache_entries"] is None:
        return None
    cache = EvalCache()
    cache.import_entries(payload["cache_entries"])
    return cache


def worker_result(cache: Optional[EvalCache], **result) -> dict:
    """A task's result plus what its cache learned, for the parent."""
    result["cache_entries"] = (
        cache.export_entries(new_only=True) if cache is not None else None
    )
    result["cache_stats"] = cache.stats_dict() if cache is not None else None
    return result


def _error_kind(error: Exception) -> str:
    """Stable short label of a retryable failure (``retry.error``)."""
    from repro.core.faults import TransientEvalError

    if isinstance(error, TaskHang):
        return "hang"
    if isinstance(error, TaskTimeout):
        return "timeout"
    if isinstance(error, WorkerCrash):
        return "crash"
    if isinstance(error, TransientEvalError):
        return "transient"
    return type(error).__name__


class _ResilientRun:
    """One resilient ``map``: scheduling state and the retry loop."""

    def __init__(self, executor, fn, payloads, stats, policy, plan):
        self.executor = executor
        self.fn = fn
        self.payloads = payloads
        self.stats = stats
        self.policy = policy
        self.plan = plan
        self.tasks = len(payloads)
        self.hosts = stats.workers
        self.healthy = [True] * self.hosts
        self.failures = [0] * self.hosts
        #: Task → current virtual host (round-robin shards).
        self.assignment = [i % self.hosts for i in range(self.tasks)]
        #: Task → host its outstanding attempt was dispatched on (the
        #: host failures are charged to, even after redistribution).
        self.dispatched_host = list(self.assignment)
        self.attempts = [0] * self.tasks
        self.results: list = [None] * self.tasks
        self.completed = [False] * self.tasks
        self.pool = None
        self.futures: dict[int, concurrent.futures.Future] = {}
        if executor.workers > 1 and self.tasks > 1:
            self.pool = executor._make_pool(self.tasks)
            if self.pool is None:
                stats.fell_back_serial = True

    def shutdown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None

    # -- dispatch ------------------------------------------------------------

    def _attempt_faults(self, task: int):
        host = self.assignment[task]
        attempt = self.attempts[task]
        self.dispatched_host[task] = host
        fault = self.plan.fault_for(task, host, attempt)
        slow = self.plan.slowdown_for(task, host, attempt)
        self.stats.injected_faults += (fault is not None) + (slow is not None)
        return fault, slow

    def _submit(self, task: int) -> None:
        fault, slow = self._attempt_faults(task)
        try:
            future = self.pool.submit(
                _faulted_call, self.fn, self.payloads[task], fault, slow
            )
        except BrokenProcessPool as error:
            # A worker died before this submit: the task's wait rebuilds
            # the pool, as for a future that died with it.
            future = concurrent.futures.Future()
            future.set_exception(error)
        self.futures[task] = future

    def _wait(self, task: int):
        """Result of the task's outstanding pooled attempt."""
        future = self.futures.pop(task)
        try:
            return future.result(timeout=self.policy.timeout_seconds)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TaskTimeout(
                f"task {task} exceeded its "
                f"{self.policy.timeout_seconds:g}s timeout"
            ) from None
        except BrokenProcessPool:
            self._rebuild_pool(task)
            raise WorkerCrash(
                f"worker process died while running task {task}"
            ) from None

    def _rebuild_pool(self, failed_task: int) -> None:
        """Replace a broken pool and resubmit the innocent bystanders.

        Every outstanding future died with the pool; only
        ``failed_task`` is charged a failure — the others are resubmitted
        at their current attempt number, uncounted.
        """
        self.shutdown()
        self.pool = self.executor._make_pool(self.tasks)
        if self.pool is None:
            self.stats.fell_back_serial = True
            self.futures.clear()
            return
        for task in list(self.futures):
            del self.futures[task]
            self._submit(task)

    def _run_one(self, task: int):
        """One attempt of one task (pooled when a pool is up)."""
        if self.pool is not None:
            if task not in self.futures:
                self._submit(task)
            return self._wait(task)
        fault, slow = self._attempt_faults(task)
        return _faulted_call(self.fn, self.payloads[task], fault, slow)

    # -- failure handling ----------------------------------------------------

    def _quarantine_if_due(self, host: int) -> None:
        if self.failures[host] < self.policy.quarantine_after:
            return
        if not self.healthy[host]:
            return  # already quarantined; late failures change nothing
        if sum(self.healthy) <= 1:
            return  # never quarantine the last host standing
        self.healthy[host] = False
        survivors = [h for h in range(self.hosts) if self.healthy[h]]
        redistributed = 0
        for task in range(self.tasks):
            if not self.completed[task] and self.assignment[task] == host:
                self.assignment[task] = survivors[
                    redistributed % len(survivors)
                ]
                redistributed += 1
        self.executor._on_quarantine(
            host, self.failures[host], redistributed, self.stats
        )

    def _handle_failure(self, task: int, error: Exception) -> None:
        host = self.dispatched_host[task]
        self.failures[host] += 1
        self._quarantine_if_due(host)
        attempt = self.attempts[task]
        if attempt >= self.policy.max_retries:
            raise TaskFailed(task, attempt + 1, error) from error
        backoff = self.policy.backoff(attempt)
        self.executor._on_retry(
            task, host, attempt, error, backoff, self.stats
        )
        if self.policy.backoff_base > 0 and backoff > 0:
            time.sleep(backoff)
        self.attempts[task] += 1
        if self.pool is not None:
            self._submit(task)

    # -- the loop ------------------------------------------------------------

    def run(self) -> list:
        if self.pool is not None:
            for task in range(self.tasks):
                self._submit(task)
        done = 0
        for task in range(self.tasks):
            while True:
                try:
                    result, seconds = self._run_one(task)
                except RETRYABLE_ERRORS as error:
                    self._handle_failure(task, error)
                    continue
                self.results[task] = result
                self.completed[task] = True
                self.stats.busy_seconds += seconds
                done += 1
                self.executor._task_done(done, self.stats)
                break
        return self.results
