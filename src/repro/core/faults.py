"""Deterministic fault injection for campaign execution.

The paper's campaigns ran for 10 hours per subsystem on a physical
testbed (§7), and production fuzzers face exactly the flaky-host
conditions that testbed hit: worker processes crash, tasks hang, hosts
degrade, evaluations fail transiently.  This module makes every one of
those failure modes *injectable at seeded, reproducible points*, so the
resilience layer in :mod:`repro.core.executor` is unit-testable: a
:class:`FaultPlan` decides — as a pure function of ``(task, host,
attempt)`` — which attempts fail and how, and a chaos test can assert
the exact retry/quarantine trajectory the plan implies.

Determinism contract: campaign tasks are pure functions of their
payload (every worker builds its RNG from the payload's seed), so
re-running a failed attempt reproduces the same result bit-for-bit.
Injected faults therefore never change *what* a campaign computes —
only how many attempts it takes — and the chaos suite pins that final
reports are bit-identical to a fault-free run.

Fault kinds:

``crash``
    The worker process dies mid-task (raised as :class:`WorkerCrash`).
``hang``
    The task never returns.  Injected hangs raise :class:`TaskHang`
    synchronously (no real waiting), which the executor treats exactly
    like a real per-task timeout expiring.
``transient``
    A retryable evaluation error (:class:`TransientEvalError`) — the
    software twin of a flaky measurement run.  Also what
    :class:`FaultyTestbed` raises from *inside* an experiment.
``slow``
    Slow-host degradation: the attempt still succeeds, but its
    reported in-worker duration is inflated by ``factor`` (and an
    optional real ``seconds`` sleep), feeding the executor's slow-host
    accounting without perturbing any simulated result.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.cluster.testbed import Testbed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    pass

#: Fault kinds a plan may inject.
FAULT_KINDS = ("crash", "hang", "transient", "slow")

#: Fault kinds that make the attempt fail (``slow`` degrades only).
FAILING_KINDS = ("crash", "hang", "transient")


class InjectedFault(Exception):
    """Base class of all injected failures (marks them retryable)."""


class WorkerCrash(InjectedFault):
    """A worker process died mid-task."""


class TaskHang(InjectedFault):
    """A task hung; the executor treats this as its timeout expiring."""


class TransientEvalError(InjectedFault):
    """A transient, retryable evaluation failure."""


class TaskTimeout(Exception):
    """A real per-task timeout expired (retryable, like a hang)."""


class TaskFailed(Exception):
    """A task exhausted its retry budget; carries the last error."""

    def __init__(self, task: int, attempts: int, last_error: Exception):
        self.task = task
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"task {task} failed after {attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        )


#: Exception types the executor retries (everything else is fatal).
RETRYABLE_ERRORS = (InjectedFault, TaskTimeout, TransientEvalError)


def raise_fault(spec: "FaultSpec") -> None:
    """Raise the exception a failing fault spec stands for."""
    if spec.kind == "crash":
        raise WorkerCrash(f"injected crash ({spec})")
    if spec.kind == "hang":
        raise TaskHang(f"injected hang ({spec})")
    if spec.kind == "transient":
        raise TransientEvalError(f"injected transient error ({spec})")
    raise ValueError(f"fault kind {spec.kind!r} does not fail an attempt")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injection point.

    A spec *matches* an attempt when every non-``None`` selector agrees:
    ``task`` and ``host`` select where, ``attempt`` selects which try
    (``None`` = every try — how a persistently broken host is modeled),
    and ``experiment`` selects a testbed experiment index for
    :class:`FaultyTestbed`-level injection.
    """

    kind: str
    task: Optional[int] = None
    host: Optional[int] = None
    attempt: Optional[int] = None
    #: Testbed experiment index (FaultyTestbed injection site).
    experiment: Optional[int] = None
    #: Slow-host degradation: reported-duration multiplier.
    factor: float = 1.0
    #: Slow-host degradation: real seconds to stall the worker.
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )

    @property
    def fails(self) -> bool:
        return self.kind in FAILING_KINDS

    def matches(
        self,
        task: Optional[int] = None,
        host: Optional[int] = None,
        attempt: Optional[int] = None,
        experiment: Optional[int] = None,
    ) -> bool:
        for mine, theirs in (
            (self.task, task),
            (self.host, host),
            (self.attempt, attempt),
            (self.experiment, experiment),
        ):
            if mine is not None and mine != theirs:
                return False
        return True


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of injection points.

    Plans are plain data — picklable, hashable, order-preserving — so
    they travel into worker processes alongside the task payload and
    the same plan always injects the same faults.
    """

    faults: tuple[FaultSpec, ...] = ()
    #: The seed :meth:`random` generated this plan from (None if built
    #: by hand); carried for reporting only.
    seed: Optional[int] = None

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def fault_for(
        self, task: int, host: int, attempt: int
    ) -> Optional[FaultSpec]:
        """First failing spec matching this task attempt (else None).

        Experiment-targeted specs belong to :class:`FaultyTestbed` and
        never match at the task level.
        """
        for spec in self.faults:
            if spec.experiment is None and spec.fails and spec.matches(
                task=task, host=host, attempt=attempt
            ):
                return spec
        return None

    def slowdown_for(
        self, task: int, host: int, attempt: int
    ) -> Optional[FaultSpec]:
        """First ``slow`` spec matching this task attempt (else None)."""
        for spec in self.faults:
            if spec.kind == "slow" and spec.experiment is None and (
                spec.matches(task=task, host=host, attempt=attempt)
            ):
                return spec
        return None

    def eval_fault_for(
        self, experiment: int, attempt: int, task: Optional[int] = None
    ) -> Optional[FaultSpec]:
        """First failing experiment-targeted spec for this experiment."""
        for spec in self.faults:
            if spec.experiment is not None and spec.fails and spec.matches(
                task=task, attempt=attempt, experiment=experiment
            ):
                return spec
        return None

    def task_faults(self) -> tuple[FaultSpec, ...]:
        """The task-level failing specs, in plan order."""
        return tuple(
            spec for spec in self.faults
            if spec.experiment is None and spec.fails
        )

    def describe(self) -> str:
        if not self.faults:
            return "fault plan: empty"
        kinds: dict[str, int] = {}
        for spec in self.faults:
            kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
        seeded = f" (seed {self.seed})" if self.seed is not None else ""
        body = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
        return f"fault plan{seeded}: {body}"

    @classmethod
    def random(
        cls,
        seed: int,
        tasks: int,
        fault_rate: float = 0.3,
        max_faults_per_task: int = 1,
        kinds: Iterable[str] = FAILING_KINDS,
    ) -> "FaultPlan":
        """A seeded random plan over first attempts of ``tasks`` tasks.

        Every generated spec targets ``attempt < max_faults_per_task``
        of one concrete task, so as long as the retry budget admits
        ``max_faults_per_task`` retries the campaign completes and the
        executor performs *exactly* ``len(plan.task_faults())`` retries
        — the invariant the chaos suite asserts.
        """
        rng = np.random.default_rng(seed)
        kinds = tuple(kinds)
        specs: list[FaultSpec] = []
        for task in range(tasks):
            for attempt in range(max_faults_per_task):
                if rng.random() >= fault_rate:
                    break
                kind = kinds[int(rng.integers(len(kinds)))]
                specs.append(FaultSpec(kind=kind, task=task, attempt=attempt))
        return cls(faults=tuple(specs), seed=seed)

    @classmethod
    def broken_hosts(
        cls, hosts: Iterable[int], kind: str = "crash"
    ) -> "FaultPlan":
        """Hosts that fail *every* attempt routed to them.

        This is the flaky-host scenario of the acceptance suite: the
        executor must quarantine each broken host once its failure
        budget is spent and redistribute its shard to healthy hosts.
        """
        return cls(faults=tuple(
            FaultSpec(kind=kind, host=host) for host in hosts
        ))


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``backoff(attempt)`` is a pure function — ``base * factor**attempt``
    capped at ``maximum`` — so a replayed schedule of failures yields a
    bit-identical schedule of delays.  ``base=0`` keeps the accounting
    (``stats.backoff_seconds``, journal records) without any real
    sleeping, which is what the test suite and simulated campaigns use.
    """

    max_retries: int = 2
    timeout_seconds: Optional[float] = None
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: Failed attempts a host may accumulate before quarantine.
    quarantine_after: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if not (math.isfinite(self.backoff_base) and self.backoff_base >= 0):
            raise ValueError("backoff_base must be a finite number >= 0")

    def backoff(self, attempt: int) -> float:
        """Delay before retrying after failed attempt ``attempt``."""
        return min(
            self.backoff_base * self.backoff_factor ** attempt,
            self.backoff_max,
        )

    def describe(self) -> str:
        timeout = (
            f"{self.timeout_seconds:g}s timeout"
            if self.timeout_seconds else "no timeout"
        )
        return (
            f"retry policy: {self.max_retries} retries, {timeout}, "
            f"backoff {self.backoff_base:g}s x{self.backoff_factor:g} "
            f"(cap {self.backoff_max:g}s), quarantine after "
            f"{self.quarantine_after} failures"
        )


class FaultyTestbed(Testbed):
    """A :class:`~repro.cluster.testbed.Testbed` with injected faults.

    Consults a :class:`FaultPlan` before every experiment (via the base
    class's ``_before_experiment`` seam): an experiment-targeted spec
    matching ``(experiments_run, attempt)`` raises its fault *before*
    the experiment charges the clock or consumes RNG draws, so a
    retried attempt — rebuilt from the same payload with ``attempt``
    bumped — replays the completed prefix bit-identically and then
    sails past the injection point.
    """

    def __init__(
        self,
        subsystem,
        plan: FaultPlan,
        attempt: int = 0,
        task: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(subsystem, **kwargs)
        self.plan = plan
        self.attempt = attempt
        self.task = task
        self.faults_raised = 0

    def _before_experiment(self, workload, phase: str, index: int) -> None:
        spec = self.plan.eval_fault_for(index, self.attempt, task=self.task)
        if spec is not None:
            self.faults_raised += 1
            raise_fault(spec)
