"""Deterministic fault injection and the resilient executor.

The chaos suite: seeded :class:`FaultPlan`\\ s drive crashes, hangs,
transient errors and slow hosts through the campaign stack, and every
test pins the two contract halves — the campaign *completes* despite
the faults, and its results are *bit-identical* to a fault-free run
with a retry/quarantine trajectory that matches the plan exactly.
"""

import numpy as np
import pytest

from repro.analysis.campaign import run_campaign
from repro.cluster.testbed import Testbed
from repro.core.executor import CampaignExecutor
from repro.core.faults import (
    FAILING_KINDS,
    FaultPlan,
    FaultSpec,
    FaultyTestbed,
    RetryPolicy,
    TaskFailed,
    TaskHang,
    TaskTimeout,
    TransientEvalError,
    WorkerCrash,
    raise_fault,
)
from repro.core.space import SearchSpace
from repro.obs import (
    SCHEMA_VERSION,
    FlightRecorder,
    MetricsRegistry,
    RunJournal,
    read_journal,
    validate_journal,
)

SUBSYSTEMS = tuple("ABCDEFGH")


def square(payload):
    return payload * payload


def seeded_draw(payload):
    """A pure function of its payload, like every campaign task."""
    rng = np.random.default_rng(payload["seed"])
    return {"seed": payload["seed"], "draw": float(rng.random())}


# -- fault specs and plans ---------------------------------------------------


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gamma-ray")

    def test_none_selectors_are_wildcards(self):
        spec = FaultSpec(kind="crash", host=1)
        assert spec.matches(task=0, host=1, attempt=0)
        assert spec.matches(task=9, host=1, attempt=5)
        assert not spec.matches(task=0, host=2, attempt=0)

    def test_all_selectors_must_agree(self):
        spec = FaultSpec(kind="transient", task=3, attempt=1)
        assert spec.matches(task=3, host=0, attempt=1)
        assert not spec.matches(task=3, host=0, attempt=0)
        assert not spec.matches(task=2, host=0, attempt=1)

    def test_slow_does_not_fail_the_attempt(self):
        assert not FaultSpec(kind="slow", factor=2.0).fails
        assert all(FaultSpec(kind=k).fails for k in FAILING_KINDS)

    def test_raise_fault_maps_kinds_to_exceptions(self):
        with pytest.raises(WorkerCrash):
            raise_fault(FaultSpec(kind="crash"))
        with pytest.raises(TaskHang):
            raise_fault(FaultSpec(kind="hang"))
        with pytest.raises(TransientEvalError):
            raise_fault(FaultSpec(kind="transient"))
        with pytest.raises(ValueError, match="does not fail"):
            raise_fault(FaultSpec(kind="slow"))


class TestFaultPlan:
    def test_fault_for_matches_task_host_attempt(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="crash", task=1, attempt=0),
            FaultSpec(kind="transient", host=2),
        ))
        assert plan.fault_for(1, 0, 0).kind == "crash"
        assert plan.fault_for(1, 0, 1) is None
        assert plan.fault_for(5, 2, 3).kind == "transient"
        assert plan.fault_for(0, 0, 0) is None

    def test_experiment_specs_never_match_at_task_level(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", experiment=4),
        ))
        assert plan.fault_for(0, 0, 0) is None
        assert plan.eval_fault_for(4, 0).kind == "transient"
        assert plan.eval_fault_for(3, 0) is None

    def test_slowdowns_are_separate_from_failures(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="slow", task=0, factor=2.0),
            FaultSpec(kind="crash", task=0),
        ))
        assert plan.slowdown_for(0, 0, 0).factor == 2.0
        assert plan.fault_for(0, 0, 0).kind == "crash"
        assert plan.task_faults() == (FaultSpec(kind="crash", task=0),)

    def test_random_plans_are_seeded_and_reproducible(self):
        one = FaultPlan.random(seed=11, tasks=20)
        two = FaultPlan.random(seed=11, tasks=20)
        other = FaultPlan.random(seed=12, tasks=20)
        assert one == two
        assert one != other
        assert one.seed == 11

    def test_random_specs_target_first_attempts_of_real_tasks(self):
        plan = FaultPlan.random(
            seed=3, tasks=10, fault_rate=0.9, max_faults_per_task=2
        )
        assert plan  # rate 0.9 over 10 tasks: ~impossible to be empty
        for spec in plan.faults:
            assert 0 <= spec.task < 10
            assert spec.attempt in (0, 1)
            assert spec.kind in FAILING_KINDS
        assert plan.task_faults() == plan.faults

    def test_broken_hosts_fail_every_attempt(self):
        plan = FaultPlan.broken_hosts([1, 3])
        for attempt in range(4):
            assert plan.fault_for(7, 1, attempt).kind == "crash"
            assert plan.fault_for(0, 3, attempt).kind == "crash"
        assert plan.fault_for(0, 0, 0) is None

    def test_describe_and_dunders(self):
        plan = FaultPlan.random(seed=5, tasks=8, fault_rate=0.9)
        assert "seed 5" in plan.describe()
        assert len(plan) == len(plan.faults)
        assert bool(plan)
        assert not FaultPlan()
        assert FaultPlan().describe() == "fault plan: empty"


class TestRetryPolicy:
    def test_backoff_is_pure_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0,
                             backoff_max=2.0)
        assert [policy.backoff(a) for a in range(4)] == [0.5, 1.0, 2.0, 2.0]

    def test_zero_base_keeps_schedule_at_zero(self):
        policy = RetryPolicy()
        assert all(policy.backoff(a) == 0.0 for a in range(5))

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="quarantine_after"):
            RetryPolicy(quarantine_after=0)
        with pytest.raises(ValueError, match="timeout_seconds"):
            RetryPolicy(timeout_seconds=0.0)

    def test_describe_mentions_the_knobs(self):
        text = RetryPolicy(max_retries=3, timeout_seconds=5.0).describe()
        assert "3 retries" in text and "5s timeout" in text


# -- FaultyTestbed: injection inside the evaluation loop ---------------------


def _workloads(n, seed=0):
    rng = np.random.default_rng(seed)
    space = SearchSpace.for_subsystem("F")
    return [space.random(rng) for _ in range(n)]


class TestFaultyTestbed:
    def test_raises_at_the_targeted_experiment(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", experiment=2, attempt=0),
        ))
        testbed = FaultyTestbed("F", plan)
        workloads = _workloads(3)
        testbed.run(workloads[0])
        testbed.run(workloads[1])
        with pytest.raises(TransientEvalError):
            testbed.run(workloads[2])
        assert testbed.faults_raised == 1
        assert testbed.experiments_run == 2

    def test_fault_fires_before_clock_or_rng_are_touched(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="crash", experiment=0, attempt=0),
        ))
        testbed = FaultyTestbed("F", plan)
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(WorkerCrash):
            testbed.run(_workloads(1)[0], rng=rng)
        assert testbed.clock.now == 0.0
        assert rng.bit_generator.state == before

    def test_batched_run_many_raises_upfront(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="hang", experiment=1, attempt=0),
        ))
        testbed = FaultyTestbed("F", plan)
        with pytest.raises(TaskHang):
            testbed.run_many(_workloads(3))
        assert testbed.clock.now == 0.0
        assert testbed.experiments_run == 0

    def test_bumped_attempt_sails_past_and_matches_clean_run(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", experiment=1, attempt=0),
        ))
        workloads = _workloads(3, seed=4)
        retried = FaultyTestbed("F", plan, attempt=1)
        clean = Testbed("F")
        retried_results = [
            retried.run(w, rng=np.random.default_rng(1)) for w in workloads
        ]
        clean_results = [
            clean.run(w, rng=np.random.default_rng(1)) for w in workloads
        ]
        assert retried.faults_raised == 0
        assert retried_results == clean_results
        assert retried.clock.now == clean.clock.now

    def test_injection_counts_into_metrics(self):
        metrics = MetricsRegistry()
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", experiment=0),
        ))
        testbed = FaultyTestbed("F", plan, metrics=metrics)
        with pytest.raises(TransientEvalError):
            testbed.run(_workloads(1)[0])
        assert metrics.value("faults.injected", kind="transient") == 1


# -- the resilient executor --------------------------------------------------


def force_serial(executor, monkeypatch):
    """Deny the pool so the resilient loop runs its serial path."""
    monkeypatch.setattr(executor, "_make_pool", lambda tasks: None)


class TestResilientExecutor:
    def test_injected_transient_is_retried_to_the_same_result(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", task=1, attempt=0),
        ))
        executor = CampaignExecutor(retry=RetryPolicy(), faults=plan)
        assert executor.map(square, [0, 1, 2]) == [0, 1, 4]
        stats = executor.last_stats
        assert stats.retries == 1
        assert stats.injected_faults == 1
        assert stats.timeouts == 0
        assert "1 retried attempt(s)" in stats.describe()

    def test_injected_hang_counts_as_timeout(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="hang", task=0, attempt=0),
        ))
        executor = CampaignExecutor(retry=RetryPolicy(), faults=plan)
        assert executor.map(square, [3]) == [9]
        assert executor.last_stats.timeouts == 1

    def test_exhausted_budget_raises_task_failed(self):
        plan = FaultPlan(faults=(FaultSpec(kind="crash", task=0),))
        executor = CampaignExecutor(
            retry=RetryPolicy(max_retries=1), faults=plan
        )
        with pytest.raises(TaskFailed) as excinfo:
            executor.map(square, [5])
        assert excinfo.value.task == 0
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, WorkerCrash)

    def test_plan_alone_turns_on_resilience(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", task=0, attempt=0),
        ))
        executor = CampaignExecutor(faults=plan)  # default RetryPolicy
        assert executor.map(square, [2]) == [4]
        assert executor.last_stats.retries == 1

    def test_backoff_schedule_is_accounted_and_slept(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", task=0, attempt=0),
            FaultSpec(kind="transient", task=0, attempt=1),
        ))
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.01, backoff_factor=2.0
        )
        executor = CampaignExecutor(retry=policy, faults=plan)
        assert executor.map(square, [4]) == [16]
        stats = executor.last_stats
        assert stats.retries == 2
        assert stats.backoff_seconds == pytest.approx(0.03)
        assert stats.wall_seconds >= 0.03

    def test_zero_base_accounts_without_sleeping(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", task=0, attempt=0),
        ))
        executor = CampaignExecutor(retry=RetryPolicy(), faults=plan)
        executor.map(square, [4])
        assert executor.last_stats.backoff_seconds == 0.0

    def test_slow_fault_inflates_duration_not_results(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="slow", task=0, factor=100.0),
        ))
        executor = CampaignExecutor(retry=RetryPolicy(), faults=plan)
        baseline = CampaignExecutor(retry=RetryPolicy())
        payloads = [{"seed": s} for s in range(3)]
        assert executor.map(seeded_draw, payloads) == (
            baseline.map(seeded_draw, payloads)
        )
        stats = executor.last_stats
        assert stats.injected_faults == 1
        assert stats.retries == 0
        assert stats.busy_seconds > baseline.last_stats.busy_seconds

    def test_real_timeout_maps_to_task_timeout(self):
        import concurrent.futures

        from repro.core.executor import ExecutorStats, _ResilientRun

        class _NeverDone:
            cancelled = False

            def result(self, timeout=None):
                raise concurrent.futures.TimeoutError()

            def cancel(self):
                self.cancelled = True

        executor = CampaignExecutor(
            retry=RetryPolicy(max_retries=0, timeout_seconds=0.01)
        )
        run = _ResilientRun(
            executor, square, [1], ExecutorStats(workers=1, tasks=1),
            executor.retry, FaultPlan(),
        )
        never = _NeverDone()
        run.futures[0] = never
        with pytest.raises(TaskTimeout, match="0.01s timeout"):
            run._wait(0)
        assert never.cancelled
        assert run.futures == {}


class TestQuarantine:
    POLICY = RetryPolicy(max_retries=3, quarantine_after=2)

    def test_acceptance_two_broken_hosts_of_four(self):
        """The ISSUE's acceptance scenario: crashes injected on 2 of 4
        virtual hosts; the campaign completes, quarantines both after
        the retry budget, and the results match a fault-free run."""
        plan = FaultPlan.broken_hosts([1, 3])
        payloads = [{"seed": s} for s in range(8)]
        clean = CampaignExecutor(workers=1).map(seeded_draw, payloads)
        executor = CampaignExecutor(
            workers=4, retry=self.POLICY, faults=plan
        )
        assert executor.map(seeded_draw, payloads) == clean
        stats = executor.last_stats
        assert stats.quarantined_hosts == (1, 3)
        assert stats.redistributed_tasks == 4
        if stats.fell_back_serial:
            # Faults resolve at dispatch: tasks 5 and 7 run after their
            # hosts were quarantined and never see a fault.
            assert stats.retries == 4
        else:
            # All first attempts were submitted (and faulted) upfront.
            assert stats.retries == 6
        assert "2 host(s) quarantined" in stats.describe()

    def test_serial_trajectory_is_deterministic(self, monkeypatch):
        plan = FaultPlan.broken_hosts([1, 3])
        payloads = [{"seed": s} for s in range(8)]
        executor = CampaignExecutor(
            workers=4, retry=self.POLICY, faults=plan
        )
        force_serial(executor, monkeypatch)
        clean = CampaignExecutor(workers=1).map(seeded_draw, payloads)
        assert executor.map(seeded_draw, payloads) == clean
        stats = executor.last_stats
        assert stats.fell_back_serial
        assert stats.retries == 4
        assert stats.injected_faults == 4
        assert stats.quarantined_hosts == (1, 3)
        assert stats.redistributed_tasks == 4

    def test_last_healthy_host_is_never_quarantined(self):
        metrics = MetricsRegistry()
        plan = FaultPlan.broken_hosts([0])
        executor = CampaignExecutor(
            workers=1, retry=RetryPolicy(max_retries=2, quarantine_after=1),
            faults=plan, metrics=metrics,
        )
        with pytest.raises(TaskFailed):
            executor.map(square, [1, 2])
        assert metrics.value("faults.quarantines") == 0
        assert metrics.value("faults.retries", kind="crash") == 2

    def test_redistributed_tasks_move_to_healthy_hosts(self, monkeypatch):
        plan = FaultPlan.broken_hosts([1])
        executor = CampaignExecutor(
            workers=2, retry=RetryPolicy(max_retries=2, quarantine_after=1),
            faults=plan,
        )
        force_serial(executor, monkeypatch)
        payloads = [{"seed": s} for s in range(4)]
        clean = CampaignExecutor(workers=1).map(seeded_draw, payloads)
        assert executor.map(seeded_draw, payloads) == clean
        stats = executor.last_stats
        assert stats.quarantined_hosts == (1,)
        assert stats.retries == 1  # task 1's faulted first attempt
        assert stats.redistributed_tasks == 2  # tasks 1 and 3


class TestFaultObservability:
    def test_recorder_journals_retry_and_quarantine(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "faults.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        plan = FaultPlan.broken_hosts([1])
        executor = CampaignExecutor(
            workers=2,
            retry=RetryPolicy(max_retries=2, quarantine_after=1),
            faults=plan,
            metrics=recorder.metrics,
            recorder=recorder,
        )
        force_serial(executor, monkeypatch)
        executor.map(square, [0, 1, 2, 3])
        recorder.close()
        records = read_journal(path)
        assert validate_journal(records) == []
        retries = [r for r in records if r["t"] == "retry"]
        quarantines = [r for r in records if r["t"] == "quarantine"]
        assert len(retries) == 1
        assert retries[0]["task"] == 1
        assert retries[0]["host"] == 1
        assert retries[0]["error"] == "crash"
        assert quarantines == [{
            "v": SCHEMA_VERSION, "t": "quarantine", "host": 1,
            "failures": 1, "redistributed": 2,
        }]
        # Metrics route through the recorder exactly once (the executor
        # holds both the recorder and its registry — no double counting).
        assert recorder.metrics.value("faults.retries", kind="crash") == 1
        assert recorder.metrics.value("faults.quarantines") == 1
        assert recorder.metrics.value("faults.redistributed") == 2

    def test_bare_metrics_count_without_a_recorder(self):
        metrics = MetricsRegistry()
        plan = FaultPlan(faults=(
            FaultSpec(kind="transient", task=0, attempt=0),
        ))
        executor = CampaignExecutor(
            retry=RetryPolicy(), faults=plan, metrics=metrics
        )
        executor.map(square, [1, 2])
        assert metrics.value("faults.injected", kind="transient") == 1
        assert metrics.value("faults.retries", kind="transient") == 1
        faults = metrics.counters_with_prefix("faults.")
        assert set(faults) == {
            "faults.injected{kind=transient}",
            "faults.retries{kind=transient}",
        }


# -- chaos campaigns over every subsystem ------------------------------------


CHAOS_HOURS = 0.25
CHAOS_SEEDS = (1, 2)


@pytest.mark.parametrize("subsystem", SUBSYSTEMS)
def test_chaos_campaign_is_bit_identical_despite_faults(subsystem):
    """Property-style chaos: a seeded random fault plan over subsystem
    campaigns A-H never changes the reports, and the executor performs
    exactly the retries the plan implies."""
    plan = FaultPlan.random(
        seed=ord(subsystem), tasks=len(CHAOS_SEEDS),
        fault_rate=0.8, max_faults_per_task=2,
    )
    baseline = run_campaign(
        "collie", subsystem, seeds=CHAOS_SEEDS, budget_hours=CHAOS_HOURS
    )
    chaotic = run_campaign(
        "collie", subsystem, seeds=CHAOS_SEEDS, budget_hours=CHAOS_HOURS,
        retry=RetryPolicy(max_retries=2), faults=plan,
    )
    assert chaotic.reports == baseline.reports
    assert chaotic.executor_stats.retries == len(plan.task_faults())
    assert chaotic.executor_stats.injected_faults == len(plan.task_faults())


def test_chaos_campaign_pooled_matches_serial_baseline():
    plan = FaultPlan.random(seed=99, tasks=3, fault_rate=0.9)
    assert plan.task_faults()  # rate 0.9: the plan really injects
    baseline = run_campaign(
        "collie", "H", seeds=(1, 2, 3), budget_hours=CHAOS_HOURS
    )
    chaotic = run_campaign(
        "collie", "H", seeds=(1, 2, 3), budget_hours=CHAOS_HOURS,
        workers=2, retry=RetryPolicy(max_retries=1), faults=plan,
    )
    assert chaotic.reports == baseline.reports
    assert chaotic.executor_stats.retries == len(plan.task_faults())
