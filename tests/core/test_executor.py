"""CampaignExecutor: ordering, stats, serial/pooled equivalence."""

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.evalcache import EvalCache
from repro.core.executor import CampaignExecutor, ExecutorStats, fan_out
from repro.core.faults import RetryPolicy, TaskFailed, WorkerCrash
from repro.obs import FlightRecorder, RunJournal


def square(payload):
    return payload * payload


def unpicklable_result(payload):
    return lambda: payload  # closures cannot cross the process boundary


def _require_pool() -> None:
    """Skip (at run time — never fork during collection) without a pool."""
    executor = CampaignExecutor(workers=2)
    executor.map(square, [1, 2])
    if executor.last_stats.fell_back_serial:
        pytest.skip("no process pool in this sandbox")


def describe_payload(payload):
    return {"seed": payload["seed"], "value": payload["seed"] * 10}


def boom(payload):
    raise RuntimeError(f"task {payload} failed")


def die(payload):
    os._exit(3)  # the worker process dies without a word


class TestSerial:
    def test_results_in_payload_order(self):
        executor = CampaignExecutor(workers=1)
        assert executor.map(square, [3, 1, 2]) == [9, 1, 4]

    def test_stats_recorded(self):
        executor = CampaignExecutor(workers=1)
        executor.map(square, [1, 2, 3])
        stats = executor.last_stats
        assert stats.tasks == 3
        assert stats.workers == 1
        assert not stats.fell_back_serial
        assert stats.wall_seconds >= stats.busy_seconds >= 0.0

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            CampaignExecutor(workers=0)

    def test_empty_payloads(self):
        executor = CampaignExecutor(workers=4)
        assert executor.map(square, []) == []
        assert executor.last_stats.tasks == 0

    def test_single_payload_skips_the_pool(self):
        executor = CampaignExecutor(workers=4)
        assert executor.map(square, [5]) == [25]
        assert executor.last_stats.workers == 1


class TestPooled:
    def test_matches_serial_results_in_order(self):
        payloads = [{"seed": seed} for seed in range(7)]
        serial = CampaignExecutor(workers=1).map(describe_payload, payloads)
        pooled = CampaignExecutor(workers=4).map(describe_payload, payloads)
        assert pooled == serial

    def test_pool_stats(self):
        executor = CampaignExecutor(workers=3)
        executor.map(square, list(range(6)))
        stats = executor.last_stats
        assert stats.tasks == 6
        assert stats.workers == 3
        assert stats.wall_seconds > 0.0

    def test_worker_exception_propagates(self):
        executor = CampaignExecutor(workers=2)
        with pytest.raises(RuntimeError, match="failed"):
            executor.map(boom, [1, 2])

    def test_dead_worker_fails_the_task_without_a_retry_policy(self):
        """No policy allows no retries: a worker that dies ends the map
        with TaskFailed from WorkerCrash, not BrokenProcessPool."""
        _require_pool()
        executor = CampaignExecutor(workers=2)
        with pytest.raises(TaskFailed) as excinfo:
            executor.map(die, [1, 2])
        assert excinfo.value.attempts == 1
        assert isinstance(excinfo.value.last_error, WorkerCrash)

    def test_a_worker_dying_before_the_next_submit_fails_the_task(
        self, monkeypatch
    ):
        """The first task's worker dies before the second task is
        submitted, so the submit itself raises BrokenProcessPool."""

        class BrokenAfterFirstSubmit:
            broken = False

            def submit(self, fn, *args):
                if self.broken:
                    raise BrokenProcessPool("a worker died")
                self.broken = True
                future = concurrent.futures.Future()
                future.set_exception(BrokenProcessPool("a worker died"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(
            CampaignExecutor, "_make_pool",
            lambda self, tasks: BrokenAfterFirstSubmit(),
        )
        with pytest.raises(TaskFailed) as excinfo:
            CampaignExecutor(workers=2).map(square, [1, 2])
        assert excinfo.value.task == 0
        assert isinstance(excinfo.value.last_error, WorkerCrash)


class TestEdgeCases:
    def test_zero_tasks(self):
        executor = CampaignExecutor(workers=4)
        assert executor.map(square, []) == []
        stats = executor.last_stats
        assert stats.tasks == 0
        assert stats.workers == 1  # clamped floor, not zero

    def test_zero_tasks_with_retry_policy(self):
        executor = CampaignExecutor(workers=4, retry=RetryPolicy())
        assert executor.map(square, []) == []
        assert executor.last_stats.retries == 0

    def test_more_workers_than_tasks(self):
        executor = CampaignExecutor(workers=8)
        assert executor.map(square, [1, 2, 3]) == [1, 4, 9]
        assert executor.last_stats.workers == 3

    def test_more_workers_than_tasks_resilient(self):
        executor = CampaignExecutor(workers=8, retry=RetryPolicy())
        assert executor.map(square, [1, 2, 3]) == [1, 4, 9]
        stats = executor.last_stats
        assert stats.workers == 3
        assert stats.retries == 0

    def test_worker_raising_during_result_pickling(self):
        _require_pool()
        executor = CampaignExecutor(workers=2)
        with pytest.raises(Exception, match="(?i)pickle"):
            executor.map(unpicklable_result, [1, 2])

    def test_pickling_failure_is_fatal_not_retried(self, tmp_path):
        _require_pool()
        path = tmp_path / "pickle.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        executor = CampaignExecutor(
            workers=2, retry=RetryPolicy(max_retries=3), recorder=recorder
        )
        with pytest.raises(Exception, match="(?i)pickle"):
            executor.map(unpicklable_result, [1, 2])
        recorder.close()
        assert path.read_text() == ""  # no retry, no quarantine


class TestFanOut:
    def test_no_payloads_run_nothing_and_write_no_record(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        recorder = FlightRecorder(journal=RunJournal(path))
        cache = EvalCache()
        assert fan_out(
            square, [], workers=2, cache=cache, recorder=recorder
        ) == ([], None)
        recorder.close()
        assert path.read_text() == ""
        assert len(cache) == 0


class TestStatsSurface:
    def test_speedup_guarded_against_zero_wall(self):
        stats = ExecutorStats(workers=2, tasks=4)
        assert stats.speedup == 1.0
        stats.wall_seconds, stats.busy_seconds = 2.0, 6.0
        assert stats.speedup == pytest.approx(3.0)

    def test_describe_mentions_mode(self):
        stats = ExecutorStats(workers=4, tasks=8, wall_seconds=1.0,
                              busy_seconds=3.0)
        assert "4 workers" in stats.describe()
        assert "3.00x" in stats.describe()
        fallback = ExecutorStats(workers=4, tasks=8, fell_back_serial=True)
        assert "serial (fallback)" in fallback.describe()
        serial = ExecutorStats(workers=1, tasks=2, wall_seconds=0.1,
                               busy_seconds=0.1)
        assert "serial" in serial.describe()
