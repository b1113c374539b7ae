"""Multi-seed search campaigns as a library feature.

The evaluation benchmarks run fleets of searches and aggregate them;
this module packages that workflow for downstream users: pick an
approach, a subsystem and a seed count, get back per-seed reports plus
the Figure 4-style aggregation, ready for
:func:`repro.analysis.figures.time_to_find_series`.

Campaigns are embarrassingly parallel across seeds: the per-seed runs
go through :func:`~repro.core.executor.fan_out`, across a process pool
when ``workers > 1``.  Every search constructs its RNG from its own
seed inside the worker, so the reports are bit-identical to a serial
campaign (the determinism suite pins this).  An optional
:class:`~repro.core.evalcache.EvalCache` warm-starts every run and
absorbs the evaluations they performed, enabling cross-run reuse
(``--cache`` on the CLI).

That purity is also what makes campaigns *interruptible*: each seed's
report is a pure function of its payload, and the flight recorder's
journal is an append-only valid prefix even after a crash.  Resuming
(``campaign --resume journal.jsonl``) replays the journal's completed
``run_start``…``run_end`` blocks into finished reports, re-runs only
the missing seeds, and produces final reports bit-identical to an
uninterrupted campaign (extending the ``reports_from_journal``
determinism guarantee); an attached
:class:`~repro.core.faults.RetryPolicy` additionally survives crashed
or hung workers mid-campaign.  Without one, the first failed seed ends
the campaign with :class:`~repro.core.faults.TaskFailed`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
from typing import Callable, Optional, Sequence, Union

from repro.analysis.figures import TimeToFindSeries, time_to_find_series
from repro.core import Collie
from repro.core.collie import MergedRuns, SearchReport
from repro.core.evalcache import EvalCache
from repro.core.executor import (
    ExecutorStats,
    fan_out,
    worker_cache,
    worker_result,
)
from repro.core.faults import FaultPlan, RetryPolicy


# -- approach factories (module-level: picklable for process fan-out) -------
# The baselines import scipy (about a second of start-up), so they are
# imported by the factories that run them, not by this module.


def _run_random(sub, hours, seed, cache=None):
    from repro.baselines.random_search import RandomSearch

    return RandomSearch(
        sub, budget_hours=hours, seed=seed, cache=cache
    ).run()


def _run_genetic(sub, hours, seed, cache=None):
    from repro.baselines.genetic import GeneticSearch

    return GeneticSearch(
        sub, budget_hours=hours, seed=seed, cache=cache
    ).run()


def _run_bayesopt(sub, hours, seed, cache=None):
    from repro.baselines.bayesopt import BayesOptSearch

    return BayesOptSearch(
        sub, budget_hours=hours, seed=seed, use_mfs=False, cache=cache
    ).run()


def _run_bayesopt_mfs(sub, hours, seed, cache=None):
    from repro.baselines.bayesopt import BayesOptSearch

    return BayesOptSearch(
        sub, budget_hours=hours, seed=seed, use_mfs=True, cache=cache
    ).run()


def _run_search(
    sub, hours, seed, cache=None, latency=True, *, counter_mode, use_mfs
):
    return Collie.for_subsystem(
        sub, counter_mode=counter_mode, use_mfs=use_mfs, budget_hours=hours,
        seed=seed, cache=cache, latency=latency,
    ).run()


#: Approach name → factory(subsystem, budget_hours, seed[, cache]) -> report.
APPROACHES: dict = {
    "random": _run_random,
    "genetic": _run_genetic,
    "bayesopt": _run_bayesopt,
    "bayesopt+mfs": _run_bayesopt_mfs,
    "sa-perf": functools.partial(
        _run_search, counter_mode="perf", use_mfs=False
    ),
    "sa-diag": functools.partial(
        _run_search, counter_mode="diag", use_mfs=False
    ),
    "collie-perf": functools.partial(
        _run_search, counter_mode="perf", use_mfs=True
    ),
    "collie": functools.partial(
        _run_search, counter_mode="diag", use_mfs=True
    ),
}


def _accepts_kwarg(factory: Callable, name: str) -> bool:
    """Whether a factory takes the named optional keyword argument."""
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins, odd callables
        return False
    return name in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def _run_seed(payload: dict) -> dict:
    """One campaign seed, executed inside a worker process."""
    factory = payload["factory"]
    if factory is None:
        factory = APPROACHES[payload["approach"]]
    cache = worker_cache(payload)
    kwargs: dict = {}
    if cache is not None and _accepts_kwarg(factory, "cache"):
        kwargs["cache"] = cache
    if not payload["latency"] and _accepts_kwarg(factory, "latency"):
        kwargs["latency"] = False
    report = factory(
        payload["subsystem"], payload["budget_hours"], payload["seed"],
        **kwargs,
    )
    return worker_result(cache, report=report)


def completed_runs_from_journal(
    path: Union[str, os.PathLike],
) -> dict[int, SearchReport]:
    """Seed → finished report, for every *complete* run in a journal.

    A run counts only when its ``run_start`` (carrying the seed) is
    matched by a ``run_end`` before the next run begins; a trailing
    partial run — the one a crash interrupted — is deliberately
    dropped, so resume re-runs that seed from scratch and the final
    report stays bit-identical to an uninterrupted campaign.

    The journal's valid prefix (a torn final line is dropped) streams
    through one :class:`~repro.obs.folds.RunReports` fold, which
    demultiplexes chain-stamped population journals before splitting
    on ``run_start`` — so resuming from a ``--chains`` campaign journal
    sees each chain's run intact instead of N interleaved fragments —
    and keeps each run's events, not its records.
    """
    from repro.obs.folds import RunReports
    from repro.obs.journal import scan_journal

    runs = RunReports(events=True)
    scan_journal(path, runs.step)
    return {
        int(run.seed): run.report()
        for run in runs.runs()
        if run.seed is not None and run.end is not None
    }


def check_replayable(completed: dict) -> None:
    """Raise ``ValueError`` unless every experiment of the resumed runs
    (seed → report) encodes as a current journal record.

    A resumed campaign replays its completed runs into the new journal
    after it has computed the missing seeds; an old journal can hold a
    run the current format cannot (a partial counter snapshot), and
    this finds it before any seed is computed.
    """
    from repro.obs.folds import MALFORMED_RECORD_ERRORS
    from repro.obs.journal import experiment_record

    for seed, report in completed.items():
        for position, event in enumerate(report.events):
            try:
                experiment_record(event)
            except MALFORMED_RECORD_ERRORS as error:
                raise ValueError(
                    f"resumed seed {seed}'s experiment {position} cannot "
                    f"be journaled: {type(error).__name__}: {error}"
                ) from None


@dataclasses.dataclass
class CampaignResult(MergedRuns):
    """One approach's multi-seed campaign."""

    approach: str
    subsystem: str
    budget_hours: float
    reports: list
    #: Fan-out accounting of the run that produced the reports (None for
    #: pre-executor callers constructing results by hand).
    executor_stats: Optional[ExecutorStats] = None
    #: Seeds whose reports were replayed from a resume journal rather
    #: than recomputed (in seed order; empty for a fresh campaign).
    resumed_seeds: tuple = ()

    @property
    def seeds(self) -> int:
        return len(self.reports)

    def series(self, max_anomalies: int = 13) -> TimeToFindSeries:
        return time_to_find_series(
            self.approach, self.per_seed_hits(), max_anomalies
        )


def run_campaign(
    approach: str,
    subsystem: str = "F",
    seeds: Sequence[int] = (1, 2, 3),
    budget_hours: float = 10.0,
    factory: Optional[Callable] = None,
    workers: int = 1,
    cache: Optional[EvalCache] = None,
    recorder=None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    resume_from: Union[str, dict, None] = None,
    latency: bool = True,
) -> CampaignResult:
    """Run one approach across seeds.

    ``factory`` overrides the approach registry for custom
    configurations (e.g. restricted spaces); with ``workers > 1`` it
    must be a module-level (picklable) callable.  ``cache`` warm-starts
    every seed's evaluations and absorbs what they computed.

    ``recorder`` (a flight recorder) observes the fan-out live and
    journals every seed's report post-hoc — a journal's file handle
    cannot travel into worker processes, so campaigns replay the
    returned reports instead of journaling in-flight.

    ``retry`` turns on fault-tolerant execution (timeouts, bounded
    retries with deterministic backoff, host quarantine); ``faults``
    attaches a deterministic injection plan (chaos testing).  A seed
    that fails for good raises
    :class:`~repro.core.faults.TaskFailed`.

    ``resume_from`` restarts an interrupted campaign: a journal path
    (its valid prefix is read crash-tolerantly) or a pre-extracted
    ``{seed: report}`` mapping.  Completed seeds are replayed, missing
    ones recomputed, and the result — including a journal written by
    ``recorder`` — is bit-identical to an uninterrupted campaign.  A
    completed run the journal cannot hold raises ``ValueError``
    (:func:`check_replayable`) before any seed is computed.
    """
    if factory is None and approach not in APPROACHES:
        raise KeyError(
            f"unknown approach {approach!r}; choose from "
            f"{sorted(APPROACHES)} or pass a factory"
        )
    seeds = list(seeds)
    completed: dict[int, SearchReport] = {}
    if resume_from is not None:
        if isinstance(resume_from, dict):
            completed = dict(resume_from)
        else:
            completed = completed_runs_from_journal(resume_from)
        completed = {
            seed: report for seed, report in completed.items()
            if seed in set(seeds)
        }
        if recorder is not None and recorder.journal is not None:
            check_replayable(completed)
    todo = [seed for seed in seeds if seed not in completed]
    outcomes, stats = fan_out(
        _run_seed,
        [
            {
                "approach": approach,
                "factory": factory,
                "subsystem": subsystem,
                "budget_hours": budget_hours,
                "seed": seed,
                "latency": latency,
            }
            for seed in todo
        ],
        workers=workers, cache=cache, recorder=recorder,
        retry=retry, faults=faults,
    )
    fresh = {
        seed: outcome["report"] for seed, outcome in zip(todo, outcomes)
    }
    reports = [
        completed[seed] if seed in completed else fresh[seed]
        for seed in seeds
    ]
    if recorder is not None:
        # Replay every run in seed order — resumed and fresh alike — so
        # the new journal is complete and re-renders identically to one
        # from an uninterrupted campaign.
        for seed, report in zip(seeds, reports):
            recorder.record_report(report, budget_hours, seed=seed)
    return CampaignResult(
        approach=approach,
        subsystem=subsystem,
        budget_hours=budget_hours,
        reports=reports,
        executor_stats=stats,
        resumed_seeds=tuple(seed for seed in seeds if seed in completed),
    )


def compare(
    approaches: Sequence[str],
    subsystem: str = "F",
    seeds: Sequence[int] = (1, 2, 3),
    budget_hours: float = 10.0,
    max_anomalies: int = 13,
    workers: int = 1,
    cache: Optional[EvalCache] = None,
) -> list[TimeToFindSeries]:
    """Figure 4 in one call: one series per requested approach."""
    return [
        run_campaign(
            approach, subsystem, seeds, budget_hours,
            workers=workers, cache=cache,
        ).series(max_anomalies)
        for approach in approaches
    ]
