"""Multi-seed search campaigns as a library feature.

The evaluation benchmarks run fleets of searches and aggregate them;
this module packages that workflow for downstream users: pick an
approach, a subsystem and a seed count, get back per-seed reports plus
the Figure 4-style aggregation, ready for
:func:`repro.analysis.figures.time_to_find_series`.

Campaigns are embarrassingly parallel across seeds: ``workers > 1``
fans the per-seed runs across a
:class:`~repro.core.executor.CampaignExecutor` process pool.  Every
search constructs its RNG from its own seed inside the worker, so the
reports are bit-identical to a serial campaign (the determinism suite
pins this).  An optional :class:`~repro.core.evalcache.EvalCache`
warm-starts every run and absorbs the evaluations they performed,
enabling cross-run reuse (``--cache`` on the CLI).

That purity is also what makes campaigns *interruptible*: each seed's
report is a pure function of its payload, and the flight recorder's
journal is an append-only valid prefix even after a crash.  Resuming
(``campaign --resume journal.jsonl``) replays the journal's completed
``run_start``…``run_end`` blocks into finished reports, re-runs only
the missing seeds, and produces final reports bit-identical to an
uninterrupted campaign (extending the ``reports_from_journal``
determinism guarantee); an attached
:class:`~repro.core.faults.RetryPolicy` additionally survives crashed
or hung workers mid-campaign.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Callable, Optional, Sequence, Union

from repro.analysis.figures import TimeToFindSeries, time_to_find_series
from repro.core import Collie
from repro.core.collie import SearchReport
from repro.core.evalcache import EvalCache
from repro.core.executor import CampaignExecutor, ExecutorStats
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
    cache = EvalCache() if payload["use_cache"] else None
    if cache is not None and payload["cache_entries"]:
        cache.import_entries(payload["cache_entries"])
    args = (payload["subsystem"], payload["budget_hours"], payload["seed"])
    kwargs: dict = {}
    if cache is not None and _accepts_kwarg(factory, "cache"):
        kwargs["cache"] = cache
    if not payload.get("latency", True) and _accepts_kwarg(
        factory, "latency"
    ):
        kwargs["latency"] = False
    report = factory(*args, **kwargs)
    return {
        "report": report,
        "cache_entries": (
            cache.export_entries(new_only=True) if cache else None
        ),
        "cache_stats": cache.stats_dict() if cache else None,
    }


def completed_runs_from_journal(
    records: "Sequence[dict]",
) -> dict[int, SearchReport]:
    """Seed → finished report, for every *complete* run in a journal.

    A run counts only when its ``run_start`` (carrying the seed) is
    matched by a ``run_end`` before the next run begins; a trailing
    partial run — the one a crash interrupted — is deliberately
    dropped, so resume re-runs that seed from scratch and the final
    report stays bit-identical to an uninterrupted campaign.

    Run grouping goes through :func:`~repro.obs.journal.run_records`,
    which demultiplexes chain-stamped population journals before
    splitting on ``run_start`` — so resuming from a ``--chains``
    campaign journal sees each chain's run intact instead of N
    interleaved fragments.  Unstamped journals group exactly as before.
    """
    from repro.obs.journal import reports_from_records, run_records

    runs = run_records(records)
    completed: dict[int, SearchReport] = {}
    for run in runs:
        seed = run[0].get("seed")
        if seed is None:
            continue
        if not any(record.get("t") == "run_end" for record in run):
            continue
        (report,) = reports_from_records(run)
        completed[int(seed)] = report
    return completed


@dataclasses.dataclass
class CampaignResult:
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

    def per_seed_hits(self) -> list[dict]:
        return [report.first_hit_times() for report in self.reports]

    def union_tags(self) -> set:
        tags: set = set()
        for hits in self.per_seed_hits():
            tags.update(hits)
        return tags

    def mean_found(self) -> float:
        counts = [len(hits) for hits in self.per_seed_hits()]
        return sum(counts) / len(counts) if counts else 0.0

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
    attaches a deterministic injection plan (chaos testing).

    ``resume_from`` restarts an interrupted campaign: a journal path
    (its valid prefix is read crash-tolerantly) or a pre-extracted
    ``{seed: report}`` mapping.  Completed seeds are replayed, missing
    ones recomputed, and the result — including a journal written by
    ``recorder`` — is bit-identical to an uninterrupted campaign.
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
            from repro.obs.journal import read_journal_prefix

            records, _tail = read_journal_prefix(resume_from)
            completed = completed_runs_from_journal(records)
        completed = {
            seed: report for seed, report in completed.items()
            if seed in set(seeds)
        }
    todo = [seed for seed in seeds if seed not in completed]
    warm_entries = cache.export_entries() if cache is not None else None
    payloads = [
        {
            "approach": approach,
            "factory": factory,
            "subsystem": subsystem,
            "budget_hours": budget_hours,
            "seed": seed,
            "use_cache": cache is not None,
            "cache_entries": warm_entries,
            "latency": latency,
        }
        for seed in todo
    ]
    executor = CampaignExecutor(
        workers=workers,
        metrics=recorder.metrics if recorder is not None else None,
        progress=recorder.task_progress if recorder is not None else None,
        retry=retry,
        faults=faults,
        recorder=recorder,
    )
    outcomes = executor.map(_run_seed, payloads) if payloads else []
    fresh = {
        seed: outcome["report"] for seed, outcome in zip(todo, outcomes)
    }
    reports = [
        completed[seed] if seed in completed else fresh[seed]
        for seed in seeds
    ]
    if recorder is not None:
        if executor.last_stats is not None:
            recorder.fanout(executor.last_stats)
        if completed:
            recorder.metrics.counter(
                "campaign.resumed_runs", len(completed)
            )
        # Replay every run in seed order — resumed and fresh alike — so
        # the new journal is complete and re-renders identically to one
        # from an uninterrupted campaign.
        for seed, report in zip(seeds, reports):
            recorder.record_report(report, budget_hours, seed=seed)
    if cache is not None:
        for outcome in outcomes:
            if outcome["cache_entries"]:
                cache.import_entries(outcome["cache_entries"])
            if outcome["cache_stats"]:
                cache.merge_stats(outcome["cache_stats"])
    return CampaignResult(
        approach=approach,
        subsystem=subsystem,
        budget_hours=budget_hours,
        reports=reports,
        executor_stats=executor.last_stats,
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
