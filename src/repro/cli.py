"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's operators use Collie:

* ``search``      — run Collie on a Table 1 subsystem, print the anomaly
                    set (optionally save a JSON report); ``--seeds N``
                    fans a multi-seed campaign across ``--workers``
                    processes and ``--cache`` memoizes evaluations;
* ``parallel``    — the §8 fleet extension: partition counters across
                    machines (``--workers``/``--cache`` as above);
* ``campaign``    — multi-seed comparison campaign for any registered
                    approach (Figure 4 style);
* ``report``      — re-render one or more run journals: summary,
                    anomaly timeline, counter trajectory export; an
                    unreadable journal is reported per-file and the
                    rest still render (exit = worst per-file code);
* ``journal``     — ``verify`` a journal file (exit 0 complete, 1
                    resumable, 2 corrupt) or ``diff`` two journals for
                    search-quality regressions (exit 0 clean, 1
                    regression, 2 unreadable);
* ``coverage``    — render a journal's workload-space occupancy maps;
* ``profile``     — render a journal's span self-time profile and
                    export Chrome trace-event JSON (``--trace-out``);
* ``stats``       — print hit rates and per-phase wall time from one
                    or more saved evaluation caches (per-file errors,
                    exit = worst per-file code);
* ``canary``      — ``record`` the baseline journal corpus
                    (``canary/corpus/``) or ``check`` the current code
                    against it: statistical drift gates across the
                    seed population plus hard behavioural invariants
                    (exit 0 clean, 1 drift/violation, 2 corpus
                    unreadable — see :mod:`repro.canary`);
* ``isolation``   — the adversarial-neighbor catalog: per-subsystem
                    co-run searches against a pinned victim (the
                    ``search --victim`` domain), every minimized
                    attacker verified by replay before listing;
* ``top``         — live terminal dashboard over actively-written
                    journals: progress, per-worker heartbeat liveness,
                    per-chain SA rows, anomaly timeline, drift vs an
                    optional baseline journal;
* ``replay``      — replay the 18 Appendix A trigger settings;
* ``diagnose``    — match a workload (JSON file) against a saved
                    report's MFS set (§7.3 debugging workflow);
* ``table1`` / ``table2`` — print the paper's tables.

Observability: ``search``/``parallel``/``campaign`` accept
``--journal PATH`` (structured JSONL flight-recorder journal, see
:mod:`repro.obs`), ``--progress N`` (a live progress line every N
experiments / completed tasks), ``--coverage`` (workload-space
occupancy tracking), ``--profile`` (wall-clock spans of each pipeline
layer, in this process only) and
``--export-metrics PORT`` (with ``--journal``: a live HTTP telemetry
endpoint serving the journal's folds as Prometheus text at
``/metrics`` and a JSON worker table at ``/status``, plus schema-v7
heartbeat records in the journal).  Output goes through :mod:`logging`
(configured by ``--log-level``/``--log-json``): INFO and below to
stdout, WARNING and above to stderr.

Fault tolerance: the three campaign surfaces accept ``--retries N``,
``--task-timeout S`` and ``--backoff S`` (bounded retries with
deterministic exponential backoff plus host quarantine, see
:mod:`repro.core.faults`), and ``campaign --resume JOURNAL`` restarts
an interrupted campaign from a journal's valid prefix, recomputing
only the seeds that never finished.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

logger = logging.getLogger("repro.cli")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_number(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}"
        )
    return value


def _non_negative_number(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}"
        )
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port in [0, 65535], got {text}"
        )
    return value


def _share(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


def _open_cache(args: argparse.Namespace):
    """Build the EvalCache requested by ``--cache`` (None without it)."""
    if not getattr(args, "cache", None):
        return None
    from repro.core.evalcache import EvalCache

    try:
        cache = EvalCache(path=args.cache)
    except ValueError as error:  # bad JSON or wrong format version
        logger.error(f"cannot load cache store {args.cache}: {error}")
        raise SystemExit(2)
    if cache.loaded_entries:
        logger.info(
            f"cache: warm-started with {cache.loaded_entries} entries "
            f"from {args.cache}"
        )
    return cache


def _close_cache(cache) -> None:
    """Persist and summarise the cache after a command."""
    if cache is None:
        return
    path = cache.save()
    logger.info(f"\n{cache.describe()}")
    logger.info(f"cache saved to {path}")


def _open_recorder(args: argparse.Namespace):
    """Build the FlightRecorder requested by the observability flags.

    Any of ``--journal``/``--progress``/``--coverage``/``--profile``
    turns the recorder on; without them this returns None and the hot
    paths pay only a ``recorder is not None`` check per site.
    """
    journal_path = getattr(args, "journal", None)
    progress = getattr(args, "progress", 0)
    coverage = getattr(args, "coverage", False)
    profile = getattr(args, "profile", False)
    export_port = getattr(args, "export_metrics", None)
    if (
        not journal_path and not progress and not coverage
        and not profile and export_port is None
    ):
        return None
    from repro.obs import FlightRecorder, RunJournal, SpanProfiler

    journal = RunJournal(journal_path) if journal_path else None
    recorder = FlightRecorder(
        journal=journal, progress_every=progress, track_coverage=coverage,
        heartbeats=export_port is not None,
    )
    if profile:
        # main() uninstalls it too, should the command raise.
        args.profiler = recorder.profiler = SpanProfiler().install()
    if export_port is not None:
        from repro.obs import CampaignAggregator, TelemetryServer

        # main() has checked that --export-metrics comes with --journal:
        # /metrics renders the folds of that journal.
        server = TelemetryServer(
            aggregator=CampaignAggregator([journal_path]), port=export_port,
        ).start()
        recorder.telemetry = server
        logger.info(
            f"telemetry: serving {server.url('/metrics')} and "
            f"{server.url('/status')}"
        )
    return recorder


def _close_recorder(recorder) -> None:
    if recorder is None:
        return
    if recorder.profiler is not None:
        recorder.profiler.uninstall()
    recorder.close()
    if recorder.coverage is not None:
        logger.info("")
        logger.info(recorder.coverage.render())
    if recorder.profiler is not None:
        from repro.obs import render_span_table

        logger.info("")
        logger.info(render_span_table(recorder.profiler.events()))
    if recorder.journal is not None:
        logger.info(
            f"journal saved to {recorder.journal.path} "
            f"({recorder.journal.records_written} records)"
        )
    if recorder.telemetry is not None:
        recorder.telemetry.close()
        recorder.telemetry = None


def _retry_policy(args: argparse.Namespace):
    """Build the RetryPolicy requested by the resilience flags.

    Returns None when no flag was given — the executor then allows no
    retries, and the first failed task ends the command (exit 1).
    """
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "task_timeout", None)
    backoff = getattr(args, "backoff", None)
    if retries is None and timeout is None and backoff is None:
        return None
    from repro.core.faults import RetryPolicy

    return RetryPolicy(
        max_retries=retries if retries is not None else 2,
        timeout_seconds=timeout,
        backoff_base=backoff if backoff is not None else 0.0,
    )


#: ``--victim`` preset names → victim factory.
_VICTIM_PRESETS = ("small-message", "default")


def _parse_victim(spec: str):
    """``--victim SPEC`` → the pinned victim workload.

    ``SPEC`` is either a preset name (``small-message``, its alias
    ``default``) or comma-separated ``key=value`` overrides applied on
    top of the small-message preset — e.g.
    ``num_qps=64,msg_sizes_bytes=512;4096``.  Values are coerced to the
    field's serialized type (``;`` separates message-pattern entries).
    """
    from repro.analysis.isolation import default_victim
    from repro.analysis.serialize import workload_from_dict, workload_to_dict

    if spec in _VICTIM_PRESETS:
        return default_victim()
    base = workload_to_dict(default_victim())
    for part in spec.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(
                f"bad --victim entry {part!r}: expected a preset "
                f"({', '.join(_VICTIM_PRESETS)}) or key=value pairs"
            )
        if key not in base:
            raise ValueError(
                f"unknown victim field {key!r} "
                f"(choose from {', '.join(sorted(base))})"
            )
        current = base[key]
        value = value.strip()
        if isinstance(current, bool):
            base[key] = value.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            base[key] = int(value)
        elif isinstance(current, float):
            base[key] = float(value)
        elif isinstance(current, (list, tuple)):
            base[key] = [int(item) for item in value.split(";")]
        else:
            base[key] = value
    return workload_from_dict(base)


def _victim_from_args(args: argparse.Namespace):
    """The (victim, share) the flags describe; SystemExit(2) on bad spec."""
    spec = getattr(args, "victim", None)
    if not spec:
        return None
    try:
        return _parse_victim(spec)
    except (ValueError, KeyError) as error:
        logger.error(f"cannot parse --victim {spec!r}: {error}")
        raise SystemExit(2)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.analysis.serialize import save_report
    from repro.core import Collie

    population = args.chains > 1 or args.tempering
    if args.seeds > 1 and population:
        logger.error("--seeds and --chains/--tempering are mutually "
                     "exclusive: a population already runs one chain "
                     "per seed")
        return 2
    if args.tempering and args.chains < 2:
        logger.error("--tempering needs --chains >= 2 (one chain per "
                     "ladder rung)")
        return 2
    if (args.seeds > 1 or population) and (args.output or args.recipes):
        logger.error("--output and --recipes describe a single search: "
                     "drop them or run without --seeds/--chains/"
                     "--tempering")
        return 2
    fanout = args.workers > 1 or _retry_policy(args) is not None
    if fanout and args.seeds == 1:
        logger.error("--workers, --retries, --task-timeout and --backoff "
                     "act on a --seeds campaign only; a single search "
                     "or a --chains population runs in-process")
        return 2
    victim = _victim_from_args(args)
    if victim is not None and fanout:
        logger.error("--victim campaigns run in-process (the lockstep "
                     "population path): drop --workers and the retry "
                     "flags")
        return 2
    cache = _open_cache(args)
    recorder = _open_recorder(args)
    if args.seeds > 1:
        if not fanout:
            # Same seeds, same reports, one process: the population
            # driver steps the chains in lockstep, without the
            # per-seed task and worker plumbing of a campaign.
            return _run_search_population(
                args, cache, recorder, chains=args.seeds,
                campaign_format=True, victim=victim,
            )
        return _run_search_campaign(args, cache, recorder)
    if population:
        return _run_search_population(
            args, cache, recorder, chains=args.chains, victim=victim,
        )
    collie = Collie.for_subsystem(
        args.subsystem,
        counter_mode=args.counters,
        use_mfs=not args.no_mfs,
        budget_hours=args.hours,
        seed=args.seed,
        cache=cache,
        recorder=recorder,
        latency=not args.no_latency,
        victim=victim,
        victim_share=args.victim_share,
    )
    report = collie.run()
    if victim is not None:
        floor = collie.testbed.victim_floor
        logger.info(
            f"victim: {victim.summary()} — share {args.victim_share:g} "
            f"(fair {floor.fair_share_gbps:.1f} of {floor.alone_gbps:.1f} "
            f"Gbps alone, p99 floor {floor.alone_p99_us:.2f} us)"
        )
    logger.info(report.summary())
    if args.recipes:
        from repro.core.reproducer import recipe

        for index, mfs in enumerate(report.anomalies, 1):
            logger.info("")
            logger.info(recipe(mfs.witness, title=f"anomaly {index}"))
    if args.output:
        save_report(report, args.output)
        logger.info(f"\nreport saved to {args.output}")
    _close_recorder(recorder)
    _close_cache(cache)
    return 0


def _search_approach(args: argparse.Namespace) -> str:
    if args.no_mfs:
        return "sa-perf" if args.counters == "perf" else "sa-diag"
    return "collie-perf" if args.counters == "perf" else "collie"


def _run_search_population(
    args: argparse.Namespace, cache, recorder,
    chains: int, campaign_format: bool = False, victim=None,
) -> int:
    """``search --chains N`` / ``--tempering`` / delegated ``--seeds N``.

    Steps N SA chains in lockstep in this process, each on its own
    testbed, sharing only the ``--cache``.  Chain ``c`` is bit-identical
    to ``search --seed (seed+c)``, so with ``campaign_format`` (the
    ``--seeds`` delegation) the printed campaign summary matches the
    per-seed process path exactly.
    """
    from repro.core.population import PopulationCollie

    ladder = None
    if args.tempering:
        from repro.core.annealing import SAParams

        t0 = SAParams().t0
        # Geometric ladder, hottest rung first: each colder rung halves
        # the whole schedule.
        ladder = tuple(t0 * 0.5 ** rung for rung in range(chains))
    driver = PopulationCollie(
        args.subsystem,
        chains=chains,
        budget_hours=args.hours,
        seed=args.seed,
        counter_mode=args.counters,
        use_mfs=not args.no_mfs,
        cache=cache,
        recorder=recorder,
        latency=not args.no_latency,
        temperature_ladder=ladder,
        exchange_every=args.exchange_every,
        victim=victim,
        victim_share=getattr(args, "victim_share", 0.5),
    )
    report = driver.run()
    if campaign_format:
        _print_seeds(args, report)
    else:
        logger.info(report.summary())
    _close_recorder(recorder)
    _close_cache(cache)
    return 0


def _print_seeds(args: argparse.Namespace, runs) -> None:
    """The ``search --seeds N`` summary, in-process or fanned out."""
    logger.info(
        f"{_search_approach(args)} on subsystem {args.subsystem}: "
        f"{len(runs.reports)} seeds, {runs.mean_found():.1f} anomalies/seed, "
        f"{sorted(runs.union_tags()) or ['-']}"
    )
    for seed, report in enumerate(runs.reports, args.seed):
        logger.info(f"  seed {seed}: {len(report.anomalies)} anomalies, "
                    f"{report.experiments} experiments")


def _fan_out_failed(error, recorder) -> int:
    """A fanned-out task failed for good: close the journal and the
    telemetry server, leave the cache store as it was, exit 1."""
    _close_recorder(recorder)
    logger.error(str(error))
    return 1


def _run_search_campaign(args: argparse.Namespace, cache, recorder) -> int:
    """``search --seeds N``: the multi-seed campaign path."""
    from repro.analysis.campaign import run_campaign
    from repro.core.faults import TaskFailed

    try:
        result = run_campaign(
            _search_approach(args),
            subsystem=args.subsystem,
            seeds=range(args.seed, args.seed + args.seeds),
            budget_hours=args.hours,
            workers=args.workers,
            cache=cache,
            recorder=recorder,
            latency=not args.no_latency,
            retry=_retry_policy(args),
        )
    except TaskFailed as error:
        return _fan_out_failed(error, recorder)
    _print_seeds(args, result)
    if result.executor_stats is not None:
        logger.info(result.executor_stats.describe())
    _close_recorder(recorder)
    _close_cache(cache)
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    from repro.core.faults import TaskFailed
    from repro.core.parallel import ParallelCollie

    cache = _open_cache(args)
    recorder = _open_recorder(args)
    fleet = ParallelCollie(
        args.subsystem,
        machines=args.machines,
        budget_hours=args.hours,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        recorder=recorder,
        latency=not args.no_latency,
        retry=_retry_policy(args),
        chains=args.chains,
    )
    try:
        report = fleet.run()
    except TaskFailed as error:
        return _fan_out_failed(error, recorder)
    logger.info(
        f"fleet of {report.machines} machines on subsystem "
        f"{report.subsystem_name}: {len(report.anomalies)} anomalies, "
        f"{report.total_experiments} experiments, "
        f"{report.elapsed_seconds / 3600:.1f}h wall-clock"
    )
    for index, mfs in enumerate(report.anomalies, 1):
        logger.info(f"  {index}: {mfs.describe()}")
    if fleet.executor_stats is not None:
        logger.info(fleet.executor_stats.describe())
    _close_recorder(recorder)
    _close_cache(cache)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import (
        APPROACHES,
        check_replayable,
        completed_runs_from_journal,
        run_campaign,
    )
    from repro.core.faults import TaskFailed

    if args.approach not in APPROACHES:
        logger.error(
            f"unknown approach {args.approach!r}; choose from "
            f"{', '.join(sorted(APPROACHES))}"
        )
        return 2
    seeds = range(args.seed, args.seed + args.seeds)
    completed = None
    if args.resume:
        from repro.obs.journal import scan_journal

        try:
            # One streamed pass for the tail, one fold over the runs.
            _, tail_error = scan_journal(args.resume, lambda record: None)
            completed = {
                seed: report for seed, report
                in completed_runs_from_journal(args.resume).items()
                if seed in seeds
            }
        except OSError as error:
            logger.error(f"cannot read resume journal {args.resume}: {error}")
            return 2
        except ValueError as error:
            logger.error(f"resume journal is corrupt: {error}")
            return 2
        if tail_error is not None:
            logger.warning(tail_error)
        if args.journal:
            # Before the new journal is opened: it may be the old one.
            try:
                check_replayable(completed)
            except ValueError as error:
                logger.error(f"cannot resume into {args.journal}: {error}")
                return 2
    cache = _open_cache(args)
    recorder = _open_recorder(args)
    try:
        result = run_campaign(
            args.approach,
            subsystem=args.subsystem,
            seeds=seeds,
            budget_hours=args.hours,
            workers=args.workers,
            cache=cache,
            recorder=recorder,
            latency=not args.no_latency,
            retry=_retry_policy(args),
            resume_from=completed,
        )
    except TaskFailed as error:
        return _fan_out_failed(error, recorder)
    if result.resumed_seeds:
        logger.info(
            f"resumed from {args.resume}: replayed "
            f"{len(result.resumed_seeds)} completed seed(s) "
            f"{list(result.resumed_seeds)}, recomputed "
            f"{result.seeds - len(result.resumed_seeds)}"
        )
    logger.info(
        f"{result.approach} on subsystem {result.subsystem}: "
        f"{result.seeds} seeds x {result.budget_hours:.1f}h, "
        f"{result.mean_found():.1f} anomalies/seed"
    )
    for tag in sorted(result.union_tags()):
        logger.info(f"  found: {tag}")
    if result.executor_stats is not None:
        logger.info(result.executor_stats.describe())
    _close_recorder(recorder)
    _close_cache(cache)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Re-render flight-recorder journals: summary + timeline + trace.

    Accepts several journals; an unreadable one logs a per-file error
    and the rest still render.  The exit code is the worst per-file
    code, so CI catches the failure without losing the good reports.
    """
    paths = args.journal
    if args.trajectory and len(paths) > 1:
        logger.error(
            f"--trajectory exports a single journal's counter trace to "
            f"one CSV; got {len(paths)} journals — run them separately"
        )
        return 2
    payloads: list = []
    worst = 0
    emit_json = getattr(args, "json", False)
    for index, path in enumerate(paths):
        if len(paths) > 1 and not emit_json:
            # Headers would corrupt the machine-readable stream.
            if index:
                logger.info("")
            logger.info(f"=== journal {index + 1}/{len(paths)}: {path}")
        code = _report_one(path, args, payloads)
        if code and len(paths) > 1:
            logger.error(f"journal {path}: report failed (exit {code})")
        worst = max(worst, code)
    if emit_json and payloads:
        # Machine-readable output bypasses the logging pipeline so it
        # stays parseable under --log-json and custom log levels.  A
        # single journal prints its object (the stable format); several
        # print an array.
        out = payloads[0] if len(paths) == 1 else payloads
        print(json.dumps(out, indent=2, sort_keys=True))
    return worst


def _report_one(
    path: str, args: argparse.Namespace, payloads: list
) -> int:
    """Render one journal (appends to ``payloads`` under ``--json``).

    One streamed pass: each record is schema-checked as it arrives and,
    while none has failed, folded; nothing is printed until the pass
    ends, and schema errors anywhere outrank a record the folds cannot
    read.
    """
    from repro.analysis.figures import counter_trace
    from repro.obs.folds import (
        Isolation,
        JournalMetrics,
        RecordCounts,
        RecordParse,
        RunReports,
        dispatcher,
    )
    from repro.obs.journal import scan_journal
    from repro.obs.schema import validate_record

    emit_json = getattr(args, "json", False)
    if emit_json:
        parse = RecordParse()  # one workload parse per record, not two
        reports = RunReports(parse=parse)
        metrics = JournalMetrics(parse)
        folds = (*metrics.folds, reports)
    else:
        reports = RunReports(latency=True, counter=args.counter)
        counts, isolation = RecordCounts(), Isolation()
        folds = (counts, isolation, reports)
    fold = dispatcher(*folds)
    errors: list[str] = []
    malformed: list[ValueError] = []
    records = 0

    def step(record: dict) -> None:
        nonlocal records
        records += 1
        errors.extend(validate_record(record, line=records))
        if not errors and not malformed:
            fold(record)

    try:
        _, tail_error = scan_journal(path, step, malformed.append)
    except OSError as error:
        logger.error(f"cannot read journal {path}: {error}")
        return 2
    except ValueError as error:
        logger.error(f"{error}")
        return 2
    if tail_error is not None:
        logger.warning(
            f"{tail_error} — rendering the valid prefix "
            f"({records} records)"
        )
    if not records:
        errors.append("journal is empty")
    if errors:
        for message in errors[:10]:
            logger.error(message)
        if len(errors) > 10:
            logger.error(f"... and {len(errors) - 10} more")
        logger.error(
            f"journal {path} failed schema validation "
            f"({len(errors)} error(s))"
        )
        return 2
    if malformed:
        logger.error(f"{malformed[0]}")
        return 2
    runs = reports.runs()
    if emit_json:
        from repro.analysis.serialize import report_to_dict

        payloads.append({
            "journal": str(path),
            "summary": metrics.counts.result(),
            "metrics": metrics.result(),
            "runs": [
                # The runs keep no events: first hits come from the fold.
                {**report_to_dict(run.report()), "first_hits": run.first_hits}
                for run in runs
            ],
        })
        return 0
    shape = counts.result()
    logger.info(
        f"journal {path}: {shape['records']} records, "
        f"{shape['runs']} run(s), {shape['experiments']} experiments, "
        f"{shape['anomalies']} anomalies, {shape['skips']} skips, "
        f"{shape['transitions']} SA transitions, "
        f"{shape['cache_events']} cache events"
    )
    if shape["retries"] or shape["quarantines"]:
        logger.info(
            f"resilience: {shape['retries']} retried attempt(s), "
            f"{shape['quarantines']} quarantined host(s)"
        )
    _report_isolation(isolation)
    if shape["crashed_runs"]:
        logger.warning(
            f"{shape['crashed_runs']} of {shape['runs']} run(s) are "
            f"partial (no run_end record) — this campaign crashed or is "
            f"still in flight; resume it with 'repro campaign --resume "
            f"{path}'"
        )
    completeness = counts.runs()
    for index, run in enumerate(runs, 1):
        logger.info("")
        crashed = "" if completeness[index - 1] else " [CRASHED — partial]"
        logger.info(f"run {index}:{crashed} {run.report().summary()}")
        hits = sorted(run.first_hits.items(), key=lambda item: item[1])
        if hits:
            logger.info("  anomaly timeline (first anomalous hit per tag):")
            for tag, seconds in hits:
                logger.info(f"    {seconds / 3600:8.2f}h  {tag}")
        latency_line = _latency_line(run.latency)
        if latency_line is not None:
            logger.info(f"  {latency_line}")
    if args.counter:
        trace = counter_trace(
            "journal",
            (row for run in runs for row in run.counter_rows()),
            args.counter,
        )
        if not trace.hours:
            logger.warning(
                f"counter {args.counter!r} never observed in {path}"
            )
            return 1
        if args.trajectory:
            _write_trajectory(args.trajectory, runs)
            logger.info(
                f"counter trajectory ({len(trace.hours)} points) "
                f"written to {args.trajectory}"
            )
        else:
            logger.info("")
            logger.info(f"trace of {args.counter} (normalised, 24 buckets):")
            for hour, value in trace.bucketed(24):
                bar = "#" * int(round(value * 40))
                logger.info(f"  {hour:6.2f}h |{bar}")
    return 0


def _report_isolation(isolation) -> None:
    """Log the co-run context of an isolation journal (no-op for solo)."""
    from repro.obs.folds import record_workload

    for record in isolation.preambles:
        victim = record_workload(record, "victim")
        logger.info(
            f"isolation run: victim {victim.summary()} — "
            f"share {record['victim_share']:g}, alone "
            f"{record['alone_gbps']:.1f} Gbps / p99 "
            f"{record['alone_p99_us']:.2f} us"
        )
    if isolation.preambles and isolation.experiments:
        logger.info(
            f"  co-run experiments: {isolation.experiments}, "
            f"worst interference {isolation.worst[0]:.2f} of "
            f"fair share"
        )


def _latency_line(latency) -> Optional[str]:
    """One-line per-run aggregate of per-experiment latency summaries
    (a :class:`~repro.obs.folds.LatencyColumns`).

    Each experiment's latency summary already carries its own
    p50/p90/p99; across a run the medians of those percentiles describe
    the typical modeled WR, and the worst inflation names the run's
    closest approach to (or crossing of) the tail-latency trigger.
    """
    if not len(latency):
        return None
    *percentiles, inflations = latency.columns
    p50, p90, p99 = (float(np.median(column)) for column in percentiles)
    return (
        f"latency p50/p90/p99 {p50:.1f}/{p90:.1f}/{p99:.1f} us "
        f"(medians over {len(latency)} experiments, "
        f"worst inflation {max(inflations):.2f}x)"
    )


def _cmd_journal(args: argparse.Namespace) -> int:
    """``journal verify``: machine-checkable journal health."""
    from repro.obs import VERIFY_OK, verify_journal

    code, messages = verify_journal(args.journal)
    for message in messages:
        if code == VERIFY_OK:
            logger.info(message)
        else:
            logger.warning(message)
    verdict = {0: "complete", 1: "incomplete (resumable)", 2: "corrupt"}
    logger.info(f"journal {args.journal}: {verdict[code]} (exit {code})")
    return code


def _fold_journal_or_none(path: str, *folds) -> Optional[int]:
    """Stream a journal's valid prefix through ``folds``, logging read
    errors; returns how many records it read (None = fail)."""
    from repro.obs.folds import dispatcher
    from repro.obs.journal import scan_journal

    try:
        count, tail_error = scan_journal(path, dispatcher(*folds))
    except OSError as error:
        logger.error(f"cannot read journal {path}: {error}")
        return None
    except ValueError as error:
        logger.error(f"journal {path} is corrupt: {error}")
        return None
    if tail_error is not None:
        logger.warning(
            f"{tail_error} — using the valid prefix ({count} records)"
        )
    return count


def _cmd_journal_diff(args: argparse.Namespace) -> int:
    """``journal diff``: gate a candidate journal against a baseline
    (each streamed once through the metric folds)."""
    from repro.analysis.journaldiff import diff_metrics, render_diff
    from repro.obs.folds import JournalMetrics

    paths = (args.baseline, args.candidate)
    metrics = [JournalMetrics() for _ in paths]
    read = [
        _fold_journal_or_none(path, *folded.folds)
        for path, folded in zip(paths, metrics)
    ]
    if None in read:
        return 2
    for path, folded in zip(paths, metrics):
        for line in folded.counts.unknown_notes():
            logger.warning(f"{path}: {line}")
    # An empty (or truncated-to-zero-records) journal has no metrics to
    # compare: diffing it would either crash or — worse — pass silently
    # with every metric "absent in both".  That is unreadable input,
    # not a clean diff: exit 2, like any other unreadable journal.
    unusable = [path for path, count in zip(paths, read) if not count]
    if unusable:
        for path in unusable:
            logger.error(
                f"journal {path} contains no records — nothing to diff"
            )
        return 2
    result = diff_metrics(
        metrics[0].result(), metrics[1].result(),
        tolerance=args.baseline_tolerance,
    )
    logger.info(f"baseline:  {args.baseline}")
    logger.info(f"candidate: {args.candidate}")
    logger.info(render_diff(result))
    return 0 if result.ok else 1


def _cmd_coverage(args: argparse.Namespace) -> int:
    """``coverage``: render a journal's workload-space occupancy maps."""
    from repro.obs.folds import Coverage, Isolation, Latency

    coverage, latency, isolation = Coverage(), Latency(), Isolation()
    if _fold_journal_or_none(
        args.journal, coverage, latency, isolation
    ) is None:
        return 2
    trackers = coverage.runs()
    if not trackers:
        logger.warning(f"no runs found in {args.journal}")
        return 1
    for index, tracker in enumerate(trackers, 1):
        if len(trackers) > 1:
            logger.info(f"run {index}:")
        logger.info(tracker.render())
        logger.info("")
    panel = latency.render()
    if panel is not None:
        logger.info(panel)
    if isolation.experiments:
        logger.info(
            f"co-run coverage: {isolation.experiments} "
            f"experiments carried victim interference, worst "
            f"{isolation.worst[0]:.2f} of fair share"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``profile``: render a journal's span profile / export a trace."""
    from repro.obs import chrome_trace, render_span_table
    from repro.obs.folds import Spans

    spans = Spans()
    if _fold_journal_or_none(args.journal, spans) is None:
        return 2
    events = spans.events
    if not events:
        logger.warning(
            f"no spans recorded in {args.journal} "
            f"(was the run profiled? use --profile)"
        )
        return 1
    logger.info(render_span_table(events))
    if args.trace_out:
        trace = chrome_trace(events)
        with open(args.trace_out, "w") as handle:
            json.dump(trace, handle)
        logger.info(
            f"Chrome trace ({len(trace['traceEvents'])} events) written "
            f"to {args.trace_out} — open in chrome://tracing or Perfetto"
        )
    return 0


def _write_trajectory(path: str, runs) -> None:
    """Raw per-event CSV of one counter across every run in the journal
    (each :class:`~repro.obs.folds.RunSummary`'s counter rows).

    Values are written via ``repr`` (shortest round-tripping float
    form), so the exported trajectory is bit-identical to the in-memory
    event snapshots.
    """
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["run", "time_seconds", "value", "kind", "symptom"]
        )
        for run, summary in enumerate(runs, 1):
            for row in summary.counter_rows():
                writer.writerow(
                    [run, repr(float(row.time_seconds)),
                     repr(row.counter_value), row.kind, row.symptom]
                )


def _stats_on_journal(path: str) -> Optional[int]:
    """``stats`` pointed at a run journal: summarise it instead.

    Returns None when the file is not a journal (caller falls through
    to its cache-store error path).  Partial/crashed runs are surfaced
    explicitly — a truncated journal must never read as a finished one.
    A file whose first record is a journal record is a journal: a
    corrupt line or malformed record after that is reported, exit 1.
    """
    from repro.obs.folds import RecordCounts, Traffic, dispatcher
    from repro.obs.journal import scan_journal

    counts, traffic = RecordCounts(), Traffic()
    step = dispatcher(counts, traffic)
    is_journal = False

    def journal_record(record) -> None:
        nonlocal is_journal
        if not (isinstance(record, dict) and "t" in record and "v" in record):
            raise ValueError("not a journal record")
        is_journal = True
        step(record)

    try:
        count, tail_error = scan_journal(path, journal_record)
    except OSError:
        return None
    except ValueError as error:
        if not is_journal:
            return None
        logger.error(f"journal {path} is corrupt: {error}")
        return 1
    if not count:
        return None
    shape = counts.result()
    logger.info(
        f"{path} is a run journal: {shape['records']} records, "
        f"{shape['complete_runs']} complete run(s), "
        f"{shape['experiments']} experiments, "
        f"{shape['anomalies']} anomalies, {shape['retries']} retries, "
        f"{shape['quarantines']} quarantines"
    )
    for index, (tx_gbps, latencies) in enumerate(traffic.runs(), 1):
        if not tx_gbps:
            continue
        latency = _latency_line(latencies) or (
            "latency: - (no latency records)"
        )
        logger.info(
            f"  run {index}: mean tx {float(np.mean(tx_gbps)):.1f} Gbps, "
            f"{latency}"
        )
    if tail_error is not None:
        logger.warning(tail_error)
    if shape["crashed_runs"]:
        logger.warning(
            f"{shape['crashed_runs']} run(s) are partial (crashed or in "
            f"flight) — resume with 'repro campaign --resume {path}'"
        )
    return 1 if (shape["crashed_runs"] or tail_error) else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: one or more cache stores (or journals), per-file errors.

    One unreadable file never hides the others' statistics; the exit
    code is the worst per-file code.
    """
    worst = 0
    for index, path in enumerate(args.cache):
        if len(args.cache) > 1:
            if index:
                logger.info("")
            logger.info(f"=== {path}")
        worst = max(worst, _stats_one(path))
    return worst


def _stats_one(path: str) -> int:
    from repro.core.evalcache import EvalCache, describe_stats

    try:
        stats = EvalCache.load_stats(path)
    except FileNotFoundError:
        logger.info(f"no cache store at {path} (nothing cached yet)")
        return 0
    except (ValueError, AttributeError) as error:  # corrupt / wrong shape
        journal_code = _stats_on_journal(path)
        if journal_code is not None:
            return journal_code
        logger.error(f"cannot read cache store {path}: {error}")
        return 1
    lookups = int(stats.get("hits", 0)) + int(stats.get("misses", 0))
    if not stats.get("entries") and not lookups:
        logger.info(
            f"cache store {path} is empty (no entries, no lookups)"
        )
        return 0
    logger.info(f"cache store: {path}")
    logger.info(describe_stats(stats))
    return 0


def _matrix_spec_from_args(args: argparse.Namespace):
    """Build the canary MatrixSpec the CLI flags describe."""
    from repro.canary import MatrixSpec

    subsystems = tuple(args.subsystems.upper())
    unknown = sorted(set(subsystems) - set("ABCDEFGH"))
    if unknown:
        raise ValueError(
            f"unknown subsystem(s) {', '.join(unknown)} "
            f"(choose letters from A-H)"
        )
    seeds = tuple(range(args.seed_base, args.seed_base + args.seeds))
    return MatrixSpec(
        subsystems=subsystems,
        seeds=seeds,
        budget_hours=args.hours,
        counter_mode=args.counters,
    )


def _cmd_canary_record(args: argparse.Namespace) -> int:
    """``canary record``: run the matrix, commit the baseline corpus."""
    from repro.canary import record_corpus

    try:
        spec = _matrix_spec_from_args(args)
    except ValueError as error:
        logger.error(str(error))
        return 2
    manifest = record_corpus(spec, args.corpus, progress=logger.info)
    logger.info(
        f"corpus recorded to {args.corpus}: {len(manifest['cells'])} "
        f"cell(s) ({len(spec.subsystems)} subsystem(s) x "
        f"{len(spec.seeds)} seed(s) x {spec.budget_hours:g}h), "
        f"schema v{manifest['schema_version']}, "
        f"code {manifest['code_fingerprint'][:12]}"
    )
    return 0


def _cmd_canary_check(args: argparse.Namespace) -> int:
    """``canary check``: drift gate + hard invariants vs the corpus."""
    import tempfile

    from repro.canary import DriftGates, canary_check, render_check

    gates = DriftGates(
        median_tolerance=args.median_tolerance,
        spread_factor=args.spread_factor,
        shape_tolerance=args.shape_tolerance,
    )

    def run(fresh_dir: str) -> int:
        result = canary_check(
            args.corpus,
            fresh_dir,
            gates=gates,
            attempts=args.attempts,
            skip_invariants=args.skip_invariants,
            progress=logger.info if args.verbose else None,
        )
        logger.info(render_check(result))
        if not result.ok and args.fresh_dir:
            logger.info(f"fresh journals kept in {args.fresh_dir}")
        return result.exit_code

    if args.fresh_dir:
        return run(args.fresh_dir)
    with tempfile.TemporaryDirectory(prefix="canary-fresh-") as fresh_dir:
        return run(fresh_dir)


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.monitor import AnomalyMonitor
    from repro.hardware.model import SteadyStateModel
    from repro.hardware.subsystems import get_subsystem
    from repro.workloads.appendix import APPENDIX_SETTINGS

    rng = np.random.default_rng(args.seed)
    failures = 0
    for setting in APPENDIX_SETTINGS:
        subsystem = get_subsystem(setting.subsystem)
        measurement = SteadyStateModel(subsystem).evaluate(
            setting.workload, rng
        )
        verdict = AnomalyMonitor(subsystem).classify(measurement)
        ok = (
            setting.expected_tag in measurement.tags
            and verdict.symptom == setting.expected_symptom
        )
        failures += not ok
        logger.info(
            f"#{setting.number:2d} ({setting.subsystem}) "
            f"{'ok ' if ok else 'MISS'} expected "
            f"{setting.expected_tag}/{setting.expected_symptom}, observed "
            f"{','.join(measurement.tags) or '-'}/{verdict.symptom}"
        )
    logger.info(f"\n{18 - failures}/18 reproduced")
    return 1 if failures else 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.analysis.serialize import load_anomalies, workload_from_dict
    from repro.core.mfs import match_any

    anomalies = load_anomalies(args.report)
    with open(args.workload) as handle:
        workload = workload_from_dict(json.load(handle))
    matched = match_any(anomalies, workload)
    logger.info(f"workload: {workload.summary()}")
    if matched is None:
        logger.info("no known anomaly region covers this workload")
        return 0
    logger.info("matches a known anomaly; break one of these conditions:")
    logger.info(f"  {matched.describe()}")
    return 2


def _cmd_isolation(args: argparse.Namespace) -> int:
    """``isolation``: the adversarial-neighbor catalog (Table 2's twin).

    Runs one quick-budget co-run search per requested subsystem against
    the pinned victim, verifies every minimized attacker through the
    co-run reproducer, and prints the catalog.  Exit 1 when a subsystem
    yielded no reproduced isolation anomaly — the catalog's guarantee.
    """
    from repro.analysis import render_table
    from repro.analysis.isolation import (
        ISOLATION_COLUMNS,
        catalog_findings,
        catalog_rows,
        default_victim,
        isolation_search,
    )

    subsystems = tuple(args.subsystems.upper())
    unknown = sorted(set(subsystems) - set("ABCDEFGH"))
    if unknown:
        logger.error(
            f"unknown subsystem(s) {', '.join(unknown)} "
            f"(choose letters from A-H)"
        )
        return 2
    victim = _victim_from_args(args) or default_victim()
    recorder = _open_recorder(args)
    findings = []
    bare: list[str] = []
    for letter in subsystems:
        report = isolation_search(
            letter, victim=victim, victim_share=args.victim_share,
            budget_hours=args.hours, seed=args.seed, recorder=recorder,
        )
        verified = catalog_findings(report, victim, args.victim_share)
        findings.extend(verified)
        reproduced = sum(f.reproduced for f in verified)
        logger.info(
            f"subsystem {letter}: {len(verified)} isolation anomaly(ies), "
            f"{reproduced} reproduced, {report.experiments} experiments"
        )
        if not reproduced:
            bare.append(letter)
    logger.info("")
    logger.info(f"victim: {victim.summary()} (share {args.victim_share:g})")
    if findings:
        logger.info(render_table(catalog_rows(findings), ISOLATION_COLUMNS))
    _close_recorder(recorder)
    if bare:
        logger.warning(
            f"no reproduced isolation anomaly on subsystem(s) "
            f"{', '.join(bare)}"
        )
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top JOURNAL...``: live terminal dashboard.

    Follows the journals with the telemetry plane's tail-follower and
    re-renders every ``--interval`` seconds; ``--once`` prints a single
    frame (no escape sequences) and exits — the scriptable form: exit 2
    when a source stopped at a corrupt line or a malformed record, else
    0.  The optional ``--baseline`` journal (gzip-transparent, e.g. a
    canary corpus cell) adds drift rows against its gated metrics.
    """
    import time as _time

    from repro.obs import CampaignAggregator, render_dashboard
    from repro.obs.dashboard import CLEAR, load_baseline_metrics

    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline_metrics(args.baseline)
        except (OSError, ValueError) as error:
            logger.error(
                f"cannot read baseline journal {args.baseline}: {error}"
            )
            return 2
    aggregator = CampaignAggregator(
        args.journal, stale_after=args.stale_after
    )
    while True:
        aggregator.refresh()
        snapshot = aggregator.snapshot()
        frame = render_dashboard(
            snapshot,
            chains=aggregator.chain_diagnostics(),
            baseline=baseline,
            baseline_path=args.baseline,
        )
        # Frames bypass the logging pipeline (like --json surfaces):
        # a dashboard interleaved with log timestamps is unreadable.
        if args.once:
            print(frame, end="")
            broken = any(source["error"] for source in snapshot["sources"])
            return 2 if broken else 0
        print(CLEAR + frame, end="", flush=True)
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import render_table, table1_rows

    logger.info(render_table(table1_rows()))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.analysis import render_table, table2_rows
    from repro.analysis.tables import TABLE2_COLUMNS

    logger.info(render_table(table2_rows(), columns=TABLE2_COLUMNS))
    return 0


def _add_observability_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--journal", metavar="JOURNAL.jsonl",
        help="write a structured JSONL run journal (see 'repro report')",
    )
    subparser.add_argument(
        "--progress", type=_positive_int, default=0, metavar="N",
        help="print a live progress line every N experiments",
    )
    subparser.add_argument(
        "--coverage", action="store_true",
        help="track 4-D workload-space coverage and print the "
             "per-dimension occupancy tables at the end",
    )
    subparser.add_argument(
        "--profile", action="store_true",
        help="time every call of each pipeline layer and print the "
             "self-time table at the end (journaled as schema-v3 "
             "'spans' records; needs --workers 1)",
    )
    subparser.add_argument(
        "--export-metrics", type=_port, default=None, metavar="PORT",
        help="serve the --journal's live rollups over HTTP on "
             "127.0.0.1:PORT (/metrics Prometheus text, /status JSON; "
             "PORT 0 picks an ephemeral port) and journal schema-v7 "
             "heartbeat records; needs --journal",
    )


def _add_resilience_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--retries", type=_non_negative_int, default=None, metavar="N",
        help="retry a failed/hung campaign task up to N times "
             "(turns on fault-tolerant execution with host quarantine)",
    )
    subparser.add_argument(
        "--task-timeout", type=_positive_number, default=None,
        metavar="SECONDS",
        help="per-task wall-clock timeout; an expired task is retried",
    )
    subparser.add_argument(
        "--backoff", type=_non_negative_number, default=None,
        metavar="SECONDS",
        help="base of the deterministic exponential retry backoff "
             "(default 0: account for the schedule without sleeping)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Collie (NSDI 2022) reproduction toolkit",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default="info",
        help="logging threshold (INFO and below go to stdout, "
             "WARNING and above to stderr)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log lines as JSON objects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run Collie on one subsystem")
    search.add_argument("subsystem", choices=list("ABCDEFGH"))
    search.add_argument("--hours", type=_positive_number, default=10.0)
    search.add_argument("--seed", type=_non_negative_int, default=0)
    search.add_argument("--counters", choices=("diag", "perf"),
                        default="diag")
    search.add_argument("--no-mfs", action="store_true",
                        help="plain SA baseline (Figure 5 ablation)")
    search.add_argument("--output", metavar="REPORT.json",
                        help="save the report as JSON (single search only)")
    search.add_argument("--recipes", action="store_true",
                        help="print a vendor reproduction recipe per anomaly "
                             "(single search only)")
    search.add_argument("--seeds", type=_positive_int, default=1,
                        help="run a campaign over this many seeds "
                             "(starting at --seed); without --workers or "
                             "retry flags this runs as one in-process "
                             "lockstep population (same reports)")
    search.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes for multi-seed campaigns")
    search.add_argument("--chains", type=_positive_int, default=1,
                        help="population size: step N SA chains (seeds "
                             "--seed..--seed+N-1) in lockstep in one "
                             "process, each on its own testbed")
    search.add_argument("--tempering", action="store_true",
                        help="parallel tempering: run --chains rungs on a "
                             "geometric temperature ladder with "
                             "deterministic replica exchange")
    search.add_argument("--exchange-every", type=_positive_int, default=25,
                        metavar="N",
                        help="generations between replica-exchange sweeps "
                             "(with --tempering)")
    search.add_argument("--cache", metavar="PATH",
                        help="memoize evaluations in this JSON store")
    search.add_argument("--no-latency", action="store_true",
                        help="disable the tail-latency signal: no latency "
                             "summaries in the journal and no "
                             "latency-inflation verdicts (the same search "
                             "as a pre-latency run)")
    search.add_argument("--victim", metavar="SPEC",
                        help="adversarial-neighbor mode: pin this victim "
                             "workload on the testbed and search the "
                             "attacker that degrades it; SPEC is a preset "
                             "('small-message') or comma-separated "
                             "key=value overrides of it, e.g. "
                             "'num_qps=64,msg_sizes_bytes=512;4096'")
    search.add_argument("--victim-share", type=_share, default=0.5,
                        metavar="FRACTION",
                        help="victim's fair bandwidth share of the "
                             "bottleneck links (default 0.5)")
    _add_observability_flags(search)
    _add_resilience_flags(search)
    search.set_defaults(func=_cmd_search)

    parallel = sub.add_parser("parallel", help="fleet search (§8 extension)")
    parallel.add_argument("subsystem", choices=list("ABCDEFGH"))
    parallel.add_argument("--machines", type=_positive_int, default=3)
    parallel.add_argument("--hours", type=_positive_number, default=10.0)
    parallel.add_argument("--seed", type=_non_negative_int, default=0)
    parallel.add_argument("--workers", type=_positive_int, default=1,
                          help="worker processes for the machine fleet")
    parallel.add_argument("--chains", type=_positive_int, default=1,
                          help="SA chains per machine, stepped in "
                               "lockstep over the machine's counter "
                               "share, each on its own testbed; chain c "
                               "of machine m seeds at "
                               "seed*1000 + m*chains + c")
    parallel.add_argument("--cache", metavar="PATH",
                          help="memoize evaluations in this JSON store")
    parallel.add_argument("--no-latency", action="store_true",
                          help="disable the tail-latency signal on every "
                               "machine of the fleet")
    _add_observability_flags(parallel)
    _add_resilience_flags(parallel)
    parallel.set_defaults(func=_cmd_parallel)

    campaign = sub.add_parser(
        "campaign", help="multi-seed campaign for one approach"
    )
    campaign.add_argument("approach",
                          help="approach name (e.g. collie, random, genetic)")
    campaign.add_argument("--subsystem", choices=list("ABCDEFGH"),
                          default="F")
    campaign.add_argument("--seeds", type=_positive_int, default=3)
    campaign.add_argument("--seed", type=_non_negative_int, default=1,
                          help="first seed of the campaign")
    campaign.add_argument("--hours", type=_positive_number, default=10.0)
    campaign.add_argument("--workers", type=_positive_int, default=1)
    campaign.add_argument("--cache", metavar="PATH",
                          help="memoize evaluations in this JSON store")
    campaign.add_argument("--no-latency", action="store_true",
                          help="disable the tail-latency signal for every "
                               "seed of the campaign")
    campaign.add_argument("--resume", metavar="JOURNAL.jsonl",
                          help="resume an interrupted campaign: replay "
                               "this journal's completed runs and "
                               "recompute only the missing seeds")
    _add_observability_flags(campaign)
    _add_resilience_flags(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    report = sub.add_parser(
        "report",
        help="re-render a run journal written by --journal",
    )
    report.add_argument("journal", metavar="JOURNAL.jsonl", nargs="+",
                        help="JSONL journal(s) from 'search --journal'; "
                             "an unreadable file is reported and the "
                             "rest still render")
    report.add_argument("--counter", metavar="NAME",
                        help="plot/export this counter's trajectory")
    report.add_argument("--trajectory", metavar="OUT.csv",
                        help="export the --counter trajectory as CSV")
    report.add_argument("--json", action="store_true",
                        help="emit the summary, observatory metrics and "
                             "reconstructed runs as machine-readable JSON")
    report.set_defaults(func=_cmd_report)

    coverage = sub.add_parser(
        "coverage",
        help="render workload-space coverage maps from a run journal",
    )
    coverage.add_argument("journal", metavar="JOURNAL.jsonl",
                          help="JSONL journal from 'search --journal'")
    coverage.set_defaults(func=_cmd_coverage)

    profile = sub.add_parser(
        "profile",
        help="render the span self-time profile of a journal "
             "(written by --profile)",
    )
    profile.add_argument("journal", metavar="JOURNAL.jsonl",
                         help="JSONL journal from 'search --journal "
                              "--profile'")
    profile.add_argument("--trace-out", metavar="TRACE.json",
                         help="export Chrome trace-event JSON "
                              "(chrome://tracing / Perfetto)")
    profile.set_defaults(func=_cmd_profile)

    journal = sub.add_parser(
        "journal",
        help="verify a run journal (exit 0 complete, 1 resumable, "
             "2 corrupt)",
    )
    journal_actions = journal.add_subparsers(
        dest="journal_command", required=True
    )
    journal_verify = journal_actions.add_parser(
        "verify",
        help="check schema validity and run completeness of a journal",
    )
    journal_verify.add_argument("journal", metavar="JOURNAL.jsonl",
                                help="JSONL journal to verify")
    journal_verify.set_defaults(func=_cmd_journal)
    journal_diff = journal_actions.add_parser(
        "diff",
        help="diff two journals for search-quality regressions "
             "(exit 0 clean, 1 regression, 2 unreadable)",
    )
    journal_diff.add_argument("baseline", metavar="BASELINE.jsonl",
                              help="known-good baseline journal")
    journal_diff.add_argument("candidate", metavar="CANDIDATE.jsonl",
                              help="candidate journal to gate")
    journal_diff.add_argument(
        "--baseline-tolerance", type=_non_negative_number, default=0.05,
        metavar="FRACTION",
        help="relative tolerance on gated metrics before a worse value "
             "counts as a regression (default 0.05)",
    )
    journal_diff.set_defaults(func=_cmd_journal_diff)

    stats = sub.add_parser(
        "stats", help="print statistics from a saved evaluation cache"
    )
    stats.add_argument("cache", metavar="PATH", nargs="+",
                       help="JSON store(s) written by --cache; an "
                            "unreadable file is reported and the rest "
                            "still print")
    stats.set_defaults(func=_cmd_stats)

    canary = sub.add_parser(
        "canary",
        help="record or check the continuous-canary baseline corpus "
             "(see docs/CANARY.md)",
    )
    canary_actions = canary.add_subparsers(
        dest="canary_command", required=True
    )

    def _add_matrix_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--corpus", default="canary/corpus", metavar="DIR",
            help="baseline corpus directory (default: canary/corpus)",
        )

    canary_record = canary_actions.add_parser(
        "record",
        help="run the campaign matrix and commit it as the baseline "
             "corpus",
    )
    _add_matrix_flags(canary_record)
    canary_record.add_argument(
        "--subsystems", default="ABCDEFGH", metavar="LETTERS",
        help="subsystems to cover, as a string of Table 1 letters "
             "(default: ABCDEFGH)",
    )
    canary_record.add_argument(
        "--seeds", type=_positive_int, default=3, metavar="N",
        help="seed population per subsystem (default: 3)",
    )
    canary_record.add_argument(
        "--seed-base", type=_non_negative_int, default=1, metavar="SEED",
        help="first seed of the population (default: 1)",
    )
    canary_record.add_argument(
        "--hours", type=_positive_number, default=1.0,
        help="simulated budget per cell (default: 1.0)",
    )
    canary_record.add_argument(
        "--counters", choices=("diag", "perf"), default="diag",
    )
    canary_record.set_defaults(func=_cmd_canary_record)

    canary_check_parser = canary_actions.add_parser(
        "check",
        help="re-run the corpus's matrix and gate the populations "
             "(exit 0 clean, 1 drift/violation, 2 corpus unreadable)",
    )
    _add_matrix_flags(canary_check_parser)
    canary_check_parser.add_argument(
        "--fresh-dir", metavar="DIR",
        help="keep the re-run journals here (CI failure artifact); "
             "default: a temporary directory, removed afterwards",
    )
    canary_check_parser.add_argument(
        "--median-tolerance", type=_non_negative_number, default=0.10,
        metavar="FRACTION",
        help="relative per-metric median shift that gates (both "
             "directions; default 0.10)",
    )
    canary_check_parser.add_argument(
        "--spread-factor", type=_positive_number, default=2.0,
        metavar="FACTOR",
        help="allowed inflation of the seed population's IQR "
             "(default 2.0)",
    )
    canary_check_parser.add_argument(
        "--shape-tolerance", type=_non_negative_number, default=0.25,
        metavar="FRACTION",
        help="total-variation distance allowed between MFS shape "
             "multisets (default 0.25)",
    )
    canary_check_parser.add_argument(
        "--attempts", type=_positive_int, default=3, metavar="N",
        help="reproduction attempts per corpus MFS in the invariant "
             "pass (default 3)",
    )
    canary_check_parser.add_argument(
        "--skip-invariants", action="store_true",
        help="drift gate only (skip the per-MFS reproduction pass)",
    )
    canary_check_parser.add_argument(
        "--verbose", action="store_true",
        help="log per-cell progress while re-running the matrix",
    )
    canary_check_parser.set_defaults(func=_cmd_canary_check)

    isolation = sub.add_parser(
        "isolation",
        help="adversarial-neighbor catalog: per-subsystem co-run "
             "searches against a pinned victim, every minimized "
             "attacker verified by replay (exit 1 when a subsystem "
             "yields no reproduced isolation anomaly)",
    )
    isolation.add_argument(
        "--subsystems", default="ABCDEFGH", metavar="LETTERS",
        help="subsystems to catalog, as a string of Table 1 letters "
             "(default: ABCDEFGH)",
    )
    isolation.add_argument("--hours", type=_positive_number, default=0.3,
                           help="simulated budget per subsystem "
                                "(default 0.3)")
    isolation.add_argument("--seed", type=_non_negative_int, default=3)
    isolation.add_argument("--victim", metavar="SPEC",
                           help="victim workload (same SPEC as "
                                "'search --victim'; default: the "
                                "small-message preset)")
    isolation.add_argument("--victim-share", type=_share, default=0.5,
                           metavar="FRACTION",
                           help="victim's fair bandwidth share "
                                "(default 0.5)")
    isolation.add_argument("--journal", metavar="JOURNAL.jsonl",
                           help="write every subsystem's co-run search "
                                "into one JSONL flight-recorder journal")
    isolation.set_defaults(func=_cmd_isolation)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over one or more run journals",
        description="Follow actively-written journals and render a "
                    "live telemetry dashboard: progress, per-worker "
                    "heartbeat liveness, per-chain SA rows, the anomaly "
                    "timeline tail, and drift vs an optional baseline.",
    )
    top.add_argument("journal", metavar="JOURNAL.jsonl", nargs="+",
                     help="journal file(s) to follow (may not exist yet)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no ANSI clears); "
                          "exit 2 if a journal has a corrupt line or a "
                          "malformed record")
    top.add_argument("--interval", type=_positive_number, default=2.0,
                     metavar="SECONDS",
                     help="refresh period of the live loop (default 2)")
    top.add_argument("--baseline", metavar="BASELINE.jsonl",
                     help="journal (or .jsonl.gz corpus cell) whose "
                          "gated metrics the drift rows compare against")
    top.add_argument("--stale-after", type=_positive_number, default=30.0,
                     metavar="SECONDS",
                     help="heartbeat age beyond which a worker is "
                          "reported STALE (default 30)")
    top.set_defaults(func=_cmd_top)

    replay = sub.add_parser(
        "replay", help="replay the 18 Appendix A trigger settings"
    )
    replay.add_argument("--seed", type=_non_negative_int, default=0)
    replay.set_defaults(func=_cmd_replay)

    diagnose = sub.add_parser(
        "diagnose",
        help="match a workload JSON against a saved report's MFS set",
    )
    diagnose.add_argument("report", help="JSON report from 'search --output'")
    diagnose.add_argument("workload", help="workload JSON file")
    diagnose.set_defaults(func=_cmd_diagnose)

    sub.add_parser("table1", help="print Table 1").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("table2", help="print Table 2").set_defaults(
        func=_cmd_table2
    )
    return parser


#: Exit code after the reader closed stdout: 128 + SIGPIPE, as a shell
#: reports it.
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.obs.logging import setup_logging

    args = build_parser().parse_args(argv)
    setup_logging(level=args.log_level, json_format=args.log_json)
    if getattr(args, "profile", False) and args.workers > 1:
        logger.error("--profile times this process only, and worker "
                     "processes record no spans: use --workers 1")
        return 2
    if getattr(args, "export_metrics", None) is not None and not args.journal:
        logger.error("--export-metrics serves the folds of the run's "
                     "journal: add --journal")
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout: stop quietly, and let the exit-time
        # flush write to /dev/null instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    finally:
        # --profile's wrappers never outlive the command, even one that
        # raised before closing its recorder.
        if getattr(args, "profiler", None) is not None:
            args.profiler.uninstall()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
