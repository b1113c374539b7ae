"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED HOURS WORK RESULT
        --launch T [--input JOURNAL] [--trace SPANS]

The child drives the program from outside, as a user would: every
search is one ``repro.cli.main`` call, and ``follow`` appends a finished
journal to a fresh file chunk by chunk, computing after each chunk what
one ``repro top`` frame plus one ``/metrics`` body compute.  RESULT
(JSON) gets ``time.monotonic()`` stamps, comparable with the parent's
launch stamp T, the host probe's harmonic mean reading, and the
digests and counts the parent checks.  With ``--trace`` every layer call is a span
(``tracer.py``); the spans are written to SPANS.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import signal
import statistics
import sys
import time

#: Subsystem F only: the paper's headline campaign, and the one the
#: ROADMAP baselines are stated for.  Adding H doubles a repetition,
#: which halves the repetitions a run fits and widens the run-to-run
#: spread on a shared host beyond the bounds.
SUBSYSTEMS = ("F",)
#: Seeds per subsystem in ``solo``/``persisted``; chains in ``population``.
CHAINS = 8
#: ``follow`` appends its input in this many equal chunks, one refresh
#: each, so a single repetition has ten refreshes beyond p90.
FOLLOW_CHUNKS = 128
#: Seconds between two host probe readings.
PROBE_PERIOD = 0.02


def probe_loop() -> None:
    """The fixed work a host probe reading times (about 40 us)."""
    total, table = 0, {}
    for i in range(400):
        total += i * i
        table[i & 63] = total


class HostProbe:
    """Times :func:`probe_loop` every :data:`PROBE_PERIOD` seconds.

    A shared host runs the same code up to 1.5 times slower for seconds
    or minutes at a time.  The readings, taken from a timer signal in
    the child's own thread, interleave with the workload and see the
    same slow-downs, so the parent can scale each repetition's times to
    a nominal host speed.  They cost about 0.25 % of the child's time.
    """

    def __init__(self) -> None:
        self.readings: list = []
        signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)

    def _read(self, signum, frame) -> None:
        started = time.perf_counter()
        probe_loop()
        self.readings.append(time.perf_counter() - started)

    def stop(self) -> float:
        """Stop probing; the harmonic mean reading, in seconds.

        Readings come at equal intervals of host time and the work an
        interval holds is inversely proportional to its reading, so the
        harmonic mean is the one that converts time into work (and a
        reading stretched by an interrupt barely moves it).
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return statistics.harmonic_mean(self.readings)


def search_commands(workload: str, seed: int, hours: float, work: str):
    """``(key, argv)`` of every CLI call a search workload makes, in order.

    A solo or persisted search is keyed ``F/3`` (subsystem F, seed 3).
    A population call is keyed by its subsystem; its chain ``c`` is
    keyed like the solo search at ``seed + c`` (the identity contract).
    """
    budget = ("--hours", str(hours))
    if workload == "population":
        return [
            (sub, ["search", sub, "--seed", str(seed),
                   "--chains", str(CHAINS), *budget])
            for sub in SUBSYSTEMS
        ]
    commands = []
    for sub in SUBSYSTEMS:
        for k in range(seed, seed + CHAINS):
            argv = ["search", sub, "--seed", str(k), *budget]
            if workload == "persisted":
                argv += [
                    "--journal", journal_path(work, sub, k),
                    "--cache", os.path.join(work, f"cache-{sub}-{k}.json"),
                ]
            commands.append((f"{sub}/{k}", argv))
    return commands


def journal_path(work: str, subsystem: str, seed) -> str:
    return os.path.join(work, f"journal-{subsystem}-{seed}.jsonl")


class FirstCall:
    """Stamps the first call to any of ``targets``, then unhooks them."""

    def __init__(self, targets) -> None:
        self.at = None
        self._saved = [
            (owner, name, getattr(owner, name)) for owner, name in targets
        ]
        for owner, name, original in self._saved:
            setattr(owner, name, self._hook(original))

    def _hook(self, original):
        def hooked(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
                for owner, name, saved in self._saved:
                    setattr(owner, name, saved)
            return original(*args, **kwargs)

        return hooked


def capture_reports(cls, sink: list) -> None:
    """Append every report ``cls.run`` returns to ``sink``."""
    run = cls.run

    def capturing(self):
        report = run(self)
        sink.append(report)
        return report

    cls.run = capturing


def run_searches(opts, tracer) -> dict:
    import checks
    from repro import cli
    from repro.analysis.serialize import report_to_dict
    from repro.cluster.testbed import Testbed
    from repro.core.batcheval import BatchEvaluator
    from repro.core.collie import Collie
    from repro.core.population import PopulationCollie

    reports: list = []
    capture_reports(Collie, reports)
    capture_reports(PopulationCollie, reports)
    first = FirstCall([(Testbed, "run"), (BatchEvaluator, "evaluate_each")])
    ops, digests, experiments = [], {}, 0
    for key, argv in search_commands(
        opts.workload, opts.seed, opts.hours, opts.work
    ):
        started = time.monotonic()
        code = cli.main(argv)
        ms = (time.monotonic() - started) * 1e3
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        for report in reports:
            chains = getattr(report, "reports", None)
            named = (
                [(key, report)] if chains is None
                else [(f"{key}/{opts.seed + c}", r)
                      for c, r in enumerate(chains)]
            )
            for name, search in named:
                digests[name] = checks.digest(report_to_dict(search))
                experiments += search.experiments
                # A chain's result arrives when its lockstep search ends.
                ops.append(ms)
        reports.clear()
    return {
        "first": first.at, "ops": ops, "digests": digests,
        "experiments": experiments,
    }


def journal_bytes(path: str) -> int:
    """Bytes of a journal's records, less ``run_end`` (whose metrics
    snapshot holds wall-clock timers, so its length varies run to run)."""
    with open(path, "rb") as handle:
        return sum(
            len(line) for line in handle if b'"t":"run_end"' not in line
        )


def run_follow(opts, tracer) -> dict:
    import checks
    from repro import cli
    from repro.obs import (
        CampaignAggregator,
        render_dashboard,
        render_prometheus,
    )

    with open(opts.input, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    size = -(-len(lines) // FOLLOW_CHUNKS)
    path = os.path.join(opts.work, "follow.jsonl")
    aggregator = CampaignAggregator([path])
    first = None
    ops, bad_refreshes, appended = [], 0, 0
    with open(path, "wb") as sink:
        for offset in range(0, len(lines), size):
            chunk = lines[offset:offset + size]
            sink.write(b"".join(chunk))
            sink.flush()
            appended += len(chunk)
            if tracer is not None:
                tracer.experiment += 1
            started = time.monotonic()
            first = first or started
            # One `repro top` frame, then one `/metrics` body.
            aggregator.refresh()
            snapshot = aggregator.snapshot()
            render_dashboard(snapshot, chains=aggregator.chain_diagnostics())
            aggregator.refresh()
            render_prometheus({}, aggregator.snapshot())
            ops.append((time.monotonic() - started) * 1e3)
            bad_refreshes += snapshot["totals"]["records"] != appended
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report_code = cli.main(["report", "--json", path])
    payload = json.loads(buffer.getvalue())
    diff_code = cli.main(["journal", "diff", opts.input, path])
    live = snapshot["sources"][0]
    if tracer is not None:
        tracer.count("aggregate.retained_records", sum(
            len(source.records) for source in aggregator.sources
        ))
    return {
        "first": first,
        "ops": ops,
        "bad_refreshes": bad_refreshes,
        "experiments": snapshot["totals"]["experiments"],
        "records": snapshot["totals"]["records"],
        "live": {key: live[key] for key in checks.FOLLOW_FIELDS},
        "posthoc": {
            key: payload["metrics"][key] for key in checks.FOLLOW_FIELDS
        },
        "report_code": report_code,
        "diff_code": diff_code,
        "digests": {
            f"F/{opts.seed + chain}": checks.digest(run)
            for chain, run in enumerate(payload["runs"])
        },
    }


def count_hooks(tracer) -> dict:
    """``attribute -> (before, after)`` hooks counting deterministic work."""
    from repro.core.evalcache import canonical_point

    def experiment(args, kwargs):
        tracer.experiment += 1
        phase = kwargs.get("phase", args[3] if len(args) > 3 else "search")
        if phase == "mfs":
            tracer.count("mfs.probes")

    def solve_points(args, kwargs):
        workloads = args[1]
        tracer.count("batcheval.solve_calls")
        tracer.count("batcheval.points", len(workloads))
        tracer.count(
            "batcheval.unique", len({canonical_point(w) for w in workloads})
        )

    def lookup(args, kwargs, solve):
        tracer.count("evalcache.lookups")
        tracer.count("evalcache.hits", solve is not None)

    def get_many(args, kwargs, solves):
        tracer.count("evalcache.lookups", len(solves))
        tracer.count("evalcache.hits", sum(s is not None for s in solves))

    return {
        "Testbed.run": (experiment, None),
        "SteadyStateModel.evaluate": (
            None, lambda args, kwargs, result: tracer.count("model.points")
        ),
        "solve_batch": (
            None,
            lambda args, kwargs, result: tracer.count(
                "model.points", len(result)
            ),
        ),
        "BatchEvaluator.solve_many": (solve_points, None),
        "BatchEvaluator.presolve": (solve_points, None),
        "EvalCache.lookup": (None, lookup),
        "EvalCache.get_many": (None, get_many),
        "RunJournal.write": (
            lambda args, kwargs: tracer.count("journal.records"), None
        ),
        "PopulationCollie.run": (
            None,
            lambda args, kwargs, report: tracer.count(
                "population.generations", report.generations
            ),
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workload", choices=("solo", "persisted", "population", "follow")
    )
    parser.add_argument("seed", type=int)
    parser.add_argument("hours", type=float)
    parser.add_argument("work")
    parser.add_argument("result")
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--input")
    parser.add_argument("--trace")
    opts = parser.parse_args(argv)

    probe = HostProbe()
    tracer = None
    if opts.trace:
        from tracer import LAYERS, STARTUP, Tracer

        tracer = Tracer(origin=opts.launch)
    imports_started = time.monotonic()
    import repro.cli  # noqa: F401  (the program's entry point)

    if tracer is not None:
        # Wrapping needs every layer's module loaded, so the traced
        # start-up imports them all, not only the first command's.
        for module in sorted({m for calls in LAYERS.values() for m, _ in calls}):
            importlib.import_module(module)
        imported = time.monotonic()
        tracer.add_span(STARTUP, opts.launch, imported)
        tracer.count("startup.import_s", imported - imports_started)
        tracer.count("startup.modules", len(sys.modules))
        tracer.install(count_hooks(tracer))

    work = run_follow if opts.workload == "follow" else run_searches
    result = work(opts, tracer)
    if tracer is not None:
        tracer.finish(time.monotonic())
        if opts.workload == "persisted":
            tracer.count("journal.bytes", sum(
                journal_bytes(journal_path(opts.work, *key.split("/")))
                for key, _ in search_commands(
                    opts.workload, opts.seed, opts.hours, opts.work
                )
            ))
        result["trace"] = {
            "layers": tracer.layer_stats(),
            "counts": tracer.counts,
            "root_s": tracer.end[0] - tracer.start[0],
        }
        tracer.dump(opts.trace)
    result["probe_s"] = probe.stop()
    with open(opts.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
