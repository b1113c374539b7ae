"""End-to-end benchmark of the Collie pipeline: one command, four workloads.

    python3 perfbench/run.py --workload solo --seed 1 --seconds 20 --trace 0

A run first makes its reference outputs (or, for ``follow``, its input
journal), then repeats the workload -- each repetition one fresh child
interpreter (``child.py``) -- until ``--seconds`` have passed, checks
every output, and prints a report ending in one JSON line:
``correct``, ``attempted``, ``failed`` and the metrics, end-to-end ones
with ``--trace 0`` and per-layer ones with ``--trace 1``.  README.md
defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import tracer  # noqa: E402
from tracer import LAYERS, STARTUP  # noqa: E402

WORKLOADS = ("solo", "persisted", "population", "follow")
DEFAULT_SEED = 1
#: Held back from tuning: confirms a claimed gain on unseen inputs.
HELDOUT_SEED = 101
#: The paper's search budget, in simulated hours.
HOURS = 10.0
#: Digests of the solo searches at the default and held-out seeds.
DIGESTS = HERE / "digests.json"
#: A child still running after this many seconds is killed.
CHILD_TIMEOUT = 150.0
#: The host probe reading (s) that end-to-end times are scaled to: about
#: what ``child.probe_loop`` takes on an unloaded 2.1 GHz Xeon core.
PROBE_NOMINAL = 40e-6

#: ``(name, unit)`` of the end-to-end metrics, printed for every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("experiments_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LAYER_NAMES = (STARTUP, *LAYERS)
#: ``(name, unit)`` of the per-layer metrics beyond ``.calls``/``.self_s``.
LAYER_EXTRAS = (
    ("startup.import_s", "s"),
    ("startup.modules", "count"),
    ("model.points", "count"),
    ("batcheval.points_per_call", "points/call"),
    ("batcheval.unique_ratio", "ratio"),
    ("evalcache.hit_ratio", "ratio"),
    ("mfs.probe_share", "ratio"),
    ("workload.ppm_calls_per_experiment", "calls/experiment"),
    ("population.generations", "count"),
    ("journal.records", "count"),
    ("journal.bytes_per_experiment", "B/experiment"),
    ("aggregate.retained_records", "count"),
    ("tracing.overhead", "ratio"),
    ("tracing.unattributed_share", "ratio"),
)
#: Per-layer metrics that are host-time readings; every other one is a
#: count that must repeat exactly across traced repetitions.
TIMED = {
    *(f"{name}.self_s" for name in LAYER_NAMES),
    "startup.import_s", "tracing.overhead", "tracing.unattributed_share",
}


def per_layer_specs() -> list:
    """``(name, unit)`` of every per-layer metric, in print order."""
    specs = []
    for name in LAYER_NAMES:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return specs + list(LAYER_EXTRAS)


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above their ``q`` quantile.

    A percentile is worth reporting when at least ten samples lie
    beyond it: p90 needs 92 or more.
    """
    return n - 1 - math.floor(q * (n - 1))


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


# -- children -------------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    """One finished child: host timings plus what it reported."""

    wall: float  #: s, launch to exit.
    setup: float  #: s, launch to the first experiment (refresh).
    rss_mb: float  #: peak resident set.
    #: :data:`PROBE_NOMINAL` over the child's mean probe reading: times
    #: the repetition's host times by it to get them at nominal speed.
    scale: float
    result: dict


class Runner:
    """Launches the children of one benchmark run inside ``work``."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.launched = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # Fixed string hashing: set and dict layouts, and so their
        # timings, repeat from one repetition to the next.
        self.env["PYTHONHASHSEED"] = "0"

    def rep_dir(self) -> Path:
        self.launched += 1
        path = self.work / f"rep-{self.launched:03d}"
        path.mkdir()
        return path

    def child(
        self, workload: str, trace: bool = False,
        input_path: Optional[Path] = None,
    ) -> tuple:
        """Run one repetition; ``(rep or None if it failed, its dir)``."""
        work = self.rep_dir()
        result_path = work / "result.json"
        command = [
            sys.executable, str(HERE / "child.py"), workload,
            str(self.args.seed), str(HOURS), str(work), str(result_path),
        ]
        if input_path is not None:
            command += ["--input", str(input_path)]
        if trace:
            command += ["--trace", str(work / "spans.json")]
        with open(work / "child.log", "w") as log:
            launch = time.monotonic()
            proc = subprocess.Popen(
                command + ["--launch", repr(launch)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (work / "child.log").read_text().splitlines()[-12:]
            print(
                f"perfbench: {workload} child exited {proc.returncode}",
                *tail, sep="\n  ", file=sys.stderr,
            )
            return None, work
        result = json.loads(result_path.read_text())
        return Rep(
            wall=exited - launch,
            setup=result["first"] - launch,
            rss_mb=usage.ru_maxrss / 1024.0,
            scale=PROBE_NOMINAL / result["probe_s"],
            result=result,
        ), work

    def repro(self, *argv: str) -> subprocess.CompletedProcess:
        """``python -m repro ARGV`` with the checkout's sources."""
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )


# -- output checks ---------------------------------------------------------------


def recorded_digests(seed: int) -> dict:
    """Digests recorded with the benchmark for this seed (else empty)."""
    if not DIGESTS.is_file():
        return {}
    data = json.loads(DIGESTS.read_text())
    if data["hours"] != HOURS:
        return {}
    return data["seeds"].get(str(seed), {})


def journal_digests(runner: Runner, work: Path) -> dict:
    """Digests of the persisted searches rebuilt from their journals by
    ``repro report --json`` (journaled == bare)."""
    keys = [
        key for key, _ in child.search_commands(
            "persisted", runner.args.seed, HOURS, str(work)
        )
    ]
    paths = [child.journal_path(str(work), *key.split("/")) for key in keys]
    proc = runner.repro("report", "--json", *paths)
    if proc.returncode != 0:
        return {}
    payloads = json.loads(proc.stdout)
    return {
        key: checks.digest(payload["runs"][0])
        for key, payload in zip(keys, payloads)
    }


def check_searches(rep, expected, recorded, journaled=None) -> tuple:
    """``(attempted, failed)`` for one search repetition."""
    if rep is None:
        return len(expected), len(expected)
    bad = checks.failed_searches(expected, rep.result["digests"], recorded)
    if journaled is not None:
        bad |= checks.failed_searches(expected, journaled, {})
    return len(expected), len(bad)


def check_follow(rep, recorded) -> tuple:
    """``(attempted, failed)`` for one follow repetition.

    Its operations are the refreshes plus ``report`` and ``journal
    diff``; the last refresh also fails when the live view disagrees
    with the post-hoc metrics of the finished journal.
    """
    if rep is None:
        return child.FOLLOW_CHUNKS + 2, child.FOLLOW_CHUNKS + 2
    result = rep.result
    failed = result["bad_refreshes"]
    failed += bool(checks.follow_mismatches(result["live"], result["posthoc"]))
    followed = {k: v for k, v in recorded.items() if k.startswith("F/")}
    failed += result["report_code"] != 0 or bool(
        checks.failed_searches(followed, result["digests"], {})
    )
    failed += result["diff_code"] != 0
    return len(result["ops"]) + 2, failed


# -- metrics ---------------------------------------------------------------------


def end_to_end(reps) -> tuple:
    """Metric values plus the per-repetition samples behind them.

    Every time is scaled to the nominal host speed by its repetition's
    probe (:attr:`Rep.scale`).  ``wall_s`` is the mean over the
    repetitions and ``experiments_per_s`` total experiments over total
    time after set-up: over the 3 to 6 repetitions of a run the mean was
    steadier than the median or the minimum (README.md, *Noise and
    bounds*).  ``setup_s`` and ``peak_rss_mb`` are medians.
    """
    samples = {
        "setup_s": [r.setup * r.scale for r in reps],
        "wall_s": [r.wall * r.scale for r in reps],
        "experiments_per_s": [
            r.result["experiments"] / ((r.wall - r.setup) * r.scale)
            for r in reps
        ],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": statistics.fmean(samples["wall_s"]),
        "experiments_per_s": rate(reps, "experiments"),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return values, samples


def rate(reps, key: str) -> float:
    """Total ``key`` over total scaled time after set-up, per second."""
    return sum(r.result[key] for r in reps) / sum(
        (r.wall - r.setup) * r.scale for r in reps
    )


def layer_values(trace: dict) -> dict:
    """Every per-layer metric of one traced repetition but the overhead."""
    layers, counts = trace["layers"], trace["counts"]
    experiments = layers["testbed"]["calls"]

    def share(part, whole):
        return part / whole if whole else 0.0

    values = {}
    for name in LAYER_NAMES:
        values[f"{name}.calls"] = layers[name]["calls"]
        values[f"{name}.self_s"] = layers[name]["self_s"]
    values.update({
        "startup.import_s": counts["startup.import_s"],
        "startup.modules": counts["startup.modules"],
        "model.points": counts.get("model.points", 0),
        "batcheval.points_per_call": share(
            counts.get("batcheval.points", 0),
            counts.get("batcheval.solve_calls", 0),
        ),
        "batcheval.unique_ratio": share(
            counts.get("batcheval.unique", 0), counts.get("batcheval.points", 0)
        ),
        "evalcache.hit_ratio": share(
            counts.get("evalcache.hits", 0), counts.get("evalcache.lookups", 0)
        ),
        "mfs.probe_share": share(counts.get("mfs.probes", 0), experiments),
        "workload.ppm_calls_per_experiment": share(
            layers["workload"]["calls"], experiments
        ),
        "population.generations": counts.get("population.generations", 0),
        "journal.records": counts.get("journal.records", 0),
        "journal.bytes_per_experiment": share(
            counts.get("journal.bytes", 0), experiments
        ),
        "aggregate.retained_records": counts.get(
            "aggregate.retained_records", 0
        ),
        "tracing.unattributed_share": share(
            layers["root"]["self_s"], trace["root_s"]
        ),
    })
    return values


def span_problems(path: Path, layers: dict) -> list:
    """What is wrong with one traced repetition's spans.

    The tracer keeps running self times per layer; here they are
    recomputed from the dumped span list.  A span outside its parent's
    interval, or a layer whose two self times differ, means the tracer
    mis-parented or overlapped spans.  Durations are exact differences
    of clock readings, so the two sums differ only by rounding.
    """
    spans = json.loads(path.read_text())
    names, parents = spans["names"], spans["parent"]
    starts, ends = spans["start"], spans["end"]
    problems = [
        f"a {names[spans['name'][sid]]} span lies outside its parent"
        for sid, parent in enumerate(parents)
        if parent >= 0
        and not starts[parent] <= starts[sid] <= ends[sid] <= ends[parent]
    ][:3]
    totals = dict.fromkeys(names, 0.0)
    for lid, value in zip(
        spans["name"], tracer.self_times(parents, starts, ends)
    ):
        totals[names[lid]] += value
    for name, total in totals.items():
        running = layers[name]["self_s"]
        if not math.isclose(total, running, rel_tol=1e-9, abs_tol=1e-7):
            problems.append(
                f"{name} self time is {running:.6f} s running, "
                f"{total:.6f} s from its spans"
            )
    return problems


def per_layer(traced, untraced) -> tuple:
    """``(metrics, problems)`` of a traced run.

    Host times are medians over the traced repetitions; counts must
    repeat exactly.
    """
    problems = []
    per_rep = [layer_values(rep.result["trace"]) for rep in traced]
    metrics = {}
    for name, _unit in per_layer_specs():
        if name == "tracing.overhead":
            metrics[name] = (
                statistics.fmean(r.wall * r.scale for r in traced)
                / statistics.fmean(r.wall * r.scale for r in untraced) - 1.0
            )
            continue
        values = [rep[name] for rep in per_rep]
        if name in TIMED:
            metrics[name] = statistics.median(values)
        else:
            if any(value != values[0] for value in values):
                problems.append(f"{name} differs across repeats: {values}")
            metrics[name] = values[0]
    return metrics, problems


# -- the run ---------------------------------------------------------------------


def prepare(runner: Runner) -> tuple:
    """``(reference rep, follow input)`` made before any timing.

    ``solo`` is checked against one population repetition and
    ``persisted`` and ``population`` against one solo repetition, run
    here by the code under measurement; ``follow`` reads a chain journal
    generated from the seed.  Either also warms the page and bytecode
    caches.
    """
    args = runner.args
    if args.workload == "follow":
        journal = runner.work / "input.jsonl"
        proc = runner.repro(
            "search", "F", "--seed", str(args.seed),
            "--chains", str(child.CHAINS), "--hours", str(HOURS),
            "--journal", str(journal),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"generating the follow input failed:\n{proc.stderr}")
        return None, journal
    other = "population" if args.workload == "solo" else "solo"
    rep, work = runner.child(other)
    shutil.rmtree(work)
    if rep is None:
        raise RuntimeError(f"the {other} reference repetition failed")
    return rep, None


def measure(runner: Runner) -> dict:
    args = runner.args
    recorded = recorded_digests(args.seed)
    reference, input_path = prepare(runner)
    expected = reference.result["digests"] if reference is not None else {}
    untraced, traced, problems = [], [], []
    attempted = failed = 0
    started = time.monotonic()
    deadline = started + args.seconds
    # A traced run needs one untraced repetition (for the overhead) and
    # two traced ones (for the repeat check on the counts).
    plan = itertools.cycle((False, True, True) if args.trace else (False,))
    # The first persisted repetition is checked after timing: rebuilding
    # its journals takes seconds.
    journaled = None
    for trace in plan:
        rep, work = runner.child(args.workload, trace, input_path)
        if rep is not None:
            (traced if trace else untraced).append(rep)
            if trace:
                spans = work / "spans.json"
                problems += span_problems(spans, rep.result["trace"]["layers"])
                keep = ROOT / ".perfbench" / "traces"
                keep.mkdir(parents=True, exist_ok=True)
                shutil.move(
                    str(spans),
                    str(keep / f"{args.workload}-seed{args.seed}.json"),
                )
        if args.workload == "persisted" and journaled is None:
            journaled = (rep, work)
        else:
            counted = (
                check_follow(rep, recorded) if args.workload == "follow"
                else check_searches(rep, expected, recorded)
            )
            attempted += counted[0]
            failed += counted[1]
            shutil.rmtree(work)
        enough = untraced and (not args.trace or len(traced) >= 2)
        if time.monotonic() >= deadline and (enough or failed):
            break
    if journaled is not None:
        rep, work = journaled
        counted = check_searches(
            rep, expected, recorded, journal_digests(runner, work)
        )
        attempted += counted[0]
        failed += counted[1]
        shutil.rmtree(work)
    if not untraced or (args.trace and not traced):
        raise RuntimeError("no repetition finished")
    elapsed = time.monotonic() - started
    print(
        f"perfbench {args.workload}: seed {args.seed}, {HOURS:g} "
        f"simulated hours, {len(untraced)} untraced + {len(traced)} traced "
        f"repetitions in {elapsed:.1f} s"
    )
    if args.trace:
        metrics, repeat_problems = per_layer(traced, untraced)
        problems += repeat_problems
        units = per_layer_specs()
        report_layers(metrics)
    else:
        metrics, samples = end_to_end(untraced)
        units = END_TO_END
        report_end_to_end(metrics, samples, untraced, reference, args)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(f"  operations: {attempted} attempted, {failed} failed")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units
        },
    }


# -- printing --------------------------------------------------------------------


def report_end_to_end(metrics, samples, reps, reference, args) -> None:
    for name, unit in END_TO_END:
        low, high = quartiles(samples[name])
        print(f"  {name:<18} {metrics[name]:>12.4f} {unit:<4} "
              f"over {len(reps)} repetitions, quartiles {low:.4g}..{high:.4g}")
    probes = [r.result["probe_s"] * 1e6 for r in reps]
    print(f"  host probe: {min(probes):.1f}..{max(probes):.1f} us per reading "
          f"(nominal {PROBE_NOMINAL * 1e6:g}); unscaled mean wall "
          f"{statistics.fmean(r.wall for r in reps):.4f} s")
    # Operation latency is shown, not gated: its ten-run spread on a
    # shared host (refreshes up to 0.5) exceeds any allowed bound.
    ops = [ms * r.scale for r in reps for ms in r.result["ops"]]
    for q in (0.5, 0.9):
        print(f"  op_ms_p{round(q * 100):<9} {percentile(ops, q):>12.4f} ms   "
              f"{samples_beyond(len(ops), q)} of {len(ops)} operations "
              f"beyond it")
    if args.workload == "follow":
        print(f"  {'records_per_s':<18} {rate(reps, 'records'):>12.1f} 1/s  "
              f"(input journal records / (wall_s - setup_s))")
    if reference is None:
        return
    # The ROADMAP targets, each with both bases: this run's repetitions,
    # and the other workload's reference repetition made before timing.
    other = "population" if args.workload == "solo" else "solo"
    name = "wall_s" if args.workload == "persisted" else "experiments_per_s"
    base = end_to_end([reference])[0][name]
    ours = f"{args.workload} {metrics[name]:.4g} ({len(reps)} repetitions)"
    theirs = f"{other} {base:.4g} (1 reference repetition)"
    top, bottom = (theirs, ours) if args.workload == "solo" else (ours, theirs)
    ratio = (
        base / metrics[name] if args.workload == "solo"
        else metrics[name] / base
    )
    print(f"  ratio {name}: {top} / {bottom} = {ratio:.3f}")


def report_layers(metrics) -> None:
    root = sum(metrics[f"{name}.self_s"] for name in LAYER_NAMES) / max(
        1e-12, 1.0 - metrics["tracing.unattributed_share"]
    )
    print(f"  {'layer':<12} {'calls':>10} {'self s':>9} {'share':>7}")
    for name in sorted(LAYER_NAMES, key=lambda n: -metrics[f"{n}.self_s"]):
        self_s = metrics[f"{name}.self_s"]
        print(f"  {name:<12} {metrics[f'{name}.calls']:>10} "
              f"{self_s:>9.4f} {self_s / root:>7.1%}")
    for name, unit in LAYER_EXTRAS:
        print(f"  {name:<34} {metrics[name]:>12.4f} {unit}")


# -- entry point -------------------------------------------------------------------


def record(runner: Runner) -> None:
    """Store the solo digests of the default and held-out seeds in
    :data:`DIGESTS` (after a change that alters results on purpose)."""
    data = {"hours": HOURS, "seeds": {}}
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        runner.args.seed = seed
        rep, work = runner.child("solo")
        shutil.rmtree(work)
        if rep is None:
            raise RuntimeError(f"the solo repetition at seed {seed} failed")
        data["seeds"][str(seed)] = dict(sorted(rep.result["digests"].items()))
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded the digests of seeds {DEFAULT_SEED} and "
          f"{HELDOUT_SEED} in {DIGESTS}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Collie pipeline."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep repeating the workload this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of traced runs")
    parser.add_argument("--record", action="store_true",
                        help="re-record digests.json instead of measuring")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args, work)
    try:
        if args.record:
            record(runner)
            return 0
        result = measure(runner)
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
