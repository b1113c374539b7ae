"""Layer span profiler: where a search's wall-clock went, by layer.

A :class:`SpanProfiler` times the pipeline from outside.  ``install()``
wraps every public call :data:`LAYERS` names, in place; each call then
appends one ``(path, start, duration)`` event, where ``path`` joins the
layers of the calls enclosing it (``annealing/testbed/model``) and
``start`` is relative to the profiler's origin.  ``uninstall()`` puts
every original back.  The search code holds no profiler: spans use
``time.perf_counter`` only — never the simulated clock, never the RNG —
so a profiled search is bit-identical to an unprofiled one, and a run
that does not install one pays nothing.

The recorded events render three ways:

* :func:`render_span_table` — a terminal self-time table whose self
  seconds telescope to exactly the measured root wall-clock;
* :func:`chrome_trace` — Chrome trace-event JSON for chrome://tracing
  or Perfetto (:func:`validate_chrome_trace` schema-checks it);
* :func:`spans_records` — schema-v3 ``spans`` journal records, from
  which the :class:`~repro.obs.folds.Spans` fold round-trips the
  event list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: Path separator between nested span names.
SEP = "/"

#: Events per journaled ``spans`` record (keeps lines bounded).
SPANS_CHUNK = 512

#: layer -> the ``(module, attribute)`` public calls timed as its spans:
#: the search-side layers of ``perfbench/tracer.py``, under its names,
#: and the fan-out.  Every caller of these runs on the command's own
#: thread (the telemetry server's thread calls none of them).
LAYERS: dict = {
    "space": (
        ("repro.core.space", "SearchSpace.random"),
        ("repro.core.space", "SearchSpace.mutate"),
    ),
    "features": (("repro.hardware.features", "extract_features"),),
    "rules": (("repro.hardware.rules", "fired_rules"),),
    "model": (("repro.hardware.model", "SteadyStateModel.evaluate"),),
    "latency": (("repro.hardware.model", "latency_for_solve"),),
    "counters": (
        ("repro.hardware.counters", "VendorMonitor.sample_window"),
        ("repro.hardware.counters", "average_counters"),
    ),
    "evalcache": tuple(
        ("repro.core.evalcache", f"EvalCache.{name}")
        for name in ("lookup", "store", "save")
    ),
    "monitor": (
        ("repro.core.monitor", "AnomalyMonitor.classify"),
        ("repro.core.monitor", "IsolationMonitor.classify"),
    ),
    "testbed": (("repro.cluster.testbed", "Testbed.run"),),
    "mfs": (
        ("repro.core.mfs", "match_any"),
        ("repro.core.mfs", "MFSExtractor.construct_steps"),
    ),
    "annealing": (
        ("repro.core.collie", "Collie.run"),
        ("repro.core.population", "PopulationCollie.run"),
    ),
    "executor": (("repro.core.executor", "CampaignExecutor.map"),),
    "recorder": tuple(
        ("repro.obs.recorder", f"FlightRecorder.{name}")
        for name in ("experiment", "transition", "skip", "anomaly",
                     "run_end")
    ),
    "journal": (
        ("repro.obs.journal", "RunJournal.write"),
        ("repro.obs.journal", "experiment_record"),
        ("repro.obs.journal", "latency_record"),
    ),
}


class SpanProfiler:
    """Per-call wall-clock spans of every :data:`LAYERS` call."""

    def __init__(self) -> None:
        self._events: list[tuple[str, float, float]] = []
        #: Paths of the calls in progress, innermost last.
        self._stack: list[str] = []
        #: ``(owner, name, original, wrapped)`` per installed wrapper.
        self._installed: list[tuple] = []
        self._origin = time.perf_counter()

    # -- wrapping -----------------------------------------------------------

    def install(self) -> "SpanProfiler":
        """Wrap every :data:`LAYERS` call in place.

        Methods are replaced on their class.  Modules bind ``from x
        import f`` names at import time, so a module function is
        replaced in its own module and in every loaded ``repro`` module
        that imported it.
        """
        for layer, targets in LAYERS.items():
            for module_name, attribute in targets:
                module = importlib.import_module(module_name)
                owner_name, _, name = attribute.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name)
                wrapped = functools.wraps(original)(
                    self._timed_generator(layer, original)
                    if inspect.isgeneratorfunction(original)
                    else self._timed(layer, original)
                )
                setattr(owner, name, wrapped)
                if not owner_name:
                    _rebind(original, wrapped)
                self._installed.append((owner, name, original, wrapped))
        return self

    def uninstall(self) -> None:
        """Put back every attribute and alias :meth:`install` replaced,
        including aliases bound by modules imported since."""
        while self._installed:
            owner, name, original, wrapped = self._installed.pop()
            setattr(owner, name, original)
            if inspect.ismodule(owner):
                _rebind(wrapped, original)

    def _timed(self, layer: str, fn):
        """``fn``, appending one event per call."""
        stack = self._stack
        events = self._events
        origin = self._origin
        clock = time.perf_counter

        def timed(*args, **kwargs):
            path = f"{stack[-1]}{SEP}{layer}" if stack else layer
            stack.append(path)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                events.append((path, start - origin, end - start))

        return timed

    def _timed_generator(self, layer: str, fn):
        """Generator ``fn`` whose every resumption is one event, so a
        suspended generator holds no open span."""

        def timed(*args, **kwargs):
            send = self._timed(layer, fn(*args, **kwargs).send)
            sent = None
            while True:
                try:
                    item = send(sent)
                except StopIteration as stop:
                    return stop.value
                sent = yield item

        return timed

    # -- access -------------------------------------------------------------

    def events(self) -> list[tuple[str, float, float]]:
        """All recorded ``(path, start, duration)`` events so far."""
        return list(self._events)


def _rebind(old, new) -> None:
    """Point every loaded ``repro`` module's name for ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.partition(".")[0] != "repro":
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new


# -- analysis ---------------------------------------------------------------


def span_totals(events) -> dict[str, dict]:
    """Per-path ``{"count", "total"}`` aggregation of span events."""
    totals: dict[str, dict] = {}
    for path, _start, duration in events:
        entry = totals.setdefault(path, {"count": 0, "total": 0.0})
        entry["count"] += 1
        entry["total"] += duration
    return totals


def self_times(events) -> dict[str, float]:
    """Per-path self seconds: total minus direct children's totals.

    Self times telescope — summed over every path they equal the total
    of the root spans exactly, so a self-time table always accounts for
    100% of the measured wall-clock.
    """
    totals = span_totals(events)
    selves = {path: entry["total"] for path, entry in totals.items()}
    for path, entry in totals.items():
        if SEP in path:
            parent = path.rsplit(SEP, 1)[0]
            if parent in selves:
                selves[parent] -= entry["total"]
    return selves


def measured_wall_seconds(events) -> float:
    """Total wall-clock covered by root (unnested) spans."""
    return sum(
        entry["total"] for path, entry in span_totals(events).items()
        if SEP not in path
    )


def render_span_table(events) -> str:
    """Terminal self-time table, deepest-spender first."""
    if not events:
        return "no spans recorded"
    totals = span_totals(events)
    selves = self_times(events)
    wall = measured_wall_seconds(events)
    lines = [
        f"{'span':<40} {'count':>7} {'total s':>10} "
        f"{'self s':>10} {'self %':>7}"
    ]
    accounted = 0.0
    for path in sorted(totals, key=lambda p: -selves[p]):
        entry = totals[path]
        share = selves[path] / wall * 100.0 if wall > 0 else 0.0
        accounted += selves[path]
        lines.append(
            f"{path:<40} {entry['count']:>7d} {entry['total']:>10.3f} "
            f"{selves[path]:>10.3f} {share:>6.1f}%"
        )
    covered = accounted / wall * 100.0 if wall > 0 else 100.0
    lines.append(
        f"measured wall-clock {wall:.3f}s; "
        f"self times account for {covered:.1f}%"
    )
    return "\n".join(lines)


# -- chrome trace-event export ----------------------------------------------


def chrome_trace(events, pid: int = 0, tid: int = 0) -> dict:
    """Chrome trace-event JSON (complete 'X' events, microseconds)."""
    trace_events = [
        {
            "name": path.rsplit(SEP, 1)[-1],
            "cat": "span",
            "ph": "X",
            "ts": start * 1e6,
            "dur": duration * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"path": path},
        }
        for path, start, duration in events
    ]
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace) -> list[str]:
    """Schema errors in a Chrome trace-event document ([] when valid)."""
    errors: list[str] = []
    if not isinstance(trace, dict):
        return ["trace document must be a JSON object"]
    trace_events = trace.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["trace document must have a 'traceEvents' list"]
    for index, event in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing or empty 'name'")
        if event.get("ph") != "X":
            errors.append(f"{where}: 'ph' must be 'X'")
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{where}: '{field}' must be a number")
            elif value < 0:
                errors.append(f"{where}: '{field}' must be >= 0")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                errors.append(f"{where}: '{field}' must be an integer")
    return errors


# -- journal round-trip -----------------------------------------------------


def spans_records(events, chunk: int = SPANS_CHUNK):
    """Journal ``spans`` records covering the events, chunked."""
    for offset in range(0, len(events), chunk):
        yield {
            "t": "spans",
            "events": [
                [path, start, duration]
                for path, start, duration in events[offset:offset + chunk]
            ],
        }
