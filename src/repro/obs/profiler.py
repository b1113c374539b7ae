"""Hierarchical span profiler: where a search's wall-clock went.

A :class:`SpanProfiler` records nested wall-clock spans
(``search > pass > iteration > solve`` …) as ``(path, start, duration)``
tuples relative to the profiler's origin.  Like the rest of the
observatory it is purely observational: spans use ``time.perf_counter``
only — never the simulated clock, never the RNG — so a profiled search
is bit-identical to an unprofiled one, and every instrumented site pays
a single ``profiler is not None`` check when disabled.

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

import threading
import time
from typing import Optional

from repro.obs.metrics import MetricsRegistry

#: Path separator between nested span names.
SEP = "/"

#: Events per journaled ``spans`` record (keeps lines bounded).
SPANS_CHUNK = 512


class SpanProfiler:
    """Thread-safe collector of hierarchical wall-clock spans."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics
        self._lock = threading.Lock()
        self._local = threading.local()
        self._events: list[tuple[str, float, float]] = []
        self._origin = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def span(self, name: str) -> "_Span":
        """Context manager timing one span nested under the current one."""
        return _Span(self, name)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, path: str, start: float, duration: float) -> None:
        with self._lock:
            self._events.append((path, start, duration))
        if self.metrics is not None:
            self.metrics.observe("span.seconds", duration, span=path)

    # -- access -------------------------------------------------------------

    def events(self) -> list[tuple[str, float, float]]:
        """All recorded ``(path, start, duration)`` events so far."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class _Span:
    """One active span; records itself on ``__exit__``."""

    __slots__ = ("_profiler", "_name", "_path", "_start")

    def __init__(self, profiler: SpanProfiler, name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Span":
        stack = self._profiler._stack()
        parent = stack[-1] if stack else ""
        self._path = f"{parent}{SEP}{self._name}" if parent else self._name
        stack.append(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        stack = self._profiler._stack()
        if stack and stack[-1] == self._path:
            stack.pop()
        self._profiler._record(
            self._path, self._start - self._profiler._origin,
            end - self._start,
        )
        return False


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
