"""Layer spans for the benchmark's traced runs, recorded from outside.

The traced child wraps the public functions of each pipeline layer
(:data:`LAYERS`) in place, after importing them and before the first
command runs.  Every call then records one span: layer name, start,
end, parent span and the experiment index current when it began
(``Testbed.run`` calls for searches, the refresh number for
``follow``).  Spans stay in memory and are written once, at exit.

A layer's self time is its spans' durations minus the part their child
spans cover.  The root span runs from the child's launch to the end of
its work, so the self times of every layer plus the root's own
remainder (time no wrapped call covered: the benchmark's own glue)
telescope to exactly the traced root.  All times are
``time.monotonic()`` readings, the clock the parent stamps launch with.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

ROOT = "root"
STARTUP = "startup"

#: layer -> the ``(module, attribute)`` public calls timed as its spans.
LAYERS: dict = {
    "cli": (("repro.cli", "main"),),
    "space": (
        ("repro.core.space", "SearchSpace.random"),
        ("repro.core.space", "SearchSpace.mutate"),
    ),
    "features": (
        ("repro.hardware.features", "extract_features"),
        ("repro.hardware.features", "extract_feature_columns"),
    ),
    "rules": (
        ("repro.hardware.rules", "fired_rules"),
        ("repro.hardware.rules", "batch_fired_rules"),
    ),
    "model": (
        ("repro.hardware.model", "SteadyStateModel.evaluate"),
        ("repro.hardware.model", "solve_batch"),
    ),
    "latency": (("repro.hardware.model", "latency_for_solve"),),
    "counters": (
        ("repro.hardware.counters", "VendorMonitor.sample_window"),
        ("repro.hardware.counters", "average_counters"),
    ),
    "batcheval": (
        ("repro.core.batcheval", "BatchEvaluator.evaluate_each"),
        ("repro.core.batcheval", "BatchEvaluator.solve_many"),
        ("repro.core.batcheval", "BatchEvaluator.presolve"),
        ("repro.core.batcheval", "observe_each"),
    ),
    "evalcache": tuple(
        ("repro.core.evalcache", f"EvalCache.{name}")
        for name in ("lookup", "store", "get_many", "put_many",
                     "peek_many", "save")
    ),
    "monitor": (("repro.core.monitor", "AnomalyMonitor.classify"),),
    "testbed": (("repro.cluster.testbed", "Testbed.run"),),
    "mfs": (
        ("repro.core.mfs", "match_any"),
        ("repro.core.mfs", "MFSExtractor.construct_steps"),
    ),
    "workload": (
        ("repro.hardware.workload", "WorkloadDescriptor.packets_per_message"),
    ),
    "annealing": (
        ("repro.core.collie", "Collie.run"),
        ("repro.core.population", "PopulationCollie.run"),
    ),
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
    "stream": (("repro.obs.stream", "JournalFollower.poll"),),
    "aggregate": tuple(
        ("repro.obs.aggregate", f"CampaignAggregator.{name}")
        for name in ("refresh", "snapshot", "chain_diagnostics")
    ),
    "sadiag": (("repro.obs.sadiag", "per_chain_diagnostics"),),
    "export": (
        ("repro.obs.export", "render_prometheus"),
        ("repro.obs.dashboard", "render_dashboard"),
    ),
    "journaldiff": (
        ("repro.analysis.journaldiff", "journal_metrics"),
        ("repro.obs.journal", "read_journal"),
        ("repro.obs.journal", "read_journal_prefix"),
        ("repro.obs.journal", "reports_from_records"),
    ),
}

#: Generator functions: each resumption, not the call, is one span.
GENERATORS = frozenset({("repro.core.mfs", "MFSExtractor.construct_steps")})

#: Every span name, root first (a span stores its name's index).
NAMES = (ROOT, STARTUP, *LAYERS)


class Tracer:
    """In-memory span store with running per-layer self times."""

    def __init__(self, origin: float) -> None:
        self.ids = {name: i for i, name in enumerate(NAMES)}
        self.name = array("H")
        self.parent = array("l")
        self.index = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        #: Deterministic work counts gathered by the call hooks.
        self.counts: dict = {}
        #: Index stamped on new spans (experiments or refreshes so far).
        self.experiment = 0
        self._stack: list = []
        self._child: list = []
        self._push(self.ids[ROOT], -1, origin)

    # -- recording -----------------------------------------------------------

    def _push(self, lid: int, parent: int, t0: float) -> int:
        sid = len(self.start)
        self.name.append(lid)
        self.parent.append(parent)
        self.index.append(self.experiment)
        self.start.append(t0)
        self.end.append(t0)
        self._stack.append(sid)
        self._child.append(0.0)
        return sid

    def _pop(self, sid: int, t1: float) -> None:
        self.end[sid] = t1
        self._stack.pop()
        duration = t1 - self.start[sid]
        lid = self.name[sid]
        self.self_s[lid] += duration - self._child.pop()
        self.calls[lid] += 1
        if self._child:
            self._child[-1] += duration

    def add_span(self, name: str, t0: float, t1: float) -> None:
        """Record an already finished span under the open one."""
        self._pop(self._push(self.ids[name], self._stack[-1], t0), t1)

    def finish(self, t1: float) -> None:
        """Close the root span: the trace is complete."""
        while self._stack:
            self._pop(self._stack[-1], t1)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping --------------------------------------------------------------

    def wrap(self, layer: str, fn, before=None, after=None):
        """``fn`` timed as a ``layer`` span.

        ``before(args, kwargs)`` runs ahead of the span and
        ``after(args, kwargs, result)`` behind it, so hook bookkeeping
        never lands in the layer's own time.  The span bookkeeping is
        inlined: it runs on every call of the hottest functions.
        """
        lid = self.ids[layer]
        clock = time.monotonic
        stack = self._stack
        child = self._child
        start = self.start
        end = self.end
        names = self.name
        parents = self.parent
        indices = self.index
        calls = self.calls
        selfs = self.self_s
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(start)
            names.append(lid)
            parents.append(stack[-1])
            indices.append(tracer.experiment)
            end.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[sid] = t1
                stack.pop()
                duration = t1 - t0
                selfs[lid] += duration - child.pop()
                child[-1] += duration
                calls[lid] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, layer: str, fn):
        """Generator ``fn`` whose every resumption is a ``layer`` span."""
        lid = self.ids[layer]
        clock = time.monotonic
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sent = None
            while True:
                sid = tracer._push(lid, tracer._stack[-1], clock())
                try:
                    item = inner.send(sent)
                except StopIteration as stop:
                    tracer._pop(sid, clock())
                    return stop.value
                except BaseException:
                    tracer._pop(sid, clock())
                    raise
                tracer._pop(sid, clock())
                sent = yield item

        return traced

    def install(self, hooks=None) -> None:
        """Wrap every :data:`LAYERS` call in place.

        Methods are replaced once, on their class.  Modules bind
        ``from x import f`` names at import time, so every loaded
        ``repro`` module's reference to a wrapped module function is
        replaced too.  ``hooks`` maps an attribute to its
        ``(before, after)`` pair (see :meth:`wrap`).
        """
        hooks = hooks or {}
        for layer, targets in LAYERS.items():
            for module_name, attribute in targets:
                module = importlib.import_module(module_name)
                owner_name, _, name = attribute.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name)
                if (module_name, attribute) in GENERATORS:
                    wrapped = self.wrap_generator(layer, original)
                else:
                    before, after = hooks.get(attribute, (None, None))
                    wrapped = self.wrap(layer, original, before, after)
                setattr(owner, name, wrapped)
                if not owner_name:
                    _rebind(original, wrapped)

    # -- results ---------------------------------------------------------------

    def layer_stats(self) -> dict:
        """``{name: {"calls", "self_s"}}`` for the root and every layer."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(NAMES)
        }

    def dump(self, path: str) -> None:
        """Write the spans as columnar JSON, times in seconds from root.

        Times keep every digit, so self times recomputed from the file
        match the running ones.
        """
        origin = self.start[0]
        payload = {
            "names": list(NAMES),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "index": self.index.tolist(),
            "start": [t - origin for t in self.start],
            "end": [t - origin for t in self.end],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _rebind(original, wrapped) -> None:
    """Point every loaded ``repro`` module's name for ``original`` at
    ``wrapped``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


def self_times(parents, starts, ends) -> list:
    """Per-span self time of a flat span list (parent -1 marks the root).

    The offline twin of the tracer's running sums: each span's duration
    minus its direct children's durations.
    """
    selfs = [end - start for start, end in zip(starts, ends)]
    for sid, parent in enumerate(parents):
        if parent >= 0:
            selfs[parent] -= ends[sid] - starts[sid]
    return selfs
