"""Content-addressed memoization of experiment evaluation.

Every search algorithm in the repo — Collie's SA, random fuzzing,
BayesOpt, the GA baseline — and every multi-seed campaign funnels
through the same deterministic pipeline: space point → workload engine →
steady-state solver → counters.  MFS necessity probing deliberately
revisits near-identical points, and cross-run workflows (warm-started
campaigns, before/after-fix diffing) re-evaluate the very same points.

:class:`EvalCache` memoizes the *deterministic* half of that pipeline —
feature extraction, rule firing, the per-direction steady-state solve and
the ideal counter synthesis — keyed on ``(subsystem fingerprint,
canonicalized workload point)``.  Observation noise is **not** cached:
the model re-samples it from the caller's RNG on every hit, consuming
exactly the draws an uncached evaluation would, so cached and uncached
runs are bit-identical (the determinism suite pins this).

The cache is thread-safe, keeps per-phase hit/miss statistics and wall
times (``probe``/``search``/``mfs``...), and optionally persists to a
JSON store for cross-run reuse (``python -m repro search --cache ...``,
``python -m repro stats``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from contextlib import nullcontext, suppress
from typing import IO, TYPE_CHECKING, Callable, Optional

from repro.hardware.model import DirectionRates
from repro.hardware.rules import FiredRule
from repro.hardware.workload import WorkloadDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.subsystems import Subsystem

FORMAT_VERSION = 1

#: Phase label used when callers don't attribute their evaluations.
DEFAULT_PHASE = "search"

#: Reusable no-op context for profiler-disabled span sites.
_NO_SPAN = nullcontext()

#: The store's one encoder.  ``encode`` of a whole value takes the C
#: encoder (``json.dump`` to a file never does), and ``sort_keys`` with
#: the default separators is the store's on-disk layout.
_STORE_ENCODER = json.JSONEncoder(sort_keys=True)


def canonical_point(workload: WorkloadDescriptor) -> str:
    """Stable, collision-free text form of one search-space point.

    Every field that influences the steady-state solve appears, in a
    fixed order, rendered through ``repr`` (exact for ints and floats) —
    two workloads with different feature vectors therefore always
    canonicalize differently, while logically identical points (however
    constructed) canonicalize identically.

    The key is memoized on the (frozen, immutable) descriptor: one
    point is typically keyed several times on its way through presolve,
    the generation batch and the scalar replay, and population runs key
    thousands of points per generation wave.
    """
    memo = getattr(workload, "_canonical_key", None)
    if memo is not None:
        return memo
    key = _canonical_key(workload)
    object.__setattr__(workload, "_canonical_key", key)
    return key


def _canonical_key(workload: WorkloadDescriptor) -> str:
    return "|".join(
        (
            workload.qp_type.value,
            workload.opcode.value,
            workload.direction.value,
            workload.colocation.value,
            workload.sg_layout.value,
            repr(workload.mtu),
            repr(workload.num_qps),
            repr(workload.wqe_batch),
            repr(workload.sge_per_wqe),
            repr(workload.wq_depth),
            repr(tuple(workload.msg_sizes_bytes)),
            repr(workload.mrs_per_qp),
            repr(workload.mr_bytes),
            workload.src_device,
            workload.dst_device,
            repr(workload.duty_cycle),
        )
    )


def subsystem_fingerprint(subsystem: "Subsystem") -> str:
    """Content fingerprint of a subsystem's performance-relevant config.

    The Table 1 letters are convenient ids, but nothing stops a caller
    from building a *modified* subsystem under the same name (the fix
    ledger does exactly that).  Hashing the full dataclass repr — RNIC
    parameters, quirk-rule table, PCIe generation, topology — keeps
    entries from one hardware configuration from ever serving another.
    """
    body = repr(subsystem)
    digest = hashlib.sha1(body.encode()).hexdigest()[:12]
    return f"{subsystem.name}:{digest}"


@dataclasses.dataclass(frozen=True)
class CachedSolve:
    """The deterministic outputs of one steady-state evaluation."""

    directions: tuple[DirectionRates, ...]
    fired: tuple[FiredRule, ...]
    features: dict
    ideal_counters: dict


@dataclasses.dataclass
class PhaseStats:
    """Hit/miss/wall-time tally for one evaluation phase."""

    hits: int = 0
    misses: int = 0
    seconds: float = 0.0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class EvalCache:
    """Thread-safe memo of deterministic experiment evaluations.

    ``lookup``/``store`` are keyed on the subsystem fingerprint plus the
    canonicalized workload; per-phase statistics accumulate on every
    lookup.  ``save``/``load`` round-trip the entries (and the stats of
    the run that produced them) through a JSON store.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._lock = threading.RLock()
        self._entries: dict[str, CachedSolve] = {}
        #: Raw JSON entries from a disk store, rehydrated lazily on first
        #: lookup (rule objects need the live subsystem to resolve tags).
        self._raw_entries: dict[str, dict] = {}
        self._phases: dict[str, PhaseStats] = {}
        #: ``id(subsystem) -> (subsystem, fingerprint)``; holding the
        #: object keeps its ``id`` from being reused by another one.
        self._fingerprints: dict[int, tuple["Subsystem", str]] = {}
        #: Keys that arrived via import/load (vs computed here).
        self._imported_keys: set[str] = set()
        self.path = path
        self.loaded_entries = 0
        #: Optional hit/miss observer, ``observer(phase, hit)`` — wired by
        #: the flight recorder.  Called outside the lock (it may do IO).
        self.observer: Optional[Callable[[str, bool], None]] = None
        #: Optional obs.SpanProfiler ("cache" spans on lookups) — wired
        #: by the flight recorder, like the observer.
        self.profiler = None
        if path is not None and os.path.exists(path):
            self.load(path)

    # -- keys ----------------------------------------------------------------

    def _fingerprint(self, subsystem: "Subsystem") -> str:
        """Memoized fingerprint of a live subsystem object."""
        memo = self._fingerprints.get(id(subsystem))
        if memo is not None and memo[0] is subsystem:
            return memo[1]
        fingerprint = subsystem_fingerprint(subsystem)
        with self._lock:
            self._fingerprints[id(subsystem)] = (subsystem, fingerprint)
        return fingerprint

    def key(self, subsystem: "Subsystem", workload: WorkloadDescriptor) -> str:
        """Cache key: subsystem fingerprint + canonical point."""
        return f"{self._fingerprint(subsystem)}|{canonical_point(workload)}"

    # -- lookup / store ------------------------------------------------------

    def contains(
        self, subsystem: "Subsystem", workload: WorkloadDescriptor
    ) -> bool:
        """Whether a point is memoized, without touching hit/miss stats.

        The engine uses this to skip the functional burst for known
        points: the burst is deterministic validation (it consumes no
        RNG draws), and a memoized point already passed it when its
        entry was created — skipping it cannot change any observable.
        """
        key = self.key(subsystem, workload)
        with self._lock:
            return key in self._entries or key in self._raw_entries

    def lookup(
        self,
        subsystem: "Subsystem",
        workload: WorkloadDescriptor,
        phase: str = DEFAULT_PHASE,
    ) -> Optional[CachedSolve]:
        """Return the memoized solve for a point, recording hit/miss."""
        with (
            self.profiler.span("cache")
            if self.profiler is not None else _NO_SPAN
        ):
            key = self.key(subsystem, workload)
            with self._lock:
                stats = self._phases.setdefault(phase, PhaseStats())
                entry = self._entries.get(key)
                if entry is None and key in self._raw_entries:
                    entry = _solve_from_dict(
                        self._raw_entries.pop(key), subsystem
                    )
                    if entry is not None:
                        self._entries[key] = entry
                if entry is None:
                    stats.misses += 1
                else:
                    stats.hits += 1
        if self.observer is not None:
            self.observer(phase, entry is not None)
        return entry

    def store(
        self,
        subsystem: "Subsystem",
        workload: WorkloadDescriptor,
        solve: CachedSolve,
    ) -> None:
        key = self.key(subsystem, workload)
        with self._lock:
            self._entries[key] = solve
            self._raw_entries.pop(key, None)
            # A fresh solve supersedes any imported provenance (e.g. a
            # stale disk entry that failed rehydration and re-solved).
            self._imported_keys.discard(key)

    # -- bulk API (batched evaluation, S31) ----------------------------------

    def peek_many(
        self,
        subsystem: "Subsystem",
        workloads: "list[WorkloadDescriptor]",
    ) -> list[bool]:
        """Vector ``contains``: membership per point, no stats recorded.

        One fingerprint computation and one lock acquisition for the
        whole batch — this is what the presolver uses to find the points
        it still has to solve.
        """
        fingerprint = self._fingerprint(subsystem)
        keys = [f"{fingerprint}|{canonical_point(w)}" for w in workloads]
        with self._lock:
            return [
                key in self._entries or key in self._raw_entries
                for key in keys
            ]

    def get_many(
        self,
        subsystem: "Subsystem",
        workloads: "list[WorkloadDescriptor]",
        phase: str = DEFAULT_PHASE,
    ) -> "list[Optional[CachedSolve]]":
        """Vector ``lookup``: one fingerprint + one lock pass per batch.

        Hit/miss statistics are recorded per point (in order), and the
        observer fires per point after the lock is released, exactly as
        a sequence of scalar ``lookup`` calls would.
        """
        out: list[Optional[CachedSolve]] = []
        with (
            self.profiler.span("cache")
            if self.profiler is not None else _NO_SPAN
        ):
            fingerprint = self._fingerprint(subsystem)
            keys = [f"{fingerprint}|{canonical_point(w)}" for w in workloads]
            with self._lock:
                stats = self._phases.setdefault(phase, PhaseStats())
                for key in keys:
                    entry = self._entries.get(key)
                    if entry is None and key in self._raw_entries:
                        entry = _solve_from_dict(
                            self._raw_entries.pop(key), subsystem
                        )
                        if entry is not None:
                            self._entries[key] = entry
                    if entry is None:
                        stats.misses += 1
                    else:
                        stats.hits += 1
                    out.append(entry)
        if self.observer is not None:
            for entry in out:
                self.observer(phase, entry is not None)
        return out

    def put_many(
        self,
        subsystem: "Subsystem",
        workloads: "list[WorkloadDescriptor]",
        solves: "list[CachedSolve]",
    ) -> None:
        """Vector ``store`` for freshly solved points."""
        fingerprint = self._fingerprint(subsystem)
        with self._lock:
            for workload, solve in zip(workloads, solves):
                key = f"{fingerprint}|{canonical_point(workload)}"
                self._entries[key] = solve
                self._raw_entries.pop(key, None)
                self._imported_keys.discard(key)

    def charge(self, phase: str, seconds: float) -> None:
        """Attribute real wall time to one phase (solver or fan-out)."""
        with self._lock:
            self._phases.setdefault(phase, PhaseStats()).seconds += seconds

    def timed(self, phase: str) -> "_PhaseTimer":
        """Context manager charging its real elapsed time to ``phase``."""
        return _PhaseTimer(self, phase)

    # -- statistics ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries) + len(self._raw_entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return sum(p.hits for p in self._phases.values())

    @property
    def misses(self) -> int:
        with self._lock:
            return sum(p.misses for p in self._phases.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def phase_stats(self) -> dict[str, PhaseStats]:
        """Copy of the per-phase tallies (safe to read after a run)."""
        with self._lock:
            return {
                name: dataclasses.replace(stats)
                for name, stats in self._phases.items()
            }

    def snapshot(self) -> tuple[int, int]:
        """(hits, misses) — diff two snapshots to scope a sub-phase."""
        return self.hits, self.misses

    def merge_stats(self, stats: dict) -> None:
        """Fold a worker's exported stats into this cache's tallies."""
        with self._lock:
            for name, data in stats.get("phases", {}).items():
                mine = self._phases.setdefault(name, PhaseStats())
                mine.hits += int(data.get("hits", 0))
                mine.misses += int(data.get("misses", 0))
                mine.seconds += float(data.get("seconds", 0.0))

    def stats_dict(self) -> dict:
        """JSON-able statistics view (what ``repro stats`` prints)."""
        with self._lock:
            return {
                "entries": len(self),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "phases": {
                    name: {
                        "hits": stats.hits,
                        "misses": stats.misses,
                        "hit_rate": stats.hit_rate,
                        "seconds": stats.seconds,
                    }
                    for name, stats in sorted(self._phases.items())
                },
            }

    def describe(self) -> str:
        """Human-readable stats block (CLI surface)."""
        return describe_stats(self.stats_dict())

    # -- worker transport ------------------------------------------------------

    def export_entries(self, new_only: bool = False) -> dict[str, dict]:
        """Entries as JSON-able dicts (worker hand-off, disk store).

        ``new_only`` exports only entries this cache computed or stored
        itself, excluding what arrived via ``import_entries``/``load`` —
        workers use it so a warm start is not echoed back to the parent.
        """
        with self._lock:
            exported = {
                key: _solve_to_dict(entry)
                for key, entry in self._entries.items()
                if not (new_only and key in self._imported_keys)
            }
            if not new_only:
                exported.update(self._raw_entries)
            return exported

    def import_entries(self, entries: dict[str, dict]) -> int:
        """Absorb exported entries; existing keys win.  Returns count."""
        added = 0
        with self._lock:
            for key, raw in entries.items():
                self._imported_keys.add(key)
                if key in self._entries or key in self._raw_entries:
                    continue
                self._raw_entries[key] = raw
                added += 1
        return added

    # -- disk store ------------------------------------------------------------

    def save(self, path: Optional[str] = None) -> str:
        """Write the store atomically; returns its path.

        The file holds what ``json.dumps(payload, sort_keys=True)`` gives
        for ``{"format_version": FORMAT_VERSION, "entries":
        export_entries(), "stats": stats_dict()}``, but is encoded one
        entry at a time (flat memory) into a temporary file beside the
        store, which then replaces it: a failed save leaves the previous
        store intact.
        """
        path = path or self.path
        if path is None:
            raise ValueError("no cache path given")
        partial = f"{path}.{os.getpid()}.tmp"
        with self._lock:
            try:
                with open(partial, "w") as handle:
                    self._write_store(handle)
                os.replace(partial, path)
            except BaseException:
                with suppress(FileNotFoundError):
                    os.remove(partial)
                raise
        return path

    def _write_store(self, handle: IO[str]) -> None:
        """Encode the store into ``handle`` entry by entry (lock held)."""
        encode = _STORE_ENCODER.encode
        handle.write('{"entries": {')
        separator = ""
        for key in sorted(self._entries.keys() | self._raw_entries.keys()):
            # Never-looked-up disk entries go out as they came in.
            entry = self._raw_entries.get(key)
            if entry is None:
                entry = _solve_to_dict(self._entries[key])
            handle.write(f"{separator}{encode(key)}: {encode(entry)}")
            separator = ", "
        handle.write(
            f'}}, "format_version": {FORMAT_VERSION}, '
            f'"stats": {encode(self.stats_dict())}}}'
        )

    def load(self, path: str) -> int:
        """Warm-start from a JSON store; returns entries absorbed."""
        with open(path) as handle:
            payload = json.load(handle)
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported cache format {version!r} "
                f"(expected {FORMAT_VERSION})"
            )
        added = self.import_entries(payload.get("entries", {}))
        self.loaded_entries += added
        return added

    @staticmethod
    def load_stats(path: str) -> dict:
        """Read only the persisted statistics of a cache store."""
        with open(path) as handle:
            payload = json.load(handle)
        stats = payload.get("stats", {})
        stats.setdefault("entries", len(payload.get("entries", {})))
        return stats


def describe_stats(stats: dict) -> str:
    """Render a ``stats_dict``-shaped mapping (live or persisted)."""
    hits = int(stats.get("hits", 0))
    misses = int(stats.get("misses", 0))
    total = hits + misses
    hit_rate = stats.get("hit_rate", hits / total if total else 0.0)
    lines = [
        f"cache entries: {stats.get('entries', 0)}",
        f"lookups: {total} ({hits} hits, {misses} misses, "
        f"{hit_rate:.1%} hit rate)",
    ]
    for name, phase in sorted(stats.get("phases", {}).items()):
        phase_total = int(phase.get("hits", 0)) + int(phase.get("misses", 0))
        phase_rate = phase.get(
            "hit_rate",
            phase.get("hits", 0) / phase_total if phase_total else 0.0,
        )
        lines.append(
            f"  phase {name:<10} {phase_total:>6} lookups  "
            f"{phase_rate:>6.1%} hits  "
            f"{float(phase.get('seconds', 0.0)):8.3f}s wall"
        )
    return "\n".join(lines)


class _PhaseTimer:
    """``with cache.timed("solve"):`` — charges real elapsed seconds."""

    def __init__(self, cache: EvalCache, phase: str) -> None:
        self._cache = cache
        self._phase = phase
        self._started = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._cache.charge(self._phase, time.perf_counter() - self._started)


# -- (de)serialisation of solve entries --------------------------------------


#: ``DirectionRates`` fields, read directly (``dataclasses.asdict``
#: deep-copies every value on the way).
_DIRECTION_FIELDS = tuple(
    field.name for field in dataclasses.fields(DirectionRates)
)


def _solve_to_dict(solve: CachedSolve) -> dict:
    return {
        "directions": [
            {name: getattr(d, name) for name in _DIRECTION_FIELDS}
            for d in solve.directions
        ],
        "fired": [{"tag": f.rule.tag, "factor": f.factor} for f in solve.fired],
        "features": dict(solve.features),
        "ideal": dict(solve.ideal_counters),
    }


def _solve_from_dict(data: dict, subsystem: "Subsystem") -> Optional[CachedSolve]:
    """Rehydrate a disk entry against the live subsystem's rule table.

    Returns ``None`` when a fired tag no longer exists on the subsystem
    (a rule was removed by a fix): the stale entry is dropped and the
    point re-evaluates rather than replaying outdated effects.
    """
    rules_by_tag = {rule.tag: rule for rule in subsystem.rnic.rules}
    fired = []
    for item in data.get("fired", []):
        rule = rules_by_tag.get(item["tag"])
        if rule is None:
            return None
        fired.append(FiredRule(rule=rule, factor=float(item["factor"])))
    directions = tuple(
        DirectionRates(**entry) for entry in data.get("directions", [])
    )
    if not directions:
        return None
    return CachedSolve(
        directions=directions,
        fired=tuple(fired),
        features=dict(data.get("features", {})),
        ideal_counters=dict(data.get("ideal", {})),
    )
