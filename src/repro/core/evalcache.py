"""Content-addressed memoization of experiment evaluation.

Every search algorithm in the repo — Collie's SA, random fuzzing,
BayesOpt, the GA baseline — and every multi-seed campaign funnels
through the same deterministic pipeline: space point → testbed →
steady-state solver → counters.  MFS necessity probing deliberately
revisits near-identical points, and cross-run workflows (warm-started
campaigns, before/after-fix diffing) re-evaluate the very same points.

:class:`EvalCache` memoizes the *deterministic* half of that pipeline —
feature extraction, rule firing, the per-direction steady-state solve and
the ideal counter synthesis — in one table keyed on ``(subsystem
fingerprint, workload descriptor)``: the frozen descriptor is hashed as
it is, so a lookup never renders the point as text.  Observation noise
is **not** cached: the model re-samples it from the caller's RNG on
every hit, consuming exactly the draws an uncached evaluation would, so
cached and uncached runs are bit-identical (the determinism suite pins
this).

The cache is thread-safe, keeps per-phase hit/miss statistics and wall
times (``probe``/``search``/``mfs``...), and optionally persists to a
store for cross-run reuse (``python -m repro search --cache ...``,
``python -m repro stats``).

**Store format 2** is NDJSON.  Its first line is a header,
``{"format_version": 2, "stats": ...}``, all ``repro stats`` reads; each
further line is one entry, in insertion order::

    [fingerprint, workload, directions, categorical, tags, packed]

``workload`` is the point as an array in
:data:`~repro.analysis.serialize.WORKLOAD_FIELDS` order, ``directions``
the number of traffic directions (``fwd``, then ``rev``),
``categorical`` the string-valued features in
:data:`~repro.hardware.features.CATEGORICAL_FEATURES` order, ``tags``
the fired rules' tags, and ``packed`` the base64 of little-endian
float64 values: each direction's six rates, the numeric features in
:data:`~repro.hardware.features.FEATURE_NAMES` order, the ideal counters
in :data:`~repro.hardware.counters.ALL_COUNTERS` order and the fired
rules' factors.  The floats round-trip bit for bit, NaN and -0.0
included; a solve with other feature or counter names is refused, never
cut to fit.  ``load`` checks each line's JSON, workload and packed
length up front, and a line's floats are unpacked on its first hit,
against the live subsystem's rule table: a tag the subsystem no longer
has drops the entry, and the point re-evaluates.  The worker hand-off
(:meth:`EvalCache.export_entries` and :meth:`EvalCache.import_entries`)
carries the same lines.

Format-1 stores (one JSON object whose keys render each point through
:func:`canonical_point`) stay readable: each key is parsed back into its
point and each entry packed as a line, and a key that no longer parses
drops its entry.  The next ``save`` writes format 2.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import hashlib
import json
import operator
import os
import struct
import threading
from contextlib import suppress
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.analysis.serialize import (
    WORKLOAD_FIELDS,
    workload_from_list,
    workload_to_list,
)
from repro.hardware.counters import ALL_COUNTERS
from repro.hardware.features import (
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    feature_dict,
)
from repro.hardware.model import DirectionRates
from repro.hardware.rules import FiredRule
from repro.hardware.workload import WorkloadDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.subsystems import Subsystem

FORMAT_VERSION = 2

#: Phase label used when callers don't attribute their evaluations.
DEFAULT_PHASE = "search"


def canonical_point(workload: WorkloadDescriptor) -> str:
    """Stable, collision-free text form of one search-space point.

    Every field that influences the steady-state solve appears, in a
    fixed order, rendered through ``repr`` (exact for ints and floats) —
    two workloads with different feature vectors therefore always
    canonicalize differently, while logically identical points (however
    constructed) canonicalize identically.  Format-1 stores key their
    entries by it; the co-run model stamps its victim with it.

    The text is memoized on the (frozen, immutable) descriptor.
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


class _StoreLine:
    """An entry that arrived by ``load`` or ``import_entries``: its store
    line, the fields a hit reads from it (checked on arrival), and its
    solve once the first hit has unpacked them."""

    __slots__ = ("text", "fields", "solve")

    def __init__(self, text: str, fields: tuple) -> None:
        self.text = text
        self.fields = fields
        self.solve: Optional[CachedSolve] = None


class EvalCache:
    """Thread-safe memo of deterministic experiment evaluations.

    ``lookup``/``store`` are keyed on the subsystem fingerprint plus the
    workload descriptor; per-phase statistics accumulate on every
    lookup.  ``save``/``load`` round-trip the entries (and the stats of
    the run that produced them) through a store file.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._lock = threading.RLock()
        #: ``(fingerprint, workload) ->`` the :class:`CachedSolve` this
        #: cache solved (or was given by ``store``), or the
        #: :class:`_StoreLine` of an entry that arrived by ``load`` or
        #: ``import_entries``.  Its order is the store's line order.
        self._entries: dict[tuple, "CachedSolve | _StoreLine"] = {}
        self._phases: dict[str, PhaseStats] = {}
        #: ``id(subsystem) -> (subsystem, fingerprint)``; holding the
        #: object keeps its ``id`` from being reused by another one.
        self._fingerprints: dict[int, tuple["Subsystem", str]] = {}
        self.path = path
        self.loaded_entries = 0
        #: Optional hit/miss observer, ``observer(phase, hit)`` — wired by
        #: the flight recorder.  Called outside the lock (it may do IO).
        self.observer: Optional[Callable[[str, bool], None]] = None
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

    def key(
        self, subsystem: "Subsystem", workload: WorkloadDescriptor
    ) -> tuple[str, WorkloadDescriptor]:
        """Table key: ``(subsystem fingerprint, workload)``."""
        return self._fingerprint(subsystem), workload

    def _solve(
        self, key: tuple, subsystem: "Subsystem"
    ) -> Optional[CachedSolve]:
        """The memoized solve under ``key`` (lock held).  A store line is
        unpacked on its first hit; one whose tags ``subsystem`` no longer
        has is dropped, and reads as a miss."""
        entry = self._entries.get(key)
        if entry.__class__ is not _StoreLine:
            return entry
        if entry.solve is None:
            entry.solve = _unpack(entry.fields, subsystem)
            if entry.solve is None:
                del self._entries[key]
        return entry.solve

    # -- lookup / store ------------------------------------------------------

    def lookup(
        self,
        subsystem: "Subsystem",
        workload: WorkloadDescriptor,
        phase: str = DEFAULT_PHASE,
    ) -> Optional[CachedSolve]:
        """Return the memoized solve for a point, recording hit/miss."""
        key = (self._fingerprint(subsystem), workload)
        with self._lock:
            stats = self._phases.get(phase)
            if stats is None:
                stats = self._phases[phase] = PhaseStats()
            solve = self._solve(key, subsystem)
            if solve is None:
                stats.misses += 1
            else:
                stats.hits += 1
        if self.observer is not None:
            self.observer(phase, solve is not None)
        return solve

    def store(
        self,
        subsystem: "Subsystem",
        workload: WorkloadDescriptor,
        solve: CachedSolve,
    ) -> None:
        """Memoize a fresh solve; it supersedes a loaded line (e.g. a
        stale one that failed to unpack and re-solved)."""
        key = (self._fingerprint(subsystem), workload)
        with self._lock:
            self._entries[key] = solve

    # -- bulk API (batched evaluation, S31) ----------------------------------

    # No caller in src/; kept because perfbench/tracer.py wraps it by name.
    def peek_many(
        self,
        subsystem: "Subsystem",
        workloads: "list[WorkloadDescriptor]",
    ) -> list[bool]:
        """Membership per point, no stats recorded.

        One fingerprint computation and one lock acquisition for the
        whole batch — this is what the presolver uses to find the points
        it still has to solve.
        """
        fingerprint = self._fingerprint(subsystem)
        with self._lock:
            return [(fingerprint, w) in self._entries for w in workloads]

    # Only the callerless batcheval calls this; perfbench/tracer.py wraps it.
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
        fingerprint = self._fingerprint(subsystem)
        with self._lock:
            stats = self._phases.setdefault(phase, PhaseStats())
            out = [self._solve((fingerprint, w), subsystem) for w in workloads]
            for solve in out:
                if solve is None:
                    stats.misses += 1
                else:
                    stats.hits += 1
        if self.observer is not None:
            for solve in out:
                self.observer(phase, solve is not None)
        return out

    # Only the callerless batcheval calls this; perfbench/tracer.py wraps it.
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
                self._entries[fingerprint, workload] = solve

    def charge(self, phase: str, seconds: float) -> None:
        """Attribute real wall time to one phase (solver or fan-out)."""
        with self._lock:
            self._phases.setdefault(phase, PhaseStats()).seconds += seconds

    # -- statistics ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

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

    def _lines(self, new_only: bool = False) -> Iterator[str]:
        """Each entry's store line, in table order (lock held); a loaded
        line goes out as it came in."""
        for key, entry in self._entries.items():
            if entry.__class__ is _StoreLine:
                if not new_only:
                    yield entry.text
            else:
                yield _solve_line(key, entry)

    def export_entries(self, new_only: bool = False) -> list[str]:
        """The entries as store lines (the worker hand-off).

        ``new_only`` exports only entries this cache solved or stored
        itself, excluding what arrived via ``import_entries``/``load`` —
        workers use it so a warm start is not echoed back to the parent.
        """
        with self._lock:
            return list(self._lines(new_only))

    def import_entries(self, lines: Iterable[str], first: int = 1) -> int:
        """Absorb store lines; existing keys win.  Returns how many were
        added.  A line that is not an entry raises ``ValueError``, naming
        its number (counting from ``first``)."""
        added = 0
        with self._lock:
            for number, text in enumerate(lines, first):
                text = text.rstrip("\n")
                try:
                    key, fields = _read_line(text)
                except ValueError as error:
                    raise ValueError(f"line {number}: {error}") from None
                line = _StoreLine(text, fields)
                added += self._entries.setdefault(key, line) is line
        return added

    # -- disk store ------------------------------------------------------------

    def save(self, path: Optional[str] = None) -> str:
        """Write the store atomically; returns its path.

        The header, then one line per entry (module docstring), go into
        a temporary file beside the store, which then replaces it: a
        failed save leaves the previous store intact.
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
        """Encode the store into ``handle`` line by line (lock held)."""
        header = {"format_version": FORMAT_VERSION, "stats": self.stats_dict()}
        handle.write(f"{json.dumps(header)}\n")
        write = handle.write
        for line in self._lines():
            write(f"{line}\n")

    def load(self, path: str) -> int:
        """Warm-start from a store (format 2, or format 1); returns the
        entries absorbed.  A file that is not a whole store of either
        format raises ``ValueError``."""
        with open(path) as handle:
            _, lines, first = _read_store(handle)
            added = self.import_entries(lines, first)
        self.loaded_entries += added
        return added

    @staticmethod
    def load_stats(path: str) -> dict:
        """Read only the persisted statistics of a store (either format)."""
        with open(path) as handle:
            head, _, _ = _read_store(handle)
        stats = head.get("stats", {})
        if head["format_version"] == 1:
            stats.setdefault("entries", len(head.get("entries", {})))
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


# -- the store line codec ----------------------------------------------------


#: A solve's directions by position: ``fwd``, and ``rev`` when the
#: workload is bidirectional.
_DIRECTION_NAMES = ["fwd", "rev"]
#: ``DirectionRates``' six rates, in field order.
_RATE_FIELDS = tuple(
    field.name for field in dataclasses.fields(DirectionRates)
    if field.name != "name"
)
_NUMERIC_FEATURES = tuple(
    name for name in FEATURE_NAMES if name not in CATEGORICAL_FEATURES
)
_rates = operator.attrgetter(*_RATE_FIELDS)
_numeric_features = operator.itemgetter(*_NUMERIC_FEATURES)
_categorical_features = operator.itemgetter(*CATEGORICAL_FEATURES)
_counters = operator.itemgetter(*ALL_COUNTERS)
#: Where a line's numeric features end and its counters begin, counted
#: from the end of its direction rates.
_FEATURES_END = len(_NUMERIC_FEATURES)
_COUNTERS_END = _FEATURES_END + len(ALL_COUNTERS)
#: Compact JSON for a line; ``encode`` of a whole value takes the C
#: encoder.
_encode_line = json.JSONEncoder(separators=(",", ":")).encode
#: What a line that is not an entry raises while it is read.
_LINE_ERRORS = (ValueError, TypeError, KeyError, AttributeError)


def _pack_line(
    fingerprint: str,
    workload: WorkloadDescriptor,
    directions: tuple,
    tags: list,
    factors: list,
    features: dict,
    ideal: dict,
) -> str:
    """One store line, of a solve whose fired rules have ``tags`` and
    ``factors``.

    Raises ``ValueError`` for a solve the line cannot hold exactly:
    directions other than ``fwd`` (and ``rev``), feature or counter
    names other than :data:`FEATURE_NAMES` and :data:`ALL_COUNTERS`, or
    a value of the wrong type.
    """
    count = len(directions)
    names = [direction.name for direction in directions]
    if not count or names != _DIRECTION_NAMES[:count]:
        raise ValueError(f"cannot store directions {names!r}")
    if len(features) != len(FEATURE_NAMES):
        raise ValueError(
            f"cannot store {len(features)} features, expected "
            f"{len(FEATURE_NAMES)}"
        )
    if len(ideal) != len(ALL_COUNTERS):
        raise ValueError(
            f"cannot store {len(ideal)} counters, expected "
            f"{len(ALL_COUNTERS)}"
        )
    if not all(type(tag) is str for tag in tags):
        raise ValueError(f"cannot store rule tags {tags!r}")
    values = []
    try:
        for direction in directions:
            values += _rates(direction)
        values += _numeric_features(features)
        values += _counters(ideal)
        values += factors
        packed = struct.pack(f"<{len(values)}d", *values)
        categorical = _categorical_features(features)
    except KeyError as error:
        raise ValueError(f"cannot store a solve without {error}") from None
    except struct.error as error:
        raise ValueError(f"cannot store a solve: {error}") from None
    return _encode_line([
        fingerprint,
        workload_to_list(workload),
        count,
        categorical,
        tags,
        base64.b64encode(packed).decode("ascii"),
    ])


def _solve_line(key: tuple, solve: CachedSolve) -> str:
    """The store line of a solve this cache holds under ``key``."""
    fingerprint, workload = key
    fired = solve.fired
    return _pack_line(
        fingerprint,
        workload,
        solve.directions,
        [rule.rule.tag for rule in fired],
        [rule.factor for rule in fired],
        solve.features,
        solve.ideal_counters,
    )


def _read_line(text: str) -> tuple[tuple, tuple]:
    """One store line's table key and the fields a hit unpacks,
    ``(directions, categorical, tags, packed bytes)``, all checked but
    the rule tags; ``ValueError`` if the line is no entry."""
    try:
        fingerprint, values, count, categorical, tags, packed = json.loads(
            text
        )
        workload = workload_from_list(values)
        # A character outside the alphabet is skipped, so a damaged
        # string decodes short (or fails): the length check catches it.
        floats = binascii.a2b_base64(packed)
    except _LINE_ERRORS as error:  # binascii.Error is a ValueError
        raise ValueError(
            f"not a cache entry: {type(error).__name__}: {error}"
        ) from None
    if not (
        type(fingerprint) is str
        and type(count) is int
        and 1 <= count <= len(_DIRECTION_NAMES)
        and _strings(categorical)
        and len(categorical) == len(CATEGORICAL_FEATURES)
        and _strings(tags)
    ):
        raise ValueError("not a cache entry: a field has the wrong type")
    expected = 8 * (6 * count + _COUNTERS_END + len(tags))
    if len(floats) != expected:
        raise ValueError(
            f"packed values hold {len(floats)} bytes, expected {expected}"
        )
    return (fingerprint, workload), (count, categorical, tags, floats)


def _strings(value) -> bool:
    """Whether ``value`` is a list of strings."""
    return isinstance(value, list) and all(
        type(item) is str for item in value
    )


def _unpack(fields: tuple, subsystem: "Subsystem") -> Optional[CachedSolve]:
    """The solve a store line's checked ``fields`` hold, its fired rules
    resolved against ``subsystem``; None when a tag is not one of its
    rules (a rule removed by a fix): the stale entry is dropped and the
    point re-evaluates rather than replaying outdated effects."""
    count, categorical, tags, floats = fields
    rules = {rule.tag: rule for rule in subsystem.rnic.rules}
    if not all(tag in rules for tag in tags):
        return None
    values = struct.unpack(f"<{len(floats) // 8}d", floats)
    start = 6 * count
    directions = (DirectionRates("fwd", *values[:6]),)
    if count == 2:
        directions += (DirectionRates("rev", *values[6:12]),)
    return CachedSolve(
        directions=directions,
        fired=tuple(map(
            FiredRule, map(rules.get, tags), values[start + _COUNTERS_END:]
        )),
        features=feature_dict(
            categorical, values[start:start + _FEATURES_END]
        ),
        ideal_counters=dict(zip(
            ALL_COUNTERS,
            values[start + _FEATURES_END:start + _COUNTERS_END],
        )),
    )


# -- reading a store file ----------------------------------------------------


def _read_store(handle: IO[str]) -> tuple[dict, Iterable[str], int]:
    """A store's header (a format-1 store's whole object), its entry
    lines, read lazily from ``handle``, and the first one's number."""
    first = handle.readline()
    try:
        head = json.loads(first)
    except ValueError:  # a format-1 object spread over several lines
        head = json.loads(first + handle.read())
    version = head.get("format_version") if isinstance(head, dict) else None
    if version == FORMAT_VERSION:
        return head, handle, 2
    if version == 1:
        entries = head.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError("format-1 entries are not an object")
        return head, _format1_lines(entries), 1
    raise ValueError(
        f"unsupported cache format {version!r} "
        f"(expected 1 or {FORMAT_VERSION})"
    )


def _format1_lines(entries: dict) -> Iterator[str]:
    """A format-1 store's entries as format-2 lines, each text key
    parsed back into its point.  An entry whose key no longer parses,
    or that a line cannot hold, is dropped, as a stale rule tag is."""
    for text, data in entries.items():
        try:
            fingerprint, point = text.split("|", 1)
            line = _pack_line(
                fingerprint,
                _parse_point(point),
                tuple(DirectionRates(**rates) for rates in data["directions"]),
                [fired["tag"] for fired in data["fired"]],
                [fired["factor"] for fired in data["fired"]],
                data["features"],
                data["ideal"],
            )
        except _LINE_ERRORS:
            continue
        yield line


#: The :data:`~repro.analysis.serialize.WORKLOAD_FIELDS` positions that
#: :func:`canonical_point` renders through ``repr`` as a number, and the
#: one it renders as a tuple of them.
_NUMBER_FIELDS = tuple(
    WORKLOAD_FIELDS.index(name) for name in (
        "mtu", "num_qps", "wqe_batch", "sge_per_wqe", "wq_depth",
        "mrs_per_qp", "mr_bytes", "duty_cycle",
    )
)
_MSG_SIZES_FIELD = WORKLOAD_FIELDS.index("msg_sizes_bytes")


def _parse_point(text: str) -> WorkloadDescriptor:
    """The point whose :func:`canonical_point` is ``text`` (its fields
    are in ``WORKLOAD_FIELDS`` order); ``ValueError`` when ``text`` is
    not one."""
    values: list = text.split("|")
    if len(values) != len(WORKLOAD_FIELDS):
        raise ValueError(f"{text!r} holds {len(values)} fields")
    for index in _NUMBER_FIELDS:
        values[index] = _number(values[index])
    sizes = values[_MSG_SIZES_FIELD][1:-1].split(",")  # "(a, b)", "(a,)"
    values[_MSG_SIZES_FIELD] = [_number(size) for size in sizes if size]
    workload = workload_from_list(values)
    if canonical_point(workload) != text:
        raise ValueError(f"{text!r} is not a canonical point")
    return workload


def _number(text: str):
    """The int or float whose ``repr`` ``text`` is."""
    try:
        return int(text)
    except ValueError:
        return float(text)
