"""Hard behavioural invariants over the corpus's anomalies.

The drift gate asks "did the *population statistics* move?"; this pass
asks the stronger, non-statistical questions that must hold exactly:

1. every corpus journal still **validates** under the current schema
   (old corpora keep working across schema versions — the validator
   accepts every version in ``SUPPORTED_VERSIONS``);
2. every journaled MFS is **self-consistent**: its witness lies inside
   its own region (``mfs.matches(witness)``), and its interval ladder
   is sound — ``low <= high``, and bounds inside the subsystem's
   actual ladder range (a bound outside the ladder can never exclude a
   point, so it silently weakens the search's skip test);
3. every journaled MFS still **reproduces**: replaying its witness on
   a fresh testbed re-triggers the recorded symptom through
   :func:`repro.core.reproducer.reproduce_mfs`.

A violation of any of these is a correctness bug, not drift — it gates
regardless of how the population statistics look.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.analysis.serialize import mfs_from_dict
from repro.canary.corpus import CorpusCell
from repro.core.reproducer import REPRODUCE_ATTEMPTS, reproduce_mfs
from repro.core.space import ORDERED_DIMENSIONS, SearchSpace
from repro.obs.folds import RecordCounts, run_folds
from repro.obs.schema import validate_journal


@dataclasses.dataclass(frozen=True)
class InvariantViolation:
    """One broken hard invariant, pinned to its corpus cell."""

    cell: str
    kind: str  #: "schema" | "mfs-soundness" | "reproduction"
    detail: str

    def describe(self) -> str:
        return f"INVARIANT [{self.kind}] cell {self.cell}: {self.detail}"


def _ladder_range(
    space: SearchSpace, dimension: str
) -> Optional[tuple[float, float]]:
    """(min, max) of the ladder behind one interval dimension."""
    if dimension in ORDERED_DIMENSIONS:
        ladder = space.ordered_choices(dimension)
    elif dimension == "avg_msg":
        ladder = space.msg_size_choices
    else:
        return None
    return float(min(ladder)), float(max(ladder))


def mfs_soundness_errors(mfs, space: SearchSpace) -> list[str]:
    """Ladder/consistency defects of one MFS (empty list = sound)."""
    errors: list[str] = []
    for cond in mfs.intervals:
        if (
            cond.low is not None
            and cond.high is not None
            and cond.low > cond.high
        ):
            errors.append(
                f"interval {cond.dimension}: low {cond.low:g} > "
                f"high {cond.high:g}"
            )
        bounds = _ladder_range(space, cond.dimension)
        if bounds is not None:
            lo, hi = bounds
            for label, value in (("low", cond.low), ("high", cond.high)):
                if value is not None and not (lo <= value <= hi):
                    errors.append(
                        f"interval {cond.dimension}: {label} bound "
                        f"{value:g} outside ladder [{lo:g}, {hi:g}]"
                    )
    for cond in mfs.memberships:
        if not cond.allowed:
            errors.append(
                f"membership {cond.dimension}: empty allowed set"
            )
    if not mfs.matches(mfs.witness):
        errors.append("witness does not match its own MFS region")
    return errors


def cell_victim(records) -> tuple:
    """``(victim, victim_share)`` from a journal's isolation preamble.

    Isolation journals (schema v6) open with an ``isolation`` record
    naming the pinned victim; their anomalies only reproduce in co-run
    mode, so the reproduction invariant must replay them against the
    same victim.  Solo journals yield ``(None, 0.5)`` and the replay
    path is bit-identical to the pre-isolation pass.
    """
    from repro.obs.folds import record_workload

    for record in records:
        if record.get("t") == "isolation":
            return (
                record_workload(record),
                float(record["victim_share"]),
            )
    return None, 0.5


def check_cell(
    cell: CorpusCell, attempts: int = REPRODUCE_ATTEMPTS
) -> list[InvariantViolation]:
    """Run all hard invariants over one corpus cell."""
    violations: list[InvariantViolation] = []
    schema_errors = validate_journal(cell.records)
    for error in schema_errors[:5]:
        violations.append(
            InvariantViolation(cell=cell.name, kind="schema", detail=error)
        )
    if len(schema_errors) > 5:
        violations.append(
            InvariantViolation(
                cell=cell.name,
                kind="schema",
                detail=f"... and {len(schema_errors) - 5} more",
            )
        )
    space = SearchSpace.for_subsystem(cell.subsystem)
    victim, victim_share = cell_victim(cell.records)
    for index, record in enumerate(cell.records):
        if record.get("t") != "anomaly":
            continue
        try:
            mfs = mfs_from_dict(record["mfs"])
        except (KeyError, TypeError, ValueError) as error:
            violations.append(
                InvariantViolation(
                    cell=cell.name,
                    kind="mfs-soundness",
                    detail=f"record {index}: MFS does not parse ({error})",
                )
            )
            continue
        for error in mfs_soundness_errors(mfs, space):
            violations.append(
                InvariantViolation(
                    cell=cell.name,
                    kind="mfs-soundness",
                    detail=f"record {index}: {error}",
                )
            )
        result = reproduce_mfs(
            mfs, cell.subsystem, attempts=attempts,
            victim=victim, victim_share=victim_share,
        )
        if not result.reproduced:
            violations.append(
                InvariantViolation(
                    cell=cell.name,
                    kind="reproduction",
                    detail=f"record {index}: {result.describe()}",
                )
            )
    return violations


def run_invariants(
    cells: list[CorpusCell],
    attempts: int = REPRODUCE_ATTEMPTS,
    progress=None,
) -> list[InvariantViolation]:
    """All hard invariants over the whole corpus."""
    violations: list[InvariantViolation] = []
    for cell in cells:
        found = check_cell(cell, attempts=attempts)
        violations.extend(found)
        if progress is not None:
            (counts,) = run_folds(cell.records, RecordCounts())
            anomalies = counts.count("anomaly")
            progress(
                f"invariants {cell.name}: {anomalies} anomalies, "
                f"{len(found)} violation(s)"
            )
    return violations
