"""``repro canary check``: re-run the matrix, gate against the corpus.

The check has three layers, all of which must pass:

1. the corpus itself loads and passes integrity checks
   (:func:`repro.canary.corpus.load_corpus`);
2. the **hard invariant pass** over the corpus
   (:mod:`repro.canary.invariants`);
3. the matrix re-runs fresh under the *manifest's* spec (not the
   current defaults — the corpus defines the campaign) and the two
   populations go through the **drift gate**
   (:mod:`repro.canary.drift`).

Exit semantics mirror ``repro journal diff``: 0 clean, 1 drift or
invariant violation (naming culprit metric, subsystem and seed), 2 the
corpus is unreadable.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Optional, Union

from repro.canary.corpus import (
    CorpusError,
    code_fingerprint,
    load_corpus,
)
from repro.canary.drift import (
    CellMetrics,
    DriftGates,
    DriftReport,
    cell_metrics,
    diff_populations,
    render_drift,
)
from repro.canary.invariants import InvariantViolation, run_invariants
from repro.canary.matrix import MatrixSpec, run_matrix
from repro.core.reproducer import REPRODUCE_ATTEMPTS
from repro.obs.folds import RecordCounts, run_folds
from repro.obs.journal import read_journal_prefix

#: Exit codes, mirroring ``repro journal diff``.
CHECK_OK = 0
CHECK_DRIFT = 1
CHECK_UNREADABLE = 2


@dataclasses.dataclass
class CanaryResult:
    """Everything one canary check decided."""

    exit_code: int
    drift: Optional[DriftReport]
    violations: list[InvariantViolation]
    corpus_fingerprint: Optional[str]
    current_fingerprint: str
    cells_checked: int
    error: Optional[str] = None
    #: "unknown record kind skipped" notes from corpus cells written by
    #: a newer schema — surfaced, never silently dropped (informational:
    #: the drift gates compare only the kinds both builds understand).
    skipped_kinds: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == CHECK_OK


def fresh_cell_metrics(
    spec: MatrixSpec,
    out_dir: Union[str, os.PathLike],
    progress: Optional[Callable[[str], None]] = None,
) -> list[CellMetrics]:
    """Run the matrix fresh and fold every cell into its metrics."""
    results = run_matrix(spec, out_dir, progress=progress)
    fresh: list[CellMetrics] = []
    for name, info in results.items():
        records, tail_error = read_journal_prefix(info["path"])
        if tail_error is not None:  # pragma: no cover - defensive
            raise CorpusError(
                f"fresh cell {name} is truncated: {tail_error}"
            )
        fresh.append(
            cell_metrics(info["subsystem"], info["seed"], records)
        )
    return fresh


def canary_check(
    corpus_dir: Union[str, os.PathLike],
    fresh_dir: Union[str, os.PathLike],
    gates: DriftGates = DriftGates(),
    attempts: int = REPRODUCE_ATTEMPTS,
    skip_invariants: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> CanaryResult:
    """The whole check; never raises for corpus problems (exit code 2).

    ``fresh_dir`` receives the re-run matrix's journals and is left in
    place afterwards — CI uploads it as the failure artifact.
    """
    current = code_fingerprint()
    try:
        manifest, cells = load_corpus(corpus_dir)
    except CorpusError as error:
        return CanaryResult(
            exit_code=CHECK_UNREADABLE,
            drift=None,
            violations=[],
            corpus_fingerprint=None,
            current_fingerprint=current,
            cells_checked=0,
            error=str(error),
        )
    try:
        spec = MatrixSpec.from_dict(manifest["spec"])
    except (KeyError, TypeError, ValueError) as error:
        return CanaryResult(
            exit_code=CHECK_UNREADABLE,
            drift=None,
            violations=[],
            corpus_fingerprint=manifest.get("code_fingerprint"),
            current_fingerprint=current,
            cells_checked=0,
            error=f"corpus spec does not parse: {error}",
        )

    skipped_kinds = [
        f"corpus cell {cell.subsystem}-s{cell.seed}: {note}"
        for cell in cells
        for note in run_folds(cell.records, RecordCounts())[0].unknown_notes()
    ]

    violations: list[InvariantViolation] = []
    if not skip_invariants:
        violations = run_invariants(
            cells, attempts=attempts, progress=progress
        )

    baseline = [
        cell_metrics(cell.subsystem, cell.seed, cell.records)
        for cell in cells
    ]
    fresh = fresh_cell_metrics(spec, fresh_dir, progress=progress)
    drift = diff_populations(baseline, fresh, gates=gates)

    exit_code = CHECK_OK
    if violations or not drift.ok:
        exit_code = CHECK_DRIFT
    return CanaryResult(
        exit_code=exit_code,
        drift=drift,
        violations=violations,
        corpus_fingerprint=manifest.get("code_fingerprint"),
        current_fingerprint=current,
        cells_checked=len(cells),
        skipped_kinds=skipped_kinds,
    )


def render_check(result: CanaryResult) -> str:
    """Human-readable verdict of one canary check."""
    if result.error is not None:
        return f"canary: corpus unreadable — {result.error}"
    lines = [
        f"canary: {result.cells_checked} corpus cell(s); corpus code "
        f"{str(result.corpus_fingerprint)[:12]}, current code "
        f"{result.current_fingerprint[:12]}"
    ]
    lines.extend(result.skipped_kinds)
    if result.violations:
        lines.append(
            f"hard invariants: {len(result.violations)} violation(s)"
        )
        for violation in result.violations:
            lines.append("  " + violation.describe())
    else:
        lines.append("hard invariants: all pass")
    if result.drift is not None:
        lines.append(render_drift(result.drift))
    lines.append(
        "canary verdict: "
        + ("OK" if result.ok else "FAILING (exit 1)")
    )
    return "\n".join(lines)
