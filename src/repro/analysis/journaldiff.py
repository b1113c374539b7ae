"""Cross-run regression diffing over flight-recorder journals.

``repro journal diff BASELINE CANDIDATE`` compares two journals of the
*same* configuration (subsystem, budget, counter mode — typically two
builds of the tool, or the same build before and after a change) and
answers the observatory's gating question: **did search quality
regress?**

Three metrics are *gated* — a regression in any of them fails the diff:

* ``anomalies`` — distinct MFSes found (higher is better);
* ``time_to_first_anomaly_seconds`` — simulated seconds until the first
  anomalous experiment, the minimum over runs (lower is better);
* ``coverage_fraction`` — mean per-dimension fraction of the workload
  space visited, recomputed from the journal's experiment records so a
  self-diff is exactly zero (higher is better).

Everything else (experiments, skips, SA acceptance rate, per-phase
profiler self-times) is *informational*: printed for the reader, never
gating, because wall-clock and stochastic-rate drift between runs is
expected noise.

A metric the baseline reports but the candidate lacks (e.g. the
baseline found an anomaly and the candidate never did) is always a
regression; the reverse — the candidate gaining a metric — is an
improvement.  Comparisons apply a relative tolerance (default 5%) so
benign jitter does not gate.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.obs.folds import JournalMetrics, run_folds

#: Default relative tolerance before a worse value counts as a regression.
DEFAULT_TOLERANCE = 0.05

#: Gated metrics: name → True when higher is better.
GATED_METRICS = {
    "anomalies": True,
    "time_to_first_anomaly_seconds": False,
    "coverage_fraction": True,
}

#: Informational metrics journal_metrics also reports (never gating).
#: The latency family is informational because schema-v3 journals carry
#: no latency records at all: gating would turn every old-vs-new diff
#: into a false regression instead of an honest "-" column.
INFO_METRICS = (
    "experiments",
    "skips",
    "elapsed_seconds",
    "acceptance_rate",
    "latency_records",
    "latency_p99_us_median",
    "latency_inflation_max",
    "isolation_experiments",
    "interference_min",
)


def journal_metrics(records: list[dict]) -> dict:
    """Distil one journal into the comparable metric dict.

    One pass of the :class:`~repro.obs.folds.JournalMetrics` folds —
    the same fold classes the live aggregator runs.
    """
    metrics = JournalMetrics()
    run_folds(records, *metrics.folds)
    return metrics.result()


@dataclasses.dataclass(frozen=True)
class DiffEntry:
    """One compared metric."""

    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    gated: bool
    regressed: bool
    note: str = ""


@dataclasses.dataclass
class DiffResult:
    """Outcome of one baseline-vs-candidate comparison."""

    entries: list[DiffEntry]
    tolerance: float

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def relative_change(baseline, candidate, higher_better: bool) -> tuple:
    """``(delta, worse)``: the candidate's change over the larger of the
    two magnitudes, and that change signed so that positive is worse
    (shared by ``journal diff`` and the ``repro top`` drift rows)."""
    delta = (candidate - baseline) / max(abs(baseline), abs(candidate), 1e-12)
    return delta, -delta if higher_better else delta


def _compare(
    metric: str, baseline, candidate, higher_better: bool, tolerance: float
) -> DiffEntry:
    if baseline is None and candidate is None:
        return DiffEntry(metric, None, None, True, False, "absent in both")
    if baseline is None:
        return DiffEntry(
            metric, None, candidate, True, False, "candidate gained metric"
        )
    if candidate is None:
        return DiffEntry(
            metric, baseline, None, True, True,
            "baseline reports it, candidate does not",
        )
    baseline = float(baseline)
    candidate = float(candidate)
    delta, worse = relative_change(baseline, candidate, higher_better)
    return DiffEntry(
        metric, baseline, candidate, True, worse > tolerance, f"{delta:+.1%}"
    )


def diff_journals(
    baseline_records: list[dict],
    candidate_records: list[dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> DiffResult:
    """Compare two journals; only :data:`GATED_METRICS` can regress."""
    return diff_metrics(
        journal_metrics(baseline_records),
        journal_metrics(candidate_records),
        tolerance,
    )


def diff_metrics(
    base: dict, cand: dict, tolerance: float = DEFAULT_TOLERANCE
) -> DiffResult:
    """Compare two :func:`journal_metrics` dicts."""
    entries = [
        _compare(name, base[name], cand[name], higher_better, tolerance)
        for name, higher_better in GATED_METRICS.items()
    ]
    for name in INFO_METRICS:
        entries.append(
            DiffEntry(name, base[name], cand[name], False, False)
        )
    base_spans = base["span_self_seconds"]
    cand_spans = cand["span_self_seconds"]
    for path in sorted(set(base_spans) | set(cand_spans)):
        entries.append(
            DiffEntry(
                f"self_seconds[{path}]",
                base_spans.get(path), cand_spans.get(path),
                False, False,
            )
        )
    return DiffResult(entries=entries, tolerance=tolerance)


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def render_diff(result: DiffResult) -> str:
    """Human-readable diff table plus an explicit final verdict line."""
    header = f"{'metric':<34} {'baseline':>12} {'candidate':>12}  status"
    lines = [header, "-" * len(header)]
    for entry in result.entries:
        if entry.regressed:
            status = "REGRESSED"
        elif entry.gated:
            status = "ok"
        else:
            status = "info"
        if entry.note:
            status = f"{status} ({entry.note})"
        lines.append(
            f"{entry.metric:<34} {_format_value(entry.baseline):>12} "
            f"{_format_value(entry.candidate):>12}  {status}"
        )
    if result.ok:
        lines.append(
            f"verdict: no regressions "
            f"(tolerance {result.tolerance:.0%} on gated metrics)"
        )
    else:
        names = ", ".join(e.metric for e in result.regressions)
        lines.append(f"verdict: REGRESSION in {names}")
    return "\n".join(lines)
