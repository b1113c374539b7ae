"""Statistical drift detection across the canary's seed population.

``repro journal diff`` compares exactly two runs with single-run
tolerances; the canary generalizes it to *populations*: for each
subsystem, the corpus contributes one value per seed and the fresh
matrix contributes another, and each metric is gated on **robust
population statistics** rather than pointwise deltas:

* **median shift** — the fresh population's median moved more than a
  relative tolerance from the corpus median (both directions gate:
  drift is behavioural *change*, improvement included — an "improved"
  canary usually means the search is now exploring a different space,
  which invalidates baselines just as a regression would);
* **spread inflation** — the fresh population's inter-seed spread
  (IQR) inflated well past the corpus's (per-seed determinism means a
  healthy population's spread comes only from the seeds themselves);
* **missing-value count** — seeds that never found an anomaly (TTFA
  absent) are compared by count, not dropped;
* **MFS shape multiset** — the population-wide multiset of extracted
  MFS shapes (symptom × condition arity × mix requirement) must keep
  the same support and approximate counts.

Every finding names the culprit metric, its subsystem, and the seed
whose fresh value deviates most from the corpus population — the
first thing a developer bisecting a behavioural regression needs.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.obs import folds

#: Metric name → higher-level family, for rendering.
#: ``latency_p99_us_median`` gates like TTFA: a corpus recorded before
#: the latency signal existed reports ``None`` on every seed, which the
#: missing-value count surfaces as drift exactly once — when the new
#: default lands — and the corpus refresh that accompanies it clears.
NUMERIC_METRICS = (
    "anomalies",
    "time_to_first_anomaly_seconds",
    "coverage_fraction",
    "mfs_mean_conditions",
    "latency_p99_us_median",
)


@dataclasses.dataclass(frozen=True)
class DriftGates:
    """Thresholds of the population gates.

    Defaults are deliberately tight: the matrix is deterministic per
    seed, so an unchanged search core reproduces the corpus exactly and
    every statistic lands on zero.  The tolerances only exist to admit
    refactors that re-interleave RNG draws without changing what the
    search *finds*.
    """

    #: Relative median shift (of max(|corpus|, |fresh|)) that gates.
    median_tolerance: float = 0.10
    #: Fresh IQR may exceed corpus IQR by this factor plus the slack.
    spread_factor: float = 2.0
    #: Absolute spread slack, as a fraction of the median scale.
    spread_slack: float = 0.10
    #: Total-variation distance over MFS shape multisets that gates.
    shape_tolerance: float = 0.25


@dataclasses.dataclass(frozen=True)
class CellMetrics:
    """One cell's journal distilled into the population-comparable view."""

    subsystem: str
    seed: int
    anomalies: int
    time_to_first_anomaly_seconds: Optional[float]
    coverage_fraction: Optional[float]
    experiments: int
    mfs_shapes: tuple[str, ...]
    mfs_condition_sizes: tuple[int, ...]
    #: Median modeled p99 over the cell's latency records (None for
    #: journals written before the latency signal existed).
    latency_p99_us_median: Optional[float] = None

    @property
    def mfs_mean_conditions(self) -> Optional[float]:
        if not self.mfs_condition_sizes:
            return None
        return float(np.mean(self.mfs_condition_sizes))


def cell_metrics(subsystem: str, seed: int, records: list) -> CellMetrics:
    """Fold one journal into its :class:`CellMetrics` (one pass, only
    the folds the drift gates read)."""
    counts, ttfa, coverage, shapes, latency = folds.run_folds(
        records, folds.RecordCounts(), folds.FirstAnomaly(),
        folds.Coverage(), folds.MFSShapes(), folds.Latency(),
    )
    return CellMetrics(
        subsystem=subsystem,
        seed=seed,
        anomalies=counts.count("anomaly"),
        time_to_first_anomaly_seconds=ttfa.result(),
        coverage_fraction=coverage.result(),
        experiments=counts.count("experiment"),
        mfs_shapes=tuple(sorted(
            shape
            for shape, count in shapes.result().items()
            for _ in range(count)
        )),
        mfs_condition_sizes=tuple(sorted(shapes.sizes)),
        latency_p99_us_median=latency.median(),
    )


@dataclasses.dataclass(frozen=True)
class DriftFinding:
    """One gated population statistic that moved: the named culprit."""

    metric: str
    subsystem: str
    seed: Optional[int]  #: most-deviant fresh seed (None when n/a).
    detail: str

    def describe(self) -> str:
        where = f"subsystem {self.subsystem}"
        if self.seed is not None:
            where += f", seed {self.seed}"
        return f"DRIFT in {self.metric} ({where}): {self.detail}"


@dataclasses.dataclass
class DriftReport:
    """Outcome of one corpus-vs-fresh population comparison."""

    findings: list[DriftFinding]
    subsystems: list[str]
    cells_compared: int
    gates: DriftGates

    @property
    def ok(self) -> bool:
        return not self.findings


def _iqr(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, 75) - np.percentile(values, 25))


def _culprit_seed(
    fresh: list[CellMetrics], values: dict[int, float], center: float
) -> Optional[int]:
    """The fresh seed deviating most from the corpus center."""
    if not values:
        return None
    scale = max(abs(center), 1e-12)
    return max(
        values, key=lambda seed: abs(values[seed] - center) / scale
    )


def _gate_numeric(
    metric: str,
    subsystem: str,
    baseline: list[CellMetrics],
    fresh: list[CellMetrics],
    gates: DriftGates,
) -> list[DriftFinding]:
    base_values = {
        c.seed: getattr(c, metric) for c in baseline
        if getattr(c, metric) is not None
    }
    fresh_values = {
        c.seed: getattr(c, metric) for c in fresh
        if getattr(c, metric) is not None
    }
    findings: list[DriftFinding] = []
    # Seeds with a missing value (e.g. TTFA of a run that never found
    # an anomaly) gate by count: losing the metric on a seed *is* the
    # behavioural change, not noise to be dropped.
    if len(base_values) != len(fresh_values):
        changed = set(base_values) ^ set(fresh_values)
        findings.append(
            DriftFinding(
                metric=metric,
                subsystem=subsystem,
                seed=min(changed) if changed else None,
                detail=(
                    f"{len(base_values)}/{len(baseline)} corpus seeds "
                    f"report it, {len(fresh_values)}/{len(fresh)} fresh "
                    f"seeds do"
                ),
            )
        )
        return findings
    if not base_values:
        return findings  # absent on both sides: nothing to compare
    base = np.array(sorted(base_values.values()), dtype=float)
    new = np.array(sorted(fresh_values.values()), dtype=float)
    base_median = float(np.median(base))
    fresh_median = float(np.median(new))
    scale = max(abs(base_median), abs(fresh_median), 1e-12)
    shift = (fresh_median - base_median) / scale
    if abs(shift) > gates.median_tolerance:
        findings.append(
            DriftFinding(
                metric=metric,
                subsystem=subsystem,
                seed=_culprit_seed(fresh, fresh_values, base_median),
                detail=(
                    f"median {base_median:.6g} -> {fresh_median:.6g} "
                    f"({shift:+.1%}, tolerance "
                    f"{gates.median_tolerance:.0%})"
                ),
            )
        )
    base_iqr = _iqr(base)
    fresh_iqr = _iqr(new)
    allowed = base_iqr * gates.spread_factor + gates.spread_slack * scale
    if fresh_iqr > allowed:
        findings.append(
            DriftFinding(
                metric=metric,
                subsystem=subsystem,
                seed=_culprit_seed(fresh, fresh_values, base_median),
                detail=(
                    f"seed spread inflated: IQR {base_iqr:.6g} -> "
                    f"{fresh_iqr:.6g} (allowed {allowed:.6g})"
                ),
            )
        )
    return findings


def _shape_counts(cells: list[CellMetrics]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for cell in cells:
        for shape in cell.mfs_shapes:
            counts[shape] = counts.get(shape, 0) + 1
    return counts


def _gate_shapes(
    subsystem: str,
    baseline: list[CellMetrics],
    fresh: list[CellMetrics],
    gates: DriftGates,
) -> list[DriftFinding]:
    base = _shape_counts(baseline)
    new = _shape_counts(fresh)
    if base == new:
        return []

    def most_changed_seed() -> Optional[int]:
        by_seed_base = {c.seed: c.mfs_shapes for c in baseline}
        deltas = {
            c.seed: len(
                set(c.mfs_shapes) ^ set(by_seed_base.get(c.seed, ()))
            )
            for c in fresh
        }
        if not deltas:
            return None
        return max(deltas, key=lambda seed: deltas[seed])

    vanished = sorted(set(base) - set(new))
    appeared = sorted(set(new) - set(base))
    if vanished or appeared:
        parts = []
        if vanished:
            parts.append(f"shapes vanished: {', '.join(vanished)}")
        if appeared:
            parts.append(f"new shapes: {', '.join(appeared)}")
        return [
            DriftFinding(
                metric="mfs_shapes",
                subsystem=subsystem,
                seed=most_changed_seed(),
                detail="; ".join(parts),
            )
        ]
    total = max(sum(base.values()), sum(new.values()), 1)
    distance = sum(
        abs(base.get(shape, 0) - new.get(shape, 0))
        for shape in set(base) | set(new)
    ) / total
    if distance > gates.shape_tolerance:
        return [
            DriftFinding(
                metric="mfs_shapes",
                subsystem=subsystem,
                seed=most_changed_seed(),
                detail=(
                    f"shape multiset moved (total variation "
                    f"{distance:.0%} > {gates.shape_tolerance:.0%}): "
                    f"{base} -> {new}"
                ),
            )
        ]
    return []


def diff_populations(
    baseline: list[CellMetrics],
    fresh: list[CellMetrics],
    gates: DriftGates = DriftGates(),
) -> DriftReport:
    """Gate a fresh matrix population against the corpus population."""
    by_subsystem_base: dict[str, list[CellMetrics]] = {}
    for cell in baseline:
        by_subsystem_base.setdefault(cell.subsystem, []).append(cell)
    by_subsystem_fresh: dict[str, list[CellMetrics]] = {}
    for cell in fresh:
        by_subsystem_fresh.setdefault(cell.subsystem, []).append(cell)
    findings: list[DriftFinding] = []
    subsystems = sorted(set(by_subsystem_base) | set(by_subsystem_fresh))
    for subsystem in subsystems:
        base_cells = by_subsystem_base.get(subsystem, [])
        fresh_cells = by_subsystem_fresh.get(subsystem, [])
        if not base_cells or not fresh_cells:
            findings.append(
                DriftFinding(
                    metric="population",
                    subsystem=subsystem,
                    seed=None,
                    detail=(
                        f"{len(base_cells)} corpus cell(s) vs "
                        f"{len(fresh_cells)} fresh cell(s)"
                    ),
                )
            )
            continue
        for metric in NUMERIC_METRICS:
            findings.extend(
                _gate_numeric(metric, subsystem, base_cells, fresh_cells,
                              gates)
            )
        findings.extend(
            _gate_shapes(subsystem, base_cells, fresh_cells, gates)
        )
    return DriftReport(
        findings=findings,
        subsystems=subsystems,
        cells_compared=len(fresh),
        gates=gates,
    )


def render_drift(report: DriftReport) -> str:
    """Human-readable drift verdict, culprit-first."""
    lines = [
        f"population drift gate: {report.cells_compared} cell(s) across "
        f"subsystems {', '.join(report.subsystems)}"
    ]
    if report.ok:
        lines.append(
            f"verdict: no drift (median tolerance "
            f"{report.gates.median_tolerance:.0%}, spread factor "
            f"{report.gates.spread_factor:g}x)"
        )
    else:
        for finding in report.findings:
            lines.append("  " + finding.describe())
        first = report.findings[0]
        culprit = f"{first.metric} on subsystem {first.subsystem}"
        if first.seed is not None:
            culprit += f" (seed {first.seed})"
        lines.append(
            f"verdict: DRIFT — {len(report.findings)} finding(s); "
            f"first culprit: {culprit}"
        )
    return "\n".join(lines)
