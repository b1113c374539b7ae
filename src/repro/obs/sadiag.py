"""Simulated-annealing diagnostics from a run journal.

Renders the SA folds of :mod:`repro.obs.folds` — the numbers behind the
paper's Fig. 5 ablation: per-temperature-epoch acceptance rates (is the
Metropolis schedule cooling, or is the search a random walk?),
per-dimension mutation effectiveness and time to first anomaly, split
per chain (and so per tempering rung) for population journals.
"""

from __future__ import annotations

from repro.obs.folds import (
    Annealing,
    ChainDiagnostics,
    FirstAnomaly,
    Isolation,
    TemperatureEpochs,
    run_folds,
)


def per_chain_diagnostics(records) -> list[ChainDiagnostics]:
    """Acceptance, effectiveness, exchanges, TTFA and tempering rung
    (``t0``) per chain; an unstamped journal is one ``chain=None``."""
    annealing, ttfa = run_folds(records, Annealing(), FirstAnomaly())
    return annealing.diagnostics(ttfa)


def render_sa_diagnostics(records) -> str:
    """Terminal rendering of the full SA diagnostic fold."""
    ttfa, isolation, schedule, annealing = run_folds(
        records, FirstAnomaly(), Isolation(), TemperatureEpochs(), Annealing()
    )
    lines = ["simulated-annealing diagnostics"]
    first = ttfa.result()
    lines.append(
        "  time to first anomaly: "
        + (f"{first:.0f}s simulated" if first is not None else "never")
    )
    by_symptom = ttfa.symptoms()
    if len(by_symptom) > 1:
        for symptom, seconds in by_symptom.items():
            lines.append(f"    {symptom}: {seconds:.0f}s simulated")
    if isolation.worst is not None:
        interference, seconds = isolation.worst
        lines.append(
            f"  worst victim interference: {interference:.2f} of fair "
            f"share at {seconds:.0f}s simulated"
        )
    prelude = len(lines)
    overall = annealing.result()
    if overall is not None:
        lines.append(f"  overall acceptance rate: {overall:.1%}")
    epochs = schedule.result()
    if epochs:
        lines.append("  temperature epochs:")
        lines.append(
            f"    {'temp':>8} {'improve':>8} {'accept':>7} {'reject':>7} "
            f"{'restart':>8} {'reheat':>7} {'accept %':>9}"
        )
        for epoch in epochs:
            rate = epoch.acceptance_rate
            lines.append(
                f"    {epoch.temperature:>8.4f} {epoch.improve:>8d} "
                f"{epoch.accept:>7d} {epoch.reject:>7d} {epoch.restart:>8d} "
                f"{epoch.reheat:>7d} "
                + (f"{rate:>8.1%}" if rate is not None else f"{'—':>9}")
            )
    dimensions = annealing.dimensions()
    if dimensions:
        lines.append("  mutation effectiveness by dimension:")
        lines.append(
            f"    {'dimension':<14} {'mutations':>9} {'improved':>9} "
            f"{'accepted':>9} {'rejected':>9} {'improve %':>10}"
        )
        for entry in dimensions:
            effectiveness = entry.effectiveness
            lines.append(
                f"    {entry.dimension:<14} {entry.mutations:>9d} "
                f"{entry.improvements:>9d} {entry.accepts:>9d} "
                f"{entry.rejects:>9d} "
                + (
                    f"{effectiveness:>9.1%}"
                    if effectiveness is not None else f"{'—':>10}"
                )
            )
    if len(lines) == prelude:
        lines.append("  no transition records in this journal")
    chains = annealing.diagnostics(ttfa)
    if any(entry.chain is not None for entry in chains):
        lines.append("  per-chain split:")
        lines.append(
            f"    {'chain':>5} {'t0':>8} {'decisions':>9} {'accept %':>9} "
            f"{'exchanges':>9} {'ttfa':>8}  best dimension"
        )
        for entry in chains:
            chain = "—" if entry.chain is None else str(entry.chain)
            t0 = f"{entry.t0:.4f}" if entry.t0 is not None else "—"
            accept = (
                f"{entry.acceptance:.1%}"
                if entry.acceptance is not None else "—"
            )
            ttfa_text = (
                f"{entry.ttfa:.0f}s" if entry.ttfa is not None else "never"
            )
            lines.append(
                f"    {chain:>5} {t0:>8} {entry.decisions:>9d} "
                f"{accept:>9} {entry.exchanges:>9d} {ttfa_text:>8}  "
                + (entry.best_dimension or "—")
            )
    return "\n".join(lines)
