"""``repro top``: a live terminal dashboard over running journals.

Pure rendering: :func:`render_dashboard` turns a
:class:`~repro.obs.aggregate.CampaignAggregator` snapshot into a plain
ANSI text frame (no curses, no dependencies) — progress totals, the
per-worker liveness table, per-source rollups, per-chain SA rows, the
anomaly timeline tail, and optional drift columns against a baseline
journal (e.g. a canary corpus cell, read gzip-transparently).  The CLI
loop clears the screen between frames with the standard ``ESC[H ESC[2J``
sequence; ``--once`` renders a single frame with no escapes, which is
what scripts and the CI telemetry job consume.
"""

from __future__ import annotations

from typing import Optional

#: Home + clear-screen, emitted between live refreshes only.
CLEAR = "\x1b[H\x1b[2J"


def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _bar(done: int, total: int, width: int = 20) -> str:
    if total <= 0:
        return "-" * width
    filled = min(width, int(round(width * done / total)))
    return "#" * filled + "." * (width - filled)


def render_dashboard(
    snapshot: dict,
    chains: Optional[list] = None,
    baseline: Optional[dict] = None,
    baseline_path: Optional[str] = None,
) -> str:
    """One dashboard frame from an aggregator snapshot.

    ``chains`` is ``CampaignAggregator.chain_diagnostics()`` output;
    ``baseline`` a :func:`~repro.analysis.journaldiff.journal_metrics`
    dict to show drift against (both optional).
    """
    totals = snapshot.get("totals", {})
    lines = ["repro top — live campaign telemetry", ""]
    lines.append(
        f"  experiments {totals.get('experiments', 0):>8}    "
        f"anomalies {totals.get('anomalies', 0):>5}    "
        f"skips {totals.get('skips', 0):>6}    "
        f"runs {totals.get('complete_runs', 0)}/{totals.get('runs', 0)} "
        f"complete"
    )
    lines.append(
        f"  ttfa {_fmt(totals.get('time_to_first_anomaly_seconds')):>9}s   "
        f"coverage {_fmt(totals.get('coverage_fraction')):>7}    "
        f"cache hit {_fmt(totals.get('cache_hit_rate')):>6}    "
        f"latency p99 {_fmt(totals.get('latency_p99_us'))} us"
    )
    workers = snapshot.get("workers", ())
    if workers:
        alive = totals.get("workers_alive", 0)
        lines.append("")
        lines.append(
            f"  workers ({alive}/{len(workers)} alive, "
            f"stale after {snapshot.get('stale_after', 0):g}s)"
        )
        lines.append(
            f"    {'worker':<8} {'progress':<22} {'done':>6} "
            f"{'age':>8}  state"
        )
        for row in workers:
            state = "ALIVE" if row["alive"] else "STALE"
            lines.append(
                f"    {row['worker']:<8} "
                f"[{_bar(row['done'], row['total'])}] "
                f"{row['done']:>3}/{row['total']:<3}"
                f"{row['age_seconds']:>7.1f}s  {state}"
            )
    sources = snapshot.get("sources", ())
    if sources:
        lines.append("")
        lines.append(
            f"    {'journal':<32} {'records':>8} {'exps':>7} "
            f"{'anoms':>6} {'ttfa':>9} {'accept':>7}"
        )
        for row in sources:
            name = row["path"]
            if len(name) > 32:
                name = "…" + name[-31:]
            lines.append(
                f"    {name:<32} {row['records']:>8} "
                f"{row['experiments']:>7} {row['anomalies']:>6} "
                f"{_fmt(row['time_to_first_anomaly_seconds']):>9} "
                f"{_fmt(row['acceptance_rate']):>7}"
            )
            if row.get("error"):
                lines.append(f"      ! {row['error']}")
    chain_rows = [
        (path, diag) for path, diag in (chains or ())
        if diag.chain is not None or diag.decisions
    ]
    if chain_rows:
        lines.append("")
        lines.append(
            f"    {'chain':<7} {'t0':>8} {'decisions':>10} "
            f"{'accept':>7} {'exch':>5} {'ttfa':>9}  best dim"
        )
        for path, diag in chain_rows:
            label = "-" if diag.chain is None else str(diag.chain)
            lines.append(
                f"    {label:<7} {_fmt(diag.t0):>8} "
                f"{diag.decisions:>10} {_fmt(diag.acceptance):>7} "
                f"{diag.exchanges:>5} {_fmt(diag.ttfa):>9}  "
                f"{diag.best_dimension or '-'}"
            )
    timeline = snapshot.get("timeline", ())
    if timeline:
        lines.append("")
        lines.append("  anomaly timeline (most recent last)")
        for entry in timeline:
            chain = (
                f" chain {entry['chain']}" if entry.get("chain") is not None
                else ""
            )
            lines.append(
                f"    t={entry['time_seconds']:>9.1f}s  "
                f"{entry['symptom']:<18} "
                f"{entry['counter']}={entry['counter_value']:g}{chain}"
            )
    if baseline is not None:
        from repro.analysis.journaldiff import GATED_METRICS

        lines.append("")
        label = baseline_path or "baseline"
        lines.append(f"  drift vs {label}")
        for name, higher_better in GATED_METRICS.items():
            base = baseline.get(name)
            live = totals.get(name)
            lines.append(
                f"    {name:<34} baseline {_fmt(base):>9}   "
                f"live {_fmt(live):>9}   {_drift_note(base, live, higher_better)}"
            )
    return "\n".join(lines) + "\n"


def _drift_note(base, live, higher_better: bool) -> str:
    from repro.analysis.journaldiff import relative_change

    if base is None or live is None:
        return "-"
    delta, worse = relative_change(float(base), float(live), higher_better)
    arrow = "=" if abs(delta) < 1e-9 else ("▼" if worse > 0 else "▲")
    return f"{delta:+.1%} {arrow}"


def load_baseline_metrics(path: str) -> dict:
    """``journal_metrics`` of a baseline journal (gzip-transparent).

    Streams the file through the metric folds.  Accepts anything
    :func:`~repro.obs.journal.scan_journal` reads — including committed
    canary corpus cells (``canary/corpus/*.jsonl.gz``) — tolerating a
    torn tail so a baseline can itself be a still-warm journal.
    """
    from repro.obs.folds import JournalMetrics, dispatcher
    from repro.obs.journal import scan_journal

    metrics = JournalMetrics()
    scan_journal(path, dispatcher(*metrics.folds))
    return metrics.result()
