"""Observability: the flight recorder for search campaigns.

Collie's value is *explaining* why a subsystem misbehaves; this package
makes the search itself explainable while in flight:

* :mod:`repro.obs.journal` — a versioned, structured JSONL run journal
  of events, from which a :class:`~repro.core.collie.SearchReport`
  (and the Figure 4–6 inputs) can be re-rendered bit-identically, and
  which every view folds: no live tally is kept beside it;
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder` façade the
  hot paths call into (a ``None`` recorder costs one identity check);
* :mod:`repro.obs.logging` — the CLI-side ``logging`` setup helper
  (library code never configures the root logger).

The *search observatory* builds the read side on top of the journal:

* :mod:`repro.obs.folds` — every journal metric, defined once as an
  incremental fold that the post-hoc readers and the live aggregator
  share (their histograms are :mod:`repro.obs.metrics` summaries);
* :mod:`repro.obs.coverage` — 4-D workload-space occupancy maps
  (visited vs MFS-skipped buckets per dimension);
* :mod:`repro.obs.sadiag` — SA diagnostics: per-temperature-epoch
  acceptance rates, per-dimension mutation effectiveness,
  time-to-first-anomaly, per-chain splits for population journals;
* :mod:`repro.obs.profiler` — ``--profile``'s layer spans: one table
  of each pipeline layer's public calls, wrapped from outside while
  installed, with Chrome trace-event export and a terminal self-time
  table.

The *telemetry plane* streams the journal while it is still being
written (the substrate for the ``repro serve`` campaign daemon):

* :mod:`repro.obs.stream` — incremental journal tail-following with
  torn-tail semantics and resume-from-offset;
* :mod:`repro.obs.aggregate` — live multiplexing of per-worker /
  per-chain journals into one rollup, fed through the same folds
  (heartbeat liveness, TTFA, coverage, cache hit rate, latency p99);
* :mod:`repro.obs.export` — Prometheus text exposition of the
  aggregator's rollups of the run's own journal, served by a stdlib
  ``http.server`` thread (``/metrics`` + ``/status``, the
  ``--export-metrics`` flag);
* :mod:`repro.obs.dashboard` — the plain-ANSI ``repro top`` renderer.

Everything is off by default and adds no work to a run that does not
request it.
"""

from repro import lazy_attribute

#: Public name -> the submodule defining it, imported on first use so
#: that a command loads only what it runs (``export`` pulls in
#: ``http.server``, the aggregator the folds).
_SUBMODULES = {
    "CampaignAggregator": "aggregate",
    "ChainDiagnostics": "folds",
    "CoverageTracker": "coverage",
    "FlightRecorder": "recorder",
    "JournalFollower": "stream",
    "RunJournal": "journal",
    "SCHEMA_VERSION": "schema",
    "SUPPORTED_VERSIONS": "schema",
    "SpanProfiler": "profiler",
    "TelemetryServer": "export",
    "VERIFY_CORRUPT": "journal",
    "VERIFY_INCOMPLETE": "journal",
    "VERIFY_OK": "journal",
    "chrome_trace": "profiler",
    "coverage_from_records": "coverage",
    "follow_journal": "stream",
    "journal_summary": "journal",
    "load_baseline_metrics": "dashboard",
    "open_journal_text": "journal",
    "per_chain_diagnostics": "sadiag",
    "read_journal": "journal",
    "read_journal_prefix": "journal",
    "render_dashboard": "dashboard",
    "render_prometheus": "export",
    "render_latency_panel": "coverage",
    "render_sa_diagnostics": "sadiag",
    "render_span_table": "profiler",
    "reports_from_journal": "journal",
    "reports_from_records": "journal",
    "run_records": "journal",
    "setup_logging": "logging",
    "validate_chrome_trace": "profiler",
    "validate_journal": "schema",
    "validate_record": "schema",
    "verify_journal": "journal",
}

__all__ = list(_SUBMODULES)
__getattr__ = lazy_attribute(__name__, _SUBMODULES)
