"""Observability: the flight recorder for search campaigns.

Collie's value is *explaining* why a subsystem misbehaves; this package
makes the search itself explainable while in flight:

* :mod:`repro.obs.metrics` — a labeled counter/gauge/histogram registry
  plus a span/timer API, instrumenting the SA loop, the anomaly
  monitor, MFS probing, the evaluation cache and the campaign executor;
* :mod:`repro.obs.journal` — a versioned, structured JSONL run journal
  from which a :class:`~repro.core.collie.SearchReport` (and the
  Figure 4–6 inputs) can be re-rendered bit-identically;
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder` façade the
  hot paths call into (a ``None`` recorder costs one identity check);
* :mod:`repro.obs.logging` — the CLI-side ``logging`` setup helper
  (library code never configures the root logger).

The *search observatory* builds the read side on top of the journal:

* :mod:`repro.obs.folds` — every journal metric, defined once as an
  incremental fold that the post-hoc readers and the live aggregator
  share;
* :mod:`repro.obs.coverage` — 4-D workload-space occupancy maps
  (visited vs MFS-skipped buckets per dimension);
* :mod:`repro.obs.sadiag` — SA diagnostics: per-temperature-epoch
  acceptance rates, per-dimension mutation effectiveness,
  time-to-first-anomaly, per-chain splits for population journals;
* :mod:`repro.obs.profiler` — hierarchical wall-clock span profiler
  with Chrome trace-event export and a terminal self-time table.

The *telemetry plane* streams the journal while it is still being
written (the substrate for the ``repro serve`` campaign daemon):

* :mod:`repro.obs.stream` — incremental journal tail-following with
  torn-tail semantics and resume-from-offset;
* :mod:`repro.obs.aggregate` — live multiplexing of per-worker /
  per-chain journals into one rollup, fed through the same folds
  (heartbeat liveness, TTFA, coverage, cache hit rate, latency p99);
* :mod:`repro.obs.export` — Prometheus text exposition of any metrics
  registry plus aggregator rollups, served by a stdlib ``http.server``
  thread (``/metrics`` + ``/status``, the ``--export-metrics`` flag);
* :mod:`repro.obs.dashboard` — the plain-ANSI ``repro top`` renderer.

Everything is off by default and adds no work to a run that does not
request it.
"""

from repro.obs.aggregate import CampaignAggregator
from repro.obs.coverage import (
    CoverageTracker,
    coverage_from_records,
    render_latency_panel,
)
from repro.obs.dashboard import load_baseline_metrics, render_dashboard
from repro.obs.export import TelemetryServer, render_prometheus
from repro.obs.journal import (
    VERIFY_CORRUPT,
    VERIFY_INCOMPLETE,
    VERIFY_OK,
    RunJournal,
    journal_summary,
    open_journal_text,
    read_journal,
    read_journal_prefix,
    reports_from_journal,
    reports_from_records,
    run_records,
    verify_journal,
)
from repro.obs.logging import setup_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import JournalFollower, follow_journal
from repro.obs.profiler import (
    SpanProfiler,
    chrome_trace,
    render_span_table,
    validate_chrome_trace,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.folds import ChainDiagnostics
from repro.obs.sadiag import (
    per_chain_diagnostics,
    render_sa_diagnostics,
)
from repro.obs.schema import (
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    validate_journal,
    validate_record,
)

__all__ = [
    "CampaignAggregator",
    "ChainDiagnostics",
    "CoverageTracker",
    "FlightRecorder",
    "JournalFollower",
    "MetricsRegistry",
    "RunJournal",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "SpanProfiler",
    "TelemetryServer",
    "VERIFY_CORRUPT",
    "VERIFY_INCOMPLETE",
    "VERIFY_OK",
    "chrome_trace",
    "coverage_from_records",
    "follow_journal",
    "journal_summary",
    "load_baseline_metrics",
    "open_journal_text",
    "per_chain_diagnostics",
    "read_journal",
    "read_journal_prefix",
    "render_dashboard",
    "render_prometheus",
    "render_latency_panel",
    "render_sa_diagnostics",
    "render_span_table",
    "reports_from_journal",
    "reports_from_records",
    "run_records",
    "setup_logging",
    "validate_chrome_trace",
    "validate_journal",
    "validate_record",
    "verify_journal",
]
