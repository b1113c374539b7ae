"""Prometheus-text exporter: scrape a live run's journal folds over HTTP.

Two pieces:

* :func:`render_prometheus` — pure rendering of a
  :class:`~repro.obs.aggregate.CampaignAggregator` snapshot into the
  Prometheus text exposition format (v0.0.4): the campaign rollups
  (``repro_campaign_*``, counters as ``*_total``) and one
  ``repro_worker_*`` row per heartbeat slot.  Every number is a fold
  of the run's own journal, the same folds ``repro report`` and
  ``journal diff`` run after the fact; nothing else is exported;
* :class:`TelemetryServer` — a stdlib ``http.server`` thread serving
  ``GET /metrics`` (text exposition) and ``GET /status`` (the
  aggregator snapshot as JSON: per-worker liveness table, per-source
  rollups, anomaly timeline).

The server is strictly read-side: scrapes happen on the server thread,
refresh only the *aggregator* (a journal reader), and never touch the
search — the run stays bit-identical with a scraper attached.  Binding
``port=0`` picks an ephemeral port (``.port`` reports the real one),
which is what the tests and the CI telemetry job use.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

logger = logging.getLogger("repro.obs.export")


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _series(name: str, labels: dict, value) -> str:
    if labels:
        inner = ",".join(
            f'{key}="{_escape_label(val)}"'
            for key, val in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {value:g}"
    return f"{name} {value:g}"


def render_prometheus(
    metrics_snapshot: Optional[dict] = None,
    aggregate_snapshot: Optional[dict] = None,
    prefix: str = "repro",
) -> str:
    """Render a ``CampaignAggregator.snapshot()`` as text exposition.

    ``metrics_snapshot`` is unused: it stays only because callers pass
    the aggregate second (``perfbench/child.py`` calls
    ``render_prometheus({}, snapshot)``).
    """
    if aggregate_snapshot is None:
        return ""
    lines: list[str] = []
    emitted_types: set = set()

    def emit(metric: str, kind: str, labels: dict, value) -> None:
        if value is None:
            return
        name = f"{prefix}_{metric}" if prefix else metric
        if name not in emitted_types:
            lines.append(f"# TYPE {name} {kind}")
            emitted_types.add(name)
        lines.append(_series(name, labels, float(value)))

    totals = aggregate_snapshot.get("totals", {})
    campaign = {
        "campaign_experiments_total": ("counter", "experiments"),
        "campaign_anomalies_total": ("counter", "anomalies"),
        "campaign_skips_total": ("counter", "skips"),
        "campaign_runs_total": ("counter", "runs"),
        "campaign_complete_runs_total": ("counter", "complete_runs"),
        "campaign_ttfa_seconds": ("gauge", "time_to_first_anomaly_seconds"),
        "campaign_coverage_fraction": ("gauge", "coverage_fraction"),
        "campaign_cache_hit_rate": ("gauge", "cache_hit_rate"),
        "campaign_latency_p99_us": ("gauge", "latency_p99_us"),
        "campaign_workers_alive": ("gauge", "workers_alive"),
    }
    for metric, (kind, key) in campaign.items():
        emit(metric, kind, {}, totals.get(key))
    for row in aggregate_snapshot.get("workers", ()):
        labels = {"source": row["source"], "worker": str(row["worker"])}
        emit("worker_up", "gauge", labels, 1.0 if row["alive"] else 0.0)
        emit("worker_heartbeat_age_seconds", "gauge", labels,
             row["age_seconds"])
        emit("worker_tasks_done", "gauge", labels, row["done"])
    return "\n".join(lines) + ("\n" if lines else "")


class TelemetryServer:
    """Background HTTP thread exposing ``/metrics`` and ``/status``.

    ``aggregator`` is the :class:`~repro.obs.aggregate.CampaignAggregator`
    following the run's journal (``None`` serves empty bodies),
    refreshed at scrape time on the server thread so no background
    polling runs between scrapes.
    """

    def __init__(
        self,
        aggregator=None,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.aggregator = aggregator
        # One scrape at a time: the aggregator's fold is not re-entrant
        # and ThreadingHTTPServer handles requests concurrently.
        self._scrape_lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # silence stderr
                logger.debug("telemetry: %s", args)

            def do_GET(self) -> None:
                try:
                    if self.path.split("?")[0] == "/metrics":
                        body = server.scrape_metrics().encode("utf-8")
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                    elif self.path.split("?")[0] == "/status":
                        body = server.scrape_status().encode("utf-8")
                        ctype = "application/json"
                    else:
                        self.send_error(404, "unknown path")
                        return
                except Exception as error:  # surface, don't kill thread
                    self.send_error(500, str(error))
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    # -- scrape bodies (also used directly by tests) ------------------------

    def scrape_metrics(self) -> str:
        with self._scrape_lock:
            if self.aggregator is None:
                return render_prometheus()
            self.aggregator.refresh()
            return render_prometheus({}, self.aggregator.snapshot())

    def scrape_status(self) -> str:
        with self._scrape_lock:
            if self.aggregator is None:
                payload: dict = {"sources": [], "totals": {}, "workers": []}
            else:
                self.aggregator.refresh()
                payload = self.aggregator.snapshot()
        return json.dumps(payload, indent=2, sort_keys=True)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TelemetryServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
        return self

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
