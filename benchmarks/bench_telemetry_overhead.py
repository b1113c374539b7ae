"""Telemetry-plane overhead bench: watching a run is ~free.

The same journaled campaign (subsystem F, three seeds, quick budget)
runs bare and with the full live-telemetry stack attached — heartbeat
records on, a :class:`~repro.obs.aggregate.CampaignAggregator` tailing
the journal, a :class:`~repro.obs.export.TelemetryServer` serving
``/metrics``, and a scraper thread hammering the endpoint for the whole
run.  The attached side must cost < 2% extra wall-clock: the plane's
design makes that possible because every reader polls the journal file
from its own thread (the writer is never locked, signalled or even
aware), and the writer's only extra work is one ``heartbeat`` line per
completed task.

Each side's wall time is the minimum over several rounds, alternating
which side runs first within a round (as in
``bench_latency_overhead.py``): host frequency drift between
back-to-back passes is larger than the gate itself, and alternation
keeps it out of the minima.
"""

import os
import tempfile
import threading
import time
import urllib.request

from benchmarks.conftest import print_artifact, record_result
from repro.analysis.campaign import run_campaign
from repro.obs import (
    CampaignAggregator,
    FlightRecorder,
    RunJournal,
    TelemetryServer,
)

#: Interleaved timing rounds per side; the minimum is reported.
ROUNDS = int(os.environ.get("REPRO_TELEMETRY_BENCH_ROUNDS", "7"))
SUBSYSTEM = "F"
SEEDS = (1, 2, 3)
BUDGET_HOURS = 2.0
#: Seconds between scrapes of ``/metrics`` while the campaign runs.
#: Still orders of magnitude hotter than a production Prometheus
#: cadence (15s on runs lasting hours): the bench host is single-core,
#: so every scrape's full cost — HTTP handler, aggregator fold, text
#: rendering, even the client's own urllib work — is charged to the
#: campaign's wall-clock.  Production overhead is far below the gate.
SCRAPE_INTERVAL = 0.1
#: The gate: attaching the telemetry plane may cost at most this.
OVERHEAD_CEILING = 0.02


def campaign(path, recorder):
    result = run_campaign(
        "collie", subsystem=SUBSYSTEM, seeds=SEEDS,
        budget_hours=BUDGET_HOURS, recorder=recorder,
    )
    recorder.close()
    return result


def bare_side(directory, tag):
    """Wall seconds of the journaled campaign, nobody watching."""
    path = os.path.join(directory, f"bare-{tag}.jsonl")
    started = time.perf_counter()
    campaign(path, FlightRecorder(journal=RunJournal(path)))
    return time.perf_counter() - started


def observed_side(directory, tag):
    """Wall seconds with heartbeats + aggregator + a busy scraper."""
    path = os.path.join(directory, f"observed-{tag}.jsonl")
    recorder = FlightRecorder(journal=RunJournal(path), heartbeats=True)
    server = TelemetryServer(aggregator=CampaignAggregator([path])).start()
    stop = threading.Event()
    scrapes = [0]

    def scraper():
        while not stop.is_set():
            with urllib.request.urlopen(server.url("/metrics")) as resp:
                resp.read()
            scrapes[0] += 1
            stop.wait(SCRAPE_INTERVAL)

    thread = threading.Thread(target=scraper, daemon=True)
    started = time.perf_counter()
    thread.start()
    try:
        campaign(path, recorder)
        elapsed = time.perf_counter() - started
    finally:
        stop.set()
        thread.join(timeout=5.0)
        server.close()
    return elapsed, scrapes[0]


def run_overhead_scenario():
    with tempfile.TemporaryDirectory() as tmp:
        bare_side(tmp, "warm")  # warm both sides before timing
        observed_side(tmp, "warm")
        observed = bare = float("inf")
        total_scrapes = 0
        for index in range(ROUNDS):
            sides = ("observed", "bare") if index % 2 else ("bare", "observed")
            for side in sides:
                if side == "bare":
                    bare = min(bare, bare_side(tmp, f"r{index}"))
                else:
                    seconds, scrapes = observed_side(tmp, f"r{index}")
                    observed = min(observed, seconds)
                    total_scrapes += scrapes
    return {
        "bare_seconds": bare,
        "observed_seconds": observed,
        "scrapes": total_scrapes,
    }


def test_telemetry_overhead(benchmark):
    data = benchmark.pedantic(run_overhead_scenario, rounds=1, iterations=1)
    overhead = (
        (data["observed_seconds"] - data["bare_seconds"])
        / data["bare_seconds"]
    )
    record_result(
        "telemetry",
        subsystem=SUBSYSTEM,
        campaign_seeds=len(SEEDS),
        campaign_budget_hours=BUDGET_HOURS,
        rounds=ROUNDS,
        bare_seconds=data["bare_seconds"],
        observed_seconds=data["observed_seconds"],
        overhead_fraction=overhead,
        scrapes=data["scrapes"],
        overhead_ceiling=OVERHEAD_CEILING,
    )
    print_artifact(
        f"Telemetry-plane overhead: {len(SEEDS)}-seed {SUBSYSTEM} campaign "
        f"({BUDGET_HOURS:g}h budget, best of {ROUNDS})",
        "\n".join(
            [
                f"  bare:     {data['bare_seconds'] * 1e3:.1f}ms",
                f"  observed: {data['observed_seconds'] * 1e3:.1f}ms "
                f"({overhead:+.2%}, gate < {OVERHEAD_CEILING:.0%})",
                f"  scraped /metrics {data['scrapes']} times while running",
            ]
        ),
    )
    # The observed side must have actually been observed.
    assert data["scrapes"] > 0, "the scraper never reached /metrics"
    assert overhead < OVERHEAD_CEILING, (
        f"telemetry plane overhead {overhead:+.2%} >= "
        f"{OVERHEAD_CEILING:.0%} on the quick campaign"
    )
