"""Extension bench: memoized evaluation + process-parallel campaigns.

The acceptance scenario for the executor/cache subsystem: a 3-seed
Figure 4-style Collie campaign on subsystem F, run once serially from a
cold start and once with ``workers=3`` and a warm :class:`EvalCache`.
The warm parallel run must be at least twice as fast on parallel
hardware while producing bit-identical reports (the determinism suite
in ``tests/core/test_determinism.py`` pins the identity independently;
this bench re-checks it on the full-budget campaign).

On single-core hosts process fan-out cannot buy wall time, so the 2x
bound is asserted only when at least 3 CPUs are available; the cache's
serial benefit (skipped solver calls) is asserted everywhere.
"""

import os
import time

from benchmarks.conftest import (
    BUDGET_HOURS,
    SEEDS,
    print_artifact,
    record_result,
)
from repro.analysis.campaign import run_campaign
from repro.analysis.serialize import mfs_to_dict
from repro.core import EvalCache

CAMPAIGN_SEEDS = tuple(range(1, max(SEEDS, 3) + 1))


def campaign_fingerprint(result):
    return [
        (
            [mfs_to_dict(a) for a in report.anomalies],
            [sorted(e.counters.items()) for e in report.events],
        )
        for report in result.reports
    ]


def run_scenario():
    started = time.perf_counter()
    serial = run_campaign(
        "collie", "F", seeds=CAMPAIGN_SEEDS, budget_hours=BUDGET_HOURS,
        workers=1,
    )
    serial_seconds = time.perf_counter() - started

    # Warm the cache with the evaluations the serial campaign performed.
    cache = EvalCache()
    run_campaign(
        "collie", "F", seeds=CAMPAIGN_SEEDS, budget_hours=BUDGET_HOURS,
        workers=1, cache=cache,
    )
    warm_snapshot = cache.snapshot()

    started = time.perf_counter()
    parallel = run_campaign(
        "collie", "F", seeds=CAMPAIGN_SEEDS, budget_hours=BUDGET_HOURS,
        workers=3, cache=cache,
    )
    parallel_seconds = time.perf_counter() - started

    hits = cache.hits - warm_snapshot[0]
    misses = cache.misses - warm_snapshot[1]
    return {
        "serial": serial,
        "parallel": parallel,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "warm_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache": cache,
    }


def test_cache_executor_speedup(benchmark):
    data = benchmark.pedantic(run_scenario, rounds=1, iterations=1)
    speedup = data["serial_seconds"] / max(data["parallel_seconds"], 1e-9)
    stats = data["parallel"].executor_stats
    record_result(
        "cache_executor",
        serial_seconds=data["serial_seconds"],
        parallel_seconds=data["parallel_seconds"],
        speedup=speedup,
        warm_hit_rate=data["warm_hit_rate"],
        fell_back_serial=stats.fell_back_serial,
    )
    print_artifact(
        "Campaign acceleration: 3-seed Collie campaign on subsystem F "
        f"({BUDGET_HOURS:.0f}h budget/seed)",
        "\n".join(
            [
                f"  serial cold:      {data['serial_seconds']:.2f}s wall",
                f"  3 workers + warm: {data['parallel_seconds']:.2f}s wall "
                f"({speedup:.2f}x)",
                f"  warm hit rate:    {data['warm_hit_rate']:.1%}",
                f"  executor:         {stats.describe()}",
                f"  host CPUs:        {os.cpu_count()}",
            ]
        )
        + "\n" + data["cache"].describe(),
    )
    # Identity first: acceleration must not change a single bit.
    assert campaign_fingerprint(data["serial"]) == campaign_fingerprint(
        data["parallel"]
    )
    # The warm cache serves nearly every point of the repeated campaign.
    assert data["warm_hit_rate"] > 0.9
    # On parallel hardware the combination must at least halve the wall
    # time; a single-core host cannot parallelize, so there the executor
    # only needs to stay within the serial ballpark.
    if (os.cpu_count() or 1) >= 3 and not stats.fell_back_serial:
        assert speedup >= 2.0
    else:
        assert speedup >= 0.5
