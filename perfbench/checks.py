"""What makes one benchmark operation's output correct.

Pure functions over plain JSON data, shared by the parent (``run.py``),
the child (``child.py``) and the tests.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Report fields one search digest covers: experiments, skips, MFS list.
DIGEST_FIELDS = ("experiments", "skipped_points", "anomalies")

#: Live aggregator fields that must equal the post-hoc ``journal_metrics``
#: of the same finished journal.
FOLLOW_FIELDS = (
    "time_to_first_anomaly_seconds",
    "acceptance_rate",
    "coverage_fraction",
    "latency_p99_us_median",
)


def digest(report: dict) -> str:
    """Digest of one ``report_to_dict`` search report."""
    body = json.dumps(
        {key: report[key] for key in DIGEST_FIELDS}, sort_keys=True
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def failed_searches(expected: dict, actual: dict, recorded: dict) -> set:
    """Keys of the searches whose digest differs from the reference
    (``expected``) or from the digest recorded with the benchmark;
    a search missing from ``actual`` fails too."""
    return {
        key
        for reference in (expected, recorded)
        for key, value in reference.items()
        if actual.get(key) != value
    }


def follow_mismatches(live: dict, posthoc: dict) -> list:
    """:data:`FOLLOW_FIELDS` on which the live view and the post-hoc
    metrics of the same journal disagree."""
    bad = []
    for key in FOLLOW_FIELDS:
        a, b = live.get(key), posthoc.get(key)
        if a is None or b is None:
            if a is not b:
                bad.append(key)
        elif not math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0):
            bad.append(key)
    return bad
