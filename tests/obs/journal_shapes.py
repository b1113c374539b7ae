"""Test-local rewrites between the two journal record shapes.

Schema v1–v7 records carry workloads and counters as objects and each
latency summary as its own ``latency`` record; v8 and v9 records carry
them as positional arrays on the experiment (see
:mod:`repro.obs.schema`).  The readers never convert one shape into the
other; tests do, to run a keyed-only reference over a positional
journal, or to stamp an old journal's records positional.
"""

from repro.obs.schema import (
    ALL_COUNTERS,
    LATENCY_COMPONENTS,
    LATENCY_KEYS,
    WORKLOAD_FIELDS,
    positional,
)

#: The record field each kind keeps its workload in.
_WORKLOAD_FIELD = {"experiment": "workload", "skip": "workload",
                   "isolation": "victim"}


def as_keyed(records) -> list:
    """Each positional record in its v7 shape, followed, for an
    experiment with a latency summary, by the ``latency`` record a v7
    writer wrote (and, for v9 totals, with the empty ``metrics`` dump
    v7 requires)."""
    out = []
    for record in records:
        if not positional(record):
            out.append(record)
            continue
        record = {**record, "v": 7}
        field = _WORKLOAD_FIELD.get(record["t"])
        if field in record:
            record[field] = dict(zip(WORKLOAD_FIELDS, record[field]))
        latency = record.pop("latency", None)
        if record["t"] in ("run_end", "snapshot"):
            record.setdefault("metrics", {})
        if record["t"] == "experiment":
            record["counters"] = dict(zip(ALL_COUNTERS, record["counters"]))
        out.append(record)
        if latency is not None:
            twin = {"v": 7, "t": "latency",
                    "time_seconds": record["time_seconds"]}
            twin.update(zip(LATENCY_KEYS, latency))
            twin["components"] = dict(
                zip(LATENCY_COMPONENTS, twin["components"])
            )
            if "chain" in record:
                twin["chain"] = record["chain"]
            out.append(twin)
    return out


def as_positional(record: dict, version: int = 8) -> dict:
    """A v1–v7 record stamped ``version`` (8 or 9), in the positional
    shape (its workload and counters as arrays; a ``latency`` record is
    left as it is)."""
    record = {**record, "v": version}
    field = _WORKLOAD_FIELD.get(record["t"])
    if field in record:
        record[field] = [record[field][name] for name in WORKLOAD_FIELDS]
    if record["t"] == "experiment":
        record["counters"] = [record["counters"][name] for name in ALL_COUNTERS]
    return record
