"""The anomaly monitor: detection conditions of §5.2.

Two precisely-defined anomaly classes (§3):

1. **Pause frames** on an uncongested network — pause duration ratio
   above 0.1% (the threshold tolerates the brief pause blips real NICs
   emit while connections settle);
2. **Throughput below specification** — more than 20% under *both* the
   bits/s and the packets/s capability of the RNIC.  The bits bound is
   wire bytes against line rate (MTU framing overhead is not an anomaly);
   the packets bound sums both directions because the RNIC's packet
   engine is shared.

On top of the paper's two symptoms the monitor carries an optional
third, *tail-latency inflation*: a workload whose modeled per-WR p99
exceeds a multiple of its own deterministic latency floor
(:func:`~repro.hardware.model.derive_latency`).  The check runs only on
measurements the throughput/PFC conditions already call healthy, so
enabling it never relabels a paper-symptom anomaly — it can only
surface anomalies the throughput signals miss (an RNIC crawling through
cache refills can still fill the wire).

Each verdict also records whether the traffic looked steady: the
coefficient of variation of the per-second ``tx_bytes_per_sec`` readings
is at most ``stability_cv`` (``AnomalyVerdict.stable``).  No verdict
depends on it; the time a testbed waits for traffic to settle is charged
to the simulated clock instead
(:data:`~repro.cluster.testbed.MEASUREMENT_SECONDS`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.hardware.coexist import UNDEFINED_INTERFERENCE, VictimFloor
from repro.hardware.model import Measurement
from repro.hardware.pfc import PAUSE_RATIO_THRESHOLD
from repro.hardware.subsystems import Subsystem

#: §5.2: a workload 20% below the specification bounds is anomalous.
THROUGHPUT_FRACTION = 0.8

#: Tail-latency trigger: anomalous when the modeled p99 exceeds this
#: multiple of the workload's own deterministic latency floor.  The
#: generic (rule-free) stall tail is analytically bounded below this
#: multiple (see ``LATENCY_REFILL_VISIBILITY`` in the hardware model) —
#: sampled sweeps put healthy workloads under ~2.3x — so a verdict here
#: always means a latency quirk fired: most of a WR's completion time
#: is serialized refills or RNR backoff while the wire stays full.
LATENCY_INFLATION_MULTIPLE = 4.0

HEALTHY = "healthy"
PAUSE_FRAME = "pause frame"
LOW_THROUGHPUT = "low throughput"
LATENCY_INFLATION = "latency inflation"
#: Isolation-domain symptoms (co-run searches only): the victim's
#: shared throughput fell below the §5.2 fraction of its *fair
#: bandwidth share*, or its p99 inflated past the trigger multiple of
#: its own alone-floor.
VICTIM_DEGRADED = "victim degraded"
VICTIM_LATENCY = "victim latency inflation"


@dataclasses.dataclass(frozen=True)
class AnomalyVerdict:
    """Classification of one measurement."""

    #: ``healthy``, ``pause frame``, ``low throughput``, ``latency
    #: inflation`` — or, from the isolation monitor, ``victim
    #: degraded`` / ``victim latency inflation``.
    symptom: str
    pause_ratio: float
    min_wire_gbps: float
    total_packets_per_sec: float
    stable: bool
    #: Modeled per-WR p99.  0.0 when the measurement carries no profile,
    #: or when the trigger's O(1) bound ruled the profile healthy before
    #: the percentile summary was ever built (the profile itself always
    #: has the full numbers via ``measurement.latency.summary()``).
    latency_p99_us: float = 0.0
    #: p99 over the workload's deterministic latency floor (same
    #: placeholder convention as ``latency_p99_us``).  The isolation
    #: monitor reports p99 over the *victim's alone-floor* p99 here.
    latency_inflation: float = 0.0
    #: Isolation runs only: victim shared throughput over its fair
    #: bandwidth share (``None`` for solo verdicts; NaN when the fair
    #: share is zero — see
    #: :data:`~repro.hardware.coexist.UNDEFINED_INTERFERENCE`).
    interference: "float | None" = None

    @property
    def is_anomalous(self) -> bool:
        return self.symptom != HEALTHY


def readings_cv(readings: list) -> "float | None":
    """``std / mean`` of per-second readings, by numpy's reductions.

    Bit for bit ``float(a.std() / a.mean())`` of ``a = np.array(readings)``
    without its Python-level wrappers; ``None`` when the mean is not
    positive, NaN for no readings.  numpy sums a 1-d array sequentially
    from 0.0 below 8 values and pairwise from 8 up, so short windows (the
    search's four seconds) are summed here in plain floats and longer
    ones by ``np.add.reduce``, numpy's own sum.
    """
    count = len(readings)
    if not count:
        return math.nan
    if count < 8:
        total = 0.0
        for value in readings:
            total += value
        mean = total / count
        if mean <= 0:
            return None
        squares = 0.0
        for value in readings:
            deviation = value - mean
            squares += deviation * deviation
    else:
        array = np.array(readings, dtype=np.float64)
        mean = float(np.add.reduce(array)) / count
        if mean <= 0:
            return None
        deviations = array - mean
        squares = float(np.add.reduce(deviations * deviations))
    return math.sqrt(squares / count) / mean


class AnomalyMonitor:
    """Applies the §5.2 conditions to measurements of one subsystem."""

    def __init__(
        self,
        subsystem: Subsystem,
        pause_threshold: float = PAUSE_RATIO_THRESHOLD,
        throughput_fraction: float = THROUGHPUT_FRACTION,
        stability_cv: float = 0.2,
        latency: bool = True,
        latency_multiple: float = LATENCY_INFLATION_MULTIPLE,
    ) -> None:
        self.subsystem = subsystem
        self.pause_threshold = pause_threshold
        self.throughput_fraction = throughput_fraction
        self.stability_cv = stability_cv
        #: Whether the tail-latency trigger participates in verdicts.
        self.latency = latency
        self.latency_multiple = latency_multiple

    def classify(self, measurement: Measurement) -> AnomalyVerdict:
        """Classify one measurement.

        Pause detection reads the sampled pause-duration counter (what a
        real monitor sees); throughput bounds read the per-direction wire
        rates and the summed packet rate.
        """
        stable = self.is_stable(measurement)
        pause_us = measurement.counters["pause_duration_us_per_sec"]
        pause_ratio = pause_us / 1e6
        min_wire = measurement.min_direction_wire_gbps
        total_pps = measurement.total_packets_per_sec

        latency_p99 = 0.0
        inflation = 0.0
        profile = measurement.latency if self.latency else None
        if profile is not None:
            # Hot path: a profile whose grid maximum cannot reach the
            # trigger multiple is healthy without building the summary
            # (its verdict then reports the 0.0 placeholders, like a
            # profile-less measurement); the full estimator runs only
            # for profiles near or over the trigger, or ones something
            # else (the journal recorder, a prior verdict) already
            # summarized.
            summary = profile.cached_summary()
            if summary is None and profile.may_exceed(self.latency_multiple):
                summary = profile.summary()
            if summary is not None:
                latency_p99 = summary["p99_us"]
                inflation = summary["inflation"]

        if pause_ratio > self.pause_threshold:
            symptom = PAUSE_FRAME
        elif self._below_both_bounds(min_wire, total_pps):
            symptom = LOW_THROUGHPUT
        elif (
            self.latency
            and profile is not None
            and inflation > self.latency_multiple
        ):
            # Checked last: the paper's symptoms keep precedence, so the
            # trigger only ever promotes previously-healthy workloads.
            symptom = LATENCY_INFLATION
        else:
            symptom = HEALTHY
        return AnomalyVerdict(
            symptom=symptom,
            pause_ratio=pause_ratio,
            min_wire_gbps=min_wire,
            total_packets_per_sec=total_pps,
            stable=stable,
            latency_p99_us=latency_p99,
            latency_inflation=inflation,
        )

    def is_anomalous(self, measurement: Measurement) -> bool:
        return self.classify(measurement).is_anomalous

    def _below_both_bounds(self, wire_gbps: float, pps: float) -> bool:
        rnic = self.subsystem.rnic
        bits_ok = wire_gbps >= self.throughput_fraction * rnic.line_rate_gbps
        pps_ok = pps >= self.throughput_fraction * rnic.max_pps
        return not (bits_ok or pps_ok)

    def is_stable(self, measurement: Measurement) -> bool:
        """Coefficient-of-variation check across the per-second samples.

        The CV of the ``tx_bytes_per_sec`` readings (:func:`readings_cv`).
        A window whose mean is not positive is stable; an empty one is
        not (its CV is NaN).
        """
        cv = readings_cv(
            [s.get("tx_bytes_per_sec") for s in measurement.samples]
        )
        if cv is None:
            return True
        return cv <= self.stability_cv


class IsolationMonitor(AnomalyMonitor):
    """Victim-degradation verdicts for co-run (isolation) searches.

    Classifies the *victim's* co-run measurements (what a
    :class:`~repro.hardware.coexist.CoRunModel` testbed produces)
    against the victim's own deterministic alone-floor
    (:class:`~repro.hardware.coexist.VictimFloor`) instead of the
    RNIC's full specification — a tenant holding half the bandwidth is
    not anomalous for running at half the line rate:

    * **victim degraded** — shared throughput below the §5.2 fraction
      (default 80%) of the victim's *fair bandwidth share*;
    * **victim latency inflation** — shared p99 above the trigger
      multiple of the victim's own alone-floor p99.

    PFC pause keeps its paper precedence (a victim pushed into emitting
    pause frames is the worst isolation failure); the latency trigger
    again runs last, so it only promotes co-runs the throughput signals
    call healthy.  Every verdict carries ``interference`` — shared
    throughput over fair share — which every ``experiment`` record of
    an isolation run journals (the ``Isolation`` fold reads it).
    """

    def __init__(
        self,
        subsystem: Subsystem,
        floor: VictimFloor,
        pause_threshold: float = PAUSE_RATIO_THRESHOLD,
        throughput_fraction: float = THROUGHPUT_FRACTION,
        stability_cv: float = 0.2,
        latency: bool = True,
        latency_multiple: float = LATENCY_INFLATION_MULTIPLE,
    ) -> None:
        super().__init__(
            subsystem,
            pause_threshold=pause_threshold,
            throughput_fraction=throughput_fraction,
            stability_cv=stability_cv,
            latency=latency,
            latency_multiple=latency_multiple,
        )
        #: The pinned victim's solo baseline (noise-free, full part).
        self.floor = floor

    def classify(self, measurement: Measurement) -> AnomalyVerdict:
        """Classify one co-run measurement of the victim."""
        stable = self.is_stable(measurement)
        pause_us = measurement.counters["pause_duration_us_per_sec"]
        pause_ratio = pause_us / 1e6
        min_wire = measurement.min_direction_wire_gbps
        total_pps = measurement.total_packets_per_sec
        shared_gbps = measurement.directions[0].wire_gbps
        fair_gbps = self.floor.fair_share_gbps
        interference = (
            shared_gbps / fair_gbps
            if fair_gbps > 0
            else UNDEFINED_INTERFERENCE
        )

        latency_p99 = 0.0
        inflation = 0.0
        alone_p99 = self.floor.alone_p99_us
        profile = measurement.latency if self.latency else None
        if profile is not None and alone_p99 > 0:
            # Same hot-path shape as the base monitor, with the O(1)
            # bound taken against the victim's alone-floor p99: a
            # profile whose grid maximum cannot reach the trigger is
            # healthy without building the percentile summary, and the
            # verdict is the same whether or not something else already
            # summarized the profile.
            summary = profile.cached_summary()
            if summary is None and profile.may_exceed_value(
                self.latency_multiple * alone_p99
            ):
                summary = profile.summary()
            if summary is not None:
                latency_p99 = summary["p99_us"]
                inflation = latency_p99 / alone_p99

        if pause_ratio > self.pause_threshold:
            symptom = PAUSE_FRAME
        elif fair_gbps > 0 and shared_gbps < (
            self.throughput_fraction * fair_gbps
        ):
            symptom = VICTIM_DEGRADED
        elif (
            self.latency
            and profile is not None
            and inflation > self.latency_multiple
        ):
            symptom = VICTIM_LATENCY
        else:
            symptom = HEALTHY
        return AnomalyVerdict(
            symptom=symptom,
            pause_ratio=pause_ratio,
            min_wire_gbps=min_wire,
            total_packets_per_sec=total_pps,
            stable=stable,
            latency_p99_us=latency_p99,
            latency_inflation=inflation,
            interference=interference,
        )
