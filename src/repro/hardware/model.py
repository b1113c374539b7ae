"""Steady-state performance model of one experiment.

Given a :class:`~repro.hardware.workload.WorkloadDescriptor` and a
:class:`~repro.hardware.subsystems.Subsystem`, the model prices every
resource a message consumes on its way through the subsystem — wire slots,
RNIC packet-processing events, PCIe bytes in each bus direction, DMA-path
bandwidth — takes the binding constraint per traffic direction, applies
the quirk rules (:mod:`repro.hardware.rules`), and converts any
receiver-side shortfall into PFC pause time exactly as a lossless ingress
buffer would (:mod:`repro.hardware.pfc`).

The result is a :class:`Measurement`: noisy per-second counter samples
(what Collie sees) plus ground-truth fields — fired rule tags, ideal
rates — that only the test suite and benchmarks read.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.hardware.caches import miss_stall_us, pressure_score
from repro.hardware.counters import (
    CounterSample,
    VendorMonitor,
    average_counters,
)
from repro.hardware.features import (
    CATEGORICAL_FEATURES,
    CATEGORY_FEATURES,
    FEATURE_ROWS,
    _pattern,
    category_features,
    extract_feature_columns,
    extract_features,
    feature_dict,
)
from repro.hardware.pcie import CQE_BYTES, DOORBELL_BYTES, TLP_HEADER_BYTES
from repro.hardware.pfc import pause_stall_us, steady_state_pause_ratio
from repro.hardware.rules import (
    FiredRule,
    RuleTable,
    batch_fired_rules,
    fired_latency_rules,
    fired_rules,
)
from repro.hardware.workload import WorkloadDescriptor
from repro.verbs.constants import Opcode, QPType
from repro.verbs.wr import WQE_BASE_BYTES, WQE_SEGMENT_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache
    from repro.hardware.subsystems import Subsystem


@dataclasses.dataclass(frozen=True)
class DirectionRates:
    """Resolved steady-state rates of one traffic direction."""

    name: str  #: ``fwd`` or ``rev``.
    achieved_msgs_per_sec: float
    injection_msgs_per_sec: float  #: what the sender offers before PFC.
    payload_bytes_per_sec: float
    wire_bytes_per_sec: float
    packets_per_sec: float  #: data + ACK/response packet events.
    pause_ratio: float

    @property
    def wire_gbps(self) -> float:
        return self.wire_bytes_per_sec * 8 / 1e9

    @property
    def goodput_gbps(self) -> float:
        return self.payload_bytes_per_sec * 8 / 1e9


#: Fraction of a cache-refill stall that survives to the completion
#: path.  The packet-engine pipeline overlaps context refills with the
#: WRs already in flight, so in steady state only a sliver of each
#: refill round trip is visible per WR; the regimes where the hiding
#: breaks down are encoded as explicit latency quirks
#: (``RNICProfile.latency_rules``), mirroring how the throughput model
#: keeps its generic accounting conservative and pushes the cliffs into
#: the Appendix A rule tables.  The bound matters: with visibility
#: ``v``, generic inflation is at most ``1 + ln(100)·3.6·v`` (the miss
#: terms sum to ≤ 3.6 refills and the floor always contains the same
#: round trip), which at 0.12 stays below 3 — strictly under the
#: monitor's trigger multiple.  Rule-free workloads therefore can never
#: trip the tail-latency trigger, however hard their caches thrash.
LATENCY_REFILL_VISIBILITY = 0.12

#: Resolution of the deterministic quantile grid a latency profile is
#: summarized through (``LatencyProfile.histogram``).
LATENCY_QUANTILE_POINTS = 128

#: Memoized ``(expo_grid, bucket_bounds)`` arrays of the summary
#: estimator (lazy: ``repro.obs`` must not be imported at module load).
_LATENCY_GRID = None


def _latency_grid():
    global _LATENCY_GRID
    if _LATENCY_GRID is None:
        from repro.obs.metrics import BUCKET_BOUNDS

        points = LATENCY_QUANTILE_POINTS
        expo = -np.log1p(-(np.arange(points) + 0.5) / points)
        _LATENCY_GRID = (
            expo, np.asarray(BUCKET_BOUNDS), expo.tolist(), BUCKET_BOUNDS
        )
    return _LATENCY_GRID


@dataclasses.dataclass(frozen=True)
class LatencyProfile:
    """Analytic per-WR completion-latency distribution of one experiment.

    Derived (:func:`derive_latency`) from the delay components the
    steady-state solve already prices: a *deterministic floor*
    ``base_us`` (wire serialization + packet-engine pipeline + PCIe
    round trips + link queueing) plus an exponential stall tail of mean
    ``tail_mean_us`` (pipeline-damped cache-miss refills, PFC pause
    stretching, and any latency-quirk stalls the part's
    ``latency_rules`` table charges).  The quantile function is
    closed-form::

        latency(q) = base_us + tail_mean_us * -ln(1 - q)

    Consumes no RNG and is a pure function of the solve outputs, so the
    profile is bit-identical between the scalar and batched evaluation
    paths and its presence cannot perturb a search.
    """

    base_us: float  #: deterministic floor (p0 of the distribution).
    tail_mean_us: float  #: mean of the exponential stall tail.
    #: Named per-WR breakdown in microseconds: ``serialization_us``,
    #: ``pipeline_us``, ``pcie_us``, ``queueing_us`` (the floor) and
    #: ``cache_us``, ``pause_us``, ``stall_us`` (the tail).
    components: dict
    #: Ground-truth tags of the latency quirks that fired (``L1``…);
    #: benchmark/test surface only, like ``Measurement.tags``.
    tags: tuple = ()

    @property
    def mean_us(self) -> float:
        return self.base_us + self.tail_mean_us

    def quantile(self, q: float) -> float:
        """Closed-form latency quantile, microseconds."""
        q = min(max(q, 0.0), 1.0 - 1e-12)
        return self.base_us + self.tail_mean_us * -math.log1p(-q)

    def histogram(self):
        """The profile observed into the obs percentile machinery.

        A deterministic mid-point quantile grid feeds a streaming
        :class:`~repro.obs.metrics.HistogramSummary`, so the recorded
        p50/p90/p99 go through exactly the same bucket-interpolation
        estimator every other journaled histogram uses.  The grid is
        bucketed in one vectorized pass: the summary runs once per
        experiment inside the monitor, and a per-point ``observe``
        loop here is what the latency-overhead bench gate caught.
        """
        from repro.obs.metrics import HistogramSummary

        expo, bounds = _latency_grid()[:2]
        values = self.base_us + self.tail_mean_us * expo
        counts = np.bincount(
            np.searchsorted(bounds, values, side="left"),
            minlength=len(bounds) + 1,
        )
        # The quantile function is monotone, so the grid is sorted.
        return HistogramSummary(
            count=len(values),
            total=float(values.sum()),
            minimum=float(values[0]),
            maximum=float(values[-1]),
            bucket_counts=counts.tolist(),
        )

    def summary(self) -> dict:
        """Journal-ready percentile summary (memoized; plain JSON).

        ``baseline_us`` is the workload's own deterministic floor and
        ``inflation`` the p99-over-baseline ratio the anomaly monitor's
        tail-latency trigger compares against its threshold multiple.
        """
        cached = self.__dict__.get("_summary")
        if cached is None:
            p50, p90, p99 = self._estimator_percentiles()
            cached = {
                "p50_us": p50,
                "p90_us": p90,
                "p99_us": p99,
                "mean_us": self.mean_us,
                "baseline_us": self.base_us,
                "inflation": p99 / self.base_us if self.base_us > 0 else 0.0,
                "components": dict(self.components),
                "tags": list(self.tags),
            }
            object.__setattr__(self, "_summary", cached)
        return cached

    def cached_summary(self) -> Optional[dict]:
        """The memoized :meth:`summary`, or ``None`` before first use."""
        return self.__dict__.get("_summary")

    def may_exceed(self, multiple: float) -> bool:
        """Can the estimator's p99 possibly exceed ``multiple`` x floor?

        Conservative O(1) bound: the estimator clamps p99 to the grid
        maximum ``base_us + tail_mean_us * expo[-1]``, so a profile
        whose maximum sits at or under the threshold is healthy without
        building the percentile summary.  The anomaly monitor's hot
        path leans on this — the full estimator only runs for profiles
        near or over the trigger.
        """
        if self.base_us <= 0:
            return False
        return self.may_exceed_value(multiple * self.base_us)

    def may_exceed_value(self, threshold_us: float) -> bool:
        """Can the estimator's p99 possibly exceed ``threshold_us``?

        The absolute-threshold twin of :meth:`may_exceed`, for triggers
        comparing against an *external* floor (the isolation monitor's
        victim alone-p99 rather than this profile's own base).
        """
        maximum = self.base_us + self.tail_mean_us * _latency_grid()[2][-1]
        return maximum > threshold_us

    def _estimator_percentiles(self):
        """p50/p90/p99 of :meth:`histogram`, without building it.

        Bit-identical to ``histogram().percentile(q)`` — same grid,
        same bucketing, same interpolation arithmetic — but touching
        only the handful of buckets the grid actually occupies.  This
        runs once per experiment on the monitor's hot path, which is
        what the latency-overhead bench gates.
        """
        expo, bounds = _latency_grid()[2:]
        base, tail = self.base_us, self.tail_mean_us
        count = LATENCY_QUANTILE_POINTS
        minimum = base + tail * expo[0]
        maximum = base + tail * expo[-1]
        first = bisect.bisect_left(bounds, minimum)
        last = bisect.bisect_left(bounds, maximum)
        # Cumulative grid points at or below each occupied bucket's
        # upper bound (the last occupied bucket absorbs the rest).
        # The grid is monotone, so each bound's rank is found by a
        # binary search resuming from the previous bound's rank.
        cums = []
        lo = 0
        for j in range(first, last):
            bound = bounds[j]
            hi = count
            while lo < hi:
                mid = (lo + hi) // 2
                if base + tail * expo[mid] <= bound:
                    lo = mid + 1
                else:
                    hi = mid
            cums.append(lo)
        cums.append(count)

        def percentile(quantile):
            rank = quantile * count
            cumulative_before = 0
            for offset, cumulative in enumerate(cums):
                bucket_count = cumulative - cumulative_before
                cumulative_before = cumulative
                if cumulative >= rank and bucket_count:
                    index = first + offset
                    upper = (
                        bounds[index] if index < len(bounds) else maximum
                    )
                    lower = bounds[index - 1] if index > 0 else minimum
                    upper = min(upper, maximum)
                    lower = min(max(lower, minimum), upper)
                    position = (rank - (cumulative - bucket_count)) / bucket_count
                    estimate = lower + (upper - lower) * position
                    return min(max(estimate, minimum), maximum)
            return maximum

        return percentile(0.50), percentile(0.90), percentile(0.99)


class LatencySummaryView:
    """Mapping view over :meth:`LatencyProfile.summary`, built lazily.

    Trace events carry this instead of the summary dict so a search
    that nobody journals never pays for percentile summaries nobody
    reads; journal writers subscript the view, which computes (and
    memoizes) the summary on the underlying profile at that point.
    """

    __slots__ = ("profile",)

    def __init__(self, profile: LatencyProfile) -> None:
        self.profile = profile

    def __getitem__(self, key):
        return self.profile.summary()[key]

    def get(self, key, default=None):
        return self.profile.summary().get(key, default)

    def keys(self):
        return self.profile.summary().keys()

    def items(self):
        return self.profile.summary().items()

    def __iter__(self):
        return iter(self.profile.summary())

    def __len__(self):
        return len(self.profile.summary())

    def __eq__(self, other):
        if isinstance(other, LatencySummaryView):
            other = other.profile.summary()
        return self.profile.summary() == other

    def __repr__(self):
        return f"LatencySummaryView({self.profile.summary()!r})"


def latency_for_solve(subsystem: "Subsystem", solve) -> LatencyProfile:
    """:func:`derive_latency` memoized on the (frozen) solve object.

    The profile is a pure function of the solve, so duplicate points
    sharing one cached solve — MFS ladders re-probing a witness, chains
    of a population rediscovering each other's regions — share one
    profile computation too.  Cache-less paths get a fresh solve per
    evaluation and pay full price, exactly as before.
    """
    memo = getattr(solve, "_latency", None)
    if memo is None:
        memo = derive_latency(subsystem, solve.features, solve.directions)
        object.__setattr__(solve, "_latency", memo)
    return memo


def derive_latency(
    subsystem: "Subsystem",
    features: dict,
    directions: tuple[DirectionRates, ...],
) -> LatencyProfile:
    """Per-WR latency decomposition from one solved experiment.

    A pure scalar function of the solve outputs (feature vector and
    per-direction rates) plus subsystem constants: both the scalar and
    the batched evaluation paths call it on bit-identical inputs, so
    the resulting profiles are bit-identical too.  No RNG is consumed.
    See docs/MODEL.md ("Per-WR latency") for the derivation.
    """
    rnic = subsystem.rnic
    pcie = subsystem.pcie
    fwd = directions[0]

    # Deterministic floor: wire serialization of one message, the fixed
    # packet-engine pipeline traversal, the PCIe round trips a WR cannot
    # avoid (WQE fetch + amortized doorbell, payload DMA, and READ's
    # extra request round trip), and M/M/1-style queueing on the shared
    # PCIe link at its current utilization.
    achieved = fwd.achieved_msgs_per_sec
    wire_per_msg = fwd.wire_bytes_per_sec / achieved if achieved > 0 else 0.0
    serialization = wire_per_msg / rnic.line_rate_bytes_per_sec * 1e6
    pipeline = rnic.pipeline_latency_us
    round_trip = pcie.read_latency_us
    transfer = pcie.transfer_us(int(round(features["avg_msg"])))
    is_read = features["opcode"] == "READ"
    pcie_us = (
        round_trip
        + round_trip / features["wqe_batch"]
        + (round_trip if is_read else 0.0)
        + transfer
    )
    bytes_total = sum(d.payload_bytes_per_sec for d in directions)
    utilization = min(0.95, bytes_total / pcie.effective_bytes_per_sec)
    queueing = transfer * utilization / (1.0 - utilization)

    # Stall tail: each QPC/MTT/receive-WQE miss costs a refill round
    # trip, damped by the pipeline's refill hiding (the same smooth
    # pressure terms the diagnostic counters carry, so the tail has a
    # gradient before any quirk fires, but analytically bounded under
    # the monitor's trigger — see LATENCY_REFILL_VISIBILITY), and PFC
    # pause stretches the wire time.
    miss_fraction = (
        features["qpc_miss"]
        + 0.3 * pressure_score(features["total_qps"], rnic.qpc_cache_entries)
        + features["mtt_miss"]
        + 0.3 * pressure_score(features["total_mrs"], rnic.mtt_cache_entries)
        + min(1.0, features["rxq_capacity_miss"] + features["rxq_burst_miss"])
    )
    cache_us = miss_stall_us(
        miss_fraction * LATENCY_REFILL_VISIBILITY, round_trip
    )
    pause_ratio = max(d.pause_ratio for d in directions)
    pause_us = pause_stall_us(pause_ratio, serialization + transfer)

    # Latency quirks: capacity-neutral stalls from the part's
    # ``latency_rules`` table — the regimes where refill hiding breaks
    # down (serialized double refills, RNR backoff storms).  This is the
    # only term that can push the tail past the trigger multiple.
    stall_us = 0.0
    tags = []
    for rule, stall in fired_latency_rules(rnic.latency_rules, features):
        stall_us += stall
        tags.append(rule.tag)

    base = serialization + pipeline + pcie_us + queueing
    tail = cache_us + pause_us + stall_us
    return LatencyProfile(
        base_us=base,
        tail_mean_us=tail,
        components={
            "serialization_us": serialization,
            "pipeline_us": pipeline,
            "pcie_us": pcie_us,
            "queueing_us": queueing,
            "cache_us": cache_us,
            "pause_us": pause_us,
            "stall_us": stall_us,
        },
        tags=tuple(tags),
    )


@dataclasses.dataclass
class Measurement:
    """Everything one experiment produced.

    ``samples``/``counters`` are the observable surface (what the paper's
    monitor fetches from vendor tools); ``directions``, ``fired`` and
    ``features`` are simulation ground truth used by tests and the
    benchmark harness, never by the search itself.
    """

    workload: WorkloadDescriptor
    subsystem_name: str
    samples: list[CounterSample]
    counters: dict
    directions: tuple[DirectionRates, ...]
    fired: tuple[FiredRule, ...]
    features: dict
    #: Analytic per-WR latency distribution (:func:`derive_latency`).
    #: Optional so bare-hands Measurement construction in tests stays valid.
    latency: Optional[LatencyProfile] = None
    #: Coefficient of variation of the per-second ``tx_bytes_per_sec``
    #: readings, set by the batched observation in the pass that averages
    #: the window, so the monitor's stability check need not rebuild it.
    #: ``None`` when not computed -- the scalar :meth:`SteadyStateModel.
    #: evaluate` never sets it -- or when the readings' mean is not
    #: positive; the check then computes the same value from the samples
    #: (:func:`repro.core.monitor.readings_cv`).
    tx_cv: Optional[float] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def pause_ratio(self) -> float:
        return max(d.pause_ratio for d in self.directions)

    @property
    def tags(self) -> tuple[str, ...]:
        """Ground-truth anomaly tags active in this experiment."""
        return tuple(sorted({f.tag for f in self.fired}))

    @property
    def total_packets_per_sec(self) -> float:
        return sum(d.packets_per_sec for d in self.directions)

    @property
    def min_direction_wire_gbps(self) -> float:
        return min(d.wire_gbps for d in self.directions)


class SteadyStateModel:
    """Resolves workloads against one subsystem.

    With an :class:`~repro.core.evalcache.EvalCache` attached, the
    deterministic half of each evaluation — feature extraction, rule
    firing, the per-direction solve and the ideal counter synthesis — is
    memoized by canonical workload point.  Observation noise is *never*
    cached: it is re-sampled from the caller's RNG on every call, hit or
    miss, consuming exactly the same draws either way, so attaching a
    cache cannot change any result bit.
    """

    def __init__(
        self,
        subsystem: "Subsystem",
        noise: float = 0.02,
        cache: Optional["EvalCache"] = None,
    ) -> None:
        if noise < 0:
            raise ValueError(f"noise must be non-negative, got {noise}")
        self.subsystem = subsystem
        self.noise = noise
        self.cache = cache

    # -- public API -----------------------------------------------------------

    def evaluate(
        self,
        workload: WorkloadDescriptor,
        rng: Optional[np.random.Generator] = None,
        sample_seconds: int = 4,
        phase: str = "search",
    ) -> Measurement:
        """Run one experiment and return its measurement.

        ``sample_seconds`` mirrors the paper's monitor, which fetches
        counters four times per iteration and averages (§6).  ``phase``
        attributes the evaluation in the cache's statistics (``probe``,
        ``search``, ``mfs``...).
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        solve = self._solve(workload, phase)
        monitor = VendorMonitor(rng, noise=self.noise)
        samples = monitor.sample_window(solve.ideal_counters, sample_seconds)
        return Measurement(
            workload=workload,
            subsystem_name=self.subsystem.name,
            samples=samples,
            counters=average_counters(samples),
            directions=solve.directions,
            fired=solve.fired,
            features=solve.features,
            latency=latency_for_solve(self.subsystem, solve),
        )

    def evaluate_many(
        self,
        workloads: "list[WorkloadDescriptor]",
        rng: Optional[np.random.Generator] = None,
        sample_seconds: int = 4,
        phase: str = "search",
    ) -> list[Measurement]:
        """Batched :meth:`evaluate` — bit-identical to a scalar loop.

        The deterministic solve runs once per *unique* point as array
        arithmetic; observation noise is still drawn from ``rng`` in the
        exact per-point order of the scalar loop (one flat draw sliced
        per point — provably the same stream).  See
        :mod:`repro.core.batcheval` for the engine.
        """
        from repro.core.batcheval import BatchEvaluator

        return BatchEvaluator(self).evaluate_many(
            workloads, rng=rng, sample_seconds=sample_seconds, phase=phase
        )

    def solve_points(self, workloads: "list[WorkloadDescriptor]") -> list:
        """Deterministic solves for a set of points — the batch seam.

        The batch evaluator calls this instead of reaching for
        :func:`solve_batch` directly, so model subclasses with a
        different datapath (:class:`~repro.hardware.coexist.CoRunModel`)
        plug into batched evaluation by overriding one method.
        Workloads are assumed validated and deduplicated by the caller.
        """
        return solve_batch(self.subsystem, workloads)

    def _solve(self, workload: WorkloadDescriptor, phase: str):
        """Deterministic solve, memoized when a cache is attached."""
        from repro.core.evalcache import CachedSolve

        cache = self.cache
        if cache is not None:
            cached = cache.lookup(self.subsystem, workload, phase=phase)
            if cached is not None:
                return cached
        started = time.perf_counter()
        self._validate(workload)
        features = extract_features(workload, self.subsystem)
        fired = tuple(fired_rules(self.subsystem.rnic.rules, features))
        directions = self._solve_directions(workload, fired)
        ideal = self._ideal_counters(workload, features, fired, directions)
        solve = CachedSolve(
            directions=directions,
            fired=fired,
            features=features,
            ideal_counters=ideal,
        )
        if cache is not None:
            cache.store(self.subsystem, workload, solve)
            cache.charge("solve", time.perf_counter() - started)
        return solve

    # -- validation -----------------------------------------------------------

    def _validate(self, workload: WorkloadDescriptor) -> None:
        """Reject workloads that no real testbed could even set up."""
        topo = self.subsystem.topology
        for device in (workload.src_device, workload.dst_device):
            if not topo.has_device(device):
                raise ValueError(
                    f"subsystem {self.subsystem.name} has no memory device "
                    f"{device!r}; available: {topo.device_names()}"
                )

    # -- per-direction solving ---------------------------------------------

    def _solve_directions(
        self, workload: WorkloadDescriptor, fired: tuple[FiredRule, ...]
    ) -> tuple[DirectionRates, ...]:
        tx_factor = math.prod(
            f.factor for f in fired if f.rule.side == "tx"
        )
        rx_factor = math.prod(
            f.factor for f in fired if f.rule.side == "rx"
        )
        names_devices = [("fwd", workload.src_device, workload.dst_device)]
        if workload.is_bidirectional:
            names_devices.append(("rev", workload.dst_device, workload.src_device))
        pattern = _pattern(workload.msg_sizes_bytes, workload.mtu)
        return tuple(
            self._solve_one(
                workload, pattern, name, src, dst, tx_factor, rx_factor
            )
            for name, src, dst in names_devices
        )

    def _solve_one(
        self,
        w: WorkloadDescriptor,
        pattern: tuple,
        name: str,
        src_device: str,
        dst_device: str,
        tx_factor: float,
        rx_factor: float,
    ) -> DirectionRates:
        """One direction's rates; ``pattern`` is the workload's
        :func:`~repro.hardware.features._pattern` pass."""
        rnic = self.subsystem.rnic
        pcie = self.subsystem.pcie
        topo = self.subsystem.topology

        payload, _, _, data_pkts, _, _, _, wire_per_msg = pattern
        pkt_events = self._packet_events_per_message(w, data_pkts, rnic.ack_coalesce)

        # WQE issue cost: the initiator fetches its WQEs over PCIe; the
        # doorbell and the batch's TLP header amortise over the batch.
        # Cache-refill and receive-WQE-refetch traffic is deliberately NOT
        # charged here: the RNIC pipeline hides those penalties except in
        # the regimes Appendix A describes, which enter through the quirk
        # rules — keeping the structural accounting conservative ensures a
        # workload is anomalous if and only if a documented rule fires.
        issue_down = (
            w.wqe_bytes + (TLP_HEADER_BYTES + DOORBELL_BYTES) / w.wqe_batch
        )
        payload_down = pcie.transfer_bytes(int(round(payload)))
        payload_up = payload_down

        if w.opcode is Opcode.READ:
            # The data receiver is the initiator: it issues the read WQEs
            # and absorbs the response payload.
            sender_down = payload_down
            sender_up = 0.0
            receiver_down = issue_down
            receiver_up = payload_up + CQE_BYTES
        else:
            sender_down = payload_down + issue_down
            sender_up = CQE_BYTES
            receiver_down = 0.0
            receiver_up = payload_up + (CQE_BYTES if w.uses_recv_wqes else 0.0)

        pcie_budget = pcie.effective_bytes_per_sec
        if w.is_bidirectional:
            # Each NIC plays sender for one direction and receiver for the
            # other, sharing each PCIe bus direction between the two roles.
            cap_down = pcie_budget / max(sender_down + receiver_down, 1e-9)
            cap_up = pcie_budget / max(sender_up + receiver_up, 1e-9)
        else:
            cap_down = pcie_budget / max(sender_down, receiver_down, 1e-9)
            cap_up = pcie_budget / max(sender_up, receiver_up, 1e-9)

        wire_cap = rnic.line_rate_bytes_per_sec / wire_per_msg
        pps_budget = rnic.max_pps / (2 if w.is_bidirectional else 1)
        pps_cap = pps_budget / pkt_events

        src_path = topo.dma_path(src_device)
        dst_path = topo.dma_path(dst_device)
        tx_dma_cap = self._dma_cap(src_path.bandwidth_gbps, payload)
        rx_dma_cap = self._dma_cap(dst_path.bandwidth_gbps, payload)

        sender_pcie_cap = cap_down if w.opcode is Opcode.READ else min(
            cap_down, cap_up
        )
        receiver_pcie_cap = min(cap_down, cap_up)

        # A sender that idles between requests (duty cycle < 1, the §8
        # inter-arrival extension) offers proportionally less load; the
        # receiver-side effects then only manifest when the *offered*
        # rate still exceeds the degraded service rate.
        injection = (
            min(wire_cap, pps_cap, sender_pcie_cap, tx_dma_cap)
            * tx_factor
            * w.duty_cycle
        )
        service = (
            min(pps_cap, receiver_pcie_cap, rx_dma_cap, wire_cap) * rx_factor
        )
        achieved = min(injection, service)
        pause = steady_state_pause_ratio(injection, service)
        return DirectionRates(
            name=name,
            achieved_msgs_per_sec=achieved,
            injection_msgs_per_sec=injection,
            payload_bytes_per_sec=achieved * payload,
            wire_bytes_per_sec=achieved * wire_per_msg,
            packets_per_sec=achieved * pkt_events,
            pause_ratio=pause,
        )

    @staticmethod
    def _dma_cap(bandwidth_gbps: float, payload: float) -> float:
        if math.isinf(bandwidth_gbps):
            return math.inf
        return bandwidth_gbps * 1e9 / 8 / max(payload, 1.0)

    @staticmethod
    def _packet_events_per_message(
        w: WorkloadDescriptor, data_pkts: float, ack_coalesce: int
    ) -> float:
        """Packet-processing events per message, including ACK traffic."""
        if w.qp_type is QPType.RC:
            if w.opcode is Opcode.READ:
                return data_pkts + 1.0  # response packets + read request
            return data_pkts * (1.0 + 1.0 / ack_coalesce)
        return data_pkts

    # -- counters -----------------------------------------------------------

    def _ideal_counters(
        self,
        w: WorkloadDescriptor,
        features: dict,
        fired: tuple[FiredRule, ...],
        directions: tuple[DirectionRates, ...],
    ) -> dict:
        rnic = self.subsystem.rnic
        rxq = rnic.rx_wqe_cache
        fwd = directions[0]
        rev = directions[1] if len(directions) > 1 else None

        msgs_total = sum(d.achieved_msgs_per_sec for d in directions)
        pkts_total = sum(d.packets_per_sec for d in directions)
        bytes_total = sum(d.payload_bytes_per_sec for d in directions)
        pause_ratio = max(d.pause_ratio for d in directions)

        counters: dict = {
            "tx_bytes_per_sec": fwd.wire_bytes_per_sec,
            "rx_bytes_per_sec": rev.wire_bytes_per_sec if rev else 0.0,
            "tx_packets_per_sec": fwd.packets_per_sec,
            "rx_packets_per_sec": rev.packets_per_sec if rev else 0.0,
            "pause_duration_us_per_sec": pause_ratio * 1e6,
        }

        # Diagnostic counters: a smooth pressure term (the gradient the
        # search climbs) plus the realised miss/stall events.
        if w.uses_recv_wqes:
            # Multi-packet SENDs pin their receive WQE across all packets
            # of the message, so mid-size messages at small MTU stress the
            # cache harder than single-packet ones.
            pinning = 1.0 + min(features["avg_pkts_per_msg"], 8.0) / 4.0
            rx_wqe = (
                min(1.0, features["rxq_capacity_miss"] + features["rxq_burst_miss"])
                + 0.3 * pressure_score(
                    w.total_outstanding_recv_wqes, rxq.total_entries
                )
                + 0.2
                * pressure_score(w.wq_depth, max(rxq.per_qp_entries, 1))
                * (w.wqe_batch / (w.wqe_batch + rxq.prefetch_window))
            ) * msgs_total * pinning
        else:
            rx_wqe = 0.0

        # Context-switch intensity: shallow work queues and unbatched
        # posting force the scheduler to rotate across QPs per request,
        # touching a different QPC each time; deep per-QP bursts keep the
        # context hot.
        switch_intensity = (
            32.0 / (32.0 + w.wq_depth) + 2.0 / (2.0 + w.wqe_batch)
        )
        qpc = (
            features["qpc_miss"]
            + 0.3 * pressure_score(features["total_qps"], rnic.qpc_cache_entries)
        ) * msgs_total * switch_intensity
        mtt = (
            features["mtt_miss"]
            + 0.3 * pressure_score(w.total_mrs, rnic.mtt_cache_entries)
        ) * msgs_total

        mix = features["small_frac"] * features["large_frac"] * 4.0
        ordering = (
            features["strict_ordering"]
            * (0.3 + 0.7 * features["bidirectional"])
            * min(1.0, w.sge_per_wqe / 3.0)
            * (0.3 + 0.7 * features["sg_entry_mix"])
            * (mix + 0.05)
            * pkts_total
            * 0.1
        )

        cross_socket = (
            features["crosses_socket"]
            * (1.0 + features["bidirectional"])
            * (1.0 + features["weak_cross_socket"])
            * bytes_total
            * 1e-5
        )

        incast = features["loopback"] * msgs_total * (
            0.5 if not rnic.loopback_rate_limited else 0.1
        )

        overload = max(
            0.0,
            max(
                (d.injection_msgs_per_sec / d.achieved_msgs_per_sec - 1.0)
                if d.achieved_msgs_per_sec > 0
                else 0.0
                for d in directions
            ),
        )
        read_pressure = (
            (1.0 if w.opcode is Opcode.READ else 0.0)
            * min(1.0, features["avg_pkts_per_msg"] / 16.0)
            * (1024.0 / w.mtu)
        )
        # Short-request storms pressure the shared (not fully
        # bidirectional) packet processor from both sides at once; RC's
        # packet-level ACKs add processing events per request, and the
        # storm only blocks anything when long messages are present.
        rc_ack_load = 1.5 if w.qp_type is QPType.RC else 1.0
        short_pressure = (
            pressure_score(
                features["short_req_outstanding"]
                * (1.0 + features["bidirectional"])
                * rc_ack_load,
                # Knee past the quirk threshold so the gradient survives
                # through the whole approach to the trigger region.
                4 * 12288,
            )
            * (0.4 + 0.6 * min(1.0, 4.0 * features["large_frac"]))
            * rc_ack_load
        )
        rx_buffer = (
            pause_ratio * 10.0
            + min(overload, 10.0)
            + 0.5 * short_pressure
            + 0.3 * read_pressure
        ) * 1e4

        # WQE-fetch pressure doubles for bidirectional traffic (both NICs
        # fetch) and grows for READ (response-tracking state per WQE).
        wqe_pressure_bytes = (
            features["wqe_outstanding_bytes"]
            * (1.0 + features["bidirectional"])
            * (1.5 if w.opcode is Opcode.READ else 1.0)
        )
        tx_wqe_fetch = (
            pressure_score(wqe_pressure_bytes, 256 * 1024)
            + 0.2 * min(1.0, w.sge_per_wqe / 4.0)
        ) * msgs_total * 0.1

        down_util = min(1.0, bytes_total / self.subsystem.pcie.effective_bytes_per_sec)
        backpressure = (down_util ** 2) * 5e3

        counters.update(
            {
                "rx_wqe_cache_miss": rx_wqe,
                "qpc_cache_miss": qpc,
                "mtt_cache_miss": mtt,
                "pcie_ordering_stall": ordering,
                "cross_socket_pressure": cross_socket,
                "internal_incast_events": incast,
                "rx_buffer_full_events": rx_buffer,
                "tx_wqe_fetch_stall": tx_wqe_fetch,
                "pcie_internal_backpressure": backpressure,
            }
        )

        # A fired quirk drives its designated counter to an extreme region
        # (paper §7.2: "most anomalies are found when the diagnostic
        # counter value is high").
        for fired_rule in fired:
            spike = (1.0 - fired_rule.factor) * max(msgs_total, 1.0) * 2.0
            counters[fired_rule.rule.counter] = (
                counters.get(fired_rule.rule.counter, 0.0) + spike
            )
        return counters


# -- batched solving: three stages over a compiled plan ----------------------

#: The keys of :meth:`SteadyStateModel._ideal_counters`, in its order,
#: up to the per-point ``pcie_internal_backpressure``: the four
#: direction rates, then the rows of solve_batch's counter matrix.
_COUNTER_ORDER = (
    "tx_bytes_per_sec", "rx_bytes_per_sec", "tx_packets_per_sec",
    "rx_packets_per_sec", "pause_duration_us_per_sec", "rx_wqe_cache_miss",
    "qpc_cache_miss", "mtt_cache_miss", "pcie_ordering_stall",
    "cross_socket_pressure", "internal_incast_events",
    "rx_buffer_full_events", "tx_wqe_fetch_stall",
)


class BatchPlan:
    """The batched solve of one subsystem, compiled once.

    Holds the rule table compiled to threshold arrays
    (:class:`~repro.hardware.rules.RuleTable`), the subsystem's constant
    feature rows and counter-pressure capacities, and a category table
    with one row per categorical combination (transport, opcode,
    direction, colocation, SG layout, devices): its
    :data:`~repro.hardware.features.CATEGORY_FEATURES`, then the solve's
    per-combination constants (:meth:`add_category`); its categorical
    values are in ``names`` and its rule-gate outcome in ``gates``.  A
    row is added on a combination's first sight, so the table is bounded
    by the search space.  :func:`batch_plan` keeps one on each subsystem
    object; a ``dataclasses.replace`` copy (a subsystem with a rule
    fixed) compiles its own.
    """

    def __init__(self, subsystem: "Subsystem") -> None:
        rnic = subsystem.rnic
        rxq = rnic.rx_wqe_cache
        self.rnic = rnic
        self.topology = subsystem.topology
        self.rules = RuleTable(rnic.rules, FEATURE_ROWS)
        #: ``strict_ordering``, ``weak_cross_socket``, ``loopback_unlimited``.
        self.constants = np.array([
            [0.0 if subsystem.pcie.relaxed_ordering else 1.0],
            [1.0 if subsystem.weak_cross_socket else 0.0],
            [0.0 if rnic.loopback_rate_limited else 1.0],
        ])
        capacity = np.array([
            rxq.total_entries, max(rxq.per_qp_entries, 1),
            rnic.qpc_cache_entries, rnic.mtt_cache_entries,
            # Knee past the quirk threshold so the gradient survives
            # through the whole approach to the trigger region.
            4 * 12288, 256 * 1024,
        ], dtype=np.float64).reshape(-1, 1)
        #: pressure_score capacity of each working set solve_batch
        #: scores; a cache without entries (``saturated``) scores 1.
        self.capacity = np.where(capacity > 0, capacity, 1.0)
        self.saturated = np.flatnonzero(capacity <= 0)
        #: Category key -> row of the category table.
        self.index: dict = {}
        #: Per row: the ``CATEGORICAL_FEATURES`` values.
        self.names: list = []
        self.table = np.empty((0, len(CATEGORY_FEATURES) + 9))
        self.gates = np.empty((0, len(rnic.rules)), dtype=bool)

    def add_category(self, key: tuple) -> int:
        """Compile the category-table row of one combination."""
        names, flags = category_features(self.topology, key)
        rc = key[0] is QPType.RC
        read = key[1] is Opcode.READ
        bidi = flags[0]
        rnic = self.rnic
        self.table = np.vstack((self.table, (
            *flags,
            read,  # is_read
            read and not bidi,  # read_uni
            rnic.max_pps / (2 if bidi else 1),  # pps_budget
            # packet events = data packets * scale + extra
            (1.0 + 1.0 / rnic.ack_coalesce) if rc and not read else 1.0,
            1.0 if rc and read else 0.0,
            1.5 if rc else 1.0,  # rc_ack_load
            1.5 if read else 1.0,  # read_weight
            0.0 if read else CQE_BYTES,  # sender_up
            CQE_BYTES if read or key[1] is Opcode.SEND else 0.0,
        )))
        gate = self.rules.category_gate(dict(zip(CATEGORICAL_FEATURES, names)))
        self.gates = np.vstack((self.gates, np.array([gate], dtype=bool)))
        self.names.append(names)
        self.index[key] = len(self.names) - 1
        return self.index[key]


def batch_plan(subsystem: "Subsystem") -> BatchPlan:
    """The subsystem's :class:`BatchPlan`, compiled on first use."""
    plan = subsystem.__dict__.get("_batch_plan")
    if plan is None:
        plan = BatchPlan(subsystem)
        object.__setattr__(subsystem, "_batch_plan", plan)
    return plan


def solve_batch(subsystem: "Subsystem", workloads: "list[WorkloadDescriptor]"):
    """Vectorized deterministic solve of N workload points.

    The computation of :meth:`SteadyStateModel._solve` in three stages
    over the subsystem's :class:`BatchPlan`:
    :func:`~repro.hardware.features.extract_feature_columns` builds the
    feature matrix, :func:`~repro.hardware.rules.batch_fired_rules` gates
    the whole rule table, and this function prices the forward and
    reverse directions as one ``(2, n)`` pass and synthesizes the ideal
    counters.  Every step applies the scalar path's IEEE operations in
    its order, so each :class:`CachedSolve` is bit-identical to the scalar
    solve (the one pow-vs-multiply hazard, ``down_util ** 2``, stays per
    point).  Returns one solve per point.  Workloads are assumed
    validated; callers dedupe and cache around this function
    (:mod:`repro.core.batcheval`).
    """
    from repro.core.evalcache import CachedSolve

    if not workloads:
        return []
    f = FEATURE_ROWS
    plan = batch_plan(subsystem)
    features, categories, wire_per_msg, rows = extract_feature_columns(
        plan, workloads
    )
    fired, tx_factor, rx_factor = batch_fired_rules(
        plan.rules, features, plan.gates[rows]
    )
    rnic = subsystem.rnic
    pcie = subsystem.pcie
    uses_recv = categories[7]
    bandwidth = categories[8:10]  # src_bw, dst_bw
    (
        is_read, read_uni, pps_budget, packet_scale, packet_extra,
        rc_ack_load, read_weight, sender_up, receiver_up_extra,
    ) = categories[len(CATEGORY_FEATURES):]
    bidi = features[f["bidirectional"]]
    payload = features[f["avg_msg"]]
    data_pkts = features[f["avg_pkts_per_msg"]]
    wqe_batch = features[f["wqe_batch"]]
    wq_depth = features[f["wq_depth"]]
    sge = features[f["sge_per_wqe"]]
    large = features[f["large_frac"]]

    # -- per-direction resource pricing (mirrors _solve_one) ------------------
    # Every message moves at least one byte, so each bus direction moves
    # at least one TLP, above _solve_one's 1e-9 floor, and payload is at
    # least one byte, _dma_cap's floor.
    issue_down = (WQE_BASE_BYTES + WQE_SEGMENT_BYTES * sge) + (
        TLP_HEADER_BYTES + DOORBELL_BYTES
    ) / wqe_batch
    rounded = np.rint(payload)  # round-half-even, as round()
    payload_down = rounded + np.ceil(
        rounded / pcie.max_payload_bytes
    ) * TLP_HEADER_BYTES
    # Down the bus, a unidirectional READ's two roles (target payload,
    # initiator WQE fetch) sit on different hosts and the larger binds;
    # otherwise one host moves both, or the receiver moves nothing (an
    # exact + 0.0 in the scalar sums).
    down = np.where(
        read_uni,
        np.maximum(payload_down, issue_down),
        payload_down + issue_down,
    )
    receiver_up = payload_down + receiver_up_extra
    up = np.where(
        bidi, sender_up + receiver_up, np.maximum(sender_up, receiver_up)
    )
    budget = pcie.effective_bytes_per_sec
    cap_down = budget / down
    cap_up = budget / up
    wire_cap = rnic.line_rate_bytes_per_sec / wire_per_msg
    pkt_events = data_pkts * packet_scale + packet_extra
    pps_cap = pps_budget / pkt_events
    receiver_pcie = np.minimum(cap_down, cap_up)
    sender_pcie = np.where(is_read, cap_down, receiver_pcie)
    # Row 0 prices the source memory, row 1 the sink: forward traffic
    # sends from the source, reverse traffic from the sink.
    dma = bandwidth * 1e9 / 8 / payload
    injection = np.minimum(
        np.minimum(np.minimum(wire_cap, pps_cap), sender_pcie), dma
    ) * tx_factor * features[f["duty_cycle"]]
    service = np.minimum(
        np.minimum(np.minimum(pps_cap, receiver_pcie), wire_cap), dma[::-1]
    ) * rx_factor
    achieved = np.minimum(injection, service)
    # steady_state_pause_ratio; where service keeps up, 1 - 1 = 0.
    pause = 1.0 - np.divide(
        service, injection, out=np.ones_like(service),
        where=service < injection,
    )
    # Non-negative, as achieved <= injection: max(0.0, ...) is a no-op.
    overload = np.divide(
        injection, achieved, out=np.ones_like(achieved), where=achieved > 0
    ) - 1.0
    # achieved, injection, payload, wire, packets, pause, overload:
    # (7, 2, n), DirectionRates field order first.
    directions = np.array((
        achieved, injection, achieved * payload, achieved * wire_per_msg,
        achieved * pkt_events, pause, overload,
    ))

    # -- counter synthesis (mirrors _ideal_counters) --------------------------
    msgs_total, _, bytes_total, _, pkts_total = (
        directions[:5, 0] + np.where(bidi, directions[:5, 1], 0.0)
    )
    pause_ratio, overload = np.where(
        bidi, np.maximum(directions[5:, 0], directions[5:, 1]),
        directions[5:, 0],
    )
    bidi_load = 1.0 + bidi
    # pressure_score of every working set at once, one row each.
    ratio = np.array((
        features[f["num_qps"]] * wq_depth,
        wq_depth,
        features[f["total_qps"]],
        features[f["total_mrs"]],
        features[f["short_req_outstanding"]] * bidi_load * rc_ack_load,
        features[f["wqe_outstanding_bytes"]] * bidi_load * read_weight,
    )) / plan.capacity
    pressure = ratio / (1.0 + ratio)
    pressure[plan.saturated] = 1.0
    rxq_miss = features[f["rxq_capacity_miss"]] + features[f["rxq_burst_miss"]]
    window = rnic.rx_wqe_cache.prefetch_window
    rx_wqe = np.where(uses_recv, (
        np.minimum(1.0, rxq_miss)
        + 0.3 * pressure[0]
        + 0.2 * pressure[1] * (wqe_batch / (wqe_batch + window))
    ) * msgs_total * (1.0 + np.minimum(data_pkts, 8.0) / 4.0), 0.0)
    qpc = (
        (features[f["qpc_miss"]] + 0.3 * pressure[2])
        * msgs_total
        * (32.0 / (32.0 + wq_depth) + 2.0 / (2.0 + wqe_batch))
    )
    mtt = (features[f["mtt_miss"]] + 0.3 * pressure[3]) * msgs_total
    ordering = (
        features[f["strict_ordering"]]
        * (0.3 + 0.7 * bidi)
        * np.minimum(1.0, sge / 3.0)
        * (0.3 + 0.7 * features[f["sg_entry_mix"]])
        * (features[f["small_frac"]] * large * 4.0 + 0.05)
        * pkts_total
        * 0.1
    )
    cross_socket = (
        features[f["crosses_socket"]] * bidi_load
        * (1.0 + features[f["weak_cross_socket"]]) * bytes_total * 1e-5
    )
    incast = features[f["loopback"]] * msgs_total * (
        0.5 if not rnic.loopback_rate_limited else 0.1
    )
    read_pressure = (
        is_read * np.minimum(1.0, data_pkts / 16.0)
        * (1024.0 / features[f["mtu"]])
    )
    short_pressure = (
        pressure[4] * (0.4 + 0.6 * np.minimum(1.0, 4.0 * large)) * rc_ack_load
    )
    rx_buffer = (
        pause_ratio * 10.0
        + np.minimum(overload, 10.0)
        + 0.5 * short_pressure
        + 0.3 * read_pressure
    ) * 1e4
    tx_wqe_fetch = (
        pressure[5] + 0.2 * np.minimum(1.0, sge / 4.0)
    ) * msgs_total * 0.1
    counters = np.array((
        pause_ratio * 1e6, rx_wqe, qpc, mtt, ordering, cross_socket, incast,
        rx_buffer, tx_wqe_fetch,
    ))
    down_util = np.minimum(1.0, bytes_total / budget)

    # -- per-point solves: one tolist() per output matrix ---------------------
    names = plan.names
    two_sided = bidi.tolist()
    msgs = msgs_total.tolist()
    solves = []
    for i, (values, (fwd, rev), levels, util) in enumerate(zip(
        features.T.tolist(),
        directions[:6].transpose(2, 1, 0).tolist(),
        counters.T.tolist(),
        down_util.tolist(),
    )):
        two = two_sided[i]
        ideal = dict(zip(_COUNTER_ORDER, (
            fwd[3], rev[3] if two else 0.0, fwd[4], rev[4] if two else 0.0,
            *levels,
        )))
        # Python pow: scalar ``u ** 2`` is not always the same float as a
        # multiply, so this one term stays per point.
        ideal["pcie_internal_backpressure"] = (util ** 2) * 5e3
        for fired_rule in fired[i]:
            spike = (1.0 - fired_rule.factor) * max(msgs[i], 1.0) * 2.0
            ideal[fired_rule.rule.counter] = (
                ideal.get(fired_rule.rule.counter, 0.0) + spike
            )
        solves.append(CachedSolve(
            directions=(
                (DirectionRates("fwd", *fwd), DirectionRates("rev", *rev))
                if two else (DirectionRates("fwd", *fwd),)
            ),
            fired=tuple(fired[i]),
            features=feature_dict(names[rows[i]], values),
            ideal_counters=ideal,
        ))
    return solves
