"""Co-existing workloads on one subsystem: the isolation domain.

§7.4: "it is possible that a connection with a specific message pattern
affects another connection by triggering cache misses, even when the
bandwidth and other resources are well isolated."  This module evaluates
a *victim* workload sharing an RDMA subsystem with an *aggressor*:

* visible resources are split fairly — each side's wire, packet and PCIe
  budgets are scaled by its share (perfect bandwidth isolation);
* the **opaque** resources are not isolatable: QPC/MTT/receive-WQE cache
  working sets combine, so the victim's miss-dependent behaviour is
  computed against the *joint* occupancy.

The co-run evaluation flows through the real datapath: the victim's
per-direction steady-state solve runs against the joint-occupancy
feature vector (so quirk rules can fire on the combined working sets),
the contention split is side-aware — sender-side QPC/MTT misses slow
injection silently while receive-WQE misses degrade the service rate
and surface as PFC pause, exactly the two Table-2 symptom classes — and
the ideal counters and the per-WR latency profile are synthesized from
the contended directions, so pause ratios, diagnostic counters and p99
inflation all cohere with the degraded rates.

:class:`CoRunModel` packages this as a drop-in
:class:`~repro.hardware.model.SteadyStateModel`: the victim is pinned,
``evaluate(attacker)`` measures the *victim* under that neighbor, and
the searched point (the attacker) rides in ``Measurement.workload`` —
which is what lets the whole SA/MFS/population stack search, minimize
and reproduce adversarial neighbors without modification.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from typing import Optional

import numpy as np

from repro.hardware.caches import steady_state_miss_rate
from repro.hardware.counters import CounterSample
from repro.hardware.features import extract_features
from repro.hardware.model import (
    DirectionRates,
    Measurement,
    SteadyStateModel,
    derive_latency,
    latency_for_solve,
)
from repro.hardware.pfc import steady_state_pause_ratio
from repro.hardware.rules import fired_rules
from repro.hardware.subsystems import Subsystem
from repro.hardware.workload import WorkloadDescriptor

#: Defined sentinel for :attr:`CoexistenceResult.interference_factor`
#: when the victim's fair share is zero (a victim that moves no bytes
#: alone cannot meaningfully be degraded): NaN propagates through
#: arithmetic and fails every ordered comparison, so no threshold test
#: can silently classify an undefined ratio.
UNDEFINED_INTERFERENCE = float("nan")

#: Floor on the miss-contention slowdown: even a maximally adversarial
#: neighbor cannot push a tenant below a tenth of its solo rate through
#: cache pollution alone (the pipeline still makes forward progress
#: between refills).
MIN_CONTENTION_FACTOR = 0.1


@dataclasses.dataclass(frozen=True)
class CoexistenceResult:
    """Victim outcomes, alone vs sharing the subsystem."""

    victim_alone: Measurement
    victim_shared: Measurement
    aggressor: WorkloadDescriptor
    bandwidth_share: float
    #: The aggressor's own co-run measurement (its side of the split,
    #: with the victim as *its* neighbor), carrying the aggressor's
    #: latency profile.  ``None`` when the victim holds the whole
    #: bandwidth (the aggressor has no share to measure against).
    aggressor_shared: Optional[Measurement] = None

    @property
    def alone_gbps(self) -> float:
        return self.victim_alone.directions[0].wire_gbps

    @property
    def shared_gbps(self) -> float:
        return self.victim_shared.directions[0].wire_gbps

    @property
    def fair_share_gbps(self) -> float:
        """What perfect isolation would guarantee the victim."""
        return self.alone_gbps * self.bandwidth_share

    @property
    def interference_factor(self) -> float:
        """Shared throughput relative to the fair bandwidth share.

        1.0 means bandwidth isolation fully protected the victim; below
        1.0 the aggressor stole performance through opaque resources.
        :data:`UNDEFINED_INTERFERENCE` (NaN) when the fair share is
        zero — the ratio has no defined value for a victim that moves
        no bytes even alone.
        """
        if self.fair_share_gbps <= 0:
            return UNDEFINED_INTERFERENCE
        return min(1.0, self.shared_gbps / self.fair_share_gbps)


def _miss_exposure(workload: WorkloadDescriptor) -> float:
    """How much of a cache miss's latency reaches end-to-end throughput.

    Mirrors the Appendix A root-cause-#2 discussion: large requests hide
    misses behind the pipeline; small unbatched requests expose them.
    """
    size_term = 1.0 if workload.avg_msg_bytes <= 1024 else (
        1024.0 / workload.avg_msg_bytes
    )
    batch_term = 2.0 / (1.0 + workload.wqe_batch)
    return min(1.0, size_term * (0.3 + 0.7 * batch_term))


def _scaled_subsystem(subsystem: Subsystem, share: float) -> Subsystem:
    """A subsystem whose bandwidth-like capabilities are one share."""
    rnic = dataclasses.replace(
        subsystem.rnic,
        line_rate_gbps=subsystem.rnic.line_rate_gbps * share,
        max_pps=subsystem.rnic.max_pps * share,
    )
    pcie = dataclasses.replace(subsystem.pcie)  # full-duplex bus: shared
    return dataclasses.replace(subsystem, rnic=rnic, pcie=pcie)


def corun_subsystem(
    subsystem: Subsystem, victim: WorkloadDescriptor, victim_share: float
) -> Subsystem:
    """The victim's bandwidth slice, with a co-run-specific identity.

    The name carries a digest of the pinned victim and the share so the
    :class:`~repro.core.evalcache.EvalCache` fingerprint can never
    collide with a solo evaluation of the same hardware — at
    ``victim_share=1.0`` the scaled parameters are numerically identical
    to the base subsystem while the co-run solve is not.
    """
    from repro.core.evalcache import canonical_point

    scaled = _scaled_subsystem(subsystem, victim_share)
    stamp = hashlib.sha1(
        f"{canonical_point(victim)}|{victim_share!r}".encode()
    ).hexdigest()[:8]
    return dataclasses.replace(
        scaled, name=f"{subsystem.name}+victim:{stamp}"
    )


def joint_occupancy_features(
    primary: WorkloadDescriptor,
    neighbor: WorkloadDescriptor,
    subsystem: Subsystem,
    own: Optional[dict] = None,
) -> dict:
    """Feature vector of ``primary`` under joint cache occupancy.

    Starts from the primary's own solo features on ``subsystem`` and
    replaces the opaque-resource occupancy terms — ``total_qps`` /
    ``qpc_miss``, ``total_mrs`` / ``mtt_miss`` and (for receive-WQE
    consumers) ``rxq_capacity_miss`` — with the combined working sets,
    using the same bidirectional-doubling convention as
    :func:`~repro.hardware.features.extract_features`.  Because quirk
    gates and :func:`~repro.hardware.model.derive_latency` read these
    same keys, joint occupancy propagates into rule firing and the
    victim's latency profile without any special-casing downstream.
    """
    rnic = subsystem.rnic
    features = dict(
        extract_features(primary, subsystem) if own is None else own
    )
    primary_qps = primary.num_qps * (2 if primary.is_bidirectional else 1)
    neighbor_qps = neighbor.num_qps * (2 if neighbor.is_bidirectional else 1)
    joint_qps = primary_qps + neighbor_qps
    joint_mrs = primary.total_mrs + neighbor.total_mrs
    features["total_qps"] = float(joint_qps)
    features["qpc_miss"] = steady_state_miss_rate(
        joint_qps, rnic.qpc_cache_entries
    )
    features["total_mrs"] = float(joint_mrs)
    features["mtt_miss"] = steady_state_miss_rate(
        joint_mrs, rnic.mtt_cache_entries
    )
    if primary.uses_recv_wqes:
        joint_recv = primary.total_outstanding_recv_wqes + (
            neighbor.total_outstanding_recv_wqes
            if neighbor.uses_recv_wqes
            else 0
        )
        features["rxq_capacity_miss"] = rnic.rx_wqe_cache.capacity_miss(
            joint_recv
        )
    return features


def contention_factors(
    primary: WorkloadDescriptor, own: dict, joint: dict
) -> tuple[float, float]:
    """Side-aware slowdown factors from the neighbor's extra misses.

    Sender-side context misses (QPC/MTT refills while issuing WQEs)
    slow *injection* — silent throughput loss; receive-WQE cache misses
    slow the *service* rate — the receiver falls behind the offered
    load and emits PFC pause.  Splitting the exposure this way is what
    lets a co-run reproduce both Table-2 symptom classes for the right
    reasons, and it keeps a solo-healthy victim pause-free under pure
    sender-side contention.
    """
    exposure = _miss_exposure(primary)
    extra_tx = max(0.0, joint["qpc_miss"] - own["qpc_miss"]) + max(
        0.0, joint["mtt_miss"] - own["mtt_miss"]
    )
    tx_factor = max(MIN_CONTENTION_FACTOR, 1.0 - extra_tx * exposure)
    rx_factor = 1.0
    if primary.uses_recv_wqes:
        extra_rx = max(
            0.0, joint["rxq_capacity_miss"] - own["rxq_capacity_miss"]
        )
        rx_factor = max(MIN_CONTENTION_FACTOR, 1.0 - extra_rx * exposure)
    return tx_factor, rx_factor


def contend_direction(
    d: DirectionRates, tx_factor: float, rx_factor: float
) -> DirectionRates:
    """One direction's rates under side-aware contention.

    Injection scales by the sender-side factor, achieved by both; the
    pause ratio is re-derived from the contended rates, so a degraded
    service rate under undiminished offered load prices as pause — and
    an uncontended direction is returned *unchanged* (same object), the
    bit-identity anchor for the no-attacker property.
    """
    ratio = tx_factor * rx_factor
    if ratio >= 1.0:
        return d
    injection = d.injection_msgs_per_sec * tx_factor
    achieved = d.achieved_msgs_per_sec * ratio
    return dataclasses.replace(
        d,
        achieved_msgs_per_sec=achieved,
        injection_msgs_per_sec=injection,
        payload_bytes_per_sec=d.payload_bytes_per_sec * ratio,
        wire_bytes_per_sec=d.wire_bytes_per_sec * ratio,
        packets_per_sec=d.packets_per_sec * ratio,
        pause_ratio=steady_state_pause_ratio(injection, achieved),
    )


def corun_solve(
    model: SteadyStateModel,
    primary: WorkloadDescriptor,
    neighbor: WorkloadDescriptor,
):
    """Deterministic co-run solve of ``primary`` next to ``neighbor``.

    The full datapath of :meth:`SteadyStateModel._solve`, with the
    joint-occupancy feature vector in place of the solo one: rule
    gating, the per-direction steady-state solve, the side-aware
    contention split, and ideal-counter synthesis from the *contended*
    directions (so the sampled pause/throughput counters — what the
    anomaly monitor reads — cohere with the degradation).  Pure
    function of its inputs; consumes no RNG.
    """
    from repro.core.evalcache import CachedSolve

    subsystem = model.subsystem
    own = extract_features(primary, subsystem)
    features = joint_occupancy_features(primary, neighbor, subsystem, own=own)
    fired = tuple(fired_rules(subsystem.rnic.rules, features))
    directions = model._solve_directions(primary, fired)
    tx_factor, rx_factor = contention_factors(primary, own, features)
    directions = tuple(
        contend_direction(d, tx_factor, rx_factor) for d in directions
    )
    ideal = model._ideal_counters(primary, features, fired, directions)
    return CachedSolve(
        directions=directions,
        fired=fired,
        features=features,
        ideal_counters=ideal,
    )


@dataclasses.dataclass(frozen=True)
class VictimFloor:
    """Deterministic solo baseline the isolation verdicts compare against.

    Solved noise-free on the *full* subsystem (no RNG is consumed), so
    every chain, worker and reproduction run of a campaign prices the
    same victim against the same floor.
    """

    victim: WorkloadDescriptor
    victim_share: float
    #: The victim's solo forward-direction wire rate on the full part.
    alone_gbps: float
    #: The victim's solo modeled p99 (estimator percentiles, same
    #: machinery as journaled latency summaries).
    alone_p99_us: float

    @property
    def fair_share_gbps(self) -> float:
        """What perfect isolation would guarantee the victim."""
        return self.alone_gbps * self.victim_share


def victim_floor(
    subsystem: Subsystem,
    victim: WorkloadDescriptor,
    victim_share: float,
) -> VictimFloor:
    """Solve the victim's alone-floor on the full subsystem."""
    model = SteadyStateModel(subsystem, noise=0.0)
    solve = model._solve(victim, phase="floor")
    profile = latency_for_solve(subsystem, solve)
    return VictimFloor(
        victim=victim,
        victim_share=victim_share,
        alone_gbps=solve.directions[0].wire_gbps,
        alone_p99_us=profile.summary()["p99_us"],
    )


class CoRunModel(SteadyStateModel):
    """A steady-state model with a pinned victim tenant.

    ``evaluate(attacker)`` runs the co-run datapath and returns the
    *victim's* measurement under that neighbor; the attacker stays in
    ``Measurement.workload`` because it is the searched point — the SA
    mutates it, MFS minimizes it, the journal records it.  The model's
    ``subsystem`` is the victim's bandwidth slice under a derived
    co-run identity (see :func:`corun_subsystem`), which keys the eval
    cache and names the measurements.
    """

    def __init__(
        self,
        subsystem: Subsystem,
        victim: WorkloadDescriptor,
        victim_share: float = 0.5,
        noise: float = 0.02,
        cache=None,
    ) -> None:
        if not 0 < victim_share <= 1:
            raise ValueError("victim_share must lie in (0, 1]")
        super().__init__(
            corun_subsystem(subsystem, victim, victim_share),
            noise=noise,
            cache=cache,
        )
        #: The unscaled hardware both tenants share.
        self.base_subsystem = subsystem
        self.victim = victim
        self.victim_share = victim_share
        #: Solo baseline for victim-degradation verdicts; solving it
        #: also validates the victim against the topology up front.
        self.floor = victim_floor(subsystem, victim, victim_share)

    def _solve(self, workload: WorkloadDescriptor, phase: str):
        """Co-run solve of the pinned victim next to ``workload``."""
        cache = self.cache
        if cache is not None:
            cached = cache.lookup(self.subsystem, workload, phase=phase)
            if cached is not None:
                return cached
        started = time.perf_counter()
        self._validate(workload)
        solve = corun_solve(self, self.victim, workload)
        if cache is not None:
            cache.store(self.subsystem, workload, solve)
            cache.charge("solve", time.perf_counter() - started)
        return solve

    def solve_points(self, workloads: list[WorkloadDescriptor]) -> list:
        """Batch seam: co-run solves for a set of attacker points.

        Each co-run solve is a scalar pass (the victim side is fixed,
        so there is no cross-point arithmetic to vectorize); the batch
        evaluator's dedupe/cache orchestration still applies unchanged.
        """
        return [corun_solve(self, self.victim, w) for w in workloads]


class CoexistenceModel:
    """Evaluates a victim workload next to an aggressor."""

    def __init__(self, subsystem: Subsystem, noise: float = 0.0) -> None:
        self.subsystem = subsystem
        self.model = SteadyStateModel(subsystem, noise=noise)
        self.noise = noise

    def evaluate(
        self,
        victim: WorkloadDescriptor,
        aggressor: WorkloadDescriptor,
        victim_share: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> CoexistenceResult:
        """Victim outcome alone and under co-existence.

        ``victim_share`` is the bandwidth fraction an isolation
        mechanism guarantees the victim; the aggressor is assumed to
        consume the rest.  Both sides of the split run through the full
        co-run datapath (:class:`CoRunModel`): the victim against the
        aggressor on its slice, and — when the aggressor holds any
        share — the aggressor against the victim on the complement, so
        the result carries a coherent latency/PFC profile for each
        tenant.
        """
        if not 0 < victim_share <= 1:
            raise ValueError("victim_share must lie in (0, 1]")
        rng = rng if rng is not None else np.random.default_rng(0)
        alone = self.model.evaluate(victim, rng)
        victim_side = CoRunModel(
            self.subsystem, victim, victim_share, noise=self.noise
        )
        shared = dataclasses.replace(
            victim_side.evaluate(aggressor, rng), workload=victim
        )
        aggressor_shared = None
        if victim_share < 1.0:
            aggressor_side = CoRunModel(
                self.subsystem, aggressor, 1.0 - victim_share, noise=self.noise
            )
            aggressor_shared = dataclasses.replace(
                aggressor_side.evaluate(victim, rng), workload=aggressor
            )
        return CoexistenceResult(
            victim_alone=alone,
            victim_shared=shared,
            aggressor=aggressor,
            bandwidth_share=victim_share,
            aggressor_shared=aggressor_shared,
        )


def _degrade(
    measurement: Measurement,
    factor: float,
    subsystem: Optional[Subsystem] = None,
) -> Measurement:
    """Scale a measurement's achieved rates by an interference factor.

    Sender-side semantics: injection slows with achieved, so the pause
    ratio is re-derived (and numerically preserved for a direction
    whose bottleneck does not move).  The throughput and pause counters
    — and each per-second sample's — are rebuilt from the degraded
    directions rather than left at their undegraded values; diagnostic
    counters keep the solo solve's values (re-synthesizing those needs
    the full solve context — use :func:`corun_solve` for a coherent
    co-run).  With ``subsystem`` given, the latency profile is
    re-derived from the degraded directions too; otherwise the original
    profile is carried through unchanged.
    """
    directions = tuple(
        contend_direction(d, factor, 1.0) for d in measurement.directions
    )
    pause_ratio = max(d.pause_ratio for d in directions)
    fwd = directions[0]
    rev = directions[1] if len(directions) > 1 else None
    degraded_rates = {
        "tx_bytes_per_sec": fwd.wire_bytes_per_sec,
        "rx_bytes_per_sec": rev.wire_bytes_per_sec if rev else 0.0,
        "tx_packets_per_sec": fwd.packets_per_sec,
        "rx_packets_per_sec": rev.packets_per_sec if rev else 0.0,
        "pause_duration_us_per_sec": pause_ratio * 1e6,
    }

    def rescale(values: dict) -> dict:
        rebuilt = dict(values)
        for key, ideal in degraded_rates.items():
            before = measurement.counters.get(key, 0.0)
            observed = rebuilt.get(key, 0.0)
            if before > 0:
                rebuilt[key] = observed * (ideal / before)
            else:
                rebuilt[key] = ideal
        return rebuilt

    samples = [
        CounterSample(s.second, values=rescale(dict(s.values)))
        for s in measurement.samples
    ]
    latency = measurement.latency
    if subsystem is not None:
        latency = derive_latency(subsystem, measurement.features, directions)
    return dataclasses.replace(
        measurement,
        directions=directions,
        samples=samples,
        counters=rescale(measurement.counters),
        latency=latency,
    )
