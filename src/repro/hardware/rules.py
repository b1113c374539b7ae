"""Declarative anomaly rules: the quirk tables of each RNIC part.

Appendix A of the paper documents 18 anomalies, each a conjunction of
workload features ("Bidirectional RC READ with WQE batch ≥ 32, SG list
≥ 4, ≈160 connections…").  We encode each as an :class:`AnomalyRule`: a
:class:`Gate` over the extracted workload feature vector plus an effect —
a multiplicative capacity factor on the sender (``tx``) or receiver
(``rx``) side.  Receiver-side effects produce PFC pauses (the RX buffer
fills and the NIC pauses the link); sender-side effects produce silent
throughput loss, exactly the two symptom classes of Table 2.

The rules are *ground truth* for the benchmarks: the steady-state model
reports which rules fired (``tags``), letting the evaluation count
distinct anomalies found, while Collie itself never sees the tags — it
only sees counters, like the paper's tool.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Union

import numpy as np

FeatureValue = Union[float, str]


@dataclasses.dataclass(frozen=True)
class Gate:
    """A conjunction of bounds/membership tests over workload features.

    ``bounds`` maps a numeric feature to an inclusive ``(low, high)``
    interval (either side may be ``None``); ``isin`` maps a categorical
    feature to its accepted values.  A gate with no conditions matches
    everything, which no rule should want — the constructor rejects it.
    """

    bounds: Mapping[str, tuple[Optional[float], Optional[float]]] = (
        dataclasses.field(default_factory=dict)
    )
    isin: Mapping[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.bounds and not self.isin:
            raise ValueError("a gate must constrain at least one feature")
        for feature, (low, high) in self.bounds.items():
            if low is None and high is None:
                raise ValueError(f"gate bound on {feature!r} is vacuous")
            if low is not None and high is not None and low > high:
                raise ValueError(
                    f"gate bound on {feature!r} is empty: ({low}, {high})"
                )

    def matches(self, features: Mapping[str, FeatureValue]) -> bool:
        """Whether a feature vector satisfies every condition."""
        for feature, (low, high) in self.bounds.items():
            value = features.get(feature)
            if value is None:
                return False
            value = float(value)
            if low is not None and value < low:
                return False
            if high is not None and value > high:
                return False
        for feature, accepted in self.isin.items():
            if features.get(feature) not in accepted:
                return False
        return True


@dataclasses.dataclass(frozen=True)
class AnomalyRule:
    """One quirk: gate + capacity effect + ground-truth tag.

    ``side`` is ``"rx"`` (receiver can't keep up → PFC pause frames) or
    ``"tx"`` (sender injects slowly → reduced throughput, no pauses).
    ``factor`` multiplies that side's capacity when the gate matches.  If
    ``scale_feature`` is set, the factor instead degrades linearly with
    that feature's value: ``1 - scale_coeff × feature`` (clamped to
    ``[floor, 1]``) — used by the cache-miss anomalies whose severity
    grows with the miss rate.
    """

    tag: str  #: Table 2 anomaly id, e.g. ``"A4"``.
    title: str  #: human-readable one-liner.
    root_cause: str  #: Appendix A root-cause family, e.g. ``"rx_wqe_cache"``.
    gate: Gate
    side: str
    factor: float = 0.5
    scale_feature: Optional[str] = None
    scale_coeff: float = 0.0
    floor: float = 0.05
    #: Diagnostic counter this quirk inflates when it fires.
    counter: str = "pcie_internal_backpressure"

    def __post_init__(self) -> None:
        if self.side not in ("rx", "tx"):
            raise ValueError(f"rule side must be 'rx' or 'tx', got {self.side!r}")
        if not 0 < self.factor <= 1:
            raise ValueError(f"rule factor must be in (0, 1], got {self.factor}")

    @property
    def symptom(self) -> str:
        """Table 2 symptom column for this rule."""
        return "pause frame" if self.side == "rx" else "low throughput"

    def matches(self, features: Mapping[str, FeatureValue]) -> bool:
        return self.gate.matches(features)

    def effect_factor(self, features: Mapping[str, FeatureValue]) -> float:
        """Capacity multiplier when the gate matches."""
        if self.scale_feature is None:
            return self.factor
        value = float(features.get(self.scale_feature, 0.0))
        return max(self.floor, min(1.0, 1.0 - self.scale_coeff * value))


@dataclasses.dataclass(frozen=True)
class LatencyRule:
    """One latency quirk: gate + per-WR stall + ground-truth tag.

    Unlike :class:`AnomalyRule`, a latency rule leaves capacity (and so
    every throughput counter) untouched — the wire stays full — and
    instead lengthens the mean of the exponential per-WR stall tail the
    latency decomposition derives (:func:`repro.hardware.model.derive_latency`).
    That is the anomaly class the paper's two symptoms cannot see: the
    RNIC sustains its message rate while individual WRs crawl through
    serialized context refills or RNR backoff.

    ``stall_us`` is the stall-tail mean added when the gate matches; if
    ``scale_feature`` is set the stall scales linearly with that
    feature's value (used by the cache-thrash quirks whose severity
    grows with the miss rate).  Tags use an ``L`` prefix (``L1``…) so
    ground-truth accounting keeps them distinct from the Table 2 rows.
    """

    tag: str
    title: str
    root_cause: str
    gate: Gate
    stall_us: float
    scale_feature: Optional[str] = None
    #: Diagnostic counter whose gradient leads the search into the gate
    #: (latency rules never inflate counters themselves).
    counter: str = "qpc_cache_miss"

    def __post_init__(self) -> None:
        if self.stall_us <= 0:
            raise ValueError(
                f"latency rule stall must be positive, got {self.stall_us}"
            )

    @property
    def symptom(self) -> str:
        return "latency inflation"

    def matches(self, features: Mapping[str, FeatureValue]) -> bool:
        return self.gate.matches(features)

    def stall(self, features: Mapping[str, FeatureValue]) -> float:
        """Stall-tail mean (µs) contributed when the gate matches."""
        if self.scale_feature is None:
            return self.stall_us
        return self.stall_us * float(features.get(self.scale_feature, 0.0))


def fired_latency_rules(
    rules: tuple[LatencyRule, ...], features: Mapping[str, FeatureValue]
) -> list[tuple[LatencyRule, float]]:
    """Evaluate a latency-rule table; ``(rule, stall_us)`` in table order."""
    fired = []
    for rule in rules:
        if rule.matches(features):
            fired.append((rule, rule.stall(features)))
    return fired


@dataclasses.dataclass(frozen=True)
class FiredRule:
    """A rule that matched a workload, with its resolved factor."""

    rule: AnomalyRule
    factor: float

    @property
    def tag(self) -> str:
        return self.rule.tag


def fired_rules(
    rules: tuple[AnomalyRule, ...], features: Mapping[str, FeatureValue]
) -> list[FiredRule]:
    """Evaluate a rule table against a feature vector."""
    fired = []
    for rule in rules:
        if rule.matches(features):
            fired.append(FiredRule(rule=rule, factor=rule.effect_factor(features)))
    return fired


# -- batched gating: the rule table compiled to threshold arrays -------------


class RuleTable:
    """A rule table compiled against the batched feature-matrix layout.

    Each gate bound is one entry of ``rows``/``low``/``high`` (its
    feature-matrix row and inclusive limits, open sides infinite) and
    ``owner`` maps bounds to rules, so one comparison pass and one
    boolean product gate the whole table.  A bound on a feature outside
    the matrix never matches: it compiles to an empty interval.
    Membership tests resolve once per categorical combination
    (:meth:`category_gate`), or per point on numeric features (``isin``).
    """

    def __init__(
        self, rules: tuple[AnomalyRule, ...], feature_rows: Mapping[str, int]
    ) -> None:
        self.rules = rules
        self._feature_rows = feature_rows
        #: ``(rule index, feature row, accepted)`` numeric membership tests.
        self.isin = [
            (index, feature_rows[feature], accepted)
            for index, rule in enumerate(rules)
            for feature, accepted in rule.gate.isin.items()
            if feature in feature_rows
        ]
        #: Per rule: the feature row its factor scales with, else ``None``
        #: and the factor is ``fixed`` (for a scaled rule, its factor at a
        #: missing feature, as :meth:`AnomalyRule.effect_factor` reads it).
        self.scale_rows = [feature_rows.get(r.scale_feature) for r in rules]
        self.fixed = [rule.effect_factor({}) for rule in rules]
        bounds = []
        for index, rule in enumerate(rules):
            for feature, (low, high) in rule.gate.bounds.items():
                if feature not in feature_rows:
                    bounds.append((index, 0, np.inf, -np.inf))
                    continue
                bounds.append((
                    index, feature_rows[feature],
                    -np.inf if low is None else low,
                    np.inf if high is None else high,
                ))
        owners, rows, lows, highs = zip(*bounds) if bounds else ((),) * 4
        self.rows = np.array(rows, dtype=np.intp)
        self.low = np.array(lows, dtype=np.float64).reshape(-1, 1)
        self.high = np.array(highs, dtype=np.float64).reshape(-1, 1)
        self.owner = np.zeros((len(bounds), len(rules)), dtype=bool)
        self.owner[np.arange(len(bounds)), list(owners)] = True

    def category_gate(self, values: Mapping[str, FeatureValue]) -> list:
        """Per rule: whether a combination passes its other membership tests.

        ``values`` holds the combination's categorical features; a test
        on any feature outside the numeric matrix reads it there, as
        :meth:`Gate.matches` reads the feature dict.
        """
        return [
            all(
                values.get(feature) in accepted
                for feature, accepted in rule.gate.isin.items()
                if feature not in self._feature_rows
            )
            for rule in self.rules
        ]


# Only the callerless batcheval calls this; perfbench/tracer.py wraps it.
def batch_fired_rules(
    table: RuleTable, features: np.ndarray, gates: np.ndarray
) -> tuple[list, np.ndarray, np.ndarray]:
    """Fire a compiled rule table over a feature matrix.

    ``features`` has one column per point, ``gates`` one row per point
    (its category's :meth:`RuleTable.category_gate`).  Returns each
    point's :class:`FiredRule` list in table order, and the per-point
    products of fired factors by side, ``tx_factor`` and ``rx_factor``,
    multiplied in table order as ``math.prod`` over the scalar list.
    """
    values = features[table.rows]
    failed = (values < table.low) | (values > table.high)
    mask = gates & ~(failed.T @ table.owner)
    for index, row, accepted in table.isin:
        mask[:, index] &= [v in accepted for v in features[row].tolist()]
    n = features.shape[1]
    tx_factor = np.ones(n)
    rx_factor = np.ones(n)
    scaled: dict = {}
    for index in np.flatnonzero(mask.any(axis=0)).tolist():
        rule = table.rules[index]
        row = table.scale_rows[index]
        factor = table.fixed[index]
        if row is not None:
            factor = np.maximum(
                rule.floor,
                np.minimum(1.0, 1.0 - rule.scale_coeff * features[row]),
            )
            scaled[index] = factor.tolist()
        target = tx_factor if rule.side == "tx" else rx_factor
        target *= np.where(mask[:, index], factor, 1.0)
    fired: list = [[] for _ in range(n)]
    points, indices = np.nonzero(mask)
    for point, index in zip(points.tolist(), indices.tolist()):
        column = scaled.get(index)
        fired[point].append(FiredRule(
            rule=table.rules[index],
            factor=table.fixed[index] if column is None else column[point],
        ))
    return fired, tx_factor, rx_factor
