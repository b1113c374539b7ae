"""Minimal Feature Set: trigger-condition extraction (paper §5.2).

After the monitor flags a workload, Collie probes each search dimension —
holding the rest fixed — to find which features are *necessary* to keep
the anomaly alive, and over what value region.  The result, a
:class:`MinimalFeatureSet`, serves two masters:

* the **search** skips any point matching a known MFS (Alg. 1 line 5), so
  it never re-explores an already-covered anomaly region;
* **developers** read it as the set of conditions to break (§7.3).

Probing strategy (the paper's "few tests on each dimension"):

* categorical dimensions test each alternative value; the condition keeps
  the values that still trigger (absent if all do);
* ordered dimensions test up to ``probes_per_dimension`` ladder levels
  spread across the range; the condition is the smallest interval of
  probed levels containing the witness that still trigger, open-ended at
  the ladder boundaries;
* the message pattern is probed with *uniform* patterns at several sizes;
  if no uniform pattern triggers but the witness (a mixed pattern) does,
  the condition records that a small/large mix is required — Table 2's
  "mix of ≤1KB & ≥64KB" rows.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Optional

import numpy as np

from repro.core.space import (
    CATEGORICAL_DIMENSIONS,
    ORDERED_DIMENSIONS,
    SearchSpace,
)
from repro.hardware.workload import WorkloadDescriptor



@dataclasses.dataclass(frozen=True)
class IntervalCondition:
    """Ordered-dimension condition: value must lie in [low, high]."""

    dimension: str
    low: Optional[float]
    high: Optional[float]

    def matches(self, value: float) -> bool:
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def describe(self) -> str:
        if self.low is not None and self.high is not None:
            return f"{self.low:g} <= {self.dimension} <= {self.high:g}"
        if self.low is not None:
            return f"{self.dimension} >= {self.low:g}"
        return f"{self.dimension} <= {self.high:g}"


@dataclasses.dataclass(frozen=True)
class MembershipCondition:
    """Categorical condition: value must be one of the allowed set."""

    dimension: str
    allowed: tuple[str, ...]

    def matches(self, value: str) -> bool:
        return value in self.allowed

    def describe(self) -> str:
        return f"{self.dimension} in {{{', '.join(self.allowed)}}}"


@dataclasses.dataclass(frozen=True)
class MixCondition:
    """Pattern condition: the message pattern must mix small and large."""

    dimension: str = "msg_pattern"

    def matches(self, mixes: bool) -> bool:
        return bool(mixes)

    def describe(self) -> str:
        return "message pattern mixes <=1KB and >=64KB requests"


@dataclasses.dataclass(frozen=True)
class MinimalFeatureSet:
    """The necessary trigger conditions of one anomaly."""

    symptom: str
    witness: WorkloadDescriptor
    intervals: tuple[IntervalCondition, ...] = ()
    memberships: tuple[MembershipCondition, ...] = ()
    requires_mix: bool = False
    found_at_seconds: float = 0.0
    #: Experiments spent probing (the flat segments of the paper's Fig 6).
    probe_experiments: int = 0

    def matches(self, workload: WorkloadDescriptor) -> bool:
        """Whether a workload lies inside this anomaly's region."""
        return self._contains(_dimension_values(workload), workload)

    def _contains(self, values: dict, workload: WorkloadDescriptor) -> bool:
        """:meth:`matches` over the workload's ``_dimension_values``."""
        for cond in self.intervals:
            if not cond.matches(float(values[cond.dimension])):
                return False
        for cond in self.memberships:
            if not cond.matches(values[cond.dimension]):
                return False
        if self.requires_mix and not workload.mixes_small_and_large:
            return False
        return True

    def admits_value(self, dimension: str, value) -> bool:
        """Whether this MFS's region admits ``value`` on one dimension.

        Per-dimension projection of the region (all other dimensions
        assumed satisfiable); ``requires_mix`` constrains the joint
        pattern and is deliberately ignored here.  Coverage maps use
        this to mark which ladder buckets an MFS prunes.
        """
        for cond in self.intervals:
            if cond.dimension == dimension and not cond.matches(float(value)):
                return False
        for cond in self.memberships:
            if cond.dimension == dimension and not cond.matches(value):
                return False
        return True

    @property
    def conditions(self) -> int:
        return (
            len(self.intervals) + len(self.memberships)
            + (1 if self.requires_mix else 0)
        )

    def describe(self) -> str:
        """Human-readable condition list, Table 2-style."""
        parts = [c.describe() for c in self.memberships]
        parts += [c.describe() for c in self.intervals]
        if self.requires_mix:
            parts.append(MixCondition().describe())
        conditions = "; ".join(parts) if parts else "(no necessary conditions)"
        return f"[{self.symptom}] {conditions}"


def _dimension_values(workload: WorkloadDescriptor) -> dict:
    """Dimension-name → value view of a workload, as MFS conditions see it.

    Enum values are read from ``_value_``, the member attribute the
    ``value`` property returns, without the property's Python frame.
    """
    return {
        "qp_type": workload.qp_type._value_,
        "opcode": workload.opcode._value_,
        "direction": workload.direction._value_,
        "colocation": workload.colocation._value_,
        "sg_layout": workload.sg_layout._value_,
        "src_device": workload.src_device,
        "dst_device": workload.dst_device,
        "mtu": workload.mtu,
        "num_qps": workload.num_qps,
        "wqe_batch": workload.wqe_batch,
        "sge_per_wqe": workload.sge_per_wqe,
        "wq_depth": workload.wq_depth,
        "mrs_per_qp": workload.mrs_per_qp,
        "mr_bytes": workload.mr_bytes,
        "duty_cycle": workload.duty_cycle,
        "avg_msg": workload.avg_msg_bytes,
    }


class MFSExtractor:
    """Runs the per-dimension probes of §5.2 against a trigger oracle.

    ``classify`` is a callable running one (charged) experiment and
    returning the monitor's symptom string; the extractor counts every
    probe so callers can charge testbed time.  Callers that drive
    :meth:`construct_steps` directly — the population driver's
    lockstep path — answer each yielded probe themselves and may pass
    ``classify=None``.

    A probe counts as *triggering* only when it reproduces the witness's
    symptom class.  Without this, a probe that lands in a *different*
    anomaly's region (pause where the witness was a silent slowdown, say)
    would be folded into the condition set, and the resulting MFS could
    cover healthy space — poisoning the search's skip test.
    """

    def __init__(
        self,
        space: SearchSpace,
        classify: Optional[Callable[[WorkloadDescriptor], str]],
        probes_per_dimension: int = 4,
        validate_box: bool = True,
        same_symptom_only: bool = True,
    ) -> None:
        if probes_per_dimension < 2:
            raise ValueError("need at least 2 probes per dimension")
        self.space = space
        self.classify = classify
        self.probes_per_dimension = probes_per_dimension
        #: Ablation toggles (see ``bench_mfs_ablation``): adversarial box
        #: validation and same-symptom probing are this implementation's
        #: additions over the paper's plain per-dimension probing.
        self.validate_box = validate_box
        self.same_symptom_only = same_symptom_only
        self.experiments = 0
        self._target_symptom: Optional[str] = None

    # -- public API ----------------------------------------------------------

    def construct(
        self,
        witness: WorkloadDescriptor,
        symptom: str,
        at_seconds: float = 0.0,
        reduce: bool = True,
        known: Optional[list] = None,
    ) -> Optional[MinimalFeatureSet]:
        """ConstructMFS (paper Alg. 1 line 15).

        Scalar driver of :meth:`construct_steps`: every yielded probe is
        answered with ``self.classify`` on the spot, reproducing the
        historical inline probing loop bit-identically.
        """
        stepper = self.construct_steps(
            witness, symptom, at_seconds=at_seconds, reduce=reduce,
            known=known,
        )
        try:
            probe = next(stepper)
            while True:
                probe = stepper.send(self.classify(probe))
        except StopIteration as stop:
            return stop.value

    def construct_steps(
        self,
        witness: WorkloadDescriptor,
        symptom: str,
        at_seconds: float = 0.0,
        reduce: bool = True,
        known: Optional[list] = None,
    ):
        """Generator form of :meth:`construct`.

        Yields each probe workload immediately before its (charged)
        experiment and receives the monitor's symptom string back via
        ``send``; ``StopIteration.value`` is the finished
        :class:`MinimalFeatureSet` — or None for a re-find of a known
        anomaly.  Nothing else crosses a yield, so a driver answering
        every probe with ``classify`` replays the scalar probe sequence
        exactly, and so does the population driver, which interleaves
        the suspended probes of many chains one generation at a time.

        With ``reduce=True`` (default) the witness is first simplified
        toward a benign baseline, one dimension at a time, keeping only
        changes that preserve the anomaly.  This mirrors the paper's "we
        try our best to simplify each anomaly" and — crucially — isolates
        *one* anomaly when the original witness sat in the overlap of
        several (otherwise every single-dimension probe stays anomalous
        through a different anomaly and the MFS degenerates to the whole
        space).
        """
        self.experiments = 0
        self._target_symptom = symptom
        reduced_to_default: set = set()
        if reduce:
            witness, reduced_to_default = yield from self.reduce_witness(
                witness
            )
            if known and match_any(known, witness) is not None:
                # The simplified witness lands inside an already-extracted
                # anomaly's region: this is a re-find of a known anomaly
                # through a corner its (conservative) MFS did not cover.
                # Skip the expensive probing; the caller treats it as
                # covered.
                return None
        intervals = []
        memberships = []
        for dimension in CATEGORICAL_DIMENSIONS:
            condition = yield from self._probe_categorical(witness, dimension)
            if condition is not None:
                memberships.append(condition)
        for dimension in ORDERED_DIMENSIONS:
            # A dimension the reduction already walked to its benign
            # default is *probably* unconstrained, but a one-sided gate
            # can still include the default (e.g. "wqe_batch <= 2" with
            # default 1), so it gets light probing — ladder extremes
            # only, refined by bisection — instead of none.
            condition = yield from self._probe_ordered(
                witness, dimension,
                light=dimension in reduced_to_default,
            )
            if condition is not None:
                intervals.append(condition)
        pattern_interval, requires_mix = yield from self._probe_pattern(
            witness
        )
        if pattern_interval is not None:
            intervals.append(pattern_interval)
        if self.validate_box:
            intervals = yield from self._validate_box(
                witness, intervals, memberships, requires_mix
            )
        if not intervals and not memberships and not requires_mix:
            # Degenerate extraction (every probe stayed anomalous): pin the
            # witness's transport identity so the MFS cannot swallow the
            # whole space.  Conservative: covers less, never more.
            values = _dimension_values(witness)
            memberships = [
                MembershipCondition(dim, (values[dim],))
                for dim in ("qp_type", "opcode", "direction", "colocation")
            ]
        return MinimalFeatureSet(
            symptom=symptom,
            witness=witness,
            intervals=tuple(intervals),
            memberships=tuple(memberships),
            requires_mix=requires_mix,
            found_at_seconds=at_seconds,
            probe_experiments=self.experiments,
        )

    # -- witness reduction ---------------------------------------------------

    def reduce_witness(
        self, witness: WorkloadDescriptor
    ):
        """Simplify a witness toward a benign baseline, keeping the anomaly.

        One pass over the dimensions in a fixed order; each simplification
        that preserves *some* anomaly is adopted.  The result typically
        sits inside a single anomaly's region even when the original
        witness straddled several.

        A sub-generator of :meth:`construct_steps` (probes suspend);
        returns the reduced witness and the set of dimensions that were
        successfully moved to their benign default — evidence those
        dimensions are not necessary conditions.
        """
        baseline = self._benign_defaults()
        reduced = witness
        reduced_to_default: set = set()
        for dimension, default in baseline.items():
            current = _dimension_values(reduced)[dimension]
            default_label = getattr(default, "value", default)
            if current == default_label:
                continue
            candidate = self.space.with_values(reduced, {dimension: default})
            if _dimension_values(candidate)[dimension] != default_label:
                continue  # coercion refused the simplification
            if (yield from self._check(candidate)):
                reduced = candidate
                reduced_to_default.add(dimension)
        # Pattern simplification: prefer a uniform pattern if it still
        # triggers (uniform = the benign shape; mixes are kept only when
        # the anomaly needs them).
        if len(set(reduced.msg_sizes_bytes)) > 1:
            for size in (max(reduced.msg_sizes_bytes), min(reduced.msg_sizes_bytes)):
                uniform = self.space.with_values(reduced, {
                    "msg_pattern": (size,) * len(reduced.msg_sizes_bytes),
                })
                if (yield from self._check(uniform)):
                    reduced = uniform
                    break
        return reduced, reduced_to_default

    def _benign_defaults(self) -> dict:
        """Per-dimension benign values, restricted to this space's choices."""
        from repro.hardware.workload import Colocation, Direction, SGLayout
        from repro.verbs.constants import QPType, Opcode

        def pick(preferred, options):
            return preferred if preferred in options else options[0]

        def pick_near(preferred, ladder):
            return min(ladder, key=lambda v: abs(v - preferred))

        return {
            "colocation": pick(Colocation.REMOTE_ONLY, self.space.colocations),
            "sg_layout": pick(SGLayout.EVEN, self.space.sg_layouts),
            "src_device": pick("numa0", self.space.memory_devices),
            "dst_device": pick("numa0", self.space.memory_devices),
            "qp_type": pick(QPType.RC, self.space.qp_types),
            "opcode": pick(Opcode.WRITE, self.space.opcodes),
            "direction": pick(Direction.UNIDIRECTIONAL, self.space.directions),
            "mtu": pick_near(4096, self.space.mtus),
            "num_qps": pick_near(8, self.space.qps_choices),
            "wqe_batch": pick_near(1, self.space.batch_choices),
            "sge_per_wqe": pick_near(1, self.space.sge_choices),
            "wq_depth": pick_near(128, self.space.wq_depth_choices),
            "mrs_per_qp": pick_near(1, self.space.mrs_per_qp_choices),
            "mr_bytes": pick_near(65536, self.space.mr_bytes_choices),
            "duty_cycle": pick_near(1.0, self.space.duty_cycles),
        }

    # -- probes -----------------------------------------------------------

    def _check(self, workload: WorkloadDescriptor):
        """One probe (a sub-generator): yield the point, receive the
        symptom, return whether the anomaly survived."""
        self.experiments += 1
        symptom = yield workload
        if self.same_symptom_only:
            return symptom == self._target_symptom
        return symptom != "healthy"

    def _probe_categorical(
        self, witness: WorkloadDescriptor, dimension: str
    ):
        original = _dimension_values(witness)[dimension]
        triggering = [original]
        all_trigger = True
        for value in self.space.categorical_choices(dimension):
            label = getattr(value, "value", value)
            if label == original:
                continue
            probe = self.space.with_values(witness, {dimension: value})
            if _dimension_values(probe)[dimension] != label:
                # Coercion rolled the change back (e.g. READ on UD):
                # this alternative is not expressible, skip it.
                continue
            if (yield from self._check(probe)):
                triggering.append(label)
            else:
                all_trigger = False
        if all_trigger:
            return None
        return MembershipCondition(
            dimension=dimension, allowed=tuple(sorted(set(triggering)))
        )

    def _probe_ordered(
        self, witness: WorkloadDescriptor, dimension: str,
        light: bool = False,
    ):
        ladder = list(self.space.ordered_choices(dimension))
        original = _dimension_values(witness)[dimension]
        if original not in ladder:
            ladder = sorted(set(ladder + [original]))
        origin_index = ladder.index(original)
        if light:
            probe_indices = [
                i for i in (0, len(ladder) - 1) if i != origin_index
            ]
        else:
            probe_indices = self._probe_indices(len(ladder), origin_index)

        def test(index: int):
            probe = self.space.with_values(
                witness, {dimension: ladder[index]}
            )
            if _dimension_values(probe)[dimension] != ladder[index]:
                return None  # coercion clamped the value (e.g. MR budget)
            return (yield from self._check(probe))

        results = {origin_index: True}
        for index in probe_indices:
            if index in results:
                continue
            outcome = yield from test(index)
            if outcome is not None:
                results[index] = outcome

        yield from self._bisect_boundaries(results, origin_index, test)
        low_bound, high_bound = _triggering_run_bounds(
            ladder, results, origin_index
        )
        if low_bound is None and high_bound is None:
            return None
        return IntervalCondition(
            dimension=dimension, low=low_bound, high=high_bound
        )

    def _bisect_boundaries(self, results: dict, origin_index: int, test):
        """Sharpen the triggering run's edges by bisecting probe gaps.

        ``test`` is a sub-generator (as is this whole method — probes
        suspend through it).  Wide gaps between a failing and a
        triggering probe leave large under-covered corners of the
        anomaly region; each such corner the search later stumbles into
        costs a whole re-extraction, so a couple of bisection probes
        here pay for themselves many times over.
        """
        for direction in (-1, 1):
            while True:
                side = [
                    i for i in sorted(results)
                    if (i - origin_index) * direction > 0
                ]
                run_edge = origin_index
                fail_edge = None
                ordered = side if direction > 0 else list(reversed(side))
                for index in ordered:
                    if results[index]:
                        run_edge = index
                    else:
                        fail_edge = index
                        break
                if fail_edge is None or abs(fail_edge - run_edge) <= 1:
                    break
                mid = (fail_edge + run_edge) // 2
                if mid in results:
                    break
                outcome = yield from test(mid)
                if outcome is None:
                    break
                results[mid] = outcome

    def _validate_box(
        self,
        witness: WorkloadDescriptor,
        intervals: list[IntervalCondition],
        memberships: list[MembershipCondition],
        requires_mix: bool,
        samples: int = 8,
        max_tightenings: int = 12,
    ):
        """Adversarially sample the MFS box; tighten until samples trigger.

        Per-dimension probing holds the other dimensions at witness
        values, so when the true trigger couples several dimensions (a
        product like anomaly #7's ``num_qps × mrs_per_qp``, or a capacity
        term like #15's ``num_qps × wq_depth``), the independent bounds —
        and especially the dimensions left *unbounded* — can jointly
        admit healthy points.  Random points are drawn from inside the
        box; each healthy sample tightens the box by excluding that
        sample's most-deviant ordered dimension value, moving the bound
        toward the witness.  The result keeps the search's skip test
        sound (false skips hide anomalies from the search forever).
        """
        conditions = {c.dimension: c for c in intervals}
        witness_values = _dimension_values(witness)
        rng = np.random.default_rng(0xC0111E)

        def allowed_values(dim: str) -> list:
            ladder = sorted(set(self.space.ordered_choices(dim)))
            cond = conditions.get(dim)
            if cond is None:
                return ladder
            return [v for v in ladder if cond.matches(float(v))] or [
                witness_values[dim]
            ]

        def pick_adversarial(dim: str, values: list):
            """Mostly probe the box's weakest ends, sometimes uniform.

            Joint weaknesses live at corners; uniform sampling almost
            never lands on them, so each dimension independently snaps
            to an extreme of its allowed range half the time.
            """
            if len(values) == 1 or rng.random() >= 0.5:
                return values[rng.integers(len(values))]
            cond = conditions.get(dim)
            if cond is not None and cond.low is not None and cond.high is None:
                return values[0]  # the >= bound: weakest at the bottom
            if cond is not None and cond.high is not None and cond.low is None:
                return values[-1]  # the <= bound: weakest at the top
            return values[0] if rng.random() < 0.5 else values[-1]

        def sample_in_box() -> Optional[WorkloadDescriptor]:
            values = {
                dim: pick_adversarial(dim, allowed_values(dim))
                for dim in ORDERED_DIMENSIONS
            }
            if "avg_msg" in conditions:
                cond = conditions["avg_msg"]
                sizes = [
                    s for s in self.space.msg_size_choices
                    if cond.matches(float(s))
                ]
                if sizes:
                    size = sizes[rng.integers(len(sizes))]
                    values["msg_pattern"] = (size,) * len(witness.msg_sizes_bytes)
            probe = self.space.with_values(witness, values)
            # Coercion may have clamped values back outside the box; a
            # non-matching sample proves nothing, so retry-by-skip.
            candidate = MinimalFeatureSet(
                symptom="", witness=witness,
                intervals=tuple(conditions.values()),
                memberships=tuple(memberships),
                requires_mix=requires_mix,
            )
            return probe if candidate.matches(probe) else None

        def bound_out(dim: str, probe_value: float) -> bool:
            """Shrink ``dim``'s interval so ``probe_value`` is excluded."""
            ladder = sorted(set(self.space.ordered_choices(dim)))
            witness_value = float(witness_values[dim])
            cond = conditions.get(dim, IntervalCondition(dim, None, None))
            if probe_value < witness_value:
                higher = [v for v in ladder if probe_value < v <= witness_value]
                if not higher:
                    return False
                conditions[dim] = IntervalCondition(
                    dim, float(higher[0]), cond.high
                )
            elif probe_value > witness_value:
                lower = [v for v in ladder if witness_value <= v < probe_value]
                if not lower:
                    return False
                conditions[dim] = IntervalCondition(
                    dim, cond.low, float(lower[-1])
                )
            else:
                return False
            return True

        def tighten(probe: WorkloadDescriptor):
            """Exclude a healthy sample by bounding a *culpable* dimension.

            Deviation alone misattributes blame (an irrelevant dimension
            may deviate most), so this repairs the probe toward the
            witness one dimension at a time, most-deviant first: the
            dimension whose reset flips the probe back to triggering is
            the one that matters, and its bound excludes the sample.
            """
            probe_values = _dimension_values(probe)

            def deviation(dim: str) -> float:
                p, w = float(probe_values[dim]), float(witness_values[dim])
                if p <= 0 or w <= 0 or p == w:
                    return 0.0
                return abs(math.log(p / w))

            candidates = sorted(
                (d for d in ORDERED_DIMENSIONS if deviation(d) > 0),
                key=deviation,
                reverse=True,
            )
            repaired = probe
            for dim in candidates:
                reset = self.space.with_values(
                    repaired, {dim: witness_values[dim]}
                )
                if (yield from self._check(reset)):
                    return bound_out(dim, float(probe_values[dim]))
                repaired = reset
            return False

        tightenings = 0
        consecutive_ok = 0
        while consecutive_ok < samples and tightenings <= max_tightenings:
            probe = sample_in_box()
            if probe is None:
                consecutive_ok += 1  # clamped sample: counts as benign
                continue
            if (yield from self._check(probe)):
                consecutive_ok += 1
                continue
            consecutive_ok = 0
            tightenings += 1
            if not (yield from tighten(probe)):
                break  # cannot separate further; accept best effort
        return [
            cond for cond in conditions.values()
            if cond.low is not None or cond.high is not None
        ]

    def _probe_indices(self, length: int, origin: int) -> list[int]:
        """Ladder indices to probe: extremes, neighbours, spread levels."""
        candidates = {0, length - 1, origin - 1, origin + 1}
        step = max(1, length // self.probes_per_dimension)
        candidates.update(range(0, length, step))
        return sorted(i for i in candidates if 0 <= i < length and i != origin)

    def _probe_pattern(
        self, witness: WorkloadDescriptor
    ):
        """Probe the message-pattern dimension with uniform patterns."""
        sizes = sorted(set(witness.msg_sizes_bytes))
        if len(sizes) == 1:
            # Uniform witness: probe other uniform sizes as an ordered dim.
            return (yield from self._probe_uniform_sizes(witness)), False
        uniform_results = {}
        for size in (min(sizes), max(sizes)):
            probe = self.space.with_values(witness, {
                "msg_pattern": (size,) * len(witness.msg_sizes_bytes),
            })
            uniform_results[size] = yield from self._check(probe)
        if not any(uniform_results.values()):
            if witness.mixes_small_and_large:
                return None, True  # only the mixed pattern triggers
            # Only the mixed pattern triggers, but it is not the
            # canonical small/large mix ``requires_mix`` describes — a
            # mix-requiring MFS would exclude its own witness, breaking
            # the skip test's soundness.  Pin the witness's mean size
            # instead: still excludes the (healthy) uniform probes,
            # still contains the witness.
            avg = float(witness.avg_msg_bytes)
            return IntervalCondition("avg_msg", avg, avg), False
        return None, False

    def _probe_uniform_sizes(
        self, witness: WorkloadDescriptor
    ):
        ladder = list(self.space.msg_size_choices)
        original = witness.msg_sizes_bytes[0]
        if original not in ladder:
            ladder = sorted(set(ladder + [original]))
        origin_index = ladder.index(original)

        def test(index: int):
            pattern = (ladder[index],) * len(witness.msg_sizes_bytes)
            probe = self.space.with_values(witness, {"msg_pattern": pattern})
            if probe.msg_sizes_bytes[0] != ladder[index]:
                return None  # UD clipped the size to the MTU
            return (yield from self._check(probe))

        results = {origin_index: True}
        for index in self._probe_indices(len(ladder), origin_index):
            if index in results:
                continue
            outcome = yield from test(index)
            if outcome is not None:
                results[index] = outcome
        yield from self._bisect_boundaries(results, origin_index, test)
        low, high = _triggering_run_bounds(ladder, results, origin_index)
        if low is None and high is None:
            return None
        return IntervalCondition(dimension="avg_msg", low=low, high=high)


def _triggering_run_bounds(
    ladder: list, results: dict, origin_index: int
) -> tuple[Optional[float], Optional[float]]:
    """Interval bounds from the tested-and-triggering run around the origin.

    The bounds are always values that were *actually probed* and
    triggered — never an untested neighbour of a failing probe.  Untested
    levels between two triggering probes are assumed triggering
    (interpolation); untested levels between a failing and a triggering
    probe are excluded (conservative: the MFS may cover less than the
    true region, but never healthy space, so the search's skip test stays
    sound).

    Returns ``(None, None)`` when every probe triggered (unbounded in
    both directions — the dimension is not a necessary condition).
    """
    if all(results.values()):
        return None, None
    tested = sorted(results)
    run_low = origin_index
    for index in reversed([i for i in tested if i < origin_index]):
        if results[index]:
            run_low = index
        else:
            break
    run_high = origin_index
    for index in [i for i in tested if i > origin_index]:
        if results[index]:
            run_high = index
        else:
            break
    low = None if run_low == 0 else float(ladder[run_low])
    high = None if run_high == len(ladder) - 1 else float(ladder[run_high])
    return low, high


def match_any(
    anomaly_set: list[MinimalFeatureSet], workload: WorkloadDescriptor
) -> Optional[MinimalFeatureSet]:
    """MatchMFS (paper Alg. 1 line 5): first MFS covering the workload.

    The workload's dimension view is built once and tested against every
    MFS in order.
    """
    if not anomaly_set:
        return None
    values = _dimension_values(workload)
    for mfs in anomaly_set:
        if mfs._contains(values, workload):
            return mfs
    return None
