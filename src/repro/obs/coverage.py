"""Workload-space coverage maps over the paper's 4-D search space.

A :class:`CoverageTracker` folds the stream of visited workload points
into per-dimension occupancy histograms, grouped by the paper's four
dimensions (host topology, memory, transport, message pattern; §4).
It also tracks which buckets MFS-driven skipping pruned and which
buckets extracted MFSes admit, answering the two questions a search
journal alone cannot: *how much of the space did this run actually
touch*, and *how much did MFS pruning spare it*.

Each dimension's bucket depends on one workload value (the attribute
itself, or the mean request size for ``avg_msg``), so a tracker
buckets each distinct value once, the first time it sees it, and
counts every later point by table lookup.

Like the recorder, the tracker only observes — it consumes no RNG
draws and never advances the simulated clock, so a coverage-tracked
search is bit-identical to an untracked one.

Live tracking attaches via ``FlightRecorder(track_coverage=True)``;
:func:`coverage_from_records` recomputes the same maps post-hoc from
any journal's ``experiment``/``skip``/``anomaly`` records (v1 journals
included — their skip records just lack the workload detail).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from repro.core.mfs import MinimalFeatureSet
from repro.core.space import DIMENSION_GROUPS, SearchSpace
from repro.hardware.workload import WorkloadDescriptor


#: A point's text fields: its enum values and its devices.
_POINT_TEXT = attrgetter(
    "qp_type._value_", "opcode._value_", "direction._value_",
    "colocation._value_", "sg_layout._value_", "src_device", "dst_device",
)
#: A point's scalar numbers (its message sizes follow them in the key).
_POINT_NUMBERS = attrgetter(
    "mtu", "num_qps", "wqe_batch", "sge_per_wqe", "wq_depth", "mrs_per_qp",
    "mr_bytes", "duty_cycle",
)


def _exact(number):
    """``number``, or the int an integral float equals."""
    if isinstance(number, float) and number.is_integer():
        return int(number)
    return number


def point_key(workload: WorkloadDescriptor) -> str:
    """One short string per distinct point, equal exactly when the
    descriptors are: the enum values, the devices and every number, an
    integral float written as its int (a descriptor compares ``1`` and
    ``1.0`` equal, so their keys must be too)."""
    numbers = _POINT_NUMBERS(workload) + tuple(workload.msg_sizes_bytes)
    try:
        integral = tuple(map(int, numbers))
    except (OverflowError, ValueError):  # inf or nan
        integral = ()
    if integral != numbers:  # some number is not integral
        integral = tuple(map(_exact, numbers))
    return repr(_POINT_TEXT(workload) + integral)


class CoverageTracker:
    """Per-dimension histograms of visited / skipped / MFS-admitted buckets."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.dimensions = space.coverage_dimensions()
        #: dimension -> ordered bucket labels (str of the bucket value).
        self.buckets = {
            dimension: tuple(str(v) for v in space.dimension_buckets(dimension))
            for dimension in self.dimensions
        }
        self.visited: dict[str, dict[str, int]] = {
            dimension: {} for dimension in self.dimensions
        }
        self.skipped: dict[str, dict[str, int]] = {
            dimension: {} for dimension in self.dimensions
        }
        self.mfs_admitted: dict[str, set[str]] = {
            dimension: set() for dimension in self.dimensions
        }
        self.experiments = 0
        self.skips = 0
        #: :func:`point_key` of every distinct visited point.
        self._points: set[str] = set()
        #: dimension -> {workload value: bucket label}, filled on first
        #: sight (values that compare equal share a label, as they share
        #: the nearest ladder rung).
        self._labels: dict[str, dict] = {
            dimension: {} for dimension in self.dimensions
        }
        #: workload -> the value each dimension buckets, in dimension order.
        self._values = attrgetter(*(
            "avg_msg_bytes" if dimension == "avg_msg" else dimension
            for dimension in self.dimensions
        ))

    @classmethod
    def for_subsystem(cls, name: str) -> "CoverageTracker":
        """Tracker over a subsystem's space (generic space as fallback)."""
        try:
            space = SearchSpace.for_subsystem(name)
        except KeyError:
            space = SearchSpace()
        return cls(space)

    # -- ingestion ----------------------------------------------------------

    def visit(self, workload: WorkloadDescriptor) -> None:
        """Count one measured experiment's point."""
        self.experiments += 1
        self._points.add(point_key(workload))
        self._count(workload, self.visited)

    def skip(self, workload: Optional[WorkloadDescriptor] = None) -> None:
        """Count one MFS-matched skip (with bucket detail when known)."""
        self.skips += 1
        if workload is not None:
            self._count(workload, self.skipped)

    def _count(self, workload: WorkloadDescriptor, histograms: dict) -> None:
        """Add one point's bucket labels to ``histograms`` (keyed, like
        every per-dimension table here, in :attr:`dimensions` order)."""
        for dimension, value, labels, histogram in zip(
            self.dimensions, self._values(workload),
            self._labels.values(), histograms.values(),
        ):
            label = labels.get(value)
            if label is None:
                label = labels[value] = str(
                    self.space.bucket_value(dimension, workload)
                )
            histogram[label] = histogram.get(label, 0) + 1

    def mark_mfs(self, mfs: MinimalFeatureSet) -> None:
        """Mark every bucket an extracted MFS admits (per-dimension)."""
        for dimension in self.dimensions:
            admitted = self.mfs_admitted[dimension]
            for value in self.space.dimension_buckets(dimension):
                if mfs.admits_value(dimension, value):
                    admitted.add(str(value))

    # -- summaries ----------------------------------------------------------

    @property
    def unique_points(self) -> int:
        return len(self._points)

    def _touched(self, dimension: str) -> int:
        """How many of a dimension's bucket labels were visited."""
        labels, visited = self.buckets[dimension], self.visited[dimension]
        return sum(1 for label in labels if visited.get(label))

    def dimension_summary(self, dimension: str) -> dict:
        labels = self.buckets[dimension]
        visited = self.visited[dimension]
        skipped = self.skipped[dimension]
        admitted = self.mfs_admitted[dimension]
        touched = self._touched(dimension)
        return {
            "buckets": len(labels),
            "visited_buckets": touched,
            "fraction": touched / len(labels) if labels else 0.0,
            "mfs_fraction": (
                len(admitted & set(labels)) / len(labels) if labels else 0.0
            ),
            "visits": {
                label: visited[label] for label in labels
                if visited.get(label)
            },
            "skips": {
                label: skipped[label] for label in labels
                if skipped.get(label)
            },
        }

    def summary(self) -> dict:
        """Everything the coverage journal record and renderer need."""
        return {
            "experiments": self.experiments,
            "skips": self.skips,
            "unique_points": self.unique_points,
            "fraction": self.touched_fraction(),
            "dimensions": {
                dimension: self.dimension_summary(dimension)
                for dimension in self.dimensions
            },
        }

    def touched_fraction(self) -> float:
        """Mean per-dimension fraction of buckets visited (the
        :meth:`dimension_summary` fractions, without the summaries)."""
        fractions = [
            self._touched(dimension) / len(labels) if labels else 0.0
            for dimension, labels in self.buckets.items()
        ]
        return sum(fractions) / len(fractions) if fractions else 0.0

    def as_record(self, time_seconds: float) -> dict:
        """Schema-v3 ``coverage`` journal record."""
        return {
            "t": "coverage",
            "time_seconds": float(time_seconds),
            "experiments": self.experiments,
            "skips": self.skips,
            "unique_points": self.unique_points,
            "dimensions": {
                dimension: self.dimension_summary(dimension)
                for dimension in self.dimensions
            },
        }

    def render(self) -> str:
        """Per-group occupancy tables plus the touched-vs-skipped summary."""
        lines = ["workload-space coverage"]
        for group, dimensions in DIMENSION_GROUPS.items():
            lines.append(f"  {group}:")
            for dimension in dimensions:
                summary = self.dimension_summary(dimension)
                lines.append(
                    f"    {dimension:<12} {summary['visited_buckets']:>3}/"
                    f"{summary['buckets']:<3} buckets "
                    f"({summary['fraction']:>5.0%} visited, "
                    f"{summary['mfs_fraction']:>5.0%} inside an MFS)"
                )
                for label in self.buckets[dimension]:
                    visits = summary["visits"].get(label, 0)
                    skips = summary["skips"].get(label, 0)
                    if not visits and not skips:
                        continue
                    bar = "#" * min(visits, 40)
                    skipped = f"  (skipped {skips})" if skips else ""
                    lines.append(
                        f"      {label:>10} {visits:>6} {bar}{skipped}"
                    )
        lines.append(
            f"  touched {self.touched_fraction():.0%} of the space "
            f"(mean per-dimension), {self.unique_points} unique points, "
            f"{self.skips} MFS-skipped candidates"
        )
        return "\n".join(lines)


def render_latency_panel(records) -> Optional[str]:
    """The :class:`~repro.obs.folds.Latency` p99 panel of a journal
    (``None`` without latency records)."""
    from repro.obs.folds import Latency, run_folds

    (latency,) = run_folds(records, Latency())
    return latency.render()


def coverage_from_records(records) -> list[CoverageTracker]:
    """Recompute coverage post-hoc: one tracker per run, in
    :func:`~repro.obs.journal.run_records` order (the
    :class:`~repro.obs.folds.Coverage` fold)."""
    from repro.obs.folds import Coverage, run_folds

    (coverage,) = run_folds(records, Coverage())
    return coverage.runs()
