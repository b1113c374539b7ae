"""One-dimensional sensitivity profiles around a workload.

Given a (typically anomalous) workload, sweep one search dimension
across its ladder holding the rest fixed, and record the subsystem's
response — throughput, pause ratio, verdict.  This is the quantitative
view behind an MFS condition: not just *where* the necessary region's
boundary sits, but how sharply the subsystem degrades across it.
Operators use these profiles to pick safety margins (§7.3's "configure
receive queue depth carefully").
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.monitor import AnomalyMonitor
from repro.core.space import ORDERED_DIMENSIONS, SearchSpace
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import Subsystem
from repro.hardware.workload import WorkloadDescriptor


@dataclasses.dataclass(frozen=True)
class SensitivityPoint:
    """One sweep sample."""

    value: float
    wire_gbps: float
    pause_ratio: float
    symptom: str


@dataclasses.dataclass(frozen=True)
class SensitivityProfile:
    """The response curve of one dimension."""

    dimension: str
    baseline_value: float
    points: tuple[SensitivityPoint, ...]

    @property
    def anomalous_values(self) -> tuple[float, ...]:
        return tuple(
            p.value for p in self.points if p.symptom != "healthy"
        )

    @property
    def boundary(self) -> Optional[tuple[float, float]]:
        """The (last healthy, first anomalous) values along the sweep,
        or None when the sweep never changes verdict."""
        previous = None
        for point in self.points:
            if previous is not None and (
                (previous.symptom == "healthy")
                != (point.symptom == "healthy")
            ):
                healthy, anomalous = (
                    (previous, point)
                    if previous.symptom == "healthy"
                    else (point, previous)
                )
                return (healthy.value, anomalous.value)
            previous = point
        return None

    def render(self, width: int = 40) -> str:
        """ASCII profile: one row per swept value."""
        peak = max((p.wire_gbps for p in self.points), default=1.0) or 1.0
        lines = [f"sensitivity of {self.dimension} "
                 f"(baseline {self.baseline_value:g}):"]
        for point in self.points:
            bar = "#" * int(round(point.wire_gbps / peak * width))
            marker = "!" if point.symptom != "healthy" else " "
            lines.append(
                f"  {point.value:>10g} |{bar:<{width}}|{marker} "
                f"{point.wire_gbps:7.1f} Gbps, pause "
                f"{100 * point.pause_ratio:5.1f}%"
            )
        return "\n".join(lines)


class SensitivityAnalyzer:
    """Sweeps dimensions of a workload on one subsystem."""

    def __init__(self, subsystem: Subsystem, noise: float = 0.0) -> None:
        self.subsystem = subsystem
        self.space = SearchSpace.for_subsystem(subsystem)
        self.model = SteadyStateModel(subsystem, noise=noise)
        self.monitor = AnomalyMonitor(subsystem)

    def _measure(self, workload: WorkloadDescriptor) -> SensitivityPoint:
        measurement = self.model.evaluate(
            workload, np.random.default_rng(0)
        )
        verdict = self.monitor.classify(measurement)
        return SensitivityPoint(
            value=0.0,  # filled by caller
            wire_gbps=measurement.min_direction_wire_gbps,
            pause_ratio=measurement.pause_ratio,
            symptom=verdict.symptom,
        )

    def profile(
        self, workload: WorkloadDescriptor, dimension: str
    ) -> SensitivityProfile:
        """Sweep one ordered dimension across its full ladder."""
        if dimension not in ORDERED_DIMENSIONS:
            raise ValueError(
                f"{dimension!r} is not a sweepable ordered dimension"
            )
        points = []
        for value in self.space.ordered_choices(dimension):
            probe = self.space.with_values(workload, {dimension: value})
            if getattr(probe, dimension) != value:
                continue  # coercion clamped the value away
            sample = self._measure(probe)
            points.append(dataclasses.replace(sample, value=float(value)))
        return SensitivityProfile(
            dimension=dimension,
            baseline_value=float(getattr(workload, dimension)),
            points=tuple(points),
        )

    def profile_all(
        self, workload: WorkloadDescriptor
    ) -> list[SensitivityProfile]:
        """Profiles for every sweepable dimension, skipping flat ones."""
        profiles = []
        for dimension in ORDERED_DIMENSIONS:
            if len(self.space.ordered_choices(dimension)) < 2:
                continue
            profile = self.profile(workload, dimension)
            if profile.points:
                profiles.append(profile)
        return profiles
