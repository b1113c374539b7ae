"""Hardware counters: the search signal Collie drives to extreme regions.

Two families, exactly as the paper distinguishes them (§3, Challenge #2):

* **performance counters** — provided by every commodity RNIC (bits and
  packets per second, pause duration); the search drives them *low*;
* **diagnostic counters** — vendor counters mapped to unexpected internal
  events (cache misses, PCIe backpressure); the search drives them *high*.
  The paper's vendors exposed 9 of them; we expose the same number.

:class:`VendorMonitor` mimics the vendor tooling (NEO-Host et al.): it
samples a subsystem once per simulated second and returns noisy readings.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

#: Performance counters (always available).
PERFORMANCE_COUNTERS = (
    "tx_bytes_per_sec",
    "rx_bytes_per_sec",
    "tx_packets_per_sec",
    "rx_packets_per_sec",
    "pause_duration_us_per_sec",
)

#: The 9 vendor diagnostic counters (§7.2: "Our vendors provide us with 9
#: diagnostic counters").  Names follow the two the paper cites —
#: *Receive WQE Cache Miss* and *PCIe Internal Back Pressure* — plus the
#: remaining mechanisms of Appendix A.
DIAGNOSTIC_COUNTERS = (
    "rx_wqe_cache_miss",
    "qpc_cache_miss",
    "mtt_cache_miss",
    "pcie_internal_backpressure",
    "pcie_ordering_stall",
    "rx_buffer_full_events",
    "internal_incast_events",
    "cross_socket_pressure",
    "tx_wqe_fetch_stall",
)

#: Every counter, in the order of a sample row.  It is also the column
#: order of the run journal's v8 ``counters`` array
#: (:mod:`repro.obs.schema`): a change here is a new journal version.
ALL_COUNTERS = PERFORMANCE_COUNTERS + DIAGNOSTIC_COUNTERS

#: Counters the search should *minimize* (performance) vs *maximize*
#: (diagnostic), per §5.1.
MINIMIZED_COUNTERS = frozenset(
    ("tx_bytes_per_sec", "rx_bytes_per_sec", "tx_packets_per_sec",
     "rx_packets_per_sec")
)


def is_diagnostic(counter: str) -> bool:
    return counter in DIAGNOSTIC_COUNTERS


def is_performance(counter: str) -> bool:
    return counter in PERFORMANCE_COUNTERS


#: Counter name -> column index in a row vector over ``ALL_COUNTERS``.
_COUNTER_COLUMN = {name: i for i, name in enumerate(ALL_COUNTERS)}


class CounterSample:
    """One per-second reading of every counter.

    Both evaluation paths construct samples from a row: a list of Python
    floats over ``ALL_COUNTERS`` (the scalar observation builds it after
    its one noise draw, the batched one takes it from one ``tolist()``
    of its sample cube).  The ``values`` mapping materializes lazily
    from it; single-counter reads (the monitor's stability check) index
    the row directly, so the per-second dicts are only built for
    consumers that want a full mapping (tests, user code inspecting a
    measurement).
    """

    __slots__ = ("second", "_values", "_row")

    def __init__(self, second: int, values=None, row=None) -> None:
        self.second = second
        self._values = values
        self._row = row

    @property
    def values(self) -> Mapping[str, float]:
        if self._values is None:
            self._values = dict(zip(ALL_COUNTERS, self._row))
        return self._values

    def __getitem__(self, counter: str) -> float:
        row = self._row
        if row is not None:
            return row[_COUNTER_COLUMN[counter]]
        return self.values[counter]

    def get(self, counter: str, default: float = 0.0) -> float:
        row = self._row
        if row is not None:
            column = _COUNTER_COLUMN.get(counter)
            return row[column] if column is not None else default
        return self.values.get(counter, default)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CounterSample):
            return NotImplemented
        return self.second == other.second and self.values == other.values

    def __repr__(self) -> str:
        return f"CounterSample(second={self.second!r}, values={self.values!r})"


class VendorMonitor:
    """Samples noisy per-second counter readings from ideal counter values.

    The paper's monitors "provide counters every second" and Collie
    averages four fetches per iteration (§6).  Real readings jitter with
    bus traffic; we apply multiplicative Gaussian noise (default 2%) from
    an explicit RNG so experiments are reproducible.
    """

    def __init__(self, rng: np.random.Generator, noise: float = 0.02) -> None:
        if noise < 0:
            raise ValueError(f"noise must be non-negative, got {noise}")
        self._rng = rng
        self._noise = noise

    def sample(self, ideal: Mapping[str, float], second: int) -> CounterSample:
        """Return one noisy sample of the given ideal counter values."""
        return self._sample_rows(ideal, [second])[0]

    def sample_window(
        self, ideal: Mapping[str, float], seconds: int, start_second: int = 0
    ) -> list[CounterSample]:
        """Sample ``seconds`` consecutive per-second readings."""
        return self._sample_rows(
            ideal, range(start_second, start_second + seconds)
        )

    def _sample_rows(self, ideal, seconds_list) -> list[CounterSample]:
        """Sample one reading per requested second, noise batched.

        All the window's noise comes from a single row-major
        ``Generator.normal(size=(seconds, active))`` call: numpy fills a
        batched request from the same bit stream as sequential scalar
        draws (second by second, counter by counter), so the readings
        are bit-identical to the one-draw-per-counter formulation.  The
        draw is converted once with ``tolist()`` and the rows are built
        in plain floats: a counter whose ideal value is not positive
        reads its ideal value, an active one ``base * max(0, 1 + d)`` --
        the same IEEE operations the array formulation applies, without
        its per-call overhead.
        """
        seconds_list = list(seconds_list)
        base = [float(ideal.get(name, 0.0)) for name in ALL_COUNTERS]
        active = [
            (column, value) for column, value in enumerate(base) if value > 0
        ]
        if self._noise > 0 and active:
            draws = self._rng.normal(
                0.0, self._noise, size=(len(seconds_list), len(active))
            ).tolist()
            rows = []
            for draw in draws:
                row = base.copy()
                for (column, value), d in zip(active, draw):
                    scale = 1.0 + d  # max(0, 1 + d), without the call
                    row[column] = value * (scale if scale > 0.0 else 0.0)
                rows.append(row)
        else:
            rows = [base.copy() for _ in seconds_list]
        return [
            CounterSample(second=second, row=row)
            for second, row in zip(seconds_list, rows)
        ]


def average_counters(samples: list[CounterSample]) -> dict[str, float]:
    """Mean of each counter across samples (the paper averages 4 fetches).

    The rows are added as plain floats, in row order from 0.0, and each
    total is divided by the count: exactly the sequential row sum that
    numpy's ``mean(axis=0)`` over the ``(window, counters)`` matrix
    computes at any window, so every bit of the result is the array
    formulation's.
    """
    if not samples:
        return {name: 0.0 for name in ALL_COUNTERS}
    rows = []
    for sample in samples:
        row = getattr(sample, "_row", None)
        if row is None:
            row = [sample.get(name) for name in ALL_COUNTERS]
        rows.append(row)
    count = len(rows)
    averages = {}
    for name, column in zip(ALL_COUNTERS, zip(*rows)):
        total = 0.0
        for value in column:
            total += value
        averages[name] = total / count
    return averages
