"""The tail-latency signal end to end: bit-identity and anomaly class.

Three contracts from the latency tentpole:

1. **Disabled mode is the old tool.**  With ``latency=False`` a search
   journal is bit-identical to one recorded by the pre-latency code —
   pinned against the committed ``tests/obs/fixtures/v3.jsonl`` (real
   pre-latency run of subsystem F, 1.0h, seed 1).
2. **Enabled mode only adds the stream.**  While no latency-inflation
   verdict fires, an enabled run's journal differs from a disabled
   run's only by the ``latency`` records and the L-tags they document —
   the search trajectory (workloads, counters, symptoms, times) is
   untouched.
3. **The signal finds what throughput cannot.**  Subsystems F and H
   harbour latency quirks (L1/L2) whose witnesses run at full wire rate
   with zero pauses: only the latency trigger flags them, the MFS is
   sound (reproducer round-trip), and the journal names the quirk.

Journals are compared in the v1–v7 record shape: a fresh (v9) journal
is read as its v7 twin (:func:`tests.obs.journal_shapes.as_keyed`), where
the latency stream is the ``latency`` records again.
"""

import json
import os

import numpy as np
import pytest

from repro.core import Collie
from repro.core.monitor import AnomalyMonitor
from repro.core.reproducer import reproduce_mfs
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import get_subsystem
from repro.obs import FlightRecorder, RunJournal
from tests.obs.journal_shapes import as_keyed

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "obs", "fixtures", "v3.jsonl"
)

LATENCY_INFLATION = "latency inflation"


def _journal_records(tmp_path, filename, letter, **collie_kwargs):
    path = tmp_path / filename
    recorder = FlightRecorder(journal=RunJournal(path))
    try:
        report = Collie.for_subsystem(
            letter, recorder=recorder, **collie_kwargs
        ).run()
    finally:
        recorder.close()
    with open(path) as handle:
        return report, as_keyed(json.loads(line) for line in handle)


def _canonical(records):
    """Strip what legitimately differs across versions: the ``v`` stamp
    moves with the schema, and ``run_end`` carried a ``metrics`` dump up
    to v8, which v9 journals no longer write."""
    return [
        {k: v for k, v in record.items() if k not in ("v", "metrics")}
        for record in records
    ]


def _strip_latency_stream(records):
    """Drop latency records and L-tags — the only two places an enabled
    run is allowed to differ from a disabled one."""
    out = []
    for record in records:
        if record.get("t") == "latency":
            continue
        if record.get("t") == "experiment":
            record = {
                **record,
                "tags": [
                    tag for tag in record["tags"]
                    if not (tag.startswith("L") and tag[1:].isdigit())
                ],
            }
        out.append(record)
    return out


class TestDisabledModeBitIdentity:
    def test_disabled_run_matches_pre_latency_fixture(self, tmp_path):
        """latency=False reproduces the pre-PR journal byte for byte
        (modulo schema stamp and the canonicalisation documented on
        :func:`_canonical`)."""
        _, records = _journal_records(
            tmp_path, "f.jsonl", "F",
            budget_hours=1.0, seed=1, latency=False,
        )
        with open(FIXTURE) as handle:
            fixture = [json.loads(line) for line in handle]
        assert all(r["v"] == 3 for r in fixture)
        assert _canonical(records) == _canonical(fixture)

    @pytest.mark.parametrize("letter", list("ABCDEFGH"))
    def test_enabled_adds_only_the_latency_stream(self, letter, tmp_path):
        """Same seed, latency on vs off: identical searches while no
        latency verdict fires (the quick budget stays under the L-rule
        regions on every subsystem)."""
        _, enabled = _journal_records(
            tmp_path, "on.jsonl", letter,
            budget_hours=0.5, seed=3, latency=True,
        )
        _, disabled = _journal_records(
            tmp_path, "off.jsonl", letter,
            budget_hours=0.5, seed=3, latency=False,
        )
        verdicts = {
            r["symptom"] for r in enabled if r.get("t") == "experiment"
        }
        if LATENCY_INFLATION in verdicts:
            # The trigger fired: the trajectories legitimately diverge
            # (extra MFS extraction, skipped regions) — nothing to pin.
            pytest.skip(f"{letter}: latency verdict fired at quick budget")
        assert any(r.get("t") == "latency" for r in enabled)
        assert not any(r.get("t") == "latency" for r in disabled)
        # Everything else must match record for record.
        assert _strip_latency_stream(enabled) == disabled


class TestBatchScalarLatencyIdentity:
    @pytest.mark.parametrize("letter", list("ABCDEFGH"))
    def test_latency_columns_bit_identical(self, letter):
        """evaluate_each attaches the exact LatencyProfile the scalar
        path derives — same floats, same components, same tags."""
        from repro.core.batcheval import BatchEvaluator
        from repro.core.space import SearchSpace

        subsystem = get_subsystem(letter)
        space = SearchSpace.for_subsystem(subsystem)
        sample_rng = np.random.default_rng(77)
        points = [space.random(sample_rng) for _ in range(12)]
        points += points[:4]  # exact duplicates, the dedup path

        scalar_rngs = [np.random.default_rng(5 + i) for i in range(16)]
        scalar = [
            SteadyStateModel(subsystem).evaluate(p, rng)
            for p, rng in zip(points, scalar_rngs)
        ]
        batched_rngs = [np.random.default_rng(5 + i) for i in range(16)]
        batched = BatchEvaluator(SteadyStateModel(subsystem)).evaluate_each(
            points, batched_rngs
        )
        for a, b in zip(scalar, batched):
            assert a.latency is not None
            assert a.latency == b.latency
            assert a.latency.summary() == b.latency.summary()
        assert [r.bit_generator.state for r in scalar_rngs] \
            == [r.bit_generator.state for r in batched_rngs]


@pytest.mark.parametrize(
    "letter,seed,expected_tag",
    [("F", 2, "L1"), ("H", 1, "L2")],
)
class TestLatencyAnomalyAcceptance:
    """The acceptance-criterion anomaly: invisible to throughput+PFC."""

    def _search(self, tmp_path, letter, seed):
        return _journal_records(
            tmp_path, "run.jsonl", letter,
            budget_hours=10.0, seed=seed, latency=True,
        )

    def test_latency_mfs_found_sound_and_journaled(
        self, tmp_path, letter, seed, expected_tag
    ):
        report, records = self._search(tmp_path, letter, seed)
        latency_mfs = [
            mfs for mfs in report.anomalies
            if mfs.symptom == LATENCY_INFLATION
        ]
        assert latency_mfs, "search never extracted a latency MFS"

        subsystem = get_subsystem(letter)
        for mfs in latency_mfs:
            result = reproduce_mfs(mfs, subsystem)
            assert result.reproduced
            assert LATENCY_INFLATION in result.observed_symptoms

        tagged = [
            r for r in records
            if r.get("t") == "latency" and expected_tag in r.get("tags", ())
        ]
        assert tagged, f"journal never named quirk {expected_tag}"
        assert any(r["inflation"] > 4.0 for r in tagged)

    def test_throughput_and_pfc_stay_blind(
        self, tmp_path, letter, seed, expected_tag
    ):
        """The witness saturates the wire with zero pauses: the paper's
        two symptoms call it healthy, only the latency trigger fires."""
        report, _ = self._search(tmp_path, letter, seed)
        subsystem = get_subsystem(letter)
        model = SteadyStateModel(subsystem, noise=0.0)
        witnesses = [
            mfs.witness for mfs in report.anomalies
            if mfs.symptom == LATENCY_INFLATION
        ]
        assert witnesses
        for witness in witnesses:
            measurement = model.evaluate(
                witness, np.random.default_rng(0)
            )
            blind = AnomalyMonitor(subsystem, latency=False).classify(
                measurement
            )
            assert blind.symptom == "healthy"
            seeing = AnomalyMonitor(subsystem).classify(measurement)
            assert seeing.symptom == LATENCY_INFLATION
            assert seeing.latency_inflation > 4.0
            assert expected_tag in measurement.latency.tags
            # Blind-healthy already certifies wire rate and pauses: the
            # workload clears the throughput bound and the PFC threshold.
            assert seeing.pause_ratio == blind.pause_ratio
