"""The observatory's prime directive: observation changes nothing.

A search run with the full observatory enabled (journal + coverage
tracking + span profiler + progress lines) must be bit-identical to an
unobserved run: same SearchReport, same final RNG state, same simulated
clock reading.  Property-tested across all eight Table 1 subsystems.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.canary.corpus import canonical_journal_bytes
from repro.cli import main
from repro.core import Collie
from repro.obs import FlightRecorder, RunJournal, SpanProfiler, read_journal

BUDGET_HOURS = 0.3


def run_search(letter, seed, recorder):
    collie = Collie.for_subsystem(
        letter, budget_hours=BUDGET_HOURS, seed=seed, recorder=recorder
    )
    report = collie.run()
    return report, collie.rng.bit_generator.state, collie.clock.now


@settings(max_examples=8, deadline=None)
@given(
    letter=st.sampled_from("ABCDEFGH"),
    seed=st.integers(min_value=0, max_value=3),
)
def test_full_observatory_is_invisible_to_the_search(letter, seed):
    reference, rng_state, clock = run_search(letter, seed, None)

    handle, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(handle)
    try:
        recorder = FlightRecorder(
            journal=RunJournal(path),
            progress_every=7,
            track_coverage=True,
        )
        recorder.profiler = SpanProfiler().install()
        try:
            observed, observed_rng, observed_clock = run_search(
                letter, seed, recorder
            )
        finally:
            recorder.profiler.uninstall()
        recorder.close()
    finally:
        os.unlink(path)

    assert observed == reference
    assert observed_rng == rng_state
    assert observed_clock == clock
    # The observatory actually observed: spans recorded, coverage live.
    assert len(recorder.profiler.events()) > 0
    assert recorder.coverage is not None
    assert recorder.coverage.experiments == reference.experiments


def test_a_profiled_journal_is_its_bare_twin_plus_spans(tmp_path, capsys):
    base = ["search", "F", "--hours", "0.5", "--seed", "1", "--progress", "5"]
    bare, profiled = tmp_path / "bare.jsonl", tmp_path / "profiled.jsonl"
    assert main([*base, "--journal", str(bare)]) == 0
    assert main([*base, "--journal", str(profiled), "--profile"]) == 0
    capsys.readouterr()
    records = read_journal(str(profiled))
    assert any(record["t"] == "spans" for record in records)
    assert canonical_journal_bytes(
        [record for record in records if record["t"] != "spans"]
    ) == canonical_journal_bytes(read_journal(str(bare)))
