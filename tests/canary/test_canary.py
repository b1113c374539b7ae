"""The continuous canary: corpus, drift gates, invariants, CLI.

The expensive fixtures (a recorded corpus, a fresh matrix) are
module-scoped; everything here runs at quick budgets so the whole file
stays in tier-1 territory.
"""

import gzip
import json
import os

import pytest

from repro.canary import (
    CHECK_DRIFT,
    CHECK_OK,
    CHECK_UNREADABLE,
    CellMetrics,
    CorpusError,
    DriftGates,
    MatrixSpec,
    canary_check,
    cell_metrics,
    cell_name,
    check_cell,
    diff_populations,
    load_corpus,
    record_corpus,
    render_check,
    render_drift,
    run_invariants,
)
from repro.canary.corpus import CorpusCell, canonical_journal_bytes
from repro.cli import main
from repro.obs.journal import read_journal

QUICK_SPEC = MatrixSpec(subsystems=("F", "H"), seeds=(1, 2), budget_hours=0.5)

#: The corpus committed to the repository (the acceptance surface).
COMMITTED_CORPUS = os.path.join(
    os.path.dirname(__file__), "..", "..", "canary", "corpus"
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small recorded corpus shared by the read-only tests."""
    corpus = tmp_path_factory.mktemp("canary") / "corpus"
    record_corpus(QUICK_SPEC, corpus)
    return corpus


class TestMatrixSpec:
    def test_cells_enumerate_in_deterministic_order(self):
        assert QUICK_SPEC.cells() == [
            ("F", 1), ("F", 2), ("H", 1), ("H", 2)
        ]

    def test_roundtrips_through_dict(self):
        assert MatrixSpec.from_dict(QUICK_SPEC.to_dict()) == QUICK_SPEC

    def test_rejects_empty_or_invalid(self):
        with pytest.raises(ValueError):
            MatrixSpec(subsystems=())
        with pytest.raises(ValueError):
            MatrixSpec(seeds=())
        with pytest.raises(ValueError):
            MatrixSpec(budget_hours=0)
        with pytest.raises(ValueError):
            MatrixSpec(counter_mode="bogus")

    def test_cell_name_is_the_file_stem(self):
        assert cell_name("F", 3) == "F-s3"


class TestCorpus:
    def test_record_then_load_roundtrips(self, corpus_dir):
        manifest, cells = load_corpus(corpus_dir)
        assert MatrixSpec.from_dict(manifest["spec"]) == QUICK_SPEC
        assert [c.name for c in cells] == ["F-s1", "F-s2", "H-s1", "H-s2"]
        for cell in cells:
            assert cell.records[0]["t"] == "run_start"
            assert cell.records[-1]["t"] == "run_end"

    def test_re_record_is_byte_identical(self, corpus_dir, tmp_path):
        """Determinism: the corpus is a pure function of the code."""
        other = tmp_path / "again"
        record_corpus(QUICK_SPEC, other)
        for name in sorted(os.listdir(corpus_dir)):
            with open(corpus_dir / name, "rb") as a, \
                    open(other / name, "rb") as b:
                assert a.read() == b.read(), name

    def test_missing_manifest_raises_corpus_error(self, tmp_path):
        with pytest.raises(CorpusError, match="no corpus manifest"):
            load_corpus(tmp_path)

    def test_tampered_cell_fails_integrity(self, corpus_dir, tmp_path):
        copy = tmp_path / "tampered"
        copy.mkdir()
        for name in os.listdir(corpus_dir):
            (copy / name).write_bytes((corpus_dir / name).read_bytes())
        victim = copy / "F-s1.jsonl.gz"
        records = [
            json.loads(line)
            for line in gzip.open(victim, "rt").read().splitlines()
        ]
        records[-1]["anomalies"] = 99
        with open(victim, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb") as handle:
                handle.write(canonical_journal_bytes(records))
        with pytest.raises(CorpusError, match="integrity"):
            load_corpus(copy)

    def test_missing_cell_raises(self, corpus_dir, tmp_path):
        copy = tmp_path / "holey"
        copy.mkdir()
        for name in os.listdir(corpus_dir):
            if name != "H-s2.jsonl.gz":
                (copy / name).write_bytes((corpus_dir / name).read_bytes())
        with pytest.raises(CorpusError, match="H-s2 is missing"):
            load_corpus(copy)


def _cell(subsystem="F", seed=1, anomalies=3, ttfa=100.0, coverage=0.9,
          shapes=("pause frame|i2|m1|x0",) * 3, sizes=(3, 3, 3)):
    return CellMetrics(
        subsystem=subsystem, seed=seed, anomalies=anomalies,
        time_to_first_anomaly_seconds=ttfa, coverage_fraction=coverage,
        experiments=80, mfs_shapes=tuple(sorted(shapes)),
        mfs_condition_sizes=tuple(sorted(sizes)),
    )


class TestCanonicalBytes:
    def test_repeated_population_run_is_canonically_identical(
        self, tmp_path
    ):
        """Host time never survives canonical form: two identical
        multi-chain runs, whose ``run_end`` metrics include the batched
        evaluator's per-point wall time, give equal canonical bytes."""
        canonical = []
        for name in ("first.jsonl", "second.jsonl"):
            journal = tmp_path / name
            assert main([
                "search", "H", "--seed", "2", "--hours", "2",
                "--chains", "3", "--journal", str(journal),
            ]) == 0
            canonical.append(canonical_journal_bytes(read_journal(journal)))
        assert canonical[0] == canonical[1]


class TestDriftGates:
    def test_identical_populations_are_clean(self):
        base = [_cell(seed=s, ttfa=50.0 * s) for s in (1, 2, 3)]
        report = diff_populations(base, base)
        assert report.ok
        assert "no drift" in render_drift(report)

    def test_median_shift_gates_and_names_culprit(self):
        base = [_cell(seed=s, anomalies=4) for s in (1, 2, 3)]
        fresh = [
            _cell(seed=1, anomalies=4),
            _cell(seed=2, anomalies=4),
            _cell(seed=3, anomalies=1),  # drags the median to 4 -> ok...
        ]
        # median unchanged (4,4,1 -> median 4): no median finding, but
        # the spread gate sees the inflation.
        report = diff_populations(base, fresh)
        assert not report.ok
        finding = report.findings[0]
        assert finding.subsystem == "F"
        assert finding.seed == 3
        fresh_shifted = [_cell(seed=s, anomalies=2) for s in (1, 2, 3)]
        report = diff_populations(base, fresh_shifted)
        assert any(f.metric == "anomalies" for f in report.findings)

    def test_improvement_also_gates(self):
        """Drift is change, not regression: better numbers still gate."""
        base = [_cell(seed=s, anomalies=2) for s in (1, 2, 3)]
        fresh = [_cell(seed=s, anomalies=4) for s in (1, 2, 3)]
        report = diff_populations(base, fresh)
        assert any(f.metric == "anomalies" for f in report.findings)

    def test_missing_ttfa_counts_gate(self):
        base = [_cell(seed=s) for s in (1, 2, 3)]
        fresh = [
            _cell(seed=1),
            _cell(seed=2),
            _cell(seed=3, ttfa=None),  # this seed stopped finding anything
        ]
        report = diff_populations(base, fresh)
        findings = [
            f for f in report.findings
            if f.metric == "time_to_first_anomaly_seconds"
        ]
        assert findings and findings[0].seed == 3

    def test_shape_multiset_change_gates(self):
        base = [_cell(seed=s) for s in (1, 2, 3)]
        fresh = [
            _cell(seed=1),
            _cell(seed=2),
            _cell(seed=3, shapes=("low throughput|i1|m0|x1",) * 3),
        ]
        report = diff_populations(base, fresh)
        shape_findings = [
            f for f in report.findings if f.metric == "mfs_shapes"
        ]
        assert shape_findings
        assert shape_findings[0].seed == 3
        assert "low throughput|i1|m0|x1" in shape_findings[0].detail

    def test_population_size_mismatch_gates(self):
        base = [_cell(subsystem="F", seed=1)]
        fresh = [_cell(subsystem="H", seed=1)]
        report = diff_populations(base, fresh)
        assert {f.subsystem for f in report.findings} == {"F", "H"}

    def test_tolerance_admits_small_shifts(self):
        base = [_cell(seed=s, coverage=0.90) for s in (1, 2, 3)]
        fresh = [_cell(seed=s, coverage=0.93) for s in (1, 2, 3)]
        assert diff_populations(base, fresh).ok
        gates = DriftGates(median_tolerance=0.01)
        assert not diff_populations(base, fresh, gates=gates).ok


class TestInvariants:
    def test_recorded_corpus_passes(self, corpus_dir):
        _, cells = load_corpus(corpus_dir)
        assert run_invariants(cells) == []

    def test_schema_violation_is_caught(self, corpus_dir):
        _, cells = load_corpus(corpus_dir)
        records = [dict(r) for r in cells[0].records]
        records[0]["v"] = 99
        broken = CorpusCell(
            name=cells[0].name, subsystem=cells[0].subsystem,
            seed=cells[0].seed, records=records,
        )
        kinds = {v.kind for v in check_cell(broken)}
        assert "schema" in kinds

    def test_unsound_mfs_is_caught(self, corpus_dir):
        _, cells = load_corpus(corpus_dir)
        cell = next(
            c for c in cells
            if any(r.get("t") == "anomaly" for r in c.records)
        )
        records = []
        for record in cell.records:
            record = json.loads(json.dumps(record))
            if record.get("t") == "anomaly":
                record["mfs"]["intervals"].append(
                    {"dimension": "num_qps", "low": 64.0, "high": 8.0}
                )
            records.append(record)
        broken = CorpusCell(
            name=cell.name, subsystem=cell.subsystem, seed=cell.seed,
            records=records,
        )
        violations = check_cell(broken)
        assert any(
            v.kind == "mfs-soundness" and "low 64 > high 8" in v.detail
            for v in violations
        )

    def test_out_of_ladder_bound_is_caught(self, corpus_dir):
        _, cells = load_corpus(corpus_dir)
        cell = next(
            c for c in cells
            if any(r.get("t") == "anomaly" for r in c.records)
        )
        records = []
        for record in cell.records:
            record = json.loads(json.dumps(record))
            if record.get("t") == "anomaly":
                record["mfs"]["intervals"] = [
                    {"dimension": "mtu", "low": None, "high": 1 << 30}
                ]
            records.append(record)
        broken = CorpusCell(
            name=cell.name, subsystem=cell.subsystem, seed=cell.seed,
            records=records,
        )
        assert any(
            "outside ladder" in v.detail for v in check_cell(broken)
        )

    def test_non_reproducing_anomaly_is_caught(self, corpus_dir):
        """A symptom the witness cannot re-trigger fails reproduction."""
        _, cells = load_corpus(corpus_dir)
        cell = next(
            c for c in cells
            if any(r.get("t") == "anomaly" for r in c.records)
        )
        records = []
        for record in cell.records:
            record = json.loads(json.dumps(record))
            if record.get("t") == "anomaly":
                record["mfs"]["symptom"] = "low throughput"
            records.append(record)
        broken = CorpusCell(
            name=cell.name, subsystem=cell.subsystem, seed=cell.seed,
            records=records,
        )
        assert any(
            v.kind == "reproduction" for v in check_cell(broken)
        )


class TestCanaryCheck:
    def test_unmodified_code_is_clean(self, corpus_dir, tmp_path):
        result = canary_check(corpus_dir, tmp_path / "fresh")
        assert result.exit_code == CHECK_OK
        assert result.violations == []
        assert result.drift.ok
        assert "verdict: OK" in render_check(result)

    def test_committed_corpus_is_clean_at_head(self, tmp_path):
        """ACCEPTANCE: `canary check` against the repo's own corpus.

        If this fails, either the search core's behaviour changed (fix
        it or intentionally re-record with `repro canary record`) or a
        hard invariant broke (always a bug).
        """
        result = canary_check(COMMITTED_CORPUS, tmp_path / "fresh")
        assert result.exit_code == CHECK_OK, render_check(result)

    def test_missing_corpus_exits_two(self, tmp_path):
        result = canary_check(tmp_path / "nope", tmp_path / "fresh")
        assert result.exit_code == CHECK_UNREADABLE
        assert "unreadable" in render_check(result)

    def test_clean_corpus_has_no_skip_notes(self, corpus_dir, tmp_path):
        result = canary_check(
            corpus_dir, tmp_path / "fresh", skip_invariants=True
        )
        assert result.skipped_kinds == []

    def test_future_record_kinds_surfaced_not_silently_dropped(
        self, corpus_dir, tmp_path
    ):
        """A corpus written by a *newer* schema (extra record kinds) is
        still checkable: the unknown kinds are named in the verdict, and
        the drift gates compare only what both builds understand."""
        import hashlib
        import shutil

        from repro.canary.corpus import _write_gz

        doctored = tmp_path / "corpus"
        shutil.copytree(corpus_dir, doctored)
        cell_file = "F-s1.jsonl.gz"
        with gzip.open(doctored / cell_file) as handle:
            data = handle.read()
        data += b'{"t":"telemetry_v9","payload":1}\n'
        data += b'{"t":"telemetry_v9","payload":2}\n'
        _write_gz(str(doctored / cell_file), data)
        manifest_path = doctored / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        records = [json.loads(line) for line in data.splitlines()]
        manifest["cells"]["F-s1"]["sha256"] = hashlib.sha256(
            canonical_journal_bytes(records)
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest))

        result = canary_check(
            doctored, tmp_path / "fresh", skip_invariants=True
        )
        assert result.exit_code == CHECK_OK
        note = "unknown record kind skipped: telemetry_v9 (n=2)"
        assert any(note in line for line in result.skipped_kinds)
        assert any("F-s1" in line for line in result.skipped_kinds)
        assert note in render_check(result)

    def test_acceptance_rule_change_trips_the_gate(
        self, tmp_path, monkeypatch
    ):
        """ACCEPTANCE: a perturbed SA acceptance rule is detected.

        Forcing the Metropolis probability to zero turns SA into greedy
        descent — a behavioural change in the search core that single
        runs might shrug off, but the seed population statistics catch.
        """
        import repro.core.annealing as annealing

        spec = MatrixSpec(subsystems=("E",), seeds=(1, 2, 3),
                          budget_hours=1.0)
        corpus = tmp_path / "corpus"
        record_corpus(spec, corpus)
        monkeypatch.setattr(annealing.math, "exp", lambda _: 0.0)
        result = canary_check(
            corpus, tmp_path / "fresh", skip_invariants=True
        )
        assert result.exit_code == CHECK_DRIFT
        finding = result.drift.findings[0]
        assert finding.subsystem == "E"
        assert finding.metric
        assert finding.seed in (1, 2, 3)
        rendered = render_check(result)
        assert "DRIFT" in rendered and "culprit" in rendered


class TestCanaryCLI:
    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main([
            "canary", "record", "--corpus", str(corpus),
            "--subsystems", "F", "--seeds", "2", "--hours", "0.5",
        ])
        assert code == 0
        assert "corpus recorded" in capsys.readouterr().out
        code = main(["canary", "check", "--corpus", str(corpus)])
        assert code == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_check_keeps_fresh_dir_artifacts(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main([
            "canary", "record", "--corpus", str(corpus),
            "--subsystems", "F", "--seeds", "1", "--hours", "0.5",
        ]) == 0
        fresh = tmp_path / "fresh"
        assert main([
            "canary", "check", "--corpus", str(corpus),
            "--fresh-dir", str(fresh), "--skip-invariants",
        ]) == 0
        assert sorted(os.listdir(fresh)) == ["F-s1.jsonl"]

    def test_check_missing_corpus_exits_two(self, tmp_path, capsys):
        code = main([
            "canary", "check", "--corpus", str(tmp_path / "nope"),
        ])
        assert code == 2
        assert "unreadable" in capsys.readouterr().out

    def test_record_rejects_unknown_subsystem(self, tmp_path, capsys):
        code = main([
            "canary", "record", "--corpus", str(tmp_path / "c"),
            "--subsystems", "FZ",
        ])
        assert code == 2
        assert "unknown subsystem" in capsys.readouterr().err
