"""The command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.serialize import workload_to_dict, workload_to_list
from repro.cli import EXIT_BROKEN_PIPE, main
from repro.hardware.counters import ALL_COUNTERS
from repro.hardware.workload import WorkloadDescriptor


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CX-5 DX 25G" in out and "P2100G" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "A18" in out and "pause frame" in out


class TestClosedStdout:
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_report_into_a_closed_pipe_ends_quietly(self, flags):
        """``repro report J | head -1``: no traceback, no logging
        errors, a defined exit code."""
        tests = Path(__file__).resolve().parent
        src = str(tests.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "report", *flags,
             str(tests / "obs" / "fixtures" / "v7.jsonl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader leaves before the first write
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
        assert stderr == b""


class TestStartupImports:
    def test_a_search_imports_only_what_it_runs(self):
        """The packages resolve public names on first use, so a search
        never loads the exporter, the executor, the aggregator or the
        sensitivity analysis."""
        tests = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(tests.parent / "src"), env.get("PYTHONPATH")))
        )
        unused = ("http.server", "multiprocessing", "repro.obs.aggregate",
                  "repro.analysis.sensitivity")
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['search', 'H', '--hours', '0.01']) == 0\n"
            f"print([name for name in {unused!r} if name in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("package", ("repro.obs", "repro.core",
                                         "repro.analysis"))
    def test_every_public_name_resolves(self, package):
        import importlib

        module = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            module.missing


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["parallel", "H", "--machines", "0"], "must be >= 1, got 0"),
            (["search", "H", "--hours", "0"], "must be a finite number > 0"),
            (["search", "H", "--hours", "-1"], "must be a finite number > 0"),
            (["parallel", "H", "--hours", "0"], "must be a finite number > 0"),
            (["campaign", "collie", "--hours", "-1"],
             "must be a finite number > 0"),
            (["isolation", "--hours", "0"], "must be a finite number > 0"),
            (["canary", "record", "--hours", "nan"],
             "must be a finite number > 0"),
            (["search", "H", "--victim", "default", "--victim-share", "1.5"],
             "must lie in (0, 1], got 1.5"),
            (["isolation", "--victim-share", "0"], "must lie in (0, 1], got 0"),
            (["search", "H", "--seed", "-1"], "must be >= 0, got -1"),
            (["parallel", "H", "--seed", "-1"], "must be >= 0, got -1"),
            (["campaign", "collie", "--seed", "-1"], "must be >= 0, got -1"),
            (["isolation", "--seed", "-1"], "must be >= 0, got -1"),
            (["replay", "--seed", "-1"], "must be >= 0, got -1"),
            (["canary", "record", "--seed-base", "-1"],
             "must be >= 0, got -1"),
            (["search", "H", "--export-metrics", "70000"],
             "must be a port in [0, 65535], got 70000"),
            (["campaign", "collie", "--export-metrics", "-5"],
             "must be a port in [0, 65535], got -5"),
            (["campaign", "collie", "--retries", "-1"], "must be >= 0, got -1"),
            (["campaign", "collie", "--task-timeout", "-1"],
             "must be a finite number > 0, got -1"),
            (["search", "H", "--seeds", "2", "--task-timeout", "inf"],
             "must be a finite number > 0, got inf"),
            (["journal", "diff", "a.jsonl", "b.jsonl",
              "--baseline-tolerance", "nan"],
             "must be a finite number >= 0, got nan"),
            (["journal", "diff", "a.jsonl", "b.jsonl",
              "--baseline-tolerance", "-1"],
             "must be a finite number >= 0, got -1"),
            (["canary", "check", "--median-tolerance", "nan"],
             "must be a finite number >= 0, got nan"),
            (["canary", "check", "--median-tolerance", "-0.1"],
             "must be a finite number >= 0, got -0.1"),
            (["canary", "check", "--shape-tolerance", "nan"],
             "must be a finite number >= 0, got nan"),
            (["canary", "check", "--shape-tolerance", "inf"],
             "must be a finite number >= 0, got inf"),
            (["canary", "check", "--spread-factor", "nan"],
             "must be a finite number > 0, got nan"),
            (["canary", "check", "--spread-factor", "0"],
             "must be a finite number > 0, got 0"),
            (["top", "j.jsonl", "--interval", "-1"],
             "must be a finite number > 0, got -1"),
            (["top", "j.jsonl", "--interval", "nan"],
             "must be a finite number > 0, got nan"),
            (["top", "j.jsonl", "--interval", "inf"],
             "must be a finite number > 0, got inf"),
            (["top", "j.jsonl", "--stale-after", "-1"],
             "must be a finite number > 0, got -1"),
            (["top", "j.jsonl", "--stale-after", "nan"],
             "must be a finite number > 0, got nan"),
            (["search", "F", "--hours", "0.2", "--seeds", "2",
              "--backoff", "-5"], "must be a finite number >= 0, got -5"),
            (["parallel", "H", "--backoff", "nan"],
             "must be a finite number >= 0, got nan"),
            (["campaign", "collie", "--backoff", "inf"],
             "must be a finite number >= 0, got inf"),
        ],
    )
    def test_out_of_range_values_rejected_at_parse_time(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        # An accepted value would run the command: keep whatever it
        # writes (``canary record`` writes canary/corpus) out of the tree.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def _record(**fields) -> str:
    return json.dumps({"v": 7, **fields}) + "\n"


_RUN_START = {"t": "run_start", "subsystem": "F", "counter_mode": "diag",
              "use_mfs": True, "budget_hours": 1.0, "seed": 1}
_EXPERIMENT = {
    "t": "experiment", "time_seconds": 20.0, "counter": "tx_bytes_per_sec",
    "counter_value": 1.0, "symptom": "healthy", "tags": [], "kind": "search",
    "workload": workload_to_dict(WorkloadDescriptor()),
    "counters": {"tx_bytes_per_sec": 1.0}, "new_anomaly_index": None,
}
_EXPERIMENT_V8 = {
    **_EXPERIMENT, "v": 8,
    "workload": workload_to_list(WorkloadDescriptor()),
    "counters": [1.0] * len(ALL_COUNTERS),
}

#: Two-line journals whose lines are valid JSON but not valid records.
MALFORMED_JOURNALS = {
    "run_start-without-subsystem": (
        _record(**{k: v for k, v in _RUN_START.items() if k != "subsystem"})
        + _record(**_EXPERIMENT)
    ),
    "experiment-without-counters": _record(**_RUN_START) + _record(**{
        **{k: v for k, v in _EXPERIMENT.items() if k != "counters"},
        "workload": {**_EXPERIMENT["workload"], "qp_type": "XX"},
    }),
    "transition-without-temperature": _record(**_RUN_START) + _record(
        t="transition", time_seconds=20.0, action="accept", delta=0.0,
        mutated=["mtu"],
    ),
    # Schema-valid: only the workload's enum value is unknown.
    "experiment-with-unknown-qp-type": _record(**_RUN_START) + _record(**{
        **_EXPERIMENT,
        "workload": {**_EXPERIMENT["workload"], "qp_type": "XX"},
    }),
    "v8-workload-one-short": _record(**_RUN_START, v=8) + _record(**{
        **_EXPERIMENT_V8, "workload": _EXPERIMENT_V8["workload"][:-1],
    }),
    "v8-counters-one-short": _record(**_RUN_START, v=8) + _record(**{
        **_EXPERIMENT_V8, "counters": _EXPERIMENT_V8["counters"][:-1],
    }),
}


class TestMalformedRecords:
    """A valid-JSON line that is not a valid record ends a journal
    reader with one message naming the line, never a traceback."""

    #: ``(journal, command) -> (exit code, line the message names)``;
    #: ``None``: the command does not read the malformed field, or
    #: (``report``, ``verify``) rejects the journal at schema validation.
    EXPECTED = {
        ("run_start-without-subsystem", "diff"): (2, 1),
        ("run_start-without-subsystem", "coverage"): (2, 1),
        ("run_start-without-subsystem", "top"): (2, 1),
        ("run_start-without-subsystem", "stats"): (1, None),
        ("run_start-without-subsystem", "report"): (2, None),
        ("run_start-without-subsystem", "report-json"): (2, None),
        ("run_start-without-subsystem", "verify"): (2, None),
        ("experiment-without-counters", "diff"): (2, 2),
        ("experiment-without-counters", "coverage"): (2, 2),
        ("experiment-without-counters", "top"): (2, 2),
        ("experiment-without-counters", "stats"): (1, 2),
        ("experiment-without-counters", "report"): (2, None),
        ("experiment-without-counters", "report-json"): (2, None),
        ("experiment-without-counters", "verify"): (2, None),
        ("transition-without-temperature", "diff"): (2, 2),
        ("transition-without-temperature", "coverage"): (0, None),
        ("transition-without-temperature", "top"): (2, 2),
        ("transition-without-temperature", "stats"): (1, None),
        ("transition-without-temperature", "report"): (2, None),
        ("transition-without-temperature", "report-json"): (2, None),
        ("transition-without-temperature", "verify"): (2, None),
        ("experiment-with-unknown-qp-type", "diff"): (2, 2),
        ("experiment-with-unknown-qp-type", "coverage"): (2, 2),
        ("experiment-with-unknown-qp-type", "top"): (2, 2),
        ("experiment-with-unknown-qp-type", "stats"): (1, None),
        ("experiment-with-unknown-qp-type", "report"): (2, 2),
        ("experiment-with-unknown-qp-type", "report-json"): (2, 2),
        ("experiment-with-unknown-qp-type", "verify"): (2, 2),
        ("v8-workload-one-short", "diff"): (2, 2),
        ("v8-workload-one-short", "coverage"): (2, 2),
        ("v8-workload-one-short", "top"): (2, 2),
        ("v8-workload-one-short", "stats"): (1, None),
        ("v8-workload-one-short", "report"): (2, None),
        ("v8-workload-one-short", "report-json"): (2, None),
        ("v8-workload-one-short", "verify"): (2, None),
        ("v8-counters-one-short", "diff"): (0, None),
        ("v8-counters-one-short", "coverage"): (0, None),
        ("v8-counters-one-short", "top"): (0, None),
        ("v8-counters-one-short", "stats"): (1, 2),
        ("v8-counters-one-short", "report"): (2, None),
        ("v8-counters-one-short", "report-json"): (2, None),
        ("v8-counters-one-short", "verify"): (2, None),
    }

    @pytest.mark.parametrize(
        "command",
        ("diff", "coverage", "top", "stats", "report", "report-json",
         "verify"),
    )
    @pytest.mark.parametrize("journal", sorted(MALFORMED_JOURNALS))
    def test_one_message_not_a_traceback(
        self, journal, command, tmp_path, capsys
    ):
        path = tmp_path / f"{journal}.jsonl"
        path.write_text(MALFORMED_JOURNALS[journal])
        argv = {
            "diff": ["journal", "diff", str(path), str(path)],
            "coverage": ["coverage", str(path)],
            "top": ["top", "--once", str(path)],
            "stats": ["stats", str(path)],
            "report": ["report", str(path)],
            "report-json": ["report", "--json", str(path)],
            "verify": ["journal", "verify", str(path)],
        }[command]
        code, line = self.EXPECTED[journal, command]
        assert main(argv) == code
        captured = capsys.readouterr()
        output = captured.out + captured.err
        assert "Traceback" not in output
        if line is not None:
            assert f"{path}: line {line}: malformed" in output
            assert "cannot read cache store" not in output
        elif command.startswith("report"):
            assert f"journal {path} failed schema validation" in output
        elif command == "verify":
            assert f"journal {path}: corrupt (exit 2)" in output
        if command.startswith("report") and code:
            assert captured.out == ""  # nothing rendered before the error

    def test_schema_errors_outrank_a_record_the_folds_cannot_read(
        self, tmp_path, capsys
    ):
        path = tmp_path / "both.jsonl"
        path.write_text(
            MALFORMED_JOURNALS["experiment-with-unknown-qp-type"]
            + MALFORMED_JOURNALS["transition-without-temperature"]
        )
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 4: transition: missing field 'temperature'" in err
        assert "malformed" not in err


class TestReplay:
    def test_replay_reproduces_everything(self, capsys):
        assert main(["replay"]) == 0
        assert "18/18 reproduced" in capsys.readouterr().out


class TestSearch:
    def test_short_search_prints_summary(self, capsys):
        code = main(["search", "H", "--hours", "1", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "subsystem H" in out

    def test_search_saves_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(["search", "H", "--hours", "1", "--output", str(path)])
        data = json.loads(path.read_text())
        assert data["subsystem"] == "H"

    def test_invalid_subsystem_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "Z"])

    def test_search_prints_recipes(self, capsys):
        code = main(["search", "H", "--hours", "1", "--seed", "2",
                     "--recipes"])
        assert code == 0
        out = capsys.readouterr().out
        assert "anomaly 1" in out

    def test_search_with_cache_store(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        code = main(["search", "H", "--hours", "0.3", "--seed", "3",
                     "--cache", str(cache)])
        assert code == 0
        first = capsys.readouterr().out
        assert "cache saved to" in first
        assert cache.exists()
        # Warm rerun reports the warm start and serves hits.
        code = main(["search", "H", "--hours", "0.3", "--seed", "3",
                     "--cache", str(cache)])
        assert code == 0
        second = capsys.readouterr().out
        assert "warm-started" in second
        assert "100.0% hit rate" in second

    def test_search_multi_seed_campaign_with_workers(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        code = main(["search", "H", "--hours", "0.2", "--seed", "1",
                     "--seeds", "3", "--workers", "3",
                     "--cache", str(cache)])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 seeds" in out
        assert "seed 1:" in out and "seed 3:" in out
        assert "3 tasks" in out  # executor stats surfaced

    def test_zero_workers_rejected_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "H", "--hours", "0.2", "--seeds", "2",
                  "--workers", "0"])
        assert exc.value.code == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err

    def test_zero_seeds_rejected_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "H", "--hours", "0.2", "--seeds", "0"])
        assert exc.value.code == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--chains", "2", "--output", "out.json"],
             "--output and --recipes describe a single search"),
            (["--seeds", "2", "--output", "out.json", "--recipes"],
             "--output and --recipes describe a single search"),
            (["--workers", "4", "--journal", "run.jsonl"],
             "act on a --seeds campaign only"),
            (["--chains", "2", "--retries", "1", "--journal", "run.jsonl"],
             "act on a --seeds campaign only"),
            (["--export-metrics", "0"],
             "--export-metrics serves the folds of the run's journal: "
             "add --journal"),
        ],
    )
    def test_flags_the_search_path_would_drop_are_rejected(
        self, flags, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["search", "H", "--hours", "0.2", *flags]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_cache_store_rejected_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(SystemExit) as exc:
            main(["search", "H", "--hours", "0.2", "--cache", str(bad)])
        assert exc.value.code == 2
        assert "cannot load cache store" in capsys.readouterr().err

    def test_wrong_format_cache_store_rejected_cleanly(
        self, tmp_path, capsys
    ):
        stale = tmp_path / "v99.json"
        stale.write_text(json.dumps({"format_version": 99, "entries": {}}))
        with pytest.raises(SystemExit) as exc:
            main(["search", "H", "--hours", "0.2", "--cache", str(stale)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot load cache store" in err
        assert "unsupported cache format 99" in err


class TestPopulationSearch:
    def test_chains_prints_population_summary(self, capsys):
        code = main(["search", "H", "--hours", "0.3", "--seed", "2",
                     "--chains", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Population(3 chains) on subsystem H" in out
        assert "chain 0:" in out and "chain 2:" in out

    def test_seeds_delegation_prints_campaign_format(self, capsys):
        code = main(["search", "H", "--hours", "0.3", "--seed", "1",
                     "--seeds", "3"])
        assert code == 0
        out = capsys.readouterr().out
        # Delegated to the population driver, but the printed summary
        # stays in the per-seed campaign format.
        assert "3 seeds" in out
        assert "seed 1:" in out and "seed 3:" in out

    def test_tempering_prints_ladder(self, capsys):
        code = main(["search", "H", "--hours", "0.3", "--seed", "2",
                     "--chains", "2", "--tempering",
                     "--exchange-every", "5"])
        assert code == 0
        assert "tempering ladder" in capsys.readouterr().out

    def test_seeds_and_chains_mutually_exclusive(self, capsys):
        code = main(["search", "H", "--seeds", "2", "--chains", "2"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_tempering_needs_two_chains(self, capsys):
        code = main(["search", "H", "--tempering"])
        assert code == 2
        assert "--chains >= 2" in capsys.readouterr().err

    def test_report_renders_population_journal_runs_complete(
        self, tmp_path, capsys
    ):
        path = tmp_path / "population.jsonl"
        assert main(["search", "H", "--hours", "0.3", "--seed", "2",
                     "--chains", "2", "--journal", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        # Interleaved chain runs demultiplex into complete runs — the
        # per-chain run_end matching must not flag them as crashed.
        assert "2 run(s)" in out
        assert "run 1:" in out and "run 2:" in out
        assert "[CRASHED — partial]" not in out


class TestProfileFlag:
    """``--profile`` times every layer of whatever runs in this process."""

    @pytest.mark.parametrize("flags", [
        ["--seeds", "2"],
        ["--chains", "3"],
        ["--chains", "2", "--tempering"],
    ], ids=["seeds", "chains", "tempering"])
    def test_profile_of_chains_journals_layer_spans(
        self, flags, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["search", "F", "--hours", "1", "--seed", "1",
                     "--profile", "--journal", "run.jsonl", *flags])
        assert code == 0
        capsys.readouterr()
        assert main(["profile", "run.jsonl"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.startswith("annealing/testbed ") for row in rows)
        assert "account for 100.0%" in rows[-1]

    @pytest.mark.parametrize("argv", [
        ["search", "F", "--seeds", "2"],
        ["parallel", "H", "--machines", "2"],
        ["campaign", "collie", "--subsystem", "H", "--seeds", "2"],
    ], ids=["search", "parallel", "campaign"])
    def test_profile_with_worker_processes_is_rejected_before_running(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--hours", "1", "--workers", "2",
                     "--profile", "--journal", "run.jsonl"])
        assert code == 2
        captured = capsys.readouterr()
        assert "worker processes record no spans: use --workers 1" in (
            captured.err
        )
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestParallel:
    def test_fleet_search(self, capsys):
        code = main(
            ["parallel", "H", "--machines", "2", "--hours", "1",
             "--seed", "1"]
        )
        assert code == 0
        assert "fleet of 2 machines" in capsys.readouterr().out

    def test_fleet_with_workers_and_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        code = main(
            ["parallel", "H", "--machines", "2", "--hours", "0.3",
             "--seed", "1", "--workers", "2", "--cache", str(cache)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet of 2 machines" in out
        assert "2 tasks" in out
        assert cache.exists()


class TestCampaign:
    def test_campaign_runs_and_reports(self, capsys):
        code = main(["campaign", "random", "--subsystem", "H",
                     "--hours", "0.2", "--seeds", "2", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "random on subsystem H" in out
        assert "2 seeds" in out

    def test_run_end_counts_the_fan_out_once(self, tmp_path, capsys):
        journal = tmp_path / "c.jsonl"
        code = main(["campaign", "collie", "--subsystem", "H",
                     "--hours", "0.3", "--seeds", "3",
                     "--cache", str(tmp_path / "c.json"),
                     "--journal", str(journal)])
        assert code == 0
        capsys.readouterr()
        fanouts = [json.loads(line)
                   for line in journal.read_text().splitlines()
                   if '"t":"fanout"' in line]
        assert [record["tasks"] for record in fanouts] == [3]

    def test_unknown_approach_rejected(self, capsys):
        code = main(["campaign", "gradient-descent"])
        assert code == 2
        assert "unknown approach" in capsys.readouterr().err


class TestStats:
    def test_stats_prints_hit_rates_and_phase_walltime(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cache.json"
        main(["search", "H", "--hours", "0.3", "--seed", "3",
              "--cache", str(cache)])
        capsys.readouterr()
        code = main(["stats", str(cache)])
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "phase mfs" in out
        assert "s wall" in out

    def test_stats_missing_store_is_graceful(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.json")])
        assert code == 0
        assert "no cache store" in capsys.readouterr().out

    def test_stats_empty_store_is_graceful(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"format_version": 1, "entries": {}}))
        code = main(["stats", str(empty)])
        assert code == 0
        assert "empty" in capsys.readouterr().out

    def test_stats_corrupt_store_is_a_clear_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["stats", str(bad)])
        assert code == 1
        assert "cannot read cache store" in capsys.readouterr().err

    def test_stats_multi_file_continues_past_a_bad_store(
        self, tmp_path, capsys
    ):
        """One corrupt store must not hide the good one's statistics."""
        good = tmp_path / "good.json"
        main(["search", "H", "--hours", "0.3", "--seed", "3",
              "--cache", str(good)])
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        capsys.readouterr()
        code = main(["stats", str(bad), str(good)])
        assert code == 1  # worst per-file code
        captured = capsys.readouterr()
        assert "cannot read cache store" in captured.err
        assert str(bad) in captured.err
        assert "hit rate" in captured.out  # the good store still printed

    def test_stats_multi_file_all_good_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        main(["search", "H", "--hours", "0.3", "--seed", "3",
              "--cache", str(good)])
        capsys.readouterr()
        code = main(["stats", str(good), str(good)])
        assert code == 0
        assert capsys.readouterr().out.count("hit rate") == 2


class TestReport:
    def test_search_journal_then_report_roundtrip(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        assert main(["search", "H", "--hours", "1", "--seed", "2",
                     "--journal", str(journal)]) == 0
        search_out = capsys.readouterr().out
        assert "journal saved to" in search_out
        assert journal.exists()

        assert main(["report", str(journal)]) == 0
        report_out = capsys.readouterr().out
        assert "run 1:" in report_out
        # The re-rendered summary matches the live run's summary line.
        summary = next(
            line for line in search_out.splitlines() if "subsystem H" in line
        )
        assert summary in report_out

    def test_report_renders_counter_trace(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        main(["search", "H", "--hours", "0.5", "--seed", "2",
              "--journal", str(journal)])
        capsys.readouterr()
        code = main(["report", str(journal),
                     "--counter", "qpc_cache_miss"])
        assert code == 0
        assert "qpc_cache_miss" in capsys.readouterr().out

    def test_report_exports_trajectory_csv(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        main(["search", "H", "--hours", "0.5", "--seed", "2",
              "--journal", str(journal)])
        capsys.readouterr()
        csv_path = tmp_path / "trace.csv"
        code = main(["report", str(journal),
                     "--counter", "qpc_cache_miss",
                     "--trajectory", str(csv_path)])
        assert code == 0
        assert "counter trajectory" in capsys.readouterr().out
        header, *rows = csv_path.read_text().splitlines()
        assert header == "run,time_seconds,value,kind,symptom"
        assert rows

    def test_report_unknown_counter_fails(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        main(["search", "H", "--hours", "0.3", "--seed", "2",
              "--journal", str(journal)])
        capsys.readouterr()
        code = main(["report", str(journal), "--counter", "no_such"])
        assert code == 1
        assert "never observed" in capsys.readouterr().err

    def test_report_missing_journal_is_a_clear_error(
        self, tmp_path, capsys
    ):
        code = main(["report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read journal" in capsys.readouterr().err

    def test_report_invalid_journal_is_a_clear_error(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v":99,"t":"warp"}\n')
        code = main(["report", str(bad)])
        assert code == 2
        assert "schema" in capsys.readouterr().err.lower()

    def test_report_multi_journal_continues_past_a_bad_file(
        self, tmp_path, capsys
    ):
        """One unreadable journal must not hide the others' reports."""
        journal = tmp_path / "ok.jsonl"
        assert main(["search", "H", "--hours", "0.3", "--seed", "2",
                     "--journal", str(journal)]) == 0
        missing = tmp_path / "nope.jsonl"
        capsys.readouterr()
        code = main(["report", str(missing), str(journal)])
        assert code == 2  # worst per-file code
        captured = capsys.readouterr()
        assert "cannot read journal" in captured.err
        assert str(missing) in captured.err
        assert "run 1:" in captured.out  # the good journal still rendered

    def test_report_multi_journal_json_emits_an_array(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "ok.jsonl"
        assert main(["search", "H", "--hours", "0.3", "--seed", "2",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["report", str(journal), str(journal), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 2

    def test_report_trajectory_rejects_multiple_journals(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "ok.jsonl"
        assert main(["search", "H", "--hours", "0.3", "--seed", "2",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        code = main([
            "report", str(journal), str(journal),
            "--counter", "rx_pause_duration",
            "--trajectory", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert "--trajectory" in capsys.readouterr().err

    def test_progress_lines_during_search(self, tmp_path, capsys):
        code = main(["search", "H", "--hours", "1", "--seed", "2",
                     "--progress", "50"])
        assert code == 0
        assert "progress:" in capsys.readouterr().out


class TestDiagnose:
    def test_diagnose_matches_known_anomaly(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["search", "H", "--hours", "2", "--seed", "1",
              "--output", str(report_path)])
        capsys.readouterr()

        # Every extracted anomaly's own witness must diagnose as covered.
        report = json.loads(report_path.read_text())
        assert report["anomalies"], "2h search on H found nothing?"
        workload_path = tmp_path / "workload.json"
        workload_path.write_text(
            json.dumps(report["anomalies"][0]["witness"])
        )
        code = main(["diagnose", str(report_path), str(workload_path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "break one of these conditions" in out

    def test_diagnose_clean_workload(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["search", "H", "--hours", "0.5", "--seed", "1",
              "--output", str(report_path)])
        capsys.readouterr()
        workload_path = tmp_path / "workload.json"
        workload_path.write_text(
            json.dumps(workload_to_dict(WorkloadDescriptor()))
        )
        assert main(["diagnose", str(report_path), str(workload_path)]) == 0
        assert "no known anomaly" in capsys.readouterr().out


class TestJournalVerify:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        """One complete campaign journal produced through the CLI."""
        path = tmp_path_factory.mktemp("verify") / "campaign.jsonl"
        assert main(["campaign", "collie", "--subsystem", "H",
                     "--seeds", "2", "--hours", "0.3",
                     "--journal", str(path)]) == 0
        return path

    def test_complete_journal_exits_zero(self, journal, capsys):
        assert main(["journal", "verify", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "journal is complete" in out
        assert "complete (exit 0)" in out

    def test_interrupted_journal_exits_one(self, journal, tmp_path, capsys):
        lines = journal.read_text().splitlines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            "\n".join(lines[: len(lines) // 2]) + '\n{"v":2,"t":"exp'
        )
        assert main(["journal", "verify", str(torn)]) == 1
        captured = capsys.readouterr()
        assert "incomplete (resumable)" in captured.out
        assert "truncated tail dropped" in captured.err

    def test_corrupt_journal_exits_two(self, journal, tmp_path, capsys):
        lines = journal.read_text().splitlines()
        lines[1] = "{definitely not json"
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines) + "\n")
        assert main(["journal", "verify", str(corrupt)]) == 2
        assert "corrupt (exit 2)" in capsys.readouterr().out

    def test_missing_journal_exits_two(self, tmp_path):
        assert main(["journal", "verify",
                     str(tmp_path / "absent.jsonl")]) == 2


class TestCampaignResume:
    ARGS = ["campaign", "collie", "--subsystem", "H", "--seeds", "2",
            "--hours", "0.3"]

    @pytest.fixture(scope="class")
    def interrupted(self, tmp_path_factory):
        """A full journal plus a copy killed inside the second run."""
        from repro.obs import read_journal

        base = tmp_path_factory.mktemp("resume")
        full = base / "full.jsonl"
        assert main(self.ARGS + ["--journal", str(full)]) == 0
        records = read_journal(full)
        lines = full.read_text().splitlines()
        first_end = next(
            i for i, r in enumerate(records) if r["t"] == "run_end"
        )
        torn = base / "interrupted.jsonl"
        torn.write_text(
            "".join(line + "\n" for line in lines[: first_end + 4])
        )
        return full, torn

    def test_resume_completes_and_matches(
        self, interrupted, tmp_path, capsys
    ):
        from repro.obs import reports_from_journal, verify_journal

        full, torn = interrupted
        resumed = tmp_path / "resumed.jsonl"
        code = main(self.ARGS + ["--resume", str(torn),
                                 "--journal", str(resumed)])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed from" in out
        assert "replayed 1 completed seed(s)" in out
        assert reports_from_journal(resumed) == reports_from_journal(full)
        assert verify_journal(resumed)[0] == 0

    def test_resume_missing_journal_is_an_error(self, tmp_path, capsys):
        code = main(self.ARGS + ["--resume",
                                 str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "cannot read resume journal" in capsys.readouterr().err

    def test_resume_corrupt_journal_is_an_error(
        self, interrupted, tmp_path, capsys
    ):
        full, _ = interrupted
        lines = full.read_text().splitlines()
        lines[0] = "{bad"
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines) + "\n")
        code = main(self.ARGS + ["--resume", str(corrupt)])
        assert code == 2
        assert "resume journal is corrupt" in capsys.readouterr().err

    def test_resume_malformed_record_is_an_error(
        self, interrupted, tmp_path, capsys
    ):
        full, _ = interrupted
        lines = full.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if '"experiment"' in line)
        record = json.loads(lines[index])
        record["workload"][0] = "XX"  # qp_type
        lines[index] = json.dumps(record)
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text("\n".join(lines) + "\n")
        code = main(self.ARGS + ["--resume", str(malformed)])
        err = capsys.readouterr().err
        assert code == 2
        assert "resume journal is corrupt" in err
        assert f"line {index + 1}: malformed 'experiment' record" in err

    def test_resume_into_a_journal_that_cannot_hold_a_run_is_an_error(
        self, interrupted, tmp_path, capsys
    ):
        from repro.obs import read_journal
        from tests.obs.journal_shapes import as_keyed

        _, torn = interrupted
        records = as_keyed(read_journal(torn))
        experiment = next(r for r in records if r["t"] == "experiment")
        del experiment["counters"]["qpc_cache_miss"]  # v7 may hold this
        old = tmp_path / "partial-v7.jsonl"
        old.write_text("".join(json.dumps(r) + "\n" for r in records))
        new = tmp_path / "new.jsonl"
        code = main(self.ARGS + ["--resume", str(old), "--journal", str(new)])
        captured = capsys.readouterr()
        assert code == 2
        assert (
            f"cannot resume into {new}: resumed seed 1's experiment 0 "
            "cannot be journaled: KeyError: 'qpc_cache_miss'"
        ) in captured.err
        assert "anomalies/seed" not in captured.out  # no seed was run
        assert not new.exists()
        # Without a new journal, nothing is re-encoded.
        assert main(self.ARGS + ["--resume", str(old)]) == 0


class TestResilienceFlags:
    def test_campaign_accepts_the_retry_knobs(self, capsys):
        code = main(["campaign", "collie", "--subsystem", "H",
                     "--seeds", "2", "--hours", "0.3", "--retries", "1",
                     "--task-timeout", "60", "--backoff", "0"])
        assert code == 0
        assert "anomalies/seed" in capsys.readouterr().out

    def test_search_accepts_the_retry_knobs(self, capsys):
        code = main(["search", "H", "--hours", "0.5", "--seeds", "2",
                     "--retries", "1"])
        assert code == 0
        assert "subsystem H" in capsys.readouterr().out

    def test_parallel_accepts_the_retry_knobs(self, capsys):
        code = main(["parallel", "H", "--hours", "0.5", "--machines", "2",
                     "--retries", "1"])
        assert code == 0
        assert "machines" in capsys.readouterr().out

    def test_a_failed_fan_out_is_one_message_not_a_traceback(
        self, tmp_path, capsys
    ):
        from tests.core.test_executor import _require_pool

        _require_pool()
        journal = tmp_path / "run.jsonl"
        cache = tmp_path / "cache.json"
        code = main(["campaign", "collie", "--subsystem", "H",
                     "--hours", "0.3", "--seed", "1", "--seeds", "2",
                     "--workers", "2", "--retries", "0",
                     "--task-timeout", "0.000001",
                     "--journal", str(journal), "--cache", str(cache)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "task 0 failed after 1 attempt(s): TaskTimeout: "
        )
        assert "Traceback" not in err
        assert journal.read_text() == ""  # closed, and no seed finished
        assert not cache.exists()  # the store is left as it was


class TestStatsOnJournal:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("statsj") / "campaign.jsonl"
        assert main(["campaign", "collie", "--subsystem", "H",
                     "--seeds", "2", "--hours", "0.3",
                     "--journal", str(path)]) == 0
        return path

    def test_stats_on_complete_journal(self, journal, capsys):
        assert main(["stats", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "is a run journal" in out
        assert "2 complete run(s)" in out

    def test_stats_on_crashed_journal_exits_one(
        self, journal, tmp_path, capsys
    ):
        lines = journal.read_text().splitlines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            "\n".join(lines[: len(lines) - 3]) + "\n"
        )
        assert main(["stats", str(torn)]) == 1
        captured = capsys.readouterr()
        assert "partial (crashed or in flight)" in captured.err
        assert "campaign --resume" in captured.err


class TestReportResilience:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("reportr") / "campaign.jsonl"
        assert main(["campaign", "collie", "--subsystem", "H",
                     "--seeds", "2", "--hours", "0.3",
                     "--journal", str(path)]) == 0
        return path

    def test_truncated_journal_renders_its_prefix(
        self, journal, tmp_path, capsys
    ):
        lines = journal.read_text().splitlines()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            "\n".join(lines[: len(lines) - 2]) + '\n{"v":2,"t":"exp'
        )
        assert main(["report", str(torn)]) == 0
        captured = capsys.readouterr()
        assert "rendering the valid prefix" in captured.err
        assert "campaign --resume" in captured.err
        assert "[CRASHED — partial]" in captured.out

    def test_resilience_summary_line(self, journal, tmp_path, capsys):
        annotated = tmp_path / "resilient.jsonl"
        annotated.write_text(
            journal.read_text()
            + json.dumps({"v": 2, "t": "retry", "task": 0, "host": 0,
                          "attempt": 0, "error": "crash",
                          "backoff_seconds": 0.0}) + "\n"
            + json.dumps({"v": 2, "t": "quarantine", "host": 1,
                          "failures": 2, "redistributed": 1}) + "\n"
        )
        assert main(["report", str(annotated)]) == 0
        out = capsys.readouterr().out
        assert "resilience: 1 retried attempt(s), 1 quarantined host(s)" \
            in out


class TestLatencySurfaces:
    """The tail-latency signal's CLI surfaces: search, stats, report."""

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("latency") / "run.jsonl"
        assert main(["search", "F", "--hours", "0.5", "--seed", "2",
                     "--journal", str(path)]) == 0
        return path

    def test_journal_carries_latency_records(self, journal):
        records = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        experiments = [r for r in records if r["t"] == "experiment"]
        assert experiments and all("latency" in r for r in experiments)
        assert not any(r["t"] == "latency" for r in records)

    def test_no_latency_flag_suppresses_the_stream(
        self, tmp_path, capsys
    ):
        path = tmp_path / "off.jsonl"
        assert main(["search", "F", "--hours", "0.5", "--seed", "2",
                     "--journal", str(path), "--no-latency"]) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert not any(r["t"] == "latency" for r in records)
        assert not any("latency" in r for r in records)

    def test_report_prints_per_run_latency_line(self, journal, capsys):
        assert main(["report", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "latency p50/p90/p99" in out
        assert "worst inflation" in out

    def test_report_json_metrics_carry_the_latency_family(
        self, journal, capsys
    ):
        assert main(["report", str(journal), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        assert metrics["latency_records"] > 0
        assert metrics["latency_p99_us_median"] is not None
        assert metrics["latency_inflation_max"] is not None

    def test_stats_prints_latency_next_to_throughput(
        self, journal, capsys
    ):
        assert main(["stats", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "mean tx" in out
        assert "latency p50/p90/p99" in out

    def test_stats_falls_back_without_latency_records(
        self, tmp_path, capsys
    ):
        path = tmp_path / "off.jsonl"
        assert main(["search", "F", "--hours", "0.5", "--seed", "2",
                     "--journal", str(path), "--no-latency"]) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "latency: - (no latency records)" in out

    def test_coverage_appends_the_latency_panel(self, journal, capsys):
        assert main(["coverage", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "per-WR p99 latency" in out

    def test_journal_diff_warns_about_unknown_kinds(
        self, journal, tmp_path, capsys
    ):
        future = tmp_path / "future.jsonl"
        future.write_text(
            journal.read_text()
            + '{"v": 4, "t": "hologram", "x": 1}\n'
        )
        assert main(["journal", "diff", str(journal), str(future)]) == 0
        err = capsys.readouterr().err
        assert "unknown record kind skipped: hologram (n=1)" in err


class TestTelemetryFlags:
    def test_export_metrics_serves_and_journals_heartbeats(
        self, tmp_path, capsys
    ):
        path = tmp_path / "campaign.jsonl"
        code = main(["campaign", "collie", "--subsystem", "F",
                     "--hours", "0.3", "--seeds", "2", "--seed", "1",
                     "--workers", "2", "--journal", str(path),
                     "--export-metrics", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry: serving http://127.0.0.1:" in out
        assert "/metrics" in out and "/status" in out
        from repro.obs import journal_summary, read_journal

        assert journal_summary(read_journal(path))["heartbeats"] == 2

    def test_journal_flag_alone_writes_no_heartbeats(self, tmp_path, capsys):
        path = tmp_path / "bare.jsonl"
        assert main(["campaign", "collie", "--subsystem", "F",
                     "--hours", "0.3", "--seeds", "2", "--seed", "1",
                     "--workers", "2", "--journal", str(path)]) == 0
        from repro.obs import journal_summary, read_journal

        assert journal_summary(read_journal(path))["heartbeats"] == 0


class TestTop:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("top") / "run.jsonl"
        assert main(["search", "F", "--hours", "0.3", "--seed", "2",
                     "--journal", str(path)]) == 0
        return path

    def test_top_once_renders_a_frame(self, journal, capsys):
        capsys.readouterr()  # drop any fixture-time search output
        assert main(["top", str(journal), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top — live campaign telemetry" in out
        assert "experiments" in out
        assert "\x1b" not in out  # --once frames carry no escapes

    def test_top_once_exit_code_tells_a_broken_journal(
        self, journal, tmp_path, capsys
    ):
        assert main(["top", "--once", str(tmp_path / "later.jsonl")]) == 0
        corrupt = tmp_path / "corrupt.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        corrupt.write_text(lines[0] + "{not json\n" + "".join(lines[1:]))
        assert main(["top", "--once", str(journal), str(corrupt)]) == 2
        assert f"! {corrupt}: corrupt journal line" in capsys.readouterr().out

    def test_top_once_with_baseline_shows_drift(self, journal, capsys):
        assert main(["top", str(journal), "--once",
                     "--baseline", str(journal)]) == 0
        out = capsys.readouterr().out
        assert f"drift vs {journal}" in out
        assert out.count("+0.0% =") == 3  # self-drift is zero

    def test_top_unreadable_baseline_is_a_clear_error(
        self, journal, tmp_path, capsys
    ):
        missing = tmp_path / "gone.jsonl"
        assert main(["top", str(journal), "--once",
                     "--baseline", str(missing)]) == 2
        assert "cannot read baseline journal" in capsys.readouterr().err
