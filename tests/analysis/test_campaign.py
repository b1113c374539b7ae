"""Campaign orchestration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.campaign import APPROACHES, compare, run_campaign


def test_import_leaves_scipy_unloaded():
    """``search --chains``/``--seeds`` import this module; only the
    baseline approaches need scipy."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    probe = (
        "import sys, repro.analysis.campaign; print('scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestRunCampaign:
    def test_unknown_approach_rejected(self):
        with pytest.raises(KeyError, match="choose from"):
            run_campaign("quantum-annealing")

    def test_registry_covers_the_figure_variants(self):
        assert {"random", "bayesopt", "bayesopt+mfs", "sa-perf",
                "sa-diag", "collie-perf", "collie"} <= set(APPROACHES)

    def test_campaign_aggregation(self):
        result = run_campaign(
            "random", subsystem="H", seeds=(1, 2), budget_hours=1.0
        )
        assert result.seeds == 2
        assert result.mean_found() >= 1
        assert result.union_tags() >= set(result.per_seed_hits()[0])

    def test_custom_factory(self):
        calls = []

        def factory(subsystem, hours, seed):
            calls.append((subsystem, hours, seed))
            return run_campaign(
                "random", subsystem, (seed,), hours
            ).reports[0]

        run_campaign("custom", "H", seeds=(7,), budget_hours=0.5,
                     factory=factory)
        assert calls == [("H", 0.5, 7)]

    def test_series_feeds_figures(self):
        result = run_campaign(
            "collie", subsystem="H", seeds=(1,), budget_hours=1.0
        )
        series = result.series(max_anomalies=5)
        assert series.approach == "collie"
        assert len(series.mean_hours) == 5


class TestCompare:
    def test_one_series_per_approach(self):
        series = compare(
            ("random", "collie"), subsystem="H", seeds=(1,),
            budget_hours=1.0, max_anomalies=5,
        )
        assert [s.approach for s in series] == ["random", "collie"]
