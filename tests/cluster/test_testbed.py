"""The experiment runner's time accounting (paper: 20-60s/experiment)."""

import numpy as np
import pytest

from repro.cluster.clock import SimulatedClock
from repro.cluster.testbed import MEASUREMENT_SECONDS, Testbed, setup_seconds
from repro.core.space import SearchSpace
from repro.hardware.workload import Colocation, Direction, WorkloadDescriptor


class TestTestbed:
    def test_accepts_letter_or_subsystem(self, subsystem_f):
        assert Testbed("F").subsystem.name == "F"
        assert Testbed(subsystem_f).subsystem.name == "F"

    def test_run_charges_the_clock(self):
        clock = SimulatedClock()
        testbed = Testbed("F", clock=clock)
        result = testbed.run(WorkloadDescriptor())
        assert clock.now == pytest.approx(result.total_seconds)
        assert result.started_at == 0.0
        assert result.finished_at == clock.now

    def test_experiment_cost_in_paper_range(self):
        """§5: each experiment takes 20-60 s, scaling with QPs and MRs."""
        testbed = Testbed("F")
        rng = np.random.default_rng(0)
        space = SearchSpace.for_subsystem(testbed.subsystem)
        for _ in range(50):
            result = testbed.run(space.random(rng), rng=rng)
            assert 15.0 <= result.total_seconds <= 60.0

    def test_more_qps_cost_more_setup(self):
        testbed = Testbed("F")
        small = testbed.run(WorkloadDescriptor(num_qps=1))
        large = testbed.run(WorkloadDescriptor(num_qps=8192))
        assert large.setup_seconds > small.setup_seconds

    def test_experiment_counter(self):
        testbed = Testbed("F")
        testbed.run(WorkloadDescriptor())
        testbed.run(WorkloadDescriptor())
        assert testbed.experiments_run == 2

    def test_run_returns_the_model_measurement(self):
        testbed = Testbed("F")
        result = testbed.run(
            WorkloadDescriptor(), rng=np.random.default_rng(0)
        )
        assert result.measurement.subsystem_name == "F"
        assert result.measurement.directions[0].achieved_msgs_per_sec > 0
        assert result.setup_seconds == setup_seconds(WorkloadDescriptor())
        assert result.measurement_seconds == MEASUREMENT_SECONDS


class TestCostModel:
    def test_setup_grows_with_qps_and_mrs(self):
        base = setup_seconds(WorkloadDescriptor())
        many_qps = setup_seconds(WorkloadDescriptor(num_qps=8192))
        many_mrs = setup_seconds(
            WorkloadDescriptor(num_qps=128, mrs_per_qp=1024)
        )
        assert many_qps > base
        assert many_mrs > base

    def test_bidirectional_doubles_qp_cost(self):
        uni = setup_seconds(WorkloadDescriptor(num_qps=4096))
        bi = setup_seconds(
            WorkloadDescriptor(num_qps=4096,
                               direction=Direction.BIDIRECTIONAL)
        )
        assert bi > uni

    def test_total_cost_stays_in_paper_range(self):
        total = setup_seconds(
            WorkloadDescriptor(num_qps=16384, mrs_per_qp=8)
        ) + MEASUREMENT_SECONDS
        assert total <= 60.0

    def test_loopback_workload_cost(self):
        cost = setup_seconds(
            WorkloadDescriptor(colocation=Colocation.MIXED_LOOPBACK)
        )
        assert cost >= 12.0
