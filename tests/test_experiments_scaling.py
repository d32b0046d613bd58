"""Integration tests for the §4.5 scaling study (reduced sizes)."""

from __future__ import annotations

import pytest

from repro.cluster.node import TraceNode
from repro.experiments.scaling import (
    ScalingSpec,
    run_scaling_point,
    sweep_frequency,
    sweep_scale,
)
from tests.conftest import SIM

SMALL = dict(n_clients=32, observe_for_s=20.0, seed=2, sim=SIM)


@pytest.fixture(scope="module")
def penelope_point():
    return run_scaling_point(ScalingSpec(manager="penelope", **SMALL))


@pytest.fixture(scope="module")
def slurm_point():
    return run_scaling_point(ScalingSpec(manager="slurm", **SMALL))


class TestSpec:
    def test_donor_hungry_split(self):
        spec = ScalingSpec(manager="penelope", n_clients=8)
        assert list(spec.donor_ids) == [0, 1, 2, 3]
        assert list(spec.hungry_ids) == [4, 5, 6, 7]

    def test_period(self):
        assert ScalingSpec(manager="penelope", frequency_hz=4.0).period_s == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingSpec(manager="fair")
        with pytest.raises(ValueError):
            ScalingSpec(manager="penelope", n_clients=7)  # odd
        with pytest.raises(ValueError):
            ScalingSpec(manager="penelope", frequency_hz=0.0)

    def test_manager_config_period_follows_frequency(self):
        spec = ScalingSpec(manager="slurm", frequency_hz=10.0)
        assert spec.build_manager_config().period_s == pytest.approx(0.1)

    def test_slurm_uses_scale_aware_rate(self):
        config = ScalingSpec(manager="slurm").build_manager_config()
        assert config.rate_scheme == "scale-aware"


class TestScalingPoint:
    def test_available_power_matches_donor_headroom(self, penelope_point):
        spec = penelope_point.spec
        # Each donor holds cap(140) - safe_min(60) = 80 W at the release.
        expected = len(list(spec.donor_ids)) * 80.0
        assert penelope_point.available_w == pytest.approx(expected, rel=0.05)

    def test_redistribution_progresses(self, penelope_point):
        assert penelope_point.redistribution_median_s < penelope_point.spec.observe_for_s

    def test_slurm_redistributes_faster_at_1hz(self, penelope_point, slurm_point):
        # §3.3: "centralized approaches will converge faster ... at low
        # scale or when the central server is not a bottleneck".
        assert (
            slurm_point.redistribution_median_s
            < penelope_point.redistribution_median_s
        )

    def test_turnaround_sampled(self, penelope_point, slurm_point):
        assert penelope_point.turnaround is not None
        assert slurm_point.turnaround is not None
        assert penelope_point.turnaround_mean_s > 0

    def test_no_drops_at_low_frequency(self, slurm_point):
        assert slurm_point.messages_dropped_overflow == 0

    def test_budget_conserved(self, penelope_point):
        # The audit ran inside run_scaling_point; re-check the recorder's
        # arithmetic: grants cannot exceed releases.
        granted = penelope_point.recorder.total_granted_w()
        released = penelope_point.recorder.total_released_w()
        assert granted <= released + 1e-6


class TestFrequencyEffect:
    def test_penelope_redistribution_improves_with_frequency(self):
        slow = run_scaling_point(
            ScalingSpec(manager="penelope", frequency_hz=1.0, **SMALL)
        )
        fast = run_scaling_point(
            ScalingSpec(manager="penelope", frequency_hz=8.0,
                        n_clients=32, observe_for_s=10.0, seed=2, sim=SIM)
        )
        assert fast.redistribution_median_s < slow.redistribution_median_s

    def test_penelope_turnaround_flat_in_frequency(self):
        slow = run_scaling_point(
            ScalingSpec(manager="penelope", frequency_hz=1.0, **SMALL)
        )
        fast = run_scaling_point(
            ScalingSpec(manager="penelope", frequency_hz=8.0,
                        n_clients=32, observe_for_s=10.0, seed=2, sim=SIM)
        )
        assert fast.turnaround_mean_s == pytest.approx(
            slow.turnaround_mean_s, rel=0.5
        )


class TestScaleEffect:
    def test_slurm_turnaround_grows_with_scale(self):
        small = run_scaling_point(
            ScalingSpec(manager="slurm", n_clients=16, observe_for_s=10.0, seed=2, sim=SIM)
        )
        large = run_scaling_point(
            ScalingSpec(manager="slurm", n_clients=128, observe_for_s=10.0, seed=2, sim=SIM)
        )
        assert large.turnaround_mean_s > small.turnaround_mean_s

    def test_penelope_turnaround_flat_with_scale(self):
        small = run_scaling_point(
            ScalingSpec(manager="penelope", n_clients=16, observe_for_s=10.0, seed=2, sim=SIM)
        )
        large = run_scaling_point(
            ScalingSpec(manager="penelope", n_clients=128, observe_for_s=10.0, seed=2, sim=SIM)
        )
        assert large.turnaround_mean_s == pytest.approx(
            small.turnaround_mean_s, rel=0.5
        )


class TestSweeps:
    def test_sweep_frequency_shape(self):
        results = sweep_frequency(
            frequencies_hz=(1.0, 4.0), n_clients=16, seed=1,
            observe_for_s=8.0, sim=SIM,
        )
        assert set(results) == {
            ("penelope", 1.0), ("penelope", 4.0),
            ("slurm", 1.0), ("slurm", 4.0),
        }

    def test_sweep_scale_shape(self):
        results = sweep_scale(
            scales=(16, 32), managers=("penelope",), seed=1, observe_for_s=8.0, sim=SIM
        )
        assert set(results) == {("penelope", 16), ("penelope", 32)}


class TestTraceNode:
    def test_kill_runs_callbacks(self, engine):
        from repro.power.domain import SKYLAKE_6126_NODE
        from repro.workloads.traces import constant_trace

        node = TraceNode(engine, 0, SKYLAKE_6126_NODE, constant_trace(100.0), 140.0)
        called = []
        node.on_kill.append(lambda: called.append(True))
        node.kill()
        node.kill()  # idempotent
        assert called == [True]
        assert not node.alive
