"""Unit tests for power-oscillation analysis."""

from __future__ import annotations

import pytest

from repro.analysis.oscillation import (
    cluster_oscillation,
    mean_oscillation_index_w,
    node_oscillation,
)
from repro.instrumentation import MetricsRecorder
from tests.conftest import SIM


def recorder_for(node: int, caps):
    recorder = MetricsRecorder()
    for time, cap in enumerate(caps):
        recorder.cap(float(time), node, cap)
    return recorder


class TestNodeOscillation:
    def test_monotone_trajectory_has_zero_index(self):
        recorder = recorder_for(0, [110.0, 120.0, 130.0])
        stats = node_oscillation(recorder, 0, initial_cap_w=100.0)
        assert stats.total_movement_w == pytest.approx(30.0)
        assert stats.net_change_w == pytest.approx(30.0)
        assert stats.oscillation_index_w == 0.0
        assert stats.churn_ratio == pytest.approx(1.0)

    def test_ping_pong_is_pure_oscillation(self):
        recorder = recorder_for(0, [130.0, 100.0, 130.0, 100.0])
        stats = node_oscillation(recorder, 0, initial_cap_w=100.0)
        assert stats.total_movement_w == pytest.approx(120.0)
        assert stats.net_change_w == 0.0
        assert stats.oscillation_index_w == pytest.approx(60.0)
        assert stats.churn_ratio == float("inf")

    def test_mixed_trajectory(self):
        # 100 -> 150 -> 120: moved 80, net +20, wasted (80-20)/2 = 30.
        recorder = recorder_for(0, [150.0, 120.0])
        stats = node_oscillation(recorder, 0, initial_cap_w=100.0)
        assert stats.oscillation_index_w == pytest.approx(30.0)

    def test_implicit_initial_from_first_sample(self):
        recorder = recorder_for(0, [100.0, 130.0])
        stats = node_oscillation(recorder, 0)
        assert stats.initial_cap_w == 100.0
        assert stats.total_movement_w == pytest.approx(30.0)

    def test_no_samples_without_initial_rejected(self):
        with pytest.raises(ValueError, match="record_caps"):
            node_oscillation(MetricsRecorder(), 0)

    def test_no_samples_with_initial_is_static(self):
        stats = node_oscillation(MetricsRecorder(), 0, initial_cap_w=100.0)
        assert stats.total_movement_w == 0.0
        assert stats.churn_ratio == 1.0


class TestClusterAggregates:
    def test_cluster_oscillation(self):
        recorder = MetricsRecorder()
        recorder.cap(1.0, 0, 120.0)
        recorder.cap(1.0, 1, 80.0)
        stats = cluster_oscillation(recorder, [0, 1], {0: 100.0, 1: 100.0})
        assert stats[0].total_movement_w == pytest.approx(20.0)
        assert stats[1].total_movement_w == pytest.approx(20.0)

    def test_mean_index(self):
        recorder = MetricsRecorder()
        recorder.cap(1.0, 0, 130.0)
        recorder.cap(2.0, 0, 100.0)  # 30 wasted
        recorder.cap(1.0, 1, 110.0)  # monotone
        mean = mean_oscillation_index_w(recorder, [0, 1], {0: 100.0, 1: 100.0})
        assert mean == pytest.approx(15.0)

    def test_mean_of_nothing_rejected(self):
        with pytest.raises(ValueError):
            mean_oscillation_index_w(MetricsRecorder(), [])


class TestRateLimitDampsOscillation:
    def test_unlimited_transactions_oscillate_more(self):
        """End-to-end §3.2 check: removing getMaxSize increases churn."""
        from repro.core.config import PenelopeConfig
        from repro.experiments.harness import RunSpec, run_single

        def churn(enable_rate_limit):
            result = run_single(
                RunSpec(
                    "penelope",
                    ("FT", "DC"),
                    65.0,
                    n_clients=6,
                    workload_scale=0.25,
                    seed=8,
                    manager_config=PenelopeConfig(
                        enable_rate_limit=enable_rate_limit
                    ),
                    record_caps=True,
                    sim=SIM,
                )
            )
            initial = result.spec.budget_w / result.spec.n_clients
            return mean_oscillation_index_w(
                result.recorder, range(6), {n: initial for n in range(6)}
            )

        assert churn(enable_rate_limit=False) > churn(enable_rate_limit=True)
