"""Tests for the physical-consumption analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.consumption import (
    analyze_consumption,
    cluster_consumption_curve,
    enable_power_tracing,
    total_consumption_curve,
)
from tests.conftest import SIM


class TestTotalConsumptionCurve:
    def test_single_trace_passthrough(self):
        times, watts = total_consumption_curve([[(0.0, 100.0), (5.0, 50.0)]])
        assert list(times) == [0.0, 5.0]
        assert list(watts) == [100.0, 50.0]

    def test_two_traces_summed_at_union_of_breakpoints(self):
        times, watts = total_consumption_curve(
            [
                [(0.0, 100.0), (4.0, 20.0)],
                [(0.0, 50.0), (2.0, 80.0)],
            ]
        )
        assert list(times) == [0.0, 2.0, 4.0]
        assert list(watts) == [150.0, 180.0, 100.0]

    def test_trace_starting_late_counts_zero_before(self):
        times, watts = total_consumption_curve(
            [[(0.0, 10.0)], [(3.0, 5.0)]]
        )
        assert list(times) == [0.0, 3.0]
        assert list(watts) == [10.0, 15.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            total_consumption_curve([])


class TestAnalyzeConsumption:
    def test_simple_report(self):
        times = np.array([0.0, 5.0])
        watts = np.array([100.0, 200.0])
        report = analyze_consumption(times, watts, budget_w=150.0, horizon_s=10.0)
        assert report.peak_w == 200.0
        assert report.mean_w == pytest.approx(150.0)
        assert report.longest_over_budget_s == pytest.approx(5.0)
        assert report.over_budget_fraction == pytest.approx(0.5)
        assert report.peak_utilization == pytest.approx(200.0 / 150.0)

    def test_never_over_budget(self):
        report = analyze_consumption(
            np.array([0.0]), np.array([100.0]), budget_w=150.0, horizon_s=10.0
        )
        assert report.longest_over_budget_s == 0.0
        assert report.over_budget_fraction == 0.0

    def test_contiguous_over_budget_stretch(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        watts = np.array([200.0, 210.0, 100.0, 220.0])
        report = analyze_consumption(times, watts, budget_w=150.0, horizon_s=4.0)
        assert report.longest_over_budget_s == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            analyze_consumption(np.array([0.0]), np.array([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            analyze_consumption(np.array([]), np.array([]), 10.0, 1.0)


class TestPhysicalBudgetEndToEnd:
    """The §2.1 physical constraint, measured on real runs."""

    @pytest.mark.parametrize("manager", ["fair", "penelope", "slurm"])
    def test_actual_draw_respects_budget_up_to_enforcement_lag(self, manager):
        from repro.experiments.harness import RunSpec, build_run

        spec = RunSpec(
            manager, ("EP", "DC"), 70.0, n_clients=6, workload_scale=0.15,
            seed=10, sim=SIM,
        )
        engine, cluster, mgr = build_run(spec)
        enable_power_tracing(cluster)
        mgr.start()
        runtime = cluster.run_to_completion()
        times, watts = cluster_consumption_curve(cluster)
        # Client draw only: exclude an idle server node's floor if present.
        client_budget = spec.budget_w + (
            cluster.config.n_nodes - spec.n_clients
        ) * cluster.config.spec.idle_w
        report = analyze_consumption(
            times, watts, budget_w=client_budget, horizon_s=runtime
        )
        # Any excursion above budget is a RAPL-convergence transient:
        # bounded by the 0.5 s enforcement window (plus scheduling slack)
        # and rare over the run.
        assert report.longest_over_budget_s <= 1.0
        assert report.over_budget_fraction < 0.10
        # And the system actually uses a healthy share of its budget.
        assert report.mean_w > 0.4 * client_budget
