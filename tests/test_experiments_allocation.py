"""Tests for the allocation-quality experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.allocation import (
    AllocationSpec,
    AllocationTrace,
    compare_allocation_quality,
    format_allocation,
    oracle_allocation,
    run_allocation_point,
)
from tests.conftest import SIM

FAST = dict(
    n_clients=6, workload_scale=0.3, observe_s=12.0, seed=3, sim=SIM
)


class TestOracle:
    def test_oracle_respects_budget_and_limits(self):
        from repro.experiments.harness import RunSpec, build_run

        spec = RunSpec("fair", ("EP", "DC"), 65.0, n_clients=6,
                       workload_scale=0.3, seed=3, sim=SIM)
        _, cluster, manager = build_run(spec)
        oracle = oracle_allocation(cluster, manager.client_ids, spec.budget_w)
        limits = cluster.config.spec
        assert sum(oracle.values()) <= spec.budget_w + 1e-6
        assert all(
            limits.min_cap_w - 1e-9 <= cap <= limits.max_cap_w + 1e-9
            for cap in oracle.values()
        )

    def test_oracle_favors_the_hungry_app(self):
        from repro.experiments.harness import RunSpec, build_run

        spec = RunSpec("fair", ("EP", "DC"), 65.0, n_clients=6,
                       workload_scale=0.3, seed=3, sim=SIM)
        _, cluster, manager = build_run(spec)
        oracle = oracle_allocation(cluster, manager.client_ids, spec.budget_w)
        # Nodes 0-2 run EP (hungry), 3-5 run DC.
        assert oracle[0] > oracle[5]


class TestTrace:
    @pytest.fixture(scope="class")
    def penelope_trace(self):
        return run_allocation_point(AllocationSpec("penelope", **FAST))

    def test_shape(self, penelope_trace):
        assert penelope_trace.times.size == penelope_trace.mean_abs_deviation_w.size
        assert penelope_trace.times.size == 12

    def test_deviation_decreases_from_even_split(self, penelope_trace):
        assert (
            penelope_trace.steady_state_deviation_w()
            < penelope_trace.even_split_deviation_w
        )

    def test_recovered_fraction_in_unit_range(self, penelope_trace):
        assert -0.1 <= penelope_trace.recovered_fraction() <= 1.0

    def test_tail_fraction_validated(self, penelope_trace):
        with pytest.raises(ValueError):
            penelope_trace.steady_state_deviation_w(tail_fraction=0.0)

    def test_fair_never_moves(self):
        trace = run_allocation_point(AllocationSpec("fair", **FAST))
        assert np.allclose(
            trace.mean_abs_deviation_w, trace.even_split_deviation_w
        )
        assert abs(trace.recovered_fraction()) < 1e-9


class TestComparison:
    def test_compare_and_format(self):
        traces = compare_allocation_quality(
            managers=("fair", "penelope"), **FAST
        )
        text = format_allocation(traces)
        assert "fair" in text and "penelope" in text
        assert "recovered" in text

    def test_zero_gap_degenerate_case(self):
        trace = AllocationTrace(
            manager="x",
            times=np.array([1.0]),
            mean_abs_deviation_w=np.array([0.0]),
            oracle={0: 100.0},
            even_split_deviation_w=0.0,
        )
        assert trace.recovered_fraction() == 1.0
