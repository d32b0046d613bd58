"""Tests for the hardware-efficiency (benefit 3) experiment."""

from __future__ import annotations

import pytest

from repro.experiments.hardware_efficiency import (
    ThroughputResult,
    compare_hardware_efficiency,
    format_hardware_efficiency,
    run_hardware_efficiency,
)
from tests.conftest import SIM

FAST = dict(total_nodes=9, budget_w=9 * 2 * 50.0, workload_scale=0.15, seed=2, sim=SIM)


class TestThroughputResult:
    def test_throughput_arithmetic(self):
        result = ThroughputResult(
            manager="x", total_nodes=10, compute_nodes=8,
            makespan_s=100.0, work_per_client_s=50.0,
        )
        assert result.throughput == pytest.approx(4.0)


class TestRun:
    def test_penelope_computes_on_all_nodes(self):
        result = run_hardware_efficiency("penelope", app="CG", **FAST)
        assert result.compute_nodes == 9

    def test_slurm_withholds_one(self):
        result = run_hardware_efficiency("slurm", app="CG", **FAST)
        assert result.compute_nodes == 8

    def test_ha_withholds_two(self):
        result = run_hardware_efficiency("slurm-ha", app="CG", **FAST)
        assert result.compute_nodes == 7

    def test_too_little_hardware_rejected(self):
        with pytest.raises(ValueError):
            run_hardware_efficiency(
                "slurm-ha", total_nodes=3, budget_w=160.0, app="CG"
            )


class TestTradeOff:
    def test_memory_bound_favors_more_nodes(self):
        results = compare_hardware_efficiency(
            managers=("penelope", "slurm"), app="CG", **FAST
        )
        assert results["penelope"].throughput > results["slurm"].throughput

    def test_compute_bound_favors_fewer_nodes(self):
        results = compare_hardware_efficiency(
            managers=("penelope", "slurm"), app="EP", **FAST
        )
        assert results["penelope"].throughput < results["slurm"].throughput

    def test_format(self):
        results = compare_hardware_efficiency(
            managers=("penelope", "slurm"), app="CG", **FAST
        )
        text = format_hardware_efficiency(results)
        assert "Benefit 3" in text
        assert "penelope" in text and "slurm" in text
