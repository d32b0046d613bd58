"""Tests for the back-to-back multi-job experiment (§4.4 generalization)."""

from __future__ import annotations

import pytest

from repro.cluster.faults import FaultPlan
from repro.experiments.multijob import (
    build_sequences,
    MultiJobSpec,
    format_multijob,
    run_multijob_comparison,
    run_multijob_spec,
)
from repro.sim.rng import RngRegistry
from tests.conftest import SIM

FAST = dict(n_clients=6, workload_scale=0.15, seed=4, sim=SIM)


class TestBuildSequences:
    def test_round_robin_over_sequences(self):
        workloads = build_sequences(4, workload_scale=0.1)
        assert workloads[0].app == "EP+DC"
        assert workloads[1].app == "DC+EP"
        assert workloads[2].app == "EP+DC"

    def test_concatenated_work_is_sum_of_jobs(self):
        workloads = build_sequences(
            2, rngs=RngRegistry(seed=1), workload_scale=0.1
        )
        # EP (150 s) + DC (160 s) at scale 0.1 with jitter.
        assert workloads[0].total_work_s == pytest.approx(31.0, rel=0.1)

    def test_custom_sequences(self):
        workloads = build_sequences(
            2, sequences=[("CG", "MG", "FT")], workload_scale=0.1
        )
        assert workloads[0].app == "CG+MG+FT"
        assert workloads[1].app == "CG+MG+FT"


class TestRunMultijob:
    def test_runs_and_audits(self):
        result = run_multijob_spec(MultiJobSpec("penelope", **FAST))
        assert result.runtime_s > 0
        assert not result.faulted

    def test_fault_plan_marks_result(self):
        result = run_multijob_spec(
            MultiJobSpec("penelope", fault_plan=FaultPlan().kill(0, 5.0), **FAST)
        )
        assert result.faulted

    def test_deterministic(self):
        a = run_multijob_spec(MultiJobSpec("slurm", **FAST))
        b = run_multijob_spec(MultiJobSpec("slurm", **FAST))
        assert a.runtime_s == b.runtime_s


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_multijob_comparison(**FAST)

    def test_slurm_fault_cost_amplified(self, comparison):
        # §4.4: "a failure to SLURM's server could throttle application
        # performance even more" with back-to-back contrasting jobs.  The
        # frozen caps are tuned for the wrong job.
        assert comparison.degradation("slurm") > 0.08

    def test_penelope_barely_hurt(self, comparison):
        assert comparison.degradation("penelope") < 0.05

    def test_penelope_beats_slurm_under_fault(self, comparison):
        assert comparison.normalized("penelope", True) > comparison.normalized(
            "slurm", True
        )

    def test_format(self, comparison):
        text = format_multijob(comparison)
        assert "slurm" in text and "penelope" in text
        assert "fault cost" in text

    def test_normalized_accessor(self, comparison):
        value = comparison.normalized("slurm", False)
        assert value == pytest.approx(
            comparison.fair_runtime_s / comparison.nominal["slurm"]
        )
