"""Unit tests for the single-run harness."""

from __future__ import annotations

import pytest

from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.experiments.harness import (
    MANAGER_FACTORIES,
    RunSpec,
    build_run,
    expected_config_type,
    make_manager,
    needs_server_node,
    run_single,
)
from repro.managers.base import ManagerConfig
from repro.managers.slurm import SlurmConfig
from repro.managers.slurm_ha import HaSlurmConfig
from tests.conftest import SIM

FAST = dict(n_clients=4, workload_scale=0.1, seed=0, sim=SIM)


class TestRegistry:
    def test_all_managers_registered(self):
        assert set(MANAGER_FACTORIES) == {
            "fair", "penelope", "slurm", "podd", "slurm-ha"
        }

    def test_server_requirements(self):
        assert not needs_server_node("fair")
        assert not needs_server_node("penelope")
        assert needs_server_node("slurm")
        assert needs_server_node("podd")
        assert needs_server_node("slurm-ha")

    def test_extra_node_counts(self):
        from repro.experiments.harness import extra_nodes

        assert extra_nodes("fair") == 0
        assert extra_nodes("slurm") == 1
        assert extra_nodes("slurm-ha") == 2  # two withheld nodes

    def test_make_manager_unknown(self):
        with pytest.raises(KeyError):
            make_manager("mystery")

    def test_make_manager_config_type_checked(self):
        with pytest.raises(TypeError):
            make_manager("penelope", config=SlurmConfig())
        with pytest.raises(TypeError):
            make_manager("slurm", config=PenelopeConfig())

    def test_make_manager_with_matching_config(self):
        manager = make_manager("penelope", config=PenelopeConfig(rate=0.2))
        assert manager.config.rate == 0.2

    def test_expected_config_type_table(self):
        assert expected_config_type("fair") is ManagerConfig
        assert expected_config_type("penelope") is PenelopeConfig
        assert expected_config_type("slurm") is SlurmConfig
        assert expected_config_type("podd") is SlurmConfig
        assert expected_config_type("slurm-ha") is HaSlurmConfig


class TestFairConfigPlumbing:
    """Fair goes through the same table-driven config path as everyone."""

    def test_fair_honours_supplied_config(self):
        manager = make_manager("fair", config=ManagerConfig(epsilon_w=9.0))
        assert manager.config.epsilon_w == 9.0

    def test_fair_still_forces_zero_overhead(self):
        manager = make_manager("fair", config=ManagerConfig(overhead_factor=0.05))
        assert manager.config.overhead_factor == 0.0

    def test_fair_rejects_non_config(self):
        with pytest.raises(TypeError):
            make_manager("fair", config=object())

    def test_build_run_passes_fair_config_through(self):
        spec = RunSpec(
            "fair", ("EP", "DC"), 80.0, n_clients=4,
            manager_config=ManagerConfig(epsilon_w=9.0), sim=SIM,
        )
        _, _, manager = build_run(spec)
        assert manager.config.epsilon_w == 9.0

    def test_runspec_rejects_mismatched_config(self):
        with pytest.raises(TypeError):
            RunSpec("penelope", ("EP", "DC"), 70.0, manager_config=SlurmConfig())
        with pytest.raises(TypeError):
            RunSpec("fair", ("EP", "DC"), 70.0, manager_config="not a config")


class TestRunSpec:
    def test_budget(self):
        spec = RunSpec("fair", ("EP", "DC"), cap_w_per_socket=80.0, n_clients=10)
        assert spec.budget_w == 1600.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec("nope", ("EP", "DC"), 80.0)
        with pytest.raises(ValueError):
            RunSpec("fair", ("EP", "DC"), 80.0, n_clients=1)
        with pytest.raises(ValueError):
            RunSpec("fair", ("EP", "DC"), 0.0)


class TestBuildRun:
    def test_fair_uses_exactly_n_clients(self):
        _, cluster, _ = build_run(RunSpec("fair", ("EP", "DC"), 80.0, **FAST))
        assert cluster.config.n_nodes == 4

    def test_slurm_gets_extra_server_node(self):
        _, cluster, manager = build_run(RunSpec("slurm", ("EP", "DC"), 80.0, **FAST))
        assert cluster.config.n_nodes == 5
        assert manager.server_node_id == 4

    def test_workloads_attached_to_clients_only(self):
        _, cluster, _ = build_run(RunSpec("slurm", ("EP", "DC"), 80.0, **FAST))
        assert cluster.node(4).executor is None
        assert all(cluster.node(i).executor is not None for i in range(4))


class TestRunSingle:
    def test_fair_run(self):
        result = run_single(RunSpec("fair", ("EP", "DC"), 80.0, **FAST))
        assert result.runtime_s > 0
        assert result.performance == pytest.approx(1.0 / result.runtime_s)
        assert result.audit.budget_ok
        assert len(result.finish_times) == 4
        assert result.unfinished == ()

    @pytest.mark.parametrize("manager", ["penelope", "slurm", "podd"])
    def test_dynamic_managers_run_and_audit(self, manager):
        result = run_single(RunSpec(manager, ("EP", "DC"), 70.0, **FAST))
        assert result.runtime_s > 0
        result.audit.check()

    def test_same_seed_same_runtime(self):
        a = run_single(RunSpec("penelope", ("EP", "DC"), 70.0, **FAST))
        b = run_single(RunSpec("penelope", ("EP", "DC"), 70.0, **FAST))
        assert a.runtime_s == b.runtime_s

    def test_different_seeds_differ(self):
        a = run_single(RunSpec("penelope", ("EP", "DC"), 70.0, **FAST))
        b = run_single(
            RunSpec("penelope", ("EP", "DC"), 70.0, n_clients=4,
                    workload_scale=0.1, seed=99, sim=SIM)
        )
        assert a.runtime_s != b.runtime_s

    def test_fault_plan_applied(self):
        plan = FaultPlan().kill(0, 1.0)
        result = run_single(
            RunSpec("penelope", ("EP", "DC"), 70.0, fault_plan=plan, **FAST)
        )
        assert result.unfinished == (0,)
        assert 0 not in result.finish_times

    def test_network_stats_exposed(self):
        result = run_single(RunSpec("slurm", ("EP", "DC"), 70.0, **FAST))
        assert result.network.sent > 0
        assert result.network.delivered > 0
