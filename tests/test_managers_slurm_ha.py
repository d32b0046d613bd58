"""Tests for the HA (fallback-server) SLURM variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.experiments.harness import RunSpec, run_single
from repro.managers.slurm_ha import HaSlurmConfig, HaSlurmManager
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster
from tests.conftest import SIM

FAST = dict(n_clients=6, workload_scale=0.2, seed=3, sim=SIM)
PAIR = ("EP", "DC")


def build(n_clients=4, cap=70.0, config=None, seed=0):
    engine = Engine(sim=SIM)
    budget = n_clients * 2 * cap
    cluster = Cluster(
        engine,
        ClusterConfig(
            n_nodes=n_clients + 2,
            system_power_budget_w=budget * (n_clients + 2) / n_clients,
        ),
        RngRegistry(seed=seed),
    )
    assignment = assign_pair_to_cluster(
        ("EP", "DC"), range(n_clients), rng=np.random.default_rng(seed), scale=0.2
    )
    cluster.install_assignment(assignment)
    manager = HaSlurmManager(config=config)
    manager.install(cluster, client_ids=list(range(n_clients)), budget_w=budget)
    cluster.start_workloads()
    return engine, cluster, manager


class TestConfig:
    def test_failover_threshold_validated(self):
        with pytest.raises(ValueError):
            HaSlurmConfig(failover_after_timeouts=0)

    def test_defaults(self):
        config = HaSlurmConfig()
        assert config.failover_after_timeouts == 3


class TestWiring:
    def test_two_servers_on_two_spare_nodes(self):
        _, cluster, manager = build(n_clients=4)
        assert len(manager.servers) == 2
        assert manager.primary.node_id == 4
        assert manager.standby.node_id == 5

    def test_needs_two_spare_nodes(self):
        engine = Engine(sim=SIM)
        cluster = Cluster(
            engine,
            ClusterConfig(n_nodes=3, system_power_budget_w=3 * 160.0),
            RngRegistry(seed=0),
        )
        manager = HaSlurmManager()
        with pytest.raises(ValueError, match="two nodes"):
            manager.install(cluster, client_ids=[0, 1], budget_w=320.0)

    def test_explicit_server_nodes(self):
        engine = Engine(sim=SIM)
        cluster = Cluster(
            engine,
            ClusterConfig(n_nodes=4, system_power_budget_w=4 * 160.0),
            RngRegistry(seed=0),
        )
        manager = HaSlurmManager(server_node_ids=[0, 1])
        manager.install(cluster, client_ids=[2, 3], budget_w=320.0)
        assert manager.primary.node_id == 0

    def test_clients_start_on_primary(self):
        _, _, manager = build()
        for client in manager.clients.values():
            assert client.server_addr == manager.primary.addr
            assert client.failovers == 0


class TestFailover:
    def test_clients_fail_over_after_primary_death(self):
        engine, cluster, manager = build(seed=1)
        manager.start()
        engine.run(until=2.0)
        cluster.kill_node(manager.primary.node_id)
        engine.run(until=10.0)
        assert all(c.failovers == 1 for c in manager.clients.values())
        assert all(
            c.server_addr == manager.standby.addr
            for c in manager.clients.values()
        )
        manager.audit().check()

    def test_standby_serves_after_failover(self):
        engine, cluster, manager = build(seed=1)
        manager.start()
        engine.run(until=2.0)
        cluster.kill_node(manager.primary.node_id)
        engine.run(until=12.0)
        assert manager.standby.server.requests_served > 0

    def test_no_failover_without_fault(self):
        engine, cluster, manager = build(seed=1)
        manager.start()
        engine.run(until=8.0)
        assert all(c.failovers == 0 for c in manager.clients.values())

    def test_primary_pool_is_lost_on_death(self):
        engine, cluster, manager = build(seed=1)
        manager.start()
        engine.run(until=3.0)
        stranded = manager.primary.pool_w
        cluster.kill_node(manager.primary.node_id)
        engine.run(until=10.0)
        # The dead primary's cache does not migrate.
        assert manager.primary.pool_w == stranded
        manager.audit().check()


class TestEndToEnd:
    def test_ha_recovers_where_plain_slurm_cannot(self):
        plan = FaultPlan().kill(6, 10.0)  # primary / only server
        ha = run_single(RunSpec("slurm-ha", PAIR, 65.0, fault_plan=plan, **FAST))
        plain = run_single(RunSpec("slurm", PAIR, 65.0, fault_plan=plan, **FAST))
        # The fallback resumes shifting, so HA ends up faster.
        assert ha.runtime_s < plain.runtime_s
        late_grants = [t for t in ha.recorder.grants() if t.time > 15.0]
        assert late_grants
        ha.audit.check()

    def test_failover_gap_still_costs_something(self):
        plan = FaultPlan().kill(6, 10.0)
        hurt = run_single(RunSpec("slurm-ha", PAIR, 65.0, fault_plan=plan, **FAST))
        healthy = run_single(RunSpec("slurm-ha", PAIR, 65.0, **FAST))
        assert hurt.runtime_s > healthy.runtime_s

    def test_deterministic(self):
        spec = RunSpec("slurm-ha", PAIR, 65.0, **FAST)
        assert run_single(spec).runtime_s == run_single(spec).runtime_s

    def test_standby_death_is_harmless_before_failover(self):
        plan = FaultPlan().kill(7, 10.0)  # the standby
        hurt = run_single(RunSpec("slurm-ha", PAIR, 65.0, fault_plan=plan, **FAST))
        healthy = run_single(RunSpec("slurm-ha", PAIR, 65.0, **FAST))
        assert hurt.runtime_s == pytest.approx(healthy.runtime_s, rel=0.02)
