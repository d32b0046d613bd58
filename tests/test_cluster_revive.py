"""Crash-restart tests: node revival and the manager's write-off spend.

A killed node's watts (frozen cap + forfeited pool balance) move into
the manager's write-off ledger; ``revive_node`` spends exactly that
entry to bring the node back -- at most at its initial cap, leftover
into the fresh pool -- so a kill/revive cycle never creates or destroys
a single watt.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan, restart_node_at
from repro.core.config import PenelopeConfig
from repro.core.manager import PenelopeManager
from repro.instrumentation import MetricsRecorder
from repro.managers.fair import FairManager
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster
from tests.conftest import SIM

N = 6
BUDGET = N * 2 * 65.0


def build(manager=None, seed=5):
    engine = Engine(sim=SIM)
    rngs = RngRegistry(seed=seed)
    if manager is None:
        manager = PenelopeManager(
            config=PenelopeConfig(),
            recorder=MetricsRecorder(record_caps=False),
        )
    cluster = Cluster(
        engine,
        ClusterConfig(n_nodes=N, system_power_budget_w=BUDGET),
        rngs,
    )
    assignment = assign_pair_to_cluster(
        ("EP", "DC"), range(N), rng=rngs.stream("workload.jitter"), scale=0.2
    )
    cluster.install_assignment(assignment, manager.config.overhead_factor)
    manager.install(cluster, client_ids=list(range(N)), budget_w=BUDGET)
    return engine, cluster, manager


class TestSimNodeRevive:
    def test_revive_requires_dead_node(self):
        engine, cluster, _ = build()
        with pytest.raises(RuntimeError):
            cluster.node(0).revive()

    def test_revive_rebuilds_executor_fresh(self):
        engine, cluster, manager = build()
        cluster.start_workloads()
        manager.start()
        engine.run(until=3.0)
        node = cluster.node(0)
        workload = node.executor.workload
        cluster.kill_node(0)
        assert not node.alive
        node.revive()
        assert node.alive
        assert node.executor is not None
        assert node.executor.workload is workload  # same assignment
        assert not node.executor.is_running  # fresh, not started

    def test_cluster_revive_rejoins_network(self):
        engine, cluster, manager = build()
        cluster.start_workloads()
        manager.start()
        engine.run(until=3.0)
        cluster.kill_node(0)
        assert 0 in cluster.network._dead
        cluster.revive_node(0)
        assert 0 not in cluster.network._dead
        assert cluster.node(0).executor.is_running


class TestPenelopeWriteOffs:
    def test_kill_books_cap_plus_pool_balance(self):
        engine, cluster, manager = build()
        cluster.start_workloads()
        manager.start()
        engine.run(until=5.0)
        cap = cluster.node(1).rapl.cap_w
        pooled = manager.pools[1].balance_w
        cluster.kill_node(1)
        assert manager.write_offs[1] == pytest.approx(cap + pooled)
        # The forfeited balance no longer double-counts as pooled power.
        assert manager.pools[1].balance_w == 0.0
        manager.ledger().check()

    def test_revive_spends_the_write_off_exactly(self):
        engine, cluster, manager = build()
        cluster.start_workloads()
        manager.start()
        engine.run(until=5.0)
        cluster.kill_node(1)
        write_off = manager.write_offs[1]
        manager.ledger().check()
        engine.run(until=8.0)
        manager.revive_node(1)
        assert 1 not in manager.write_offs
        cap = cluster.node(1).rapl.cap_w
        expected_cap = min(manager.initial_caps[1], write_off)
        assert cap == pytest.approx(expected_cap)
        assert manager.pools[1].balance_w == pytest.approx(write_off - cap)
        manager.ledger().check()
        # The revived node participates again.
        engine.run(until=15.0)
        manager.ledger().check()
        assert manager.deciders[1].iterations > 0

    def test_ledger_holds_through_repeated_kill_revive(self):
        engine, cluster, manager = build()
        cluster.start_workloads()
        manager.start()
        for round_no in range(3):
            engine.run(until=engine.now + 4.0)
            cluster.kill_node(2)
            manager.ledger().check()
            engine.run(until=engine.now + 2.0)
            manager.revive_node(2)
            manager.ledger().check()
        engine.run(until=engine.now + 5.0)
        manager.ledger().check()
        assert manager.recorder.counters["manager.revives"] == 3

    def test_revive_errors(self):
        engine, cluster, manager = build()
        cluster.start_workloads()
        manager.start()
        engine.run(until=2.0)
        with pytest.raises(RuntimeError):
            manager.revive_node(1)  # alive
        with pytest.raises(ValueError):
            manager.revive_node(99)  # not a managed client


class TestBaseManagerRevive:
    def test_fair_manager_revives_at_frozen_cap(self):
        manager = FairManager(recorder=MetricsRecorder(record_caps=False))
        engine, cluster, manager = build(manager=manager)
        cluster.start_workloads()
        manager.start()
        engine.run(until=3.0)
        cap_before = cluster.node(0).rapl.cap_w
        cluster.kill_node(0)
        manager.revive_node(0)
        assert cluster.node(0).alive
        assert cluster.node(0).rapl.cap_w == pytest.approx(cap_before)
        manager.audit().check()

    def test_base_revive_validates_node(self):
        manager = FairManager(recorder=MetricsRecorder(record_caps=False))
        engine, cluster, manager = build(manager=manager)
        with pytest.raises(ValueError):
            manager.revive_node(99)


class TestRestartInjector:
    def test_restart_fault_revives_through_manager(self):
        engine, cluster, manager = build()
        FaultPlan().kill(3, 4.0).restart(3, 8.0).install(cluster, manager)
        cluster.start_workloads()
        manager.start()
        engine.run(until=6.0)
        assert not cluster.node(3).alive
        engine.run(until=12.0)
        assert cluster.node(3).alive
        assert manager.recorder.counters["manager.revives"] == 1
        manager.ledger().check()

    def test_restart_of_alive_node_is_skipped(self):
        engine, cluster, manager = build()
        restart_node_at(cluster, manager, 3, 2.0)  # no kill ever happens
        cluster.start_workloads()
        manager.start()
        engine.run(until=5.0)
        assert cluster.node(3).alive
        assert "manager.revives" not in manager.recorder.counters

    def test_restarts_require_manager_at_install(self):
        engine, cluster, manager = build()
        plan = FaultPlan().restart(1, 5.0)
        with pytest.raises(ValueError):
            plan.install(cluster)
