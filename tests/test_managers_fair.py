"""Unit tests for the Fair static manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.managers.base import ManagerConfig
from repro.managers.fair import FairManager
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster
from tests.conftest import SIM


def build(n=4, cap=80.0, seed=0):
    engine = Engine(sim=SIM)
    budget = n * 2 * cap
    cluster = Cluster(
        engine,
        ClusterConfig(n_nodes=n, system_power_budget_w=budget),
        RngRegistry(seed=seed),
    )
    manager = FairManager()
    assignment = assign_pair_to_cluster(
        ("EP", "DC"), range(n), rng=np.random.default_rng(seed), scale=0.1
    )
    cluster.install_assignment(assignment, manager.config.overhead_factor)
    manager.install(cluster, client_ids=list(range(n)), budget_w=budget)
    return engine, cluster, manager


class TestFair:
    def test_zero_overhead_forced(self):
        manager = FairManager(config=ManagerConfig(overhead_factor=0.05))
        assert manager.config.overhead_factor == 0.0

    def test_caps_never_move(self):
        engine, cluster, manager = build()
        manager.start()
        caps_before = cluster.cap_snapshot()
        cluster.run_to_completion()
        assert cluster.cap_snapshot() == caps_before

    def test_no_network_traffic(self):
        engine, cluster, manager = build()
        manager.start()
        cluster.run_to_completion()
        assert cluster.network.stats.sent == 0

    def test_no_transactions_recorded(self):
        engine, cluster, manager = build()
        manager.start()
        cluster.run_to_completion()
        assert manager.recorder.transactions == []

    def test_audit_is_exactly_tight(self):
        _, _, manager = build()
        audit = manager.audit()
        assert audit.slack_w == pytest.approx(0.0)
        assert audit.pooled_w == 0.0
        assert audit.in_flight_w == 0.0

    def test_stop_is_harmless(self):
        engine, cluster, manager = build()
        manager.start()
        manager.stop()
        cluster.run_to_completion()

    def test_survives_node_failure_trivially(self):
        # §2.2: "static methods have no overhead, and so trivially
        # overcome the challenges of fault-tolerance".
        engine, cluster, manager = build()
        manager.start()
        engine.run(until=1.0)
        cluster.kill_node(0)
        runtime = cluster.run_to_completion()
        assert runtime > 0
        manager.audit().check()
