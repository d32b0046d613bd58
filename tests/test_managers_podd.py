"""Unit tests for the PoDD-style hierarchical manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.managers.podd import PoddManager, proportional_caps
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster
from tests.conftest import SIM


class TestProportionalCaps:
    def test_splits_proportionally_within_limits(self):
        caps = proportional_caps(
            {0: 200.0, 1: 100.0}, budget_w=240.0, min_cap_w=60.0, max_cap_w=250.0
        )
        assert sum(caps.values()) <= 240.0 + 1e-9
        assert caps[0] > caps[1]

    def test_everyone_gets_safe_minimum(self):
        caps = proportional_caps(
            {0: 500.0, 1: 1.0}, budget_w=130.0, min_cap_w=60.0, max_cap_w=250.0
        )
        assert caps[1] >= 60.0

    def test_max_cap_respected_with_water_filling(self):
        caps = proportional_caps(
            {0: 1000.0, 1: 100.0}, budget_w=400.0, min_cap_w=60.0, max_cap_w=250.0
        )
        assert caps[0] <= 250.0
        # The overflow moved to node 1 instead of being lost.
        assert caps[1] > 60.0
        assert sum(caps.values()) <= 400.0 + 1e-9

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            demands = {i: float(rng.uniform(30, 260)) for i in range(n)}
            budget = n * float(rng.uniform(120, 200))
            caps = proportional_caps(demands, budget, 60.0, 250.0)
            assert sum(caps.values()) <= budget + 1e-6
            assert all(60.0 - 1e-9 <= c <= 250.0 + 1e-9 for c in caps.values())

    def test_insufficient_budget_rejected(self):
        with pytest.raises(ValueError):
            proportional_caps({0: 100.0, 1: 100.0}, 100.0, 60.0, 250.0)

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError):
            proportional_caps({}, 100.0, 60.0, 250.0)

    def test_saturated_demand_leaves_budget_unassigned(self):
        caps = proportional_caps({0: 80.0}, budget_w=500.0, min_cap_w=60.0,
                                 max_cap_w=250.0)
        # §2.2.2: a manager need not use the whole system-wide cap.
        assert caps[0] == pytest.approx(80.0)


class TestPoddManager:
    def build(self, n_clients=4, cap=75.0, seed=0):
        engine = Engine(sim=SIM)
        budget = n_clients * 2 * cap
        cluster = Cluster(
            engine,
            ClusterConfig(
                n_nodes=n_clients + 1,
                system_power_budget_w=budget * (n_clients + 1) / n_clients,
            ),
            RngRegistry(seed=seed),
        )
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(n_clients), rng=np.random.default_rng(seed),
            scale=0.2,
        )
        cluster.install_assignment(assignment)
        manager = PoddManager()
        manager.install(cluster, client_ids=list(range(n_clients)), budget_w=budget)
        return engine, cluster, manager

    def test_hungry_apps_get_bigger_initial_caps(self):
        _, cluster, manager = self.build()
        # Nodes 0-1 run EP (hungry), 2-3 run DC (modest).
        assert manager.initial_caps[0] > manager.initial_caps[2]

    def test_initial_caps_respect_budget(self):
        _, _, manager = self.build()
        assert sum(manager.initial_caps.values()) <= manager.budget_w + 1e-6
        manager.audit().check()

    def test_clients_adopt_profiled_caps_as_urgency_threshold(self):
        _, _, manager = self.build()
        for node_id, client in manager.clients.items():
            assert client.initial_cap_w == manager.initial_caps[node_id]
            assert client.cap_w == manager.initial_caps[node_id]

    def test_runs_to_completion_with_audit(self):
        engine, cluster, manager = self.build(seed=2)
        manager.start()
        runtime = cluster.run_to_completion()
        assert runtime > 0
        manager.audit().check()

    def test_beats_even_split_on_skewed_pair(self):
        # PoDD's whole point: the profiled assignment needs less shifting.
        engine, cluster, manager = self.build(cap=70.0, seed=3)
        manager.start()
        podd_runtime = cluster.run_to_completion()

        engine2 = Engine(sim=SIM)
        cluster2 = Cluster(
            engine2,
            ClusterConfig(n_nodes=5, system_power_budget_w=5 * 140.0),
            RngRegistry(seed=3),
        )
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(4), rng=np.random.default_rng(3), scale=0.2
        )
        cluster2.install_assignment(assignment)
        fair_runtime = cluster2.run_to_completion()
        assert podd_runtime < fair_runtime
