"""Integration tests: graceful degradation on a lossy network fabric.

A third faulty-environment axis (besides node crashes and partitions):
every message has an independent loss probability.  Both protocols are
request/response with timeouts, so loss costs throughput, never
correctness -- the budget constraints must hold at any loss rate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.experiments.harness import extra_nodes, make_manager
from repro.net.messages import PORT_DECIDER, PORT_POOL, Addr, PowerRequest
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.sim.engine import Engine
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster
from tests.conftest import SIM


class TestLossModel:
    def test_invalid_probability_rejected(self, engine, rngs):
        with pytest.raises(ValueError):
            Network(
                engine, Topology(2), rngs.stream("n"), loss_probability=1.0
            )
        with pytest.raises(ValueError):
            Network(
                engine, Topology(2), rngs.stream("n"), loss_probability=-0.1
            )

    def test_loss_rate_roughly_matches_probability(self, engine, rngs):
        network = Network(
            engine,
            Topology(2, latency=LatencyModel(sigma=0.0)),
            rngs.stream("n"),
            loss_probability=0.3,
        )
        network.attach(Addr(1, PORT_POOL), Store(engine))
        for _ in range(1000):
            network.send(
                PowerRequest(src=Addr(0, PORT_DECIDER), dst=Addr(1, PORT_POOL))
            )
        engine.run()
        assert network.stats.dropped_loss == pytest.approx(300, abs=60)
        assert network.stats.delivered + network.stats.dropped == 1000

    def test_zero_loss_is_default(self, engine, rngs):
        network = Network(engine, Topology(2), rngs.stream("n"))
        assert network.loss_probability == 0.0


def run_lossy(manager_name: str, loss: float, seed: int = 12):
    engine = Engine(sim=SIM)
    n = 6
    budget = n * 2 * 65.0
    extra = extra_nodes(manager_name)
    cluster = Cluster(
        engine,
        ClusterConfig(
            n_nodes=n + extra,
            system_power_budget_w=budget * (n + extra) / n,
            message_loss_probability=loss,
        ),
        RngRegistry(seed=seed),
    )
    manager = make_manager(manager_name)
    assignment = assign_pair_to_cluster(
        ("EP", "DC"), range(n), rng=np.random.default_rng(seed), scale=0.2
    )
    cluster.install_assignment(assignment, manager.config.overhead_factor)
    manager.install(cluster, client_ids=list(range(n)), budget_w=budget)
    manager.start()
    runtime = cluster.run_to_completion()
    audit = manager.audit()
    audit.check()
    return runtime, manager, cluster


class TestProtocolsUnderLoss:
    @pytest.mark.parametrize("manager", ["penelope", "slurm"])
    @pytest.mark.parametrize("loss", [0.05, 0.3])
    def test_budget_holds_at_any_loss_rate(self, manager, loss):
        runtime, mgr, cluster = run_lossy(manager, loss)
        assert runtime > 0
        assert cluster.network.stats.dropped_loss > 0

    @pytest.mark.parametrize("manager", ["penelope", "slurm"])
    def test_loss_costs_performance_not_correctness(self, manager):
        clean_runtime, _, _ = run_lossy(manager, 0.0)
        lossy_runtime, _, _ = run_lossy(manager, 0.4)
        # Heavy loss slows shifting (missed grants, lost excess) but the
        # run still completes, within a bounded penalty.
        assert lossy_runtime >= clean_runtime * 0.99
        assert lossy_runtime < clean_runtime * 1.5

    def test_power_still_shifts_at_moderate_loss(self):
        _, mgr, _ = run_lossy("penelope", 0.1)
        assert mgr.recorder.total_granted_w() > 0
