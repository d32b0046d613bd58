"""Regression tests for the in-flight-grant budget leak.

Before escrowed transfers, a ``PowerGrant`` dropped in flight destroyed
budget permanently: the donor pool had already debited its balance and
nothing ever refunded it, so ``granted - applied`` grew monotonically
with every lost grant.  The escrow-off variants here *pin that leak*
(the ablation must keep demonstrating the failure mode the escrow
exists to fix); the escrow-on variants assert the conservation ledger
balances exactly under the same drop patterns.

Three drop modes are covered, each at both the micro (single pool,
deterministic drop) and cluster level: fabric loss, partitions, and a
requester dying with a grant in flight.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.core.manager import PenelopeManager
from repro.core.pool import PowerPool
from repro.instrumentation import MetricsRecorder
from repro.net.messages import PORT_DECIDER, Addr, PowerRequest
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.sim.engine import Engine, run_callable_at
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster
from tests.conftest import SIM

DEADLINE_S = 4.0  # default escrow deadline: 2 * (timeout + period)


# -- micro level: one pool, one guaranteed-dropped grant ----------------------


class MicroRig:
    """Pool on node 1; node 0 is a bare inbox that requests power."""

    def __init__(self, engine, rngs, escrow: bool):
        self.engine = engine
        self.config = PenelopeConfig(enable_escrow=escrow)
        self.network = Network(
            self.engine,
            Topology(2, latency=LatencyModel(sigma=0.0)),
            rngs.stream("net"),
        )
        self.pool = PowerPool(
            self.engine, self.network, 1, self.config, rngs.stream("pool")
        )
        self.pool.start()
        self.pool.deposit(200.0)
        self.inbox = Store(self.engine)
        self.network.attach(Addr(0, PORT_DECIDER), self.inbox)

    def request(self):
        self.network.send(
            PowerRequest(src=Addr(0, PORT_DECIDER), dst=self.pool.addr)
        )


def drop_by_death(rig):
    # Request arrives at 120us, is served within ~15us; the grant rides
    # the wire for another 120us.  Kill the requester mid-flight.
    run_callable_at(rig.engine, 200e-6, lambda: rig.network.mark_dead(0))


def drop_by_partition(rig):
    run_callable_at(
        rig.engine, 200e-6, lambda: rig.network.topology.partition([1])
    )


def drop_by_loss(rig):
    # The loss draw happens at send time; raise the rate before the pool
    # serves the request so the grant itself is (near-certainly) lost.
    run_callable_at(
        rig.engine, 60e-6, lambda: rig.network.set_loss_probability(0.999)
    )


DROPPERS = {
    "dead-requester": drop_by_death,
    "partition": drop_by_partition,
    "loss": drop_by_loss,
}


class TestMicroLeak:
    @pytest.mark.parametrize("mode", sorted(DROPPERS))
    def test_without_escrow_dropped_grant_leaks_forever(self, engine, rngs, mode):
        rig = MicroRig(engine, rngs, escrow=False)
        DROPPERS[mode](rig)
        rig.request()
        engine.run(until=10 * DEADLINE_S)
        assert rig.network.stats.dropped >= 1
        # The leak: watts left the pool, nobody applied them, and no
        # mechanism ever brings them back.
        assert rig.pool.granted_out_w == pytest.approx(20.0)
        assert rig.pool.balance_w == pytest.approx(180.0)

    @pytest.mark.parametrize("mode", sorted(DROPPERS))
    def test_with_escrow_dropped_grant_refunds(self, engine, rngs, mode):
        rig = MicroRig(engine, rngs, escrow=True)
        DROPPERS[mode](rig)
        rig.request()
        engine.run(until=10 * DEADLINE_S)
        assert rig.network.stats.dropped >= 1
        assert rig.pool.granted_out_w == 0.0
        assert rig.pool.escrow_w == 0.0
        assert rig.pool.balance_w == pytest.approx(200.0)
        assert rig.pool.recorder.counters["pool.escrow_refunds"] == 1


# -- cluster level: full Penelope runs under each fault -----------------------


def build_penelope(n=6, seed=7, loss=0.0, escrow=True):
    engine = Engine(sim=SIM)
    rngs = RngRegistry(seed=seed)
    budget = n * 2 * 65.0
    config = PenelopeConfig(enable_escrow=escrow)
    manager = PenelopeManager(
        config=config, recorder=MetricsRecorder(record_caps=False)
    )
    cluster = Cluster(
        engine,
        ClusterConfig(
            n_nodes=n,
            system_power_budget_w=budget,
            message_loss_probability=loss,
        ),
        rngs,
    )
    assignment = assign_pair_to_cluster(
        ("EP", "DC"), range(n), rng=rngs.stream("workload.jitter"), scale=0.2
    )
    cluster.install_assignment(assignment, config.overhead_factor)
    manager.install(cluster, client_ids=list(range(n)), budget_w=budget)
    return engine, cluster, manager


def run_audited(engine, cluster, manager, horizon_s=40.0, step_s=2.0):
    """Run to ``horizon_s``, checking the conservation ledger every step."""
    cluster.start_workloads()
    manager.start()
    t = 0.0
    while t < horizon_s:
        t = min(t + step_s, horizon_s)
        engine.run(until=t)
        manager.ledger().check()
        manager.audit().check()


class TestClusterConservation:
    def test_lossy_fabric_conserves_with_escrow(self):
        engine, cluster, manager = build_penelope(loss=0.25)
        run_audited(engine, cluster, manager)
        assert cluster.network.stats.dropped_loss > 0

    def test_partition_and_heal_conserves_with_escrow(self):
        engine, cluster, manager = build_penelope()
        FaultPlan().partition([0, 1], 5.0, heal_after_s=8.0).install(cluster)
        run_audited(engine, cluster, manager)
        assert cluster.network.stats.dropped_partition > 0

    def test_node_death_conserves_with_escrow(self):
        engine, cluster, manager = build_penelope()
        FaultPlan().kill(2, 6.0).install(cluster, manager)
        run_audited(engine, cluster, manager)
        assert manager.written_off_power_w() > 0

    def test_everything_at_once_conserves_with_escrow(self):
        engine, cluster, manager = build_penelope(loss=0.1)
        plan = FaultPlan().kill(2, 6.0).partition([4], 10.0, heal_after_s=6.0)
        plan.install(cluster, manager)
        run_audited(engine, cluster, manager)

    def test_lossy_fabric_leaks_without_escrow(self):
        # The pinned regression: same storm, escrow ablated.  The
        # in-flight term only ever grows -- destroyed watts accumulate
        # and nothing returns them, however long the run continues.
        engine, cluster, manager = build_penelope(loss=0.25, escrow=False)
        cluster.start_workloads()
        manager.start()
        engine.run(until=40.0)
        leaked = manager.in_flight_power_w()
        assert leaked > 0
        engine.run(until=80.0)
        assert manager.in_flight_power_w() >= leaked
        # The historical audit never caught this: the leak hides inside
        # the <= budget inequality.
        manager.audit().check()
