"""Adversarial fault families at the network layer: duplication,
reordering windows, gray-slow nodes -- plus the injector processes that
arm them and the clock-drift plumbing through the manager.

The nominal-path contract matters as much as the fault behavior: every
knob is default-off, and arming one draws only from its own dedicated
RNG stream, so these tests also pin that a disarmed network behaves
exactly as before (see ``tests/test_fixture_byte_identity.py`` for the
byte-level version of that claim).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.net.messages import PORT_DECIDER, PORT_POOL, Addr, PowerRequest
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.sim.engine import Engine
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry


@pytest.fixture
def net(engine, rngs):
    # sigma=0 pins latency to the deterministic medians, so arrival
    # times (and hence orderings) are exactly predictable.
    topology = Topology(4, latency=LatencyModel(sigma=0.0))
    return Network(engine, topology, rngs.stream("net"))


@pytest.fixture
def cluster():
    engine = Engine()
    config = ClusterConfig(n_nodes=4, system_power_budget_w=4 * 160.0)
    return Cluster(engine, config, RngRegistry(seed=0))


def request(src: int, dst: int) -> PowerRequest:
    return PowerRequest(src=Addr(src, PORT_DECIDER), dst=Addr(dst, PORT_POOL))


class TestDuplication:
    def test_duplicate_is_same_msg_id_delivered_twice(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.enable_duplication(0.999999, np.random.default_rng(0))
        msg = request(0, 1)
        net.send(msg)
        engine.run()
        assert len(inbox) == 2
        first, second = inbox.get_nowait(), inbox.get_nowait()
        assert first.msg_id == second.msg_id == msg.msg_id
        assert net.stats.sent == 1
        assert net.stats.delivered == 2
        assert net.stats.duplicated == 1
        assert net.stats.duplicated_by_kind == {"PowerRequest": 1}

    def test_echo_trails_the_original(self, engine, net):
        arrivals = []
        net.attach_handler(
            Addr(1, PORT_POOL), lambda m: arrivals.append(engine.now)
        )
        net.enable_duplication(0.999999, np.random.default_rng(0))
        net.send(request(0, 1))
        engine.run()
        assert len(arrivals) == 2
        assert arrivals[0] < arrivals[1] <= 2 * arrivals[0]

    def test_disable_ends_the_window(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.enable_duplication(0.999999, np.random.default_rng(0))
        net.disable_duplication()
        net.send(request(0, 1))
        engine.run()
        assert len(inbox) == 1
        assert net.stats.duplicated == 0

    def test_probability_validated(self, net):
        with pytest.raises(ValueError):
            net.enable_duplication(1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.enable_duplication(-0.1, np.random.default_rng(0))

    def test_duplication_never_touches_the_latency_stream(self, engine, rngs):
        # Identical sends through a duplicating and a nominal network
        # must deliver the *original* copies at identical times: the
        # duplicate draws come from their own stream.
        def arrival_times(duplicate):
            eng = Engine()
            topology = Topology(4, latency=LatencyModel())  # sigma > 0
            net = Network(eng, topology, RngRegistry(seed=5).stream("net"))
            times = []
            net.attach_handler(
                Addr(1, PORT_POOL), lambda m: times.append(eng.now)
            )
            if duplicate:
                net.enable_duplication(0.5, np.random.default_rng(9))
            for _ in range(20):
                net.send(request(0, 1))
            eng.run()
            return times

        nominal = arrival_times(duplicate=False)
        dup = arrival_times(duplicate=True)
        # Dup run has extra (echo) arrivals; the originals' times are a
        # subsequence -- in fact every nominal time appears.
        assert len(dup) > len(nominal)
        remaining = list(dup)
        for t in nominal:
            assert t in remaining
            remaining.remove(t)


class TestReordering:
    def test_jitter_inverts_close_sends(self, engine, net):
        # Two back-to-back sends with deterministic base latency: a
        # reorder window larger than their spacing can invert them.
        order = []
        net.attach_handler(
            Addr(1, PORT_POOL), lambda m: order.append(m.msg_id)
        )

        class FirstBig:
            # First draw huge, second tiny -> first message jittered
            # past the second.
            def __init__(self):
                self.draws = iter([0.999, 0.0])

            def random(self):
                return next(self.draws)

        net.enable_reordering(0.01, FirstBig())
        a, b = request(0, 1), request(0, 1)
        net.send(a)
        net.send(b)
        engine.run()
        assert order == [b.msg_id, a.msg_id]
        assert net.stats.reordered == 2
        assert net.stats.reordered_by_kind == {"PowerRequest": 2}

    def test_disable_ends_the_window(self, engine, net):
        net.enable_reordering(0.05, np.random.default_rng(0))
        net.disable_reordering()
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.send(request(0, 1))
        engine.run()
        assert net.stats.reordered == 0
        assert engine.now == pytest.approx(120e-6)  # un-jittered latency

    def test_window_validated(self, net):
        with pytest.raises(ValueError):
            net.enable_reordering(0.0, np.random.default_rng(0))


class TestGraySlowNodes:
    def test_slowdown_scales_both_endpoints(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.set_node_slowdown(1, 8.0)
        net.send(request(0, 1))
        engine.run()
        assert engine.now == pytest.approx(8.0 * 120e-6)
        # Both-endpoint slowdowns stack multiplicatively.
        net.set_node_slowdown(0, 2.0)
        start = engine.now
        net.send(request(0, 1))
        engine.run()
        assert engine.now - start == pytest.approx(16.0 * 120e-6)

    def test_clear_restores_nominal_latency(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.set_node_slowdown(1, 8.0)
        net.clear_node_slowdown(1)
        net.clear_node_slowdown(1)  # idempotent
        net.send(request(0, 1))
        engine.run()
        assert engine.now == pytest.approx(120e-6)

    def test_factor_one_is_bitwise_inert(self, engine, net):
        inbox = Store(engine)
        net.attach(Addr(1, PORT_POOL), inbox)
        net.set_node_slowdown(1, 1.0)
        net.send(request(0, 1))
        engine.run()
        assert engine.now == 120e-6 * 1.0

    def test_validation(self, net):
        with pytest.raises(ValueError):
            net.set_node_slowdown(1, 0.0)
        with pytest.raises(ValueError):
            net.set_node_slowdown(99, 2.0)

    def test_slow_node_stays_alive(self, engine, net):
        net.set_node_slowdown(1, 8.0)
        assert not net.is_dead(1)


class TestInjectorArming:
    def test_duplicate_burst_window(self, cluster):
        FaultPlan().duplicate_burst(0.5, at_time_s=1.0, duration_s=2.0).install(
            cluster
        )
        engine = cluster.engine
        net = cluster.network
        engine.run(until=0.5)
        assert net._duplicate_probability == 0.0
        engine.run(until=1.5)
        assert net._duplicate_probability == 0.5
        engine.run(until=3.5)
        assert net._duplicate_probability == 0.0

    def test_reorder_burst_window(self, cluster):
        FaultPlan().reorder_burst(0.05, at_time_s=1.0, duration_s=2.0).install(
            cluster
        )
        engine = cluster.engine
        net = cluster.network
        engine.run(until=1.5)
        assert net._reorder_window_s == 0.05
        engine.run(until=3.5)
        assert net._reorder_window_s == 0.0

    def test_slow_node_window_and_open_ended(self, cluster):
        plan = FaultPlan().slow_node(1, 4.0, at_time_s=1.0, duration_s=2.0)
        plan.slow_node(2, 3.0, at_time_s=1.0)  # no duration: to the horizon
        plan.install(cluster)
        engine = cluster.engine
        net = cluster.network
        engine.run(until=1.5)
        assert net._slow_factors == {1: 4.0, 2: 3.0}
        engine.run(until=3.5)
        assert net._slow_factors == {2: 3.0}

    def test_burst_validations(self):
        with pytest.raises(ValueError):
            FaultPlan().duplicate_burst(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            FaultPlan().duplicate_burst(0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            FaultPlan().reorder_burst(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            FaultPlan().reorder_burst(0.05, -1.0, 1.0)
        with pytest.raises(ValueError):
            FaultPlan().clock_drift(1, -1.0, 1.0)  # scale would be 0
        with pytest.raises(ValueError):
            FaultPlan().slow_node(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            FaultPlan().slow_node(1, 2.0, 1.0, duration_s=0.0)

    def test_clock_drift_requires_a_manager(self, cluster):
        plan = FaultPlan().clock_drift(1, 0.02, 1.0)
        with pytest.raises(ValueError, match="needs a manager"):
            plan.install(cluster)


def _managed(n=4, sim=None):
    from repro.core.manager import PenelopeManager
    from repro.workloads.generator import assign_pair_to_cluster

    engine = Engine(sim=sim)
    budget = n * 2 * 70.0
    cluster = Cluster(
        engine,
        ClusterConfig(n_nodes=n, system_power_budget_w=budget),
        RngRegistry(seed=0),
    )
    manager = PenelopeManager()
    assignment = assign_pair_to_cluster(
        ("EP", "DC"), range(n), rng=np.random.default_rng(0), scale=0.2
    )
    cluster.install_assignment(assignment, manager.config.overhead_factor)
    manager.install(cluster, client_ids=list(range(n)), budget_w=budget)
    cluster.start_workloads()
    return engine, cluster, manager


class TestClockDrift:
    def test_drift_scales_decider_and_detector(self):
        engine, _, manager = _managed()
        manager.set_clock_drift(1, 0.25)
        assert manager.deciders[1].clock_scale == 1.25
        assert manager.deciders[0].clock_scale == 1.0
        detector = manager.detectors.get(1)
        if detector is not None:
            assert detector.clock_scale == 1.25
        assert manager.recorder.counters["manager.clock_drifts"] == 1

    def test_drift_survives_a_revive(self):
        engine, cluster, manager = _managed()
        manager.start()
        manager.set_clock_drift(1, 0.1)
        engine.run(until=2.0)
        cluster.kill_node(1)
        engine.run(until=3.0)
        manager.revive_node(1)
        # The replacement decider generation inherits the hardware drift.
        assert manager.deciders[1].clock_scale == pytest.approx(1.1)

    def test_invalid_drift_rejected(self):
        _, _, manager = _managed()
        with pytest.raises(ValueError, match="not a managed client"):
            manager.set_clock_drift(99, 0.1)
        with pytest.raises(ValueError, match="keep the clock running"):
            manager.set_clock_drift(1, -1.0)

    def test_slow_clock_ticks_late(self):
        # A decider at scale 2.0 spaces its ticks twice as far apart:
        # after the same horizon it has made about half the decisions.
        def ticks(rate):
            engine, _, manager = _managed()
            if rate:
                manager.set_clock_drift(1, rate)
            manager.start()
            engine.run(until=10.0)
            return manager.deciders[1].iterations

        nominal = ticks(0.0)
        slow = ticks(1.0)
        assert 0 < slow < nominal
        assert slow == pytest.approx(nominal / 2, abs=2)

    def test_drifted_decider_leaves_the_batcher(self):
        from repro.sim.config import SimConfig

        engine, _, manager = _managed(sim=SimConfig(batched_ticks=True))
        manager.start()
        assert manager.deciders[1]._batcher is not None
        manager.set_clock_drift(1, 0.1)
        assert manager.deciders[1]._batcher is None
        # The undrifted peers stay batched.
        assert manager.deciders[0]._batcher is not None
        # Rate 0.0 is inert: scale 1.0 keeps the node batched.
        manager.set_clock_drift(2, 0.0)
        assert manager.deciders[2]._batcher is not None
