"""Unit tests for fault injection."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan, kill_node_at, partition_at
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from tests.conftest import SIM


@pytest.fixture
def cluster():
    engine = Engine(sim=SIM)
    config = ClusterConfig(n_nodes=4, system_power_budget_w=4 * 160.0)
    return Cluster(engine, config, RngRegistry(seed=0))


class TestKillNodeAt:
    def test_node_dies_at_scheduled_time(self, cluster):
        kill_node_at(cluster, 2, at_time_s=5.0)
        cluster.engine.run(until=4.9)
        assert cluster.node(2).alive
        cluster.engine.run(until=5.1)
        assert not cluster.node(2).alive
        assert cluster.network.is_dead(2)


class TestPartitionAt:
    def test_partition_applies_at_time(self, cluster):
        partition_at(cluster, [0], at_time_s=3.0)
        cluster.engine.run(until=2.9)
        assert cluster.topology.reachable(0, 1)
        cluster.engine.run(until=3.1)
        assert not cluster.topology.reachable(0, 1)

    def test_partition_heals(self, cluster):
        partition_at(cluster, [0], at_time_s=1.0, heal_after_s=2.0)
        cluster.engine.run(until=1.5)
        assert not cluster.topology.reachable(0, 1)
        cluster.engine.run(until=3.5)
        assert cluster.topology.reachable(0, 1)


class TestFaultPlan:
    def test_fluent_construction(self):
        plan = FaultPlan().kill(1, 5.0).partition([0], 3.0, heal_after_s=1.0)
        assert plan.node_kills == [(1, 5.0)]
        assert plan.partitions == [((0,), 3.0, 1.0)]
        assert not plan.is_empty

    def test_empty_plan(self):
        assert FaultPlan().is_empty

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().kill(0, -1.0)
        with pytest.raises(ValueError):
            FaultPlan().partition([0], -1.0)

    def test_decoded_plan_round_trips(self):
        from repro.experiments import serialize

        plan = (
            FaultPlan()
            .kill(1, 2.0)
            .partition([0, 2], 1.0, heal_after_s=3.0)
            .flap([3], 1.0, 0.5, 0.5, 2)
            .loss_burst(0.2, 1.0, 2.0)
            .clock_drift(2, 0.1, 4.0)
            .slow_node(1, 3.0, 2.0)
        )
        assert serialize.decode(FaultPlan, serialize.encode(plan)) == plan

    @pytest.mark.parametrize(
        "category, entry, match",
        [
            ("node_kills", [1, -1.0], "fault time"),
            ("partitions", [[0], -2.0, None], "fault time"),
            ("restarts", [1, -0.5], "fault time"),
            ("flaps", [[0], 1.0, 0.5, 0.5, 0], "flap cycle"),
            ("flaps", [[0], 1.0, 0.0, 0.5, 1], "flap durations"),
            ("loss_bursts", [1.0, 1.0, 2.0], "loss probability"),
            ("duplicate_bursts", [0.5, 1.0, 0.0], "burst duration"),
            ("reorder_bursts", [0.0, 1.0, 2.0], "reorder window"),
            ("clock_drifts", [1, -1.0, 1.0], "drift rate"),
            ("slow_nodes", [1, 0.0, 1.0, None], "slowdown factor"),
            ("slow_nodes", [1, 2.0, 1.0, -1.0], "slowdown duration"),
        ],
    )
    def test_invalid_decoded_plan_fails_at_load(self, category, entry, match):
        # A hand-written fuzz repro never passes through the builders;
        # decoding it must apply their range checks all the same.
        from repro.experiments import serialize

        with pytest.raises(ValueError, match=match):
            serialize.decode(FaultPlan, {category: [entry]})

    def test_install_arms_all_faults(self, cluster):
        plan = FaultPlan().kill(1, 2.0).partition([3], 4.0)
        processes = plan.install(cluster)
        assert len(processes) == 2
        cluster.engine.run(until=5.0)
        assert not cluster.node(1).alive
        assert not cluster.topology.reachable(3, 0)


class TestFlapPartition:
    def test_flap_cycles_partition(self, cluster):
        FaultPlan().flap([0], at_time_s=1.0, down_s=1.0, up_s=1.0, cycles=2).install(
            cluster
        )
        cluster.engine.run(until=1.5)
        assert not cluster.topology.reachable(0, 1)  # first down window
        cluster.engine.run(until=2.5)
        assert cluster.topology.reachable(0, 1)  # healed
        cluster.engine.run(until=3.5)
        assert not cluster.topology.reachable(0, 1)  # second down window
        cluster.engine.run(until=5.0)
        assert cluster.topology.reachable(0, 1)  # flapping over, stays up

    def test_flap_validations(self):
        with pytest.raises(ValueError):
            FaultPlan().flap([0], 1.0, down_s=0.0, up_s=1.0, cycles=1)
        with pytest.raises(ValueError):
            FaultPlan().flap([0], 1.0, down_s=1.0, up_s=-1.0, cycles=1)
        with pytest.raises(ValueError):
            FaultPlan().flap([0], 1.0, down_s=1.0, up_s=1.0, cycles=0)
        with pytest.raises(ValueError):
            FaultPlan().flap([0], -1.0, down_s=1.0, up_s=1.0, cycles=1)


class TestLossBurst:
    def test_burst_raises_then_restores_base_rate(self, cluster):
        base = cluster.network.base_loss_probability
        FaultPlan().loss_burst(0.5, at_time_s=2.0, duration_s=3.0).install(cluster)
        cluster.engine.run(until=2.5)
        assert cluster.network.loss_probability == pytest.approx(0.5)
        cluster.engine.run(until=6.0)
        assert cluster.network.loss_probability == pytest.approx(base)

    def test_burst_validations(self):
        with pytest.raises(ValueError):
            FaultPlan().loss_burst(1.0, 1.0, 1.0)  # p must be < 1
        with pytest.raises(ValueError):
            FaultPlan().loss_burst(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            FaultPlan().loss_burst(0.5, 1.0, 0.0)  # zero duration
        with pytest.raises(ValueError):
            FaultPlan().loss_burst(0.5, -1.0, 1.0)

    def test_restart_validations(self):
        with pytest.raises(ValueError):
            FaultPlan().restart(0, -1.0)


class TestGroundTruthEdgeCases:
    """`dead_intervals` / `heal_times` under degenerate schedules: the
    detector metrics are scored against these, so the edge semantics
    (restart strictly after its kill, one interval per restart, flap
    up-edges clipped to the horizon) are load-bearing."""

    def test_restart_before_kill_does_not_close_the_interval(self):
        # A restart scheduled at-or-before the kill instant is not a
        # revive of *that* death; the interval runs to the horizon.
        plan = FaultPlan().kill(1, 5.0).restart(1, 5.0)
        assert plan.dead_intervals(20.0) == [(1, 5.0, 20.0)]
        plan = FaultPlan().kill(1, 5.0).restart(1, 3.0)
        assert plan.dead_intervals(20.0) == [(1, 5.0, 20.0)]

    def test_each_restart_closes_at_most_one_interval(self):
        # Two deaths, one revive: the earlier kill consumes the restart,
        # the second interval stays open to the horizon.
        plan = FaultPlan().kill(1, 2.0).kill(1, 10.0).restart(1, 6.0)
        assert plan.dead_intervals(20.0) == [(1, 2.0, 6.0), (1, 10.0, 20.0)]

    def test_earliest_matching_restart_wins(self):
        plan = FaultPlan().kill(1, 2.0).restart(1, 8.0).restart(1, 4.0)
        assert plan.dead_intervals(20.0) == [(1, 2.0, 4.0)]

    def test_restart_without_kill_contributes_no_interval(self):
        plan = FaultPlan().restart(2, 5.0).kill(1, 3.0)
        assert plan.dead_intervals(20.0) == [(1, 3.0, 20.0)]

    def test_restart_beyond_horizon_clips_to_horizon(self):
        plan = FaultPlan().kill(1, 5.0).restart(1, 30.0)
        assert plan.dead_intervals(20.0) == [(1, 5.0, 20.0)]

    def test_overlapping_flaps_emit_every_up_edge(self):
        # Two flapping partitions whose windows interleave: heal_times
        # reports each up-edge independently, sorted, horizon-clipped.
        plan = (
            FaultPlan()
            .flap([0], at_time_s=1.0, down_s=1.0, up_s=1.0, cycles=2)
            .flap([1], at_time_s=1.5, down_s=1.0, up_s=1.0, cycles=2)
        )
        assert plan.heal_times(10.0) == [2.0, 2.5, 4.0, 4.5]
        assert plan.heal_times(4.2) == [2.0, 2.5, 4.0]

    def test_flap_and_partition_heals_merge_sorted(self):
        plan = (
            FaultPlan()
            .partition([2], at_time_s=1.0, heal_after_s=5.0)
            .flap([0], at_time_s=1.0, down_s=1.0, up_s=1.0, cycles=1)
        )
        assert plan.heal_times(10.0) == [2.0, 6.0]
        # Unhealed partitions and heals past the horizon never appear.
        plan.partition([3], at_time_s=2.0)
        plan.partition([1], at_time_s=2.0, heal_after_s=100.0)
        assert plan.heal_times(10.0) == [2.0, 6.0]


class TestSameTimestampOrdering:
    """`install` arms in declaration order (category, then list position),
    and the engine breaks timestamp ties by trigger sequence -- so faults
    scheduled for the same instant fire in exactly the arming order."""

    @staticmethod
    def _traced(cluster, order):
        real_kill = cluster.kill_node
        real_partition = cluster.topology.partition

        def kill(node_id):
            order.append(("kill", node_id))
            real_kill(node_id)

        def partition(isolated):
            order.append(("partition", tuple(isolated)))
            real_partition(isolated)

        cluster.kill_node = kill
        cluster.topology.partition = partition

    def test_categories_fire_kills_before_partitions(self, cluster):
        order = []
        self._traced(cluster, order)
        # Declared partition *first* -- category order still wins.
        FaultPlan().partition([3], 5.0).kill(1, 5.0).install(cluster)
        cluster.engine.run(until=5.1)
        assert order == [("kill", 1), ("partition", (3,))]

    def test_list_order_within_a_category(self, cluster):
        order = []
        self._traced(cluster, order)
        FaultPlan().kill(2, 5.0).kill(1, 5.0).install(cluster)
        cluster.engine.run(until=5.1)
        assert order == [("kill", 2), ("kill", 1)]

    def test_replay_is_deterministic(self):
        def trace(seed):
            engine = Engine(sim=SIM)
            config = ClusterConfig(n_nodes=4, system_power_budget_w=4 * 160.0)
            cluster = Cluster(engine, config, RngRegistry(seed=seed))
            order = []
            self._traced(cluster, order)
            plan = FaultPlan().partition([3], 5.0).kill(1, 5.0).kill(2, 5.0)
            plan.partition([0], 5.0)
            plan.install(cluster)
            engine.run(until=6.0)
            return order

        assert trace(0) == trace(1) == [
            ("kill", 1),
            ("kill", 2),
            ("partition", (3,)),
            ("partition", (0,)),
        ]
