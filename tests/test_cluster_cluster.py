"""Unit tests for the Cluster container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import assign_pair_to_cluster
from tests.conftest import SIM


def make_cluster(n=4, cap_per_socket=80.0, seed=0):
    engine = Engine(sim=SIM)
    config = ClusterConfig(
        n_nodes=n, system_power_budget_w=n * 2 * cap_per_socket
    )
    return engine, Cluster(engine, config, RngRegistry(seed=seed))


class TestConfig:
    def test_fair_share(self):
        config = ClusterConfig(n_nodes=10, system_power_budget_w=1600.0)
        assert config.fair_share_w == 160.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            # 10 W/node fair share is below the 60 W safe minimum.
            ClusterConfig(n_nodes=10, system_power_budget_w=100.0).validate_budget()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(system_power_budget_w=0.0)


class TestTraceNodes:
    """A cluster built from power traces hosts trace-playback nodes."""

    def make_trace_cluster(self, n_nodes=2):
        from repro.workloads.traces import constant_trace

        engine = Engine(sim=SIM)
        config = ClusterConfig(n_nodes=n_nodes, system_power_budget_w=n_nodes * 140.0)
        rngs = RngRegistry(seed=0)
        cluster = Cluster(engine, config, rngs, traces={0: constant_trace(100.0)})
        return cluster, rngs

    def test_untraced_server_node_idles(self):
        from repro.cluster.node import TraceNode
        from repro.power.domain import SKYLAKE_6126_NODE

        cluster, rngs = self.make_trace_cluster()
        assert all(isinstance(node, TraceNode) for node in cluster.nodes)
        assert cluster.node(0).rapl.demand_now_w == 100.0
        server_node = cluster.node(1)  # never given a trace
        assert server_node.rapl.demand_now_w == SKYLAKE_6126_NODE.idle_w
        assert cluster.compute_nodes() == []
        # Trace playback draws no per-node RAPL stream.
        assert not any(name.startswith("node.") for name in rngs._streams)

    def test_kill_node_marks_network(self):
        cluster, _ = self.make_trace_cluster(n_nodes=1)
        cluster.kill_node(0)
        assert not cluster.node(0).alive
        assert cluster.network.is_dead(0)

    def test_revive_node_rejoins(self):
        cluster, _ = self.make_trace_cluster()
        called = []
        cluster.node(1).on_kill.append(lambda: called.append(True))
        cluster.kill_node(1)
        cluster.revive_node(1)
        assert called == [True]
        assert cluster.node(1).alive and cluster.node(1).on_kill == []
        assert not cluster.network.is_dead(1)

    def test_trace_nodes_run_no_workload(self):
        from repro.workloads.apps import build_app

        cluster, _ = self.make_trace_cluster()
        with pytest.raises(RuntimeError):
            cluster.install_assignment({0: build_app("EP")})


class TestConstruction:
    def test_nodes_created_with_fair_caps(self):
        _, cluster = make_cluster(n=4, cap_per_socket=80.0)
        assert len(cluster.nodes) == 4
        for node in cluster.nodes:
            assert node.rapl.cap_w == 160.0

    def test_node_lookup(self):
        _, cluster = make_cluster()
        assert cluster.node(2).node_id == 2
        assert list(cluster.node_ids) == [0, 1, 2, 3]

    def test_snapshots(self):
        _, cluster = make_cluster(n=3)
        caps = cluster.cap_snapshot()
        assert caps == {0: 160.0, 1: 160.0, 2: 160.0}
        assert set(cluster.power_snapshot()) == {0, 1, 2}

    def test_total_requested_caps(self):
        _, cluster = make_cluster(n=3)
        assert cluster.total_requested_caps_w() == 480.0


class TestRunToCompletion:
    def test_runs_assignment_to_makespan(self):
        engine, cluster = make_cluster(n=4)
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(4), rng=np.random.default_rng(0), scale=0.1
        )
        cluster.install_assignment(assignment)
        runtime = cluster.run_to_completion()
        assert runtime > 0
        assert runtime == max(
            node.executor.finished_at for node in cluster.compute_nodes()
        )

    def test_livelock_guard_is_cancelled_after_completion(self):
        # The unfired time-limit guard must not survive the run: a later
        # drain of the same engine would otherwise leap the clock to the
        # guard's far-future expiry.
        engine, cluster = make_cluster(n=2)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(2), scale=0.05)
        cluster.install_assignment(assignment)
        runtime = cluster.run_to_completion(time_limit_s=1e7)
        engine.run()
        assert engine.now < 1e7
        assert engine.now >= runtime

    def test_auto_start_can_be_disabled(self):
        engine, cluster = make_cluster(n=2)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(2), scale=0.05)
        cluster.install_assignment(assignment)
        with pytest.raises(RuntimeError):
            cluster.run_to_completion(time_limit_s=10.0, start_workloads=False)

    def test_time_limit_guards_livelock(self):
        engine, cluster = make_cluster(n=2)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(2), scale=1.0)
        cluster.install_assignment(assignment)
        with pytest.raises(RuntimeError, match="did not complete"):
            cluster.run_to_completion(time_limit_s=1.0)

    def test_compute_nodes_excludes_bare_nodes(self):
        _, cluster = make_cluster(n=4)
        assignment = assign_pair_to_cluster(("EP", "DC"), range(2), scale=0.05)
        cluster.install_assignment(assignment)
        assert len(cluster.compute_nodes()) == 2


class TestKillNode:
    def test_kill_marks_network_dead(self):
        engine, cluster = make_cluster(n=3)
        cluster.kill_node(1)
        assert not cluster.node(1).alive
        assert cluster.network.is_dead(1)
        assert len(cluster.alive_nodes()) == 2

    def test_completion_with_killed_node(self):
        engine, cluster = make_cluster(n=4)
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(4), rng=np.random.default_rng(0), scale=0.2
        )
        cluster.install_assignment(assignment)
        cluster.start_workloads()
        engine.run(until=2.0)
        cluster.kill_node(0)
        runtime = cluster.run_to_completion()
        assert cluster.node(0).executor.finished_at is None
        survivors = [
            node.executor.finished_at
            for node in cluster.compute_nodes()
            if node.executor.finished_at is not None
        ]
        assert runtime == max(survivors)


class TestCompletionEvent:
    """``completion_event`` counts down the still-pending ``settled`` events."""

    def _cluster(self, n=4, scale=0.1):
        engine, cluster = make_cluster(n=n)
        assignment = assign_pair_to_cluster(
            ("EP", "DC"), range(n), rng=np.random.default_rng(0), scale=scale
        )
        cluster.install_assignment(assignment)
        return engine, cluster

    def test_none_pending_fires_at_construction(self):
        engine, cluster = make_cluster(n=2)  # no workloads at all
        done = cluster.completion_event()
        assert done.triggered and not done.processed
        engine.run()
        assert done.processed and done.ok
        assert engine.now == 0.0 and engine.processed_events == 1

    def test_fires_once_when_last_settles(self):
        engine, cluster = self._cluster()
        cluster.start_workloads()
        done = cluster.completion_event()
        seen = []
        done.callbacks.append(lambda event: seen.append(engine.now))
        engine.run()
        last = max(node.executor.finished_at for node in cluster.compute_nodes())
        assert seen == [last]
        assert done.ok

    def test_node_killed_mid_run_settles_it(self):
        engine, cluster = self._cluster(scale=0.2)
        cluster.start_workloads()
        done = cluster.completion_event()
        engine.run(until=2.0)
        cluster.kill_node(0)
        engine.run(until=done)
        assert cluster.node(0).executor.finished_at is None
        survivors = [
            node.executor.finished_at
            for node in cluster.compute_nodes()
            if node.executor.finished_at is not None
        ]
        assert len(survivors) == 3 and engine.now == max(survivors)

    def test_failed_settled_fails_and_defuses(self):
        engine, cluster = self._cluster()
        settled = [node.executor.settled for node in cluster.compute_nodes()]
        done = cluster.completion_event()
        settled[1].fail(RuntimeError("boom"), delay=1.0)
        settled[2].fail(RuntimeError("late"), delay=2.0)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(until=done)
        assert engine.now == 1.0 and settled[1]._defused
        # A failure after ``done`` has fired is dropped, not surfaced.
        engine.run(until=3.0)
        assert settled[2].processed and settled[2]._defused
