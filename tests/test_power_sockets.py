"""Tests for per-socket cap splitting and the NUMA-imbalance model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.domain import SKYLAKE_6126_NODE, PowerDomainSpec
from repro.power.sockets import (
    consumed_with_sockets,
    socket_demands_w,
    speed_with_sockets,
    split_cap_w,
)
from tests.conftest import SIM

SPEC = SKYLAKE_6126_NODE  # 2 sockets, idle 15 W/socket


class TestSplitCap:
    def test_even_split(self):
        caps = split_cap_w(160.0, [100.0, 100.0], SPEC, policy="even")
        assert caps == [80.0, 80.0]

    def test_even_split_ignores_demand(self):
        caps = split_cap_w(160.0, [120.0, 40.0], SPEC, policy="even")
        assert caps == [80.0, 80.0]

    def test_proportional_follows_demand(self):
        caps = split_cap_w(160.0, [120.0, 40.0], SPEC, policy="proportional")
        assert caps[0] > caps[1]
        assert sum(caps) == pytest.approx(160.0)

    def test_proportional_with_idle_demands_falls_back_to_even(self):
        caps = split_cap_w(160.0, [15.0, 15.0], SPEC, policy="proportional")
        assert caps == [80.0, 80.0]

    def test_each_socket_keeps_idle_floor(self):
        caps = split_cap_w(20.0, [100.0, 100.0], SPEC)
        assert all(cap >= SPEC.idle_w_per_socket for cap in caps)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            split_cap_w(160.0, [100.0, 100.0], SPEC, policy="magic")

    def test_wrong_socket_count_rejected(self):
        with pytest.raises(ValueError):
            split_cap_w(160.0, [100.0], SPEC)

    @given(
        cap=st.floats(60.0, 250.0),
        d0=st.floats(15.0, 125.0),
        d1=st.floats(15.0, 125.0),
        policy=st.sampled_from(["even", "proportional"]),
    )
    @settings(max_examples=80)
    def test_split_conserves_cap(self, cap, d0, d1, policy):
        caps = split_cap_w(cap, [d0, d1], SPEC, policy=policy)
        assert sum(caps) == pytest.approx(max(cap, SPEC.idle_w))
        assert all(c >= SPEC.idle_w_per_socket - 1e-9 for c in caps)


class TestSocketDemands:
    def test_balanced(self):
        assert socket_demands_w(100.0, 0.0, SPEC) == [100.0, 100.0]

    def test_imbalanced_ramp(self):
        demands = socket_demands_w(100.0, 0.2, SPEC)
        assert demands == [pytest.approx(120.0), pytest.approx(80.0)]

    def test_clipped_to_physical_range(self):
        demands = socket_demands_w(120.0, 0.5, SPEC)
        assert demands[0] <= SPEC.max_cap_w_per_socket

    def test_single_socket(self):
        spec = PowerDomainSpec(sockets=1)
        assert socket_demands_w(100.0, 0.3, spec) == [100.0]

    def test_invalid_imbalance(self):
        with pytest.raises(ValueError):
            socket_demands_w(100.0, 1.0, SPEC)
        with pytest.raises(ValueError):
            socket_demands_w(100.0, -0.1, SPEC)


class TestSpeedWithSockets:
    def test_balanced_matches_node_level_model(self):
        from repro.workloads.performance import speed_under_cap

        node_speed = speed_under_cap(160.0, 200.0, SPEC.idle_w, 0.8)
        socket_speed = speed_with_sockets(160.0, [100.0, 100.0], SPEC, 0.8)
        assert socket_speed == pytest.approx(node_speed)

    def test_imbalance_hurts_under_even_split(self):
        balanced = speed_with_sockets(160.0, [100.0, 100.0], SPEC, 0.8, "even")
        skewed = speed_with_sockets(160.0, [120.0, 80.0], SPEC, 0.8, "even")
        # Same total demand, but the hot socket throttles the lockstep run.
        assert skewed < balanced

    def test_proportional_split_recovers_the_loss(self):
        even = speed_with_sockets(160.0, [120.0, 80.0], SPEC, 0.8, "even")
        proportional = speed_with_sockets(
            160.0, [120.0, 80.0], SPEC, 0.8, "proportional"
        )
        assert proportional > even

    def test_uncapped_full_speed(self):
        assert speed_with_sockets(250.0, [100.0, 100.0], SPEC, 0.8) == 1.0

    @given(
        cap=st.floats(60.0, 250.0),
        demand=st.floats(20.0, 125.0),
        imbalance=st.floats(0.0, 0.8),
        beta=st.floats(0.2, 1.0),
    )
    @settings(max_examples=60)
    def test_proportional_never_worse_than_even(self, cap, demand, imbalance, beta):
        demands = socket_demands_w(demand, imbalance, SPEC)
        even = speed_with_sockets(cap, demands, SPEC, beta, "even")
        proportional = speed_with_sockets(cap, demands, SPEC, beta, "proportional")
        assert proportional >= even - 1e-12


class TestConsumedWithSockets:
    def test_capped_draw(self):
        draw = consumed_with_sockets(160.0, [120.0, 80.0], SPEC, "even")
        # Socket 0 capped at 80, socket 1 draws its 80 demand.
        assert draw == pytest.approx(160.0)

    def test_uncapped_draw_is_total_demand(self):
        draw = consumed_with_sockets(250.0, [100.0, 80.0], SPEC)
        assert draw == pytest.approx(180.0)

    def test_idle_floor_per_socket(self):
        draw = consumed_with_sockets(250.0, [15.0, 15.0], SPEC)
        assert draw == SPEC.idle_w


class TestExecutorIntegration:
    def test_imbalanced_phase_runs_slower_under_even_split(self, engine, rng):
        from repro.cluster.node import SimNode
        from repro.workloads.phases import Phase, Workload

        def run(imbalance, policy):
            from repro.sim.engine import Engine

            local_engine = Engine(sim=SIM)
            import numpy as np

            node = SimNode(
                local_engine, 0, SPEC, np.random.default_rng(0),
                initial_cap_w=160.0, enforcement_delay_s=(0.0, 0.0),
                reading_noise=0.0,
            )
            node.rapl.socket_split_policy = policy
            workload = Workload(
                app="NUMA",
                phases=(
                    Phase("hot", work_s=10.0, demand_w_per_socket=100.0,
                          beta=0.9, imbalance=imbalance),
                ),
            )
            node.assign_workload(workload)
            node.start_workload()
            local_engine.run(until=node.executor.done)
            return node.executor.finished_at

        balanced = run(0.0, "even")
        skewed_even = run(0.3, "even")
        skewed_proportional = run(0.3, "proportional")
        assert skewed_even > balanced
        assert skewed_proportional < skewed_even
