"""Tests for the pluggable discovery strategies (random / ring / sticky)."""

from __future__ import annotations

import pytest

from repro.core.config import PenelopeConfig
from repro.core.decider import LocalDecider
from repro.core.pool import PowerPool
from repro.net.network import Network
from repro.net.roster import Roster
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def make_decider(discovery: str, peers=(1, 2, 3), membership=False):
    engine = Engine()
    rngs = RngRegistry(seed=5)
    network = Network(
        engine, Topology(5, latency=LatencyModel(sigma=0.0)), rngs.stream("net")
    )
    config = PenelopeConfig(
        stagger_start=False, discovery=discovery, enable_membership=membership
    )
    rapl = SimulatedRapl(
        engine, SKYLAKE_6126_NODE, rngs.stream("rapl"), initial_cap_w=160.0,
        enforcement_delay_s=(0.0, 0.0), reading_noise=0.0,
    )
    # Like the manager: one roster of every node, this node's view skips it.
    others = Roster(sorted({0, *peers})).others(0)
    detector = None
    if membership:
        from repro.membership import FailureDetector

        detector = FailureDetector(
            engine, network, 0, others, config, rngs.stream("membership.0")
        )
    pool = PowerPool(
        engine, network, 0, config, rngs.stream("pool"), membership=detector
    )
    decider = LocalDecider(
        engine, network, 0, rapl, pool, peers=others,
        initial_cap_w=160.0, config=config, rng=rngs.stream("decider"),
        membership=detector,
    )
    return decider


def mark(decider, peer, status):
    """Force ``peer`` to ``status`` in the decider's membership view."""
    from repro.net.messages import MembershipUpdate

    view = decider._membership.view
    incarnation = view.incarnation_of(peer)
    view.apply(MembershipUpdate(peer, status, incarnation), now=0.0)


class TestConfigValidation:
    def test_known_strategies_accepted(self):
        for strategy in ("random", "ring", "sticky"):
            PenelopeConfig(discovery=strategy)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="discovery"):
            PenelopeConfig(discovery="telepathy")


class TestRing:
    def test_round_robin_order(self):
        decider = make_decider("ring")
        picks = [decider._choose_peer() for _ in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_ring_offset_by_node_id(self):
        a = make_decider("ring")
        assert a._choose_peer() == 1  # node 0 starts at index 0


class TestRandom:
    def test_uniform_coverage(self):
        decider = make_decider("random")
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {1, 2, 3}

    def test_never_self(self):
        decider = make_decider("random", peers=(0, 1, 2))
        assert 0 not in decider.peers
        picks = {decider._choose_peer() for _ in range(50)}
        assert 0 not in picks


class TestSticky:
    def test_successful_peer_is_remembered(self):
        decider = make_decider("sticky")
        decider._note_grant_outcome(2, granted_w=5.0)
        assert all(decider._choose_peer() == 2 for _ in range(5))

    def test_dry_peer_is_forgotten(self):
        decider = make_decider("sticky")
        decider._note_grant_outcome(2, granted_w=5.0)
        decider._note_grant_outcome(2, granted_w=0.0)
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {1, 2, 3}  # back to uniform random

    def test_zero_grant_from_other_peer_keeps_memory(self):
        decider = make_decider("sticky")
        decider._note_grant_outcome(2, granted_w=5.0)
        decider._note_grant_outcome(3, granted_w=0.0)  # unrelated miss
        assert decider._choose_peer() == 2

    def test_random_mode_ignores_outcomes(self):
        decider = make_decider("random")
        decider._note_grant_outcome(2, granted_w=5.0)
        assert decider._sticky_peer is None


class TestSuspicionStickyInterplay:
    def test_suspected_sticky_peer_is_dropped(self):
        decider = make_decider("sticky")
        decider._note_grant_outcome(2, granted_w=5.0)
        decider._suspect(2)
        assert decider._sticky_peer is None
        # Discovery falls back to (suspicion-biased) random, not pinned.
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {1, 2, 3}

    def test_expired_suspicion_restores_the_candidate(self):
        decider = make_decider("sticky")
        decider._suspect(2)
        decider.engine.run(
            until=decider.config.suspicion_ttl_s + 1.0
        )
        decider._purge_suspicion()
        assert 2 not in decider._suspicion
        # ...and the peer can earn stickiness back by granting.
        decider._note_grant_outcome(2, granted_w=5.0)
        assert decider._choose_peer() == 2


class TestMembershipDiscovery:
    def test_candidates_come_from_the_live_view(self):
        from repro.net.messages import MEMBER_DEAD

        decider = make_decider("random", membership=True)
        mark(decider, 2, MEMBER_DEAD)
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {1, 3}

    def test_suspects_are_excluded_without_redraws(self):
        from repro.net.messages import MEMBER_SUSPECT

        decider = make_decider("random", membership=True)
        mark(decider, 1, MEMBER_SUSPECT)
        picks = {decider._choose_peer() for _ in range(100)}
        assert picks == {2, 3}
        assert decider.recorder.counters.get("decider.suspicion_redraws", 0) == 0

    def test_empty_view_degrades_to_local_only(self):
        from repro.net.messages import MEMBER_DEAD

        decider = make_decider("random", membership=True)
        for peer in (1, 2, 3):
            mark(decider, peer, MEMBER_DEAD)
        assert decider._choose_peer() is None
        assert decider.recorder.counters.get("decider.no_live_peers", 0) == 1

    def test_sticky_holds_only_while_believed_alive(self):
        from repro.net.messages import MEMBER_SUSPECT

        decider = make_decider("sticky", membership=True)
        decider._note_grant_outcome(2, granted_w=5.0)
        assert decider._choose_peer() == 2
        mark(decider, 2, MEMBER_SUSPECT)
        picks = {decider._choose_peer() for _ in range(100)}
        assert 2 not in picks

    def test_ring_walks_the_live_list(self):
        from repro.net.messages import MEMBER_DEAD

        decider = make_decider("ring", membership=True)
        mark(decider, 2, MEMBER_DEAD)
        picks = [decider._choose_peer() for _ in range(4)]
        assert picks == [1, 3, 1, 3]


class TestEndToEndStrategies:
    @pytest.mark.parametrize("discovery", ["random", "ring", "sticky"])
    def test_all_strategies_shift_power_and_audit(self, discovery):
        from repro.experiments.harness import RunSpec, run_single

        result = run_single(
            RunSpec(
                "penelope",
                ("EP", "DC"),
                65.0,
                n_clients=6,
                workload_scale=0.15,
                seed=6,
                manager_config=PenelopeConfig(discovery=discovery),
            )
        )
        assert result.recorder.total_granted_w() > 0
        result.audit.check()
