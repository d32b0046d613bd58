"""Unit tests for the SWIM membership view (pure state machine)."""

from __future__ import annotations

import pytest

from repro.membership.view import ALIVE, DEAD, SUSPECT, MemberView
from repro.net.messages import MembershipUpdate
from repro.net.roster import Roster


def make_view(peers=(1, 2, 3), **kwargs):
    return MemberView(0, Roster((0, *peers)).others(0), **kwargs)


class TestPrecedenceRules:
    def test_initial_view_is_optimistic(self):
        view = make_view()
        assert list(view.alive_peers()) == [1, 2, 3]
        assert view.status_of(1) == ALIVE
        assert view.incarnation_of(1) == 0

    def test_alive_needs_strictly_higher_incarnation(self):
        view = make_view()
        assert view.apply(MembershipUpdate(1, ALIVE, 0), now=1.0) is None
        assert view.apply(MembershipUpdate(1, ALIVE, 1), now=1.0) is not None
        assert view.incarnation_of(1) == 1

    def test_equal_incarnation_suspect_overrides_alive(self):
        view = make_view()
        transition = view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        assert transition is not None
        assert view.status_of(1) == SUSPECT

    def test_suspect_does_not_override_suspect_at_same_incarnation(self):
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, SUSPECT, 0), now=2.0) is None

    def test_suspect_never_overrides_dead(self):
        view = make_view()
        view.apply(MembershipUpdate(1, DEAD, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, SUSPECT, 5), now=2.0) is None
        assert view.status_of(1) == DEAD

    def test_dead_overrides_equal_incarnation_and_sticks(self):
        view = make_view()
        assert view.apply(MembershipUpdate(1, DEAD, 0), now=1.0) is not None
        assert view.apply(MembershipUpdate(1, DEAD, 7), now=2.0) is None

    def test_fresher_alive_revives_the_dead(self):
        view = make_view()
        view.apply(MembershipUpdate(1, DEAD, 0), now=1.0)
        assert view.apply(MembershipUpdate(1, ALIVE, 1), now=2.0) is not None
        assert view.status_of(1) == ALIVE

    def test_stale_alive_does_not_revive(self):
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 3), now=1.0)
        assert view.apply(MembershipUpdate(1, ALIVE, 3), now=2.0) is None
        assert view.status_of(1) == SUSPECT

    def test_self_updates_are_rejected(self):
        view = make_view()
        with pytest.raises(ValueError, match="self"):
            view.apply(MembershipUpdate(0, SUSPECT, 0), now=1.0)

    def test_unknown_peer_is_ignored(self):
        view = make_view()
        assert view.apply(MembershipUpdate(99, SUSPECT, 0), now=1.0) is None


class TestDirectContact:
    def test_contact_revives_suspect_and_returns_accusation(self):
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 2), now=1.0)
        accusation = view.observe_contact(1, now=2.0)
        assert accusation == (SUSPECT, 2)
        assert view.status_of(1) == ALIVE

    def test_contact_with_alive_peer_is_a_noop(self):
        view = make_view()
        assert view.observe_contact(1, now=1.0) is None

    def test_contact_mints_no_gossip(self):
        # An equal-incarnation alive would not override the accusation in
        # anyone else's view; repair is the subject's refutation.
        view = make_view()
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        view._pending.clear()
        view.observe_contact(1, now=2.0)
        assert not view.has_pending_updates


class TestRefutation:
    def test_refute_bumps_past_the_accusation(self):
        view = make_view()
        assert view.refute(4) == 5
        assert view.incarnation == 5
        assert view.refutations == 1

    def test_refutation_is_gossiped(self):
        view = make_view()
        view.refute(0)
        updates = view.select_updates(10)
        assert MembershipUpdate(0, ALIVE, 1) in updates

    def test_restart_incarnation_is_announced(self):
        view = make_view(initial_incarnation=3)
        updates = view.select_updates(10)
        assert MembershipUpdate(0, ALIVE, 3) in updates


class TestDisseminationBuffer:
    def test_budget_limits_retransmissions(self):
        view = make_view(gossip_budget=2)
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        assert len(view.select_updates(10)) == 1
        assert len(view.select_updates(10)) == 1
        assert view.select_updates(10) == ()

    def test_selection_is_freshest_first_and_deterministic(self):
        view = make_view(gossip_budget=3)
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        view.select_updates(1)  # spend one transmission of node 1's update
        view.apply(MembershipUpdate(2, SUSPECT, 0), now=2.0)
        picked = view.select_updates(1)
        assert picked[0].node == 2  # fresher (full budget) wins

    def test_max_updates_bounds_the_batch(self):
        view = make_view()
        for peer in (1, 2, 3):
            view.apply(MembershipUpdate(peer, SUSPECT, 0), now=1.0)
        assert len(view.select_updates(2)) == 2


class TestAliveCache:
    def test_cache_tracks_status_changes(self):
        view = make_view()
        before = view.alive_peers()
        assert view.alive_peers() is before  # cached between changes
        view.apply(MembershipUpdate(2, SUSPECT, 0), now=1.0)
        assert list(view.alive_peers()) == [1, 3]
        view.observe_contact(2, now=2.0)
        assert list(view.alive_peers()) == [1, 2, 3]

    def test_transitions_and_listeners_fire(self):
        seen = []
        view = make_view()
        view.listeners.append(seen.append)
        view.apply(MembershipUpdate(1, SUSPECT, 0), now=1.0)
        view.apply(MembershipUpdate(1, DEAD, 0), now=2.0)
        assert [t.status for t in seen] == [SUSPECT, DEAD]
        assert [t.subject for t in seen] == [1, 1]
        assert view.transitions == seen
        assert list(view.non_dead_peers()) == [2, 3]
