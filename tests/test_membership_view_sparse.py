"""Differential test: the sparse :class:`MemberView` against a dense oracle.

The oracle below is the dense view the sparse one replaced: it holds an
explicit ``(status, incarnation)`` record for every peer from the
start.  Both are driven with the same generated operation sequences --
including gossip about nodes outside the roster -- and must agree on
every query, return value and transition after every step.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.view import (
    ALIVE,
    DEAD,
    SUSPECT,
    MemberView,
    MembershipTransition,
)
from repro.net.messages import MembershipUpdate
from repro.net.roster import Roster


class _DenseState:
    def __init__(self, status: str, incarnation: int) -> None:
        self.status = status
        self.incarnation = incarnation


class _DensePending:
    def __init__(self, status: str, incarnation: int, remaining: int) -> None:
        self.status = status
        self.incarnation = incarnation
        self.remaining = remaining


class DenseMemberView:
    """The pre-sparse view: one record per peer, built up front."""

    def __init__(
        self,
        node_id: int,
        peers: List[int],
        initial_incarnation: int = 0,
        gossip_budget: int = 4,
    ) -> None:
        self.node_id = node_id
        self.incarnation = initial_incarnation
        self._gossip_budget = gossip_budget
        self._members: Dict[int, _DenseState] = {
            peer: _DenseState(ALIVE, 0)
            for peer in sorted(p for p in peers if p != node_id)
        }
        self._pending: Dict[int, _DensePending] = {}
        self._alive_cache: Optional[Tuple[int, ...]] = None
        self.transitions: List[MembershipTransition] = []
        self.listeners: List[Callable[[MembershipTransition], None]] = []
        self.refutations = 0
        if initial_incarnation > 0:
            self.enqueue(node_id, ALIVE, initial_incarnation)

    def status_of(self, peer: int) -> str:
        state = self._members.get(peer)
        return state.status if state is not None else ALIVE

    def incarnation_of(self, peer: int) -> int:
        state = self._members.get(peer)
        return state.incarnation if state is not None else 0

    def alive_peers(self) -> Sequence[int]:
        if self._alive_cache is None:
            self._alive_cache = tuple(
                peer for peer, state in self._members.items() if state.status == ALIVE
            )
        return self._alive_cache

    def non_dead_peers(self) -> List[int]:
        return [peer for peer, state in self._members.items() if state.status != DEAD]

    @property
    def has_pending_updates(self) -> bool:
        return bool(self._pending)

    def _accepts(self, state: _DenseState, status: str, incarnation: int) -> bool:
        if status == ALIVE:
            return incarnation > state.incarnation
        if status == SUSPECT:
            if state.status == DEAD:
                return False
            return incarnation > state.incarnation or (
                incarnation == state.incarnation and state.status == ALIVE
            )
        if status == DEAD:
            return state.status != DEAD and incarnation >= state.incarnation
        raise ValueError(f"unknown membership status {status!r}")

    def apply(
        self, update: MembershipUpdate, now: float
    ) -> Optional[MembershipTransition]:
        if update.node == self.node_id:
            raise ValueError("self-updates are handled by the detector")
        state = self._members.get(update.node)
        if state is None or not self._accepts(state, update.status, update.incarnation):
            return None
        state.status = update.status
        state.incarnation = update.incarnation
        self._alive_cache = None
        self.enqueue(update.node, update.status, update.incarnation)
        return self._record(update.node, update.status, update.incarnation, now)

    def observe_contact(self, peer: int, now: float) -> Optional[Tuple[str, int]]:
        state = self._members.get(peer)
        if state is None or state.status == ALIVE:
            return None
        accusation = (state.status, state.incarnation)
        state.status = ALIVE
        self._alive_cache = None
        self._record(peer, ALIVE, state.incarnation, now)
        return accusation

    def refute(self, accused_incarnation: int) -> int:
        self.incarnation = accused_incarnation + 1
        self.refutations += 1
        self.enqueue(self.node_id, ALIVE, self.incarnation)
        return self.incarnation

    def _record(
        self, subject: int, status: str, incarnation: int, now: float
    ) -> MembershipTransition:
        transition = MembershipTransition(
            time=now,
            observer=self.node_id,
            subject=subject,
            status=status,
            incarnation=incarnation,
        )
        self.transitions.append(transition)
        for listener in self.listeners:
            listener(transition)
        return transition

    def enqueue(self, node: int, status: str, incarnation: int) -> None:
        self._pending[node] = _DensePending(status, incarnation, self._gossip_budget)

    def select_updates(self, max_updates: int) -> Tuple[MembershipUpdate, ...]:
        if not self._pending or max_updates <= 0:
            return ()
        order = sorted(
            self._pending.items(), key=lambda item: (-item[1].remaining, item[0])
        )
        picked: List[MembershipUpdate] = []
        for node, pending in order[:max_updates]:
            picked.append(MembershipUpdate(node, pending.status, pending.incarnation))
            pending.remaining -= 1
            if pending.remaining <= 0:
                del self._pending[node]
        return tuple(picked)


#: Ids 1..8 may be roster members; 9..11 never are (strangers).
SUBJECTS = st.integers(1, 11)
STATUSES = st.sampled_from([ALIVE, SUSPECT, DEAD])
INCARNATIONS = st.integers(0, 4)

OPERATIONS = st.one_of(
    st.tuples(st.just("apply"), SUBJECTS, STATUSES, INCARNATIONS),
    st.tuples(st.just("contact"), SUBJECTS),
    st.tuples(st.just("refute"), INCARNATIONS),
    st.tuples(st.just("select"), st.integers(0, 4)),
    st.tuples(st.just("enqueue"), st.integers(0, 11), STATUSES, INCARNATIONS),
)


def _apply_op(view, op, now):
    kind = op[0]
    if kind == "apply":
        return view.apply(MembershipUpdate(op[1], op[2], op[3]), now)
    if kind == "contact":
        return view.observe_contact(op[1], now)
    if kind == "refute":
        return view.refute(op[1])
    if kind == "select":
        return view.select_updates(op[1])
    return view.enqueue(op[1], op[2], op[3])


def _snapshot(view):
    return (
        [(s, view.status_of(s), view.incarnation_of(s)) for s in range(0, 12)],
        list(view.alive_peers()),
        view.non_dead_peers(),
        list(view.transitions),
        view.incarnation,
        view.refutations,
        view.has_pending_updates,
    )


class TestSparseMatchesDense:
    @settings(max_examples=300, deadline=None)
    @given(
        members=st.lists(st.integers(1, 8), unique=True, max_size=8),
        initial_incarnation=st.integers(0, 2),
        gossip_budget=st.integers(1, 3),
        ops=st.lists(OPERATIONS, max_size=40),
    )
    def test_every_step_agrees(self, members, initial_incarnation, gossip_budget, ops):
        node = 0
        roster = Roster(sorted([node, *members]))
        sparse = MemberView(
            node,
            roster.others(node),
            initial_incarnation=initial_incarnation,
            gossip_budget=gossip_budget,
        )
        dense = DenseMemberView(
            node,
            list(members),
            initial_incarnation=initial_incarnation,
            gossip_budget=gossip_budget,
        )
        assert len(sparse._members) == 0
        assert _snapshot(sparse) == _snapshot(dense)
        for step, op in enumerate(ops):
            now = float(step)
            assert _apply_op(sparse, op, now) == _apply_op(dense, op, now)
            assert _snapshot(sparse) == _snapshot(dense)

    def test_records_only_deviating_roster_members(self):
        roster = Roster(range(6))
        view = MemberView(0, roster.others(0))
        assert view.alive_peers() is view._peers
        view.apply(MembershipUpdate(3, SUSPECT, 0), now=1.0)
        view.apply(MembershipUpdate(42, DEAD, 0), now=1.0)  # a stranger
        view.apply(MembershipUpdate(4, ALIVE, 0), now=1.0)  # no change
        assert sorted(view._members) == [3]
        assert list(view.alive_peers()) == [1, 2, 4, 5]
        view.observe_contact(3, now=2.0)
        assert list(view.alive_peers()) == [1, 2, 3, 4, 5]
        assert view.alive_peers() is view._peers
