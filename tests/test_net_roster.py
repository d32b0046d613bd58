"""Differential tests: a roster view behaves exactly like the list copy.

The oracle is the per-node list every decider and detector used to
build, ``[p for p in ids if p != node]``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.roster import Roster

#: Unsorted, duplicate-free id lists, including the empty roster.
ids_lists = st.lists(st.integers(-50, 50), unique=True, max_size=12)


@st.composite
def roster_and_node(draw):
    """A roster plus a node that is a member, or (sometimes) absent."""
    ids = draw(ids_lists)
    node = draw(st.sampled_from(ids) if ids and draw(st.booleans()) else st.integers(-60, 60))
    return ids, node


class TestOthersMatchesListCopy:
    @given(roster_and_node())
    def test_len_list_and_iteration(self, case):
        ids, node = case
        view = Roster(ids).others(node)
        expected = [p for p in ids if p != node]
        assert len(view) == len(expected)
        assert list(view) == expected
        assert bool(view) == bool(expected)

    @given(roster_and_node())
    def test_every_index_including_negative(self, case):
        ids, node = case
        view = Roster(ids).others(node)
        expected = [p for p in ids if p != node]
        for index in range(-len(expected), len(expected)):
            assert view[index] == expected[index]
        for index in (len(expected), len(expected) + 3, -len(expected) - 1):
            with pytest.raises(IndexError):
                view[index]

    @given(roster_and_node(), st.integers(-60, 60))
    def test_membership(self, case, stranger):
        ids, node = case
        view = Roster(ids).others(node)
        expected = [p for p in ids if p != node]
        for member in ids:
            assert (member in view) == (member in expected)
        assert node not in view
        assert (stranger in view) == (stranger in expected)

    @given(roster_and_node())
    def test_slices_match(self, case):
        ids, node = case
        view = Roster(ids).others(node)
        expected = [p for p in ids if p != node]
        assert list(view[1:]) == expected[1:]
        assert list(view[::-2]) == expected[::-2]


class TestRosterEdges:
    def test_empty_roster(self):
        view = Roster(()).others(0)
        assert len(view) == 0
        assert list(view) == []
        assert 0 not in view
        with pytest.raises(IndexError):
            view[0]

    def test_single_node_roster(self):
        roster = Roster([7])
        assert list(roster.others(7)) == []
        assert list(roster.others(3)) == [7]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Roster([1, 2, 1])

    def test_views_share_one_backing_tuple(self):
        roster = Roster([3, 1, 2])
        assert roster.others(1).roster.ids is roster.others(3).roster.ids

    @given(ids_lists)
    def test_sorted(self, ids):
        roster = Roster(ids)
        assert roster.sorted().ids == tuple(sorted(ids))
        if list(ids) == sorted(ids):
            assert roster.sorted() is roster
