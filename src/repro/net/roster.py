"""The shared peer roster: one immutable id list for a whole cluster.

Every Penelope node discovers peers among "every other node" (§3.1),
and every SWIM view starts from the same member list.  Storing that
list once per node costs O(n²) set-up time and memory; a
:class:`Roster` stores it once per cluster, and :meth:`Roster.others`
hands each node an O(1)-size :class:`PeerView` that skips the node's
own position by index arithmetic.  Views keep the roster's order, so a
view behaves exactly like the list ``[p for p in ids if p != node]``.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union, overload

__all__ = ["PeerView", "Roster"]


class Roster:
    """An immutable, duplicate-free sequence of node ids."""

    __slots__ = ("ids", "_position")

    def __init__(self, ids: Iterable[int]) -> None:
        self.ids: Tuple[int, ...] = tuple(ids)
        self._position: Dict[int, int] = {node: i for i, node in enumerate(self.ids)}
        if len(self._position) != len(self.ids):
            raise ValueError("roster ids must be unique")

    def sorted(self) -> "Roster":
        """This roster in ascending id order (``self`` if it already is)."""
        ids = self.ids
        if all(a < b for a, b in zip(ids, ids[1:])):
            return self
        return Roster(sorted(ids))

    def others(self, node: int) -> "PeerView":
        """Every id except ``node``, in roster order (all ids if absent)."""
        return PeerView(self, node)


class PeerView(Sequence[int]):
    """A roster minus one node: O(1) size, shared backing tuple."""

    __slots__ = ("roster", "node", "_skip", "_len")

    def __init__(self, roster: Roster, node: int) -> None:
        self.roster = roster
        self.node = node
        self._skip: Optional[int] = roster._position.get(node)
        self._len = len(roster.ids) - (self._skip is not None)

    def __len__(self) -> int:
        return self._len

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> Sequence[int]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[int, Sequence[int]]:
        if isinstance(index, slice):
            return tuple(self)[index]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("peer view index out of range")
        skip = self._skip
        if skip is not None and index >= skip:
            index += 1
        return self.roster.ids[index]

    def __iter__(self) -> Iterator[int]:
        ids = self.roster.ids
        skip = self._skip
        if skip is None:
            return iter(ids)
        return chain(islice(ids, skip), islice(ids, skip + 1, None))

    def __contains__(self, node: object) -> bool:
        return node != self.node and node in self.roster._position
