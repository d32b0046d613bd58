"""Typed messages exchanged by deciders, pools and the central server.

All power-management traffic in both Penelope and the SLURM-style manager
is expressed with these four message types:

* :class:`PowerRequest` -- a power-hungry decider asking a pool/server for
  power; carries the urgency flag and, when urgent, the amount ``alpha``
  needed to return to the initial cap (Algorithm 1).
* :class:`PowerGrant` -- the response carrying the granted amount ``delta``
  (Algorithm 2).
* :class:`GrantAck` -- the requester's receipt for a :class:`PowerGrant`;
  settles the donor pool's escrow entry so unacknowledged grants can be
  refunded instead of leaking (fault-tolerant transfer).
* :class:`ExcessReport` -- a decider depositing freed power (SLURM clients
  report excess to the server; in Penelope deposits are local and need no
  message).
* :class:`ReleaseDirective` -- the centralized-urgency signal with which
  SLURM's server induces non-urgent clients to release power down to their
  initial cap (§4.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

_MESSAGE_COUNTER = itertools.count(1)


def next_message_id() -> int:
    """A process-unique, monotonically increasing message id."""
    return next(_MESSAGE_COUNTER)


class Addr(NamedTuple):
    """A network endpoint: a (node, port) pair.

    A node hosts several logical endpoints -- e.g. a Penelope node runs a
    local decider and a power pool, each with its own inbox -- so messages
    are addressed to ``Addr(node_id, port_name)``.
    """

    node: int
    port: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.node}:{self.port}"


#: Conventional port names.
PORT_DECIDER = "decider"
PORT_POOL = "pool"
PORT_SERVER = "server"
PORT_MEMBERSHIP = "membership"

#: Membership status values carried by :class:`MembershipUpdate` (defined
#: here, next to the payload type, so the pool/decider integrations never
#: need a runtime import of :mod:`repro.membership`).
MEMBER_ALIVE = "alive"
MEMBER_SUSPECT = "suspect"
MEMBER_DEAD = "dead"


@dataclass(frozen=True, slots=True)
class MembershipUpdate:
    """One gossiped membership fact: ``node`` is ``status`` at ``incarnation``.

    The payload unit of the SWIM-style failure detector
    (:mod:`repro.membership`).  Updates ride as piggyback on any message
    (the ``gossip`` field of :class:`Message`) and inside dedicated
    gossip messages; receivers merge them into their local view under
    the incarnation-precedence rules documented in
    ``docs/ARCHITECTURE.md``.  ``status`` is one of ``"alive"``,
    ``"suspect"`` or ``"dead"``; ``incarnation`` is the subject's
    self-owned epoch counter (only the subject itself ever bumps it, by
    refuting a suspicion or rejoining).
    """

    node: int
    status: str
    incarnation: int


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for all network messages.

    Messages are immutable value objects (``frozen=True``, enforced
    statically by lint rule R4): once constructed, the sender's copy can
    never change under the feet of whoever holds a reference.

    Attributes
    ----------
    src, dst:
        Endpoint addresses (:class:`Addr`).
    msg_id:
        Unique id, used to correlate requests and replies.
    gossip:
        Optional piggybacked membership updates (empty unless the
        sender's failure detector has pending dissemination).  Senders
        stamp the payload onto an already-built message with
        ``dataclasses.replace`` -- same ``msg_id``, so request/reply
        correlation is unaffected and lint R4's immutability contract
        holds.
    """

    src: Addr
    dst: Addr
    msg_id: int = field(default_factory=next_message_id)
    gossip: Tuple[MembershipUpdate, ...] = ()

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class PowerRequest(Message):
    """Ask ``dst`` for power.

    ``urgent`` requests bypass the pool's transaction-size limit and carry
    ``alpha`` -- the wattage needed for the requester to return to its
    initial cap.
    """

    urgent: bool = False
    alpha: float = 0.0
    #: The requester's decider-iteration index, for diagnostics.
    iteration: int = -1

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha!r}")
        if not self.urgent and self.alpha != 0.0:
            raise ValueError("alpha is only meaningful on urgent requests")


@dataclass(frozen=True, slots=True)
class PowerGrant(Message):
    """Reply to a :class:`PowerRequest` carrying ``delta`` watts."""

    delta: float = 0.0
    reply_to: Optional[int] = None
    #: True if the grant answers an urgent request (diagnostics only).
    urgent: bool = False

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta!r}")


@dataclass(frozen=True, slots=True)
class GrantAck(Message):
    """Acknowledge receipt of a :class:`PowerGrant`.

    ``reply_to`` is the grant's ``msg_id``; ``delta`` echoes the granted
    watts (diagnostics -- the pool's escrow entry is keyed by id alone).
    The donor pool holds every positive grant in escrow until this ack
    arrives; an escrow whose deadline passes unacked is refunded into the
    donor pool, so a grant dropped in flight never destroys budget.
    """

    reply_to: Optional[int] = None
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta!r}")


@dataclass(frozen=True, slots=True)
class ExcessReport(Message):
    """Deposit ``delta`` watts of freed power with ``dst`` (SLURM server)."""

    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError(f"excess must be positive, got {self.delta!r}")


@dataclass(frozen=True, slots=True)
class ReleaseDirective(Message):
    """Centralized urgency: server tells ``dst`` to fall back to its
    initial cap and surrender the excess."""

    #: Id of the urgent node on whose behalf the directive was issued
    #: (diagnostics only).
    on_behalf_of: int = -1


__all__ = [
    "Addr",
    "ExcessReport",
    "GrantAck",
    "MEMBER_ALIVE",
    "MEMBER_DEAD",
    "MEMBER_SUSPECT",
    "MembershipUpdate",
    "Message",
    "PORT_DECIDER",
    "PORT_MEMBERSHIP",
    "PORT_POOL",
    "PORT_SERVER",
    "PowerGrant",
    "PowerRequest",
    "ReleaseDirective",
    "next_message_id",
]
