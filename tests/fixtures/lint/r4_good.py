"""R4 fixture: frozen messages and replace()-based updates."""

from dataclasses import dataclass, replace

from repro.net.messages import Message


@dataclass(frozen=True, slots=True)
class FrozenPing(Message):
    payload: float = 0.0


@dataclass(slots=True)
class NotAMessage:  # plain dataclasses outside messages.py are fine
    cursor: int = 0


def piggyback(message, updates):
    return replace(message, gossip=updates)  # immutable update: allowed


class Carrier:
    def __init__(self) -> None:
        # 'self.msg_id' on a non-message class is that class's own
        # business -- only foreign-object writes are flagged.
        self.msg_id = 0
