"""R4 fixture: unfrozen message dataclasses and post-construction writes."""

from dataclasses import dataclass

from repro.net.messages import Message


@dataclass(slots=True)
class UnfrozenPing(Message):  # line 9: R4 (missing frozen=True)
    payload: float = 0.0


@dataclass
class BarePing(Message):  # line 14: R4 (bare decorator, not frozen)
    payload: float = 0.0


def bad_bump_id(message) -> None:
    message.msg_id += 1  # line 19: R4


def bad_rewrite_id(message) -> None:
    message.msg_id = 0  # line 23: R4
