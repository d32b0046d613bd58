"""Differential test: ``FirstOf`` vs the general two-event ``AnyOf``.

``FirstOf`` replaced the kernel's general ``AnyOf``/``AllOf`` condition
machinery as its one wait primitive.  The oracle below is that deleted
``AnyOf`` (with its ``_Condition`` base and ``ConditionValue``
snapshot), kept as it was.  Both are built over every combination of
sub-event states at construction -- pending (firing later, or never),
triggered but unprocessed, and already processed -- with ok and failed
outcomes and both same-instant firing orders.  A process waits on each
and the runs must agree on the wake time, the outcome, which sub-events
end up defused, and ``engine.processed_events``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import EventBase, FirstOf


class ConditionValue:
    __slots__ = ("_events", "_triggered")

    def __init__(self, events: List[EventBase]) -> None:
        self._events = events
        self._triggered = [e for e in events if e.processed and e.ok]


class _Condition(EventBase):
    __slots__ = ("_events", "_needed")

    def __init__(self, engine: Engine, events: List[EventBase], needed: int) -> None:
        super().__init__(engine)
        self._events = list(events)
        for event in self._events:
            if event.engine is not engine:
                raise ValueError("all condition sub-events must share one engine")
        self._needed = needed
        if needed <= 0:
            self.succeed(ConditionValue(self._events))
            return
        pending = 0
        for event in self._events:
            if event.processed:
                self._check(event, count=False)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)
                pending += 1
        done = sum(1 for e in self._events if e.processed and e.ok)
        if not self.triggered and done >= self._needed:
            self.succeed(ConditionValue(self._events))
        if not self.triggered and pending == 0 and done < self._needed:
            raise RuntimeError("condition can never be satisfied")

    def _check(self, event: EventBase, count: bool = True) -> None:
        if self.triggered:
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        done = sum(1 for e in self._events if e.processed and e.ok)
        if done >= self._needed:
            self.succeed(ConditionValue(self._events))


class AnyOf(_Condition):
    __slots__ = ()

    def __init__(self, engine: Engine, events: List[EventBase]) -> None:
        events = list(events)
        super().__init__(engine, events, needed=min(1, len(events)))


#: A sub-event's state when the wait is built: (kind, delay, ok).
#: ``pending`` events trigger ``delay`` after construction, ``triggered``
#: ones were triggered with that processing delay just before it,
#: ``processed`` ones have already run, ``never`` ones never fire.
STATES: List[Tuple[str, float, bool]] = (
    [("pending", d, ok) for d in (1.0, 2.0) for ok in (True, False)]
    + [("triggered", d, ok) for d in (0.0, 1.0) for ok in (True, False)]
    + [("processed", 0.0, ok) for ok in (True, False)]
    + [("never", 0.0, True)]
)


def _state_id(state: Tuple[str, float, bool]) -> str:
    kind, delay, ok = state
    return f"{kind}-{delay:g}-{'ok' if ok else 'fail'}"


def _trigger(event: EventBase, ok: bool, delay: float = 0.0) -> None:
    if ok:
        event.succeed("value", delay=delay)
    else:
        event.fail(RuntimeError("boom"), delay=delay)


def run_wait(
    make_wait, states: Tuple[Tuple[str, float, bool], ...], swap: bool
) -> Tuple[Any, ...]:
    """Wait on ``make_wait(engine, a, b)`` over sub-events in ``states``.

    ``swap`` reverses the order in which the two pending firings are
    scheduled, which decides who goes first when they share an instant.
    """
    engine = Engine()
    events = [engine.event(), engine.event()]
    for event, (kind, _, ok) in zip(events, states):
        if kind == "processed":
            _trigger(event, ok)
    while True:
        # A processed failure nobody waited on surfaces here, undefused:
        # whether the wait defuses it is part of what is compared.
        try:
            engine.run(until=0.5)
            break
        except SimulationError:
            pass
    for event, (kind, delay, ok) in zip(events, states):
        if kind == "triggered":
            _trigger(event, ok, delay)
    order = [1, 0] if swap else [0, 1]
    for index in order:
        kind, delay, ok = states[index]
        if kind == "pending":
            engine.call_later(delay, _trigger, events[index], ok)
    wait = make_wait(engine, events[0], events[1])

    def waiter():
        try:
            yield wait
        except RuntimeError as exc:
            return ("failed", str(exc), engine.now)
        return ("woke", engine.now)

    process = engine.process(waiter())
    try:
        engine.run()
        error: Optional[str] = None
    except SimulationError as exc:
        error = str(exc)
    outcome = process.value if process.triggered else None
    return (
        outcome,
        error,
        [event._defused for event in events],
        engine.processed_events,
        engine.now,
    )


def _any_of(engine: Engine, a: EventBase, b: EventBase) -> EventBase:
    return AnyOf(engine, [a, b])


@pytest.mark.parametrize("second", STATES, ids=_state_id)
@pytest.mark.parametrize("first", STATES, ids=_state_id)
def test_first_of_matches_any_of(first, second):
    for swap in (False, True):
        expected = run_wait(_any_of, (first, second), swap)
        assert run_wait(FirstOf, (first, second), swap) == expected

