"""Unit tests for events and the FirstOf wait."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError
from repro.sim.events import FirstOf


class TestEventLifecycle:
    def test_initial_state(self, engine):
        event = engine.event()
        assert not event.triggered
        assert not event.processed
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_succeed_sets_value(self, engine):
        event = engine.event()
        event.succeed(7)
        assert event.triggered and event.ok
        assert event.value == 7

    def test_double_succeed_rejected(self, engine):
        event = engine.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_then_succeed_rejected(self, engine):
        event = engine.event()
        event.fail(ValueError("x"))
        event._defused = True
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, engine):
        event = engine.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_processed_after_run(self, engine):
        event = engine.event()
        event.succeed()
        engine.run()
        assert event.processed

    def test_succeed_with_delay_defers_processing(self, engine):
        event = engine.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(engine.now))
        event.succeed(delay=3.0)
        engine.run()
        assert seen == [3.0]

    def test_callbacks_receive_event(self, engine):
        event = engine.event()
        got = []
        event.callbacks.append(got.append)
        event.succeed()
        engine.run()
        assert got == [event]


class TestTimeoutCancel:
    def test_cancelled_timeout_never_runs_callbacks(self, engine):
        fired = []
        timeout = engine.timeout(1.0)
        timeout.callbacks.append(fired.append)
        timeout.cancel()
        engine.run()
        assert fired == []
        assert engine.processed_events == 0
        assert engine.cancelled_events == 1
        # A discarded entry does not advance the clock.
        assert engine.now == 0.0

    def test_cancel_after_processing_rejected(self, engine):
        timeout = engine.timeout(0.0)
        engine.run()
        with pytest.raises(RuntimeError):
            timeout.cancel()

    def test_cancelled_head_purged_by_peek(self, engine):
        doomed = engine.timeout(1.0)
        engine.timeout(2.0)
        doomed.cancel()
        assert engine.peek() == 2.0
        assert engine.cancelled_events == 1

    def test_step_raises_when_only_cancelled_left(self, engine):
        doomed = engine.timeout(1.0)
        doomed.cancel()
        with pytest.raises(IndexError):
            engine.step()

    def test_cancelled_event_between_live_events(self, engine):
        order = []
        first = engine.timeout(1.0, value="first")
        doomed = engine.timeout(2.0)
        last = engine.timeout(3.0, value="last")
        for event in (first, last):
            event.callbacks.append(lambda e: order.append(e.value))
        doomed.cancel()
        engine.run()
        assert order == ["first", "last"]
        assert engine.processed_events == 2
        assert engine.cancelled_events == 1


class TestFirstOf:
    def test_fires_when_first_subevent_processes(self, engine):
        a = engine.timeout(1.0, value="a")
        b = engine.timeout(2.0, value="b")
        wait = FirstOf(engine, a, b)

        def waiter():
            value = yield wait
            return (value, engine.now)

        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (None, 1.0)

    def test_failure_of_first_subevent_propagates(self, engine):
        a = engine.event()
        b = engine.timeout(5.0)
        wait = FirstOf(engine, a, b)

        def waiter():
            try:
                yield wait
            except RuntimeError as exc:
                return str(exc)
            return "no failure"

        proc = engine.process(waiter())
        a.fail(RuntimeError("boom"))
        engine.run()
        assert proc.value == "boom"

    def test_fires_on_first(self, engine):
        # The sub-event processed first wakes the waiter, whichever
        # position it was declared in.
        slow, fast = engine.timeout(5.0, "slow"), engine.timeout(1.0, "fast")

        def waiter():
            value = yield FirstOf(engine, slow, fast)
            return (value, engine.now)

        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (None, 1.0)
        assert fast.processed and slow.processed

    def test_failure_propagates(self, engine):
        # A failure of the second-declared sub-event reaches the waiter
        # when that sub-event is processed first.
        bad = engine.event()

        def waiter():
            try:
                yield FirstOf(engine, engine.timeout(9.0), bad)
            except ValueError as exc:
                return (str(exc), engine.now)
            return "no failure"

        proc = engine.process(waiter())
        bad.fail(ValueError("sub-failure"))
        engine.run()
        assert proc.value == ("sub-failure", 0.0)

    def test_late_subevent_failure_is_defused(self, engine):
        a = engine.timeout(1.0)
        b = engine.event()
        FirstOf(engine, a, b)
        b.fail(RuntimeError("late"), delay=2.0)
        engine.run()  # must not raise SimulationError

    def test_already_processed_subevent(self, engine):
        # A processed sub-event triggers the wait at construction; the
        # still-pending one firing later is ignored.
        done = engine.event()
        done.succeed("early")
        engine.run(until=1.0)
        deadline = engine.timeout(9.0)
        wait = FirstOf(engine, deadline, done)

        def waiter():
            yield wait
            return engine.now

        proc = engine.process(waiter())
        engine.run()
        assert proc.value == 1.0
        assert deadline.processed and engine.now == 10.0

    def test_first_declared_wins_when_both_processed(self, engine):
        bad = engine.event()
        good = engine.event()
        good.succeed()
        bad.fail(RuntimeError("processed failure"))
        with pytest.raises(SimulationError):
            engine.run()  # nobody waited on ``bad``
        assert good.processed and bad.processed and not bad._defused

        def waiter(first, second):
            try:
                yield FirstOf(engine, first, second)
            except RuntimeError as exc:
                return str(exc)
            return "woke"

        woke = engine.process(waiter(good, bad))
        engine.run()
        assert woke.value == "woke"
        assert bad._defused  # a late failure is not lost silently
        bad._defused = False
        failed = engine.process(waiter(bad, good))
        engine.run()
        assert failed.value == "processed failure"
        assert bad._defused
