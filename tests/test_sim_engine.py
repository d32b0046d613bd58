"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from dataclasses import asdict

from repro.sim.config import SimConfig
from repro.sim.engine import Engine, SimulationError, run_callable_at
from repro.sim.events import Event
from repro.sim.schedulers import HeapScheduler
from tests.conftest import SIM


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0, sim=SIM).now == 5.0

    def test_timeout_advances_clock(self, engine):
        engine.timeout(2.5)
        engine.run()
        assert engine.now == 2.5

    def test_run_until_number_advances_exactly(self, engine):
        engine.timeout(1.0)
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_run_until_past_raises(self, engine):
        engine.timeout(5.0)
        engine.run()
        with pytest.raises(ValueError):
            engine.run(until=1.0)

    def test_peek_empty_queue_is_inf(self, engine):
        assert engine.peek() == float("inf")

    def test_peek_reports_next_event_time(self, engine):
        engine.timeout(3.0)
        engine.timeout(1.0)
        assert engine.peek() == pytest.approx(1.0)

    def test_step_on_empty_queue_raises(self, engine):
        with pytest.raises(IndexError):
            engine.step()


class TestOrdering:
    def test_events_process_in_time_order(self, engine):
        order = []
        for delay in (3.0, 1.0, 2.0):
            def proc(delay=delay):
                yield engine.timeout(delay)
                order.append(delay)
            engine.process(proc())
        engine.run()
        assert order == [1.0, 2.0, 3.0]

    def test_simultaneous_events_process_in_trigger_order(self, engine):
        order = []
        for tag in ("a", "b", "c"):
            def proc(tag=tag):
                yield engine.timeout(1.0)
                order.append(tag)
            engine.process(proc())
        engine.run()
        assert order == ["a", "b", "c"]

    def test_deterministic_event_count(self, engine):
        for _ in range(10):
            engine.timeout(1.0)
        engine.run()
        assert engine.processed_events == 10


class TestRunUntilEvent:
    def test_returns_event_value(self, engine):
        def worker():
            yield engine.timeout(2.0)
            return 42
        proc = engine.process(worker())
        assert engine.run(until=proc) == 42
        assert engine.now == 2.0

    def test_raises_event_failure(self, engine):
        def worker():
            yield engine.timeout(1.0)
            raise ValueError("boom")
        proc = engine.process(worker())
        with pytest.raises(ValueError, match="boom"):
            engine.run(until=proc)

    def test_already_processed_event_returns_immediately(self, engine):
        event = engine.event()
        event.succeed("done")
        engine.run()
        assert engine.run(until=event) == "done"

    def test_queue_drain_before_event_raises(self, engine):
        event = engine.event()  # never triggered
        engine.timeout(1.0)
        with pytest.raises(SimulationError, match="drained"):
            engine.run(until=event)


class TestFailurePropagation:
    def test_unhandled_event_failure_raises_simulation_error(self, engine):
        event = engine.event()
        event.fail(RuntimeError("unwatched"))
        with pytest.raises(SimulationError):
            engine.run()

    def test_failure_delivered_to_process_is_defused(self, engine):
        event = engine.event()

        def watcher():
            try:
                yield event
            except RuntimeError:
                return "caught"
        proc = engine.process(watcher())
        event.fail(RuntimeError("x"))
        engine.run()
        assert proc.value == "caught"


class TestRunCallableAt:
    def test_runs_at_requested_time(self, engine):
        seen = []
        run_callable_at(engine, 4.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.0]

    def test_past_time_rejected(self, engine):
        engine.timeout(2.0)
        engine.run()
        with pytest.raises(ValueError):
            run_callable_at(engine, 1.0, lambda: None)

    def test_negative_delay_scheduling_rejected(self, engine):
        event = Event(engine)
        with pytest.raises(ValueError):
            engine._schedule(event, delay=-1.0)


class TestFactories:
    def test_event_factory(self, engine):
        event = engine.event(name="e")
        assert not event.triggered and event.name == "e"

    def test_timeout_factory_value(self, engine):
        timeout = engine.timeout(1.0, value="v")

        def waiter():
            got = yield timeout
            return got
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == "v"

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-0.1)


class TestRunUntilHorizon:
    """Micro-regressions for run(until=<number>) boundary behavior:
    events exactly at the horizon, and heads whose entries are all
    cancelled.
    """

    def test_event_exactly_at_horizon_is_processed(self):
        engine = Engine(sim=SIM)
        fired = []
        engine.call_later(5.0, fired.append, "at-horizon")
        engine.call_later(5.000001, fired.append, "past-horizon")
        engine.run(until=5.0)
        assert fired == ["at-horizon"]
        assert engine.now == 5.0

    def test_empty_queue_still_advances_clock_to_until(self):
        engine = Engine(sim=SIM)
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_events_past_horizon_stay_queued(self):
        engine = Engine(sim=SIM)
        fired = []
        engine.call_later(10.0, fired.append, "later")
        engine.run(until=5.0)
        assert fired == [] and len(engine.scheduler) == 1
        engine.run(until=10.0)
        assert fired == ["later"]

    def test_peek_skips_a_fully_cancelled_bucket_head(self):
        engine = Engine(sim=SIM)
        # Several same-time entries at the queue head, all cancelled:
        # peek() must lazily discard the whole cluster and report the
        # first live entry behind it.
        doomed = [engine.timeout(1.0) for _ in range(3)]
        survivor_at = 2.0
        engine.timeout(survivor_at)
        for timeout in doomed:
            timeout.cancel()
        assert engine.peek() == survivor_at
        assert engine.cancelled_events == 3
        engine.run()
        assert engine.now == survivor_at

    def test_run_until_horizon_counts_cancelled_entries(self):
        engine = Engine(sim=SIM)
        cancelled = engine.timeout(3.0)
        engine.call_later(1.0, cancelled.cancel)
        engine.call_later(4.0, lambda: None)
        engine.run(until=6.0)
        assert engine.cancelled_events == 1
        assert engine.now == 6.0


class TestNanDelaysRejected:
    """NaN compares false against everything, so ``delay < 0`` let it
    through.  A NaN entry breaks the heap's total order: a queued event
    behind it could silently never fire."""

    @pytest.mark.parametrize(
        "schedule",
        [
            pytest.param(lambda e: e._schedule(Event(e), float("nan")), id="schedule"),
            pytest.param(lambda e: Event(e).succeed(delay=float("nan")), id="succeed"),
            pytest.param(
                lambda e: Event(e).fail(RuntimeError("x"), delay=float("nan")), id="fail"
            ),
            pytest.param(lambda e: e.timeout(float("nan")), id="timeout"),
            pytest.param(lambda e: e.call_later(float("nan"), print), id="callback"),
        ],
    )
    def test_nan_delay_raises(self, engine, schedule):
        with pytest.raises(ValueError):
            schedule(engine)
        assert len(engine.scheduler) == 0

    def test_nan_horizon_raises(self, engine):
        with pytest.raises(ValueError):
            engine.run(until=float("nan"))

    def test_infinite_delay_still_allowed(self, engine):
        engine.timeout(float("inf"))
        engine.call_later(1.0, lambda: None)
        engine.run(until=5.0)
        assert engine.now == 5.0 and engine.peek() == float("inf")


class TestSimConfig:
    def test_heap_is_the_only_scheduler_name(self):
        for name in (None, "heap"):
            sim = SimConfig(scheduler=name, batched_ticks=True)
            assert isinstance(sim.make_scheduler(), HeapScheduler)
            assert sim.effective_batched_ticks() is True
        assert asdict(SimConfig(scheduler="heap", batched_ticks=False)) == {
            "scheduler": "heap", "batched_ticks": False, "tick_slots": 16,
        }

    @pytest.mark.parametrize("name", ["calendar", "", "Heap"])
    def test_any_other_name_fails_loudly(self, name):
        with pytest.raises(ValueError, match="unknown scheduler"):
            SimConfig(scheduler=name)

    def test_engine_takes_kernel_knobs_from_sim(self):
        engine = Engine(sim=SimConfig(batched_ticks=True, tick_slots=4))
        assert engine.batched_ticks is True and engine.tick_slots == 4
        assert isinstance(engine.scheduler, HeapScheduler)
