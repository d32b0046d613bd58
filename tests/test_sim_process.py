"""Unit tests for processes and interrupts."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Interrupt, Process
from tests.conftest import SIM


class TestProcessBasics:
    def test_return_value_becomes_event_value(self, engine):
        def worker():
            yield engine.timeout(1.0)
            return "result"
        proc = engine.process(worker())
        engine.run()
        assert proc.value == "result"

    def test_process_is_waitable(self, engine):
        def inner():
            yield engine.timeout(2.0)
            return 10

        def outer():
            value = yield engine.process(inner())
            return value * 2
        proc = engine.process(outer())
        engine.run()
        assert proc.value == 20

    def test_non_generator_rejected(self, engine):
        with pytest.raises(TypeError):
            Process(engine, lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_fails_process(self, engine):
        def worker():
            yield 42  # type: ignore[misc]
        proc = engine.process(worker())
        with pytest.raises(SimulationError):
            engine.run()
        assert not proc.ok

    def test_exception_escaping_fails_process(self, engine):
        def worker():
            yield engine.timeout(1.0)
            raise KeyError("gone")
        proc = engine.process(worker())
        with pytest.raises(SimulationError):
            engine.run()
        assert isinstance(proc.value, KeyError)

    def test_is_alive_transitions(self, engine):
        def worker():
            yield engine.timeout(1.0)
        proc = engine.process(worker())
        assert proc.is_alive
        engine.run()
        assert not proc.is_alive

    def test_already_processed_event_resumes_inline(self, engine):
        done = engine.event()
        done.succeed("x")
        engine.run()

        def worker():
            value = yield done
            return value
        proc = engine.process(worker())
        engine.run()
        assert proc.value == "x"

    def test_active_process_visible_during_execution(self, engine):
        seen = []

        def worker():
            seen.append(engine.active_process)
            yield engine.timeout(1.0)
        proc = engine.process(worker())
        engine.run()
        assert seen == [proc]
        assert engine.active_process is None

    def test_cross_engine_yield_fails(self, engine):
        other = Engine(sim=SIM)

        def worker():
            yield other.timeout(1.0)
        proc = engine.process(worker())
        with pytest.raises(SimulationError):
            engine.run()
        assert not proc.ok


class TestInterrupt:
    def test_interrupt_delivers_cause(self, engine):
        def sleeper():
            try:
                yield engine.timeout(100.0)
            except Interrupt as interrupt:
                return interrupt.cause
        proc = engine.process(sleeper())

        def killer():
            yield engine.timeout(1.0)
            proc.interrupt("reason")
        engine.process(killer())
        engine.run()
        assert proc.value == "reason"

    def test_interrupt_detaches_from_target(self, engine):
        target = engine.event()

        def sleeper():
            try:
                yield target
            except Interrupt:
                return "interrupted"
        proc = engine.process(sleeper())

        def killer():
            yield engine.timeout(1.0)
            proc.interrupt()
        engine.process(killer())
        engine.run(until=2.0)
        assert proc.value == "interrupted"
        # The abandoned target can still fire without error.
        target.succeed()
        engine.run()

    def test_interrupting_finished_process_raises(self, engine):
        def worker():
            yield engine.timeout(1.0)
        proc = engine.process(worker())
        engine.run()
        with pytest.raises(RuntimeError):
            proc.interrupt()

    def test_interrupting_uninitialized_process_raises(self, engine):
        def worker():
            yield engine.timeout(1.0)
        proc = engine.process(worker())
        assert proc.is_initializing
        with pytest.raises(RuntimeError):
            proc.interrupt()

    def test_uncaught_interrupt_fails_process(self, engine):
        def sleeper():
            yield engine.timeout(100.0)
        proc = engine.process(sleeper())

        def killer():
            yield engine.timeout(1.0)
            proc.interrupt("boom")
        engine.process(killer())
        with pytest.raises(SimulationError):
            engine.run()
        assert isinstance(proc.value, Interrupt)

    def test_interrupted_process_can_continue(self, engine):
        log = []

        def sleeper():
            try:
                yield engine.timeout(100.0)
            except Interrupt:
                log.append(("interrupted", engine.now))
            yield engine.timeout(5.0)
            log.append(("done", engine.now))
        proc = engine.process(sleeper())

        def killer():
            yield engine.timeout(1.0)
            proc.interrupt()
        engine.process(killer())
        engine.run(until=proc)
        assert log == [("interrupted", 1.0), ("done", 6.0)]

    def test_interrupt_cause_default_none(self, engine):
        assert Interrupt().cause is None
        assert Interrupt("x").cause == "x"
