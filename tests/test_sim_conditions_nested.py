"""Edge-case tests: nested waits, gate races, process chains."""

from __future__ import annotations

from repro.sim.events import FirstOf
from repro.sim.resources import Gate, Store


class TestNestedConditions:
    def test_condition_of_conditions(self, engine):
        b = engine.timeout(2.0, "b")
        c = engine.timeout(3.0, "c")
        d = engine.timeout(5.0, "d")

        def waiter():
            yield FirstOf(engine, FirstOf(engine, b, c), d)
            return engine.now
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == 2.0  # the inner wait wins at t=2 before d at t=5

    def test_condition_with_process_members(self, engine):
        def worker(delay, value):
            yield engine.timeout(delay)
            return value
        p1 = engine.process(worker(1.0, "x"))
        p2 = engine.process(worker(2.0, "y"))

        def waiter():
            yield FirstOf(engine, p2, p1)
            return (engine.now, p1.value, p2.processed)
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (1.0, "x", False)

    def test_process_member_failure_propagates(self, engine):
        def crasher():
            yield engine.timeout(1.0)
            raise ValueError("worker crashed")

        member = engine.process(crasher())

        def waiter():
            try:
                yield FirstOf(engine, engine.timeout(5.0), member)
            except ValueError as exc:
                return (engine.now, str(exc))
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == (1.0, "worker crashed")


class TestProcessChains:
    def test_deep_chain_of_waiting_processes(self, engine):
        def leaf():
            yield engine.timeout(1.0)
            return 1

        def wrap(inner):
            value = yield inner
            return value + 1

        proc = engine.process(leaf())
        for _ in range(10):
            proc = engine.process(wrap(proc))
        engine.run()
        assert proc.value == 11

    def test_many_processes_waiting_on_one_event(self, engine):
        event = engine.event()
        results = []

        def waiter(tag):
            value = yield event
            results.append((tag, value))
        for tag in range(20):
            engine.process(waiter(tag))

        def trigger():
            yield engine.timeout(2.0)
            event.succeed("go")
        engine.process(trigger())
        engine.run()
        assert len(results) == 20
        assert all(value == "go" for _, value in results)


class TestGateEdgeCases:
    def test_reset_between_waves_of_waiters(self, engine):
        gate = Gate(engine)
        log = []

        def waiter(tag):
            yield gate.wait()
            log.append((tag, engine.now))

        engine.process(waiter("first"))

        def script():
            yield engine.timeout(1.0)
            gate.open()
            gate.reset()
            engine.process(waiter("second"))
            yield engine.timeout(1.0)
            gate.open()
        engine.process(script())
        engine.run()
        assert ("first", 1.0) in log
        assert ("second", 2.0) in log


class TestStoreInterleavings:
    def test_producer_consumer_with_bounded_buffer(self, engine):
        store = Store(engine, capacity=2)
        produced, consumed, dropped = [], [], []

        def producer():
            for item in range(10):
                yield engine.timeout(0.1)
                if store.try_put(item):
                    produced.append(item)
                else:
                    dropped.append(item)

        def consumer():
            from repro.sim.process import Interrupt

            try:
                while True:
                    value = yield store.get()
                    consumed.append(value)
                    yield engine.timeout(0.35)  # slower than the producer
            except Interrupt:
                return

        engine.process(producer())
        consumer_proc = engine.process(consumer())
        engine.run(until=10.0)
        consumer_proc.interrupt()
        engine.run()
        assert len(dropped) > 0  # backpressure really happened
        assert consumed == produced[: len(consumed)]  # order preserved
        assert set(consumed) | set(dropped) | set(store.drain()) == set(
            produced + dropped
        )
