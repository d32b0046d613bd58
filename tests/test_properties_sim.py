"""Property-based tests: simulation kernel invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.resources import Store
from tests.conftest import SIM

delays = st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=30)


class TestClockMonotonicity:
    @given(delays=delays)
    @settings(max_examples=80, deadline=None)
    def test_events_observe_nondecreasing_time(self, delays):
        engine = Engine(sim=SIM)
        observed = []
        for delay in delays:
            def proc(delay=delay):
                yield engine.timeout(delay)
                observed.append(engine.now)
            engine.process(proc())
        engine.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)
        assert engine.now == max(delays)

    @given(delays=delays)
    @settings(max_examples=40, deadline=None)
    def test_run_until_never_overshoots(self, delays):
        engine = Engine(sim=SIM)
        for delay in delays:
            engine.timeout(delay)
        horizon = max(delays) / 2
        engine.run(until=horizon)
        assert engine.now == horizon


class TestStoreConservation:
    @given(
        capacity=st.integers(1, 10),
        items=st.lists(st.integers(), min_size=0, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_items_are_never_duplicated_or_invented(self, capacity, items):
        engine = Engine(sim=SIM)
        store = Store(engine, capacity=capacity)
        accepted = [item for item in items if store.try_put(item)]
        drained = store.drain()
        assert drained == accepted[: len(drained)]
        assert store.total_put == len(accepted)
        assert store.total_dropped == len(items) - len(accepted)

    @given(items=st.lists(st.integers(), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_fifo_order_preserved_through_getters(self, items):
        engine = Engine(sim=SIM)
        store = Store(engine)
        received = []

        def consumer():
            for _ in items:
                value = yield store.get()
                received.append(value)
        engine.process(consumer())
        for item in items:
            store.put_nowait(item)
        engine.run()
        assert received == items


class TestDeterminism:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identical_runs_produce_identical_traces(self, seed):
        def simulate():
            from repro.sim.rng import RngRegistry

            engine = Engine(sim=SIM)
            rng = RngRegistry(seed=seed).stream("x")
            trace = []
            def proc():
                for _ in range(10):
                    yield engine.timeout(float(rng.uniform(0.1, 1.0)))
                    trace.append(engine.now)
            engine.process(proc())
            engine.run()
            return trace

        assert simulate() == simulate()
