"""Property-based tests: message and energy conservation."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.messages import PORT_DECIDER, PORT_POOL, Addr, PowerRequest
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry
from tests.conftest import SIM


class TestMessageConservation:
    @given(
        sends=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=50,
        ),
        attached=st.sets(st.integers(0, 4)),
        dead=st.sets(st.integers(0, 4)),
        capacity=st.integers(1, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_message_delivered_or_counted_dropped(
        self, sends, attached, dead, capacity
    ):
        engine = Engine(sim=SIM)
        rngs = RngRegistry(seed=1)
        network = Network(
            engine, Topology(5, latency=LatencyModel(sigma=0.0)), rngs.stream("n")
        )
        for node in attached:
            network.attach(Addr(node, PORT_POOL), Store(engine, capacity=capacity))
        for node in dead:
            network.mark_dead(node)
        for src, dst in sends:
            network.send(
                PowerRequest(src=Addr(src, PORT_DECIDER), dst=Addr(dst, PORT_POOL))
            )
        engine.run()
        stats = network.stats
        assert stats.sent == len(sends)
        assert stats.delivered + stats.dropped == stats.sent
        delivered_into_inboxes = sum(
            len(network.inbox_of(Addr(node, PORT_POOL)) or [])
            for node in attached
        )
        assert delivered_into_inboxes == stats.delivered


class TestRaplEnergyConservation:
    @given(
        steps=st.lists(
            st.tuples(st.floats(0.01, 5.0), st.floats(0.0, 400.0)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_windowed_reads_reconstruct_total_energy(self, steps):
        """Sum of (read average x window) == exact integral of the
        piecewise-constant consumption, regardless of read timing."""
        engine = Engine(sim=SIM)
        rapl = SimulatedRapl(
            engine,
            SKYLAKE_6126_NODE,
            np.random.default_rng(0),
            enforcement_delay_s=(0.0, 0.0),
            reading_noise=0.0,
        )
        rapl.read_power()  # anchor the first window
        exact = 0.0
        reconstructed = 0.0
        last_read_at = engine.now
        for dt, power in steps:
            rapl.set_consumption(power)
            engine.run(until=engine.now + dt)
            exact += power * dt
            window = engine.now - last_read_at
            reconstructed += rapl.read_power() * window
            last_read_at = engine.now
        assert reconstructed == pytest_approx(exact)

    @given(
        caps=st.lists(st.floats(0.0, 400.0), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_requested_cap_always_safe(self, caps):
        engine = Engine(sim=SIM)
        rapl = SimulatedRapl(
            engine, SKYLAKE_6126_NODE, np.random.default_rng(0)
        )
        spec = SKYLAKE_6126_NODE
        for cap in caps:
            actual = rapl.set_cap(cap)
            assert spec.is_safe_cap(actual)
            assert rapl.cap_w == actual
        engine.run()
        assert spec.is_safe_cap(rapl.effective_cap_w)


def pytest_approx(value):
    import pytest

    return pytest.approx(value, rel=1e-9, abs=1e-9)
