"""Property-based tests: power-pool arithmetic (Algorithm 2 invariants)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PenelopeConfig
from repro.core.pool import PowerPool, clamp_transaction
from repro.net.network import Network
from repro.net.messages import PORT_DECIDER, Addr, PowerRequest
from repro.net.topology import LatencyModel, Topology
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from tests.conftest import SIM

watts = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
positive_watts = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


class TestClampTransactionProperties:
    @given(pool=watts, rate=st.floats(0.01, 1.0), lower=st.floats(0.1, 10.0),
           width=st.floats(0.0, 100.0))
    def test_result_always_within_limits(self, pool, rate, lower, width):
        upper = lower + width
        result = clamp_transaction(pool, rate, lower, upper)
        assert lower <= result <= upper

    @given(pool_a=watts, pool_b=watts)
    def test_monotone_in_pool_size(self, pool_a, pool_b):
        lo, hi = sorted((pool_a, pool_b))
        assert clamp_transaction(lo, 0.1, 1.0, 30.0) <= clamp_transaction(
            hi, 0.1, 1.0, 30.0
        )

    @given(pool=st.floats(10.0, 300.0))
    def test_mid_range_is_exactly_ten_percent(self, pool):
        assert clamp_transaction(pool, 0.10, 1.0, 30.0) == pool * 0.10


def make_pool():
    engine = Engine(sim=SIM)
    rngs = RngRegistry(seed=0)
    network = Network(
        engine, Topology(2, latency=LatencyModel(sigma=0.0)), rngs.stream("net")
    )
    pool = PowerPool(engine, network, 0, PenelopeConfig(), rngs.stream("pool"))
    return engine, pool


class TestPoolBalanceProperties:
    @given(deposits=st.lists(positive_watts, max_size=20),
           withdrawals=st.lists(positive_watts, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_balance_never_negative_and_conserves(self, deposits, withdrawals):
        _, pool = make_pool()
        total_in = 0.0
        total_out = 0.0
        operations = [("d", w) for w in deposits] + [("w", w) for w in withdrawals]
        for kind, amount in operations:
            if kind == "d":
                pool.deposit(amount)
                total_in += amount
            else:
                total_out += pool.withdraw_up_to(amount)
            assert pool.balance_w >= -1e-12
        assert pool.balance_w + total_out == pytest_approx(total_in)

    @given(
        balance=watts,
        requests=st.lists(
            st.tuples(st.booleans(), st.floats(0.0, 500.0)), max_size=15
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_request_sequence_conserves_power(self, balance, requests):
        engine, pool = make_pool()
        pool.start()
        pool.deposit(balance)
        for urgent, alpha in requests:
            message = PowerRequest(
                src=Addr(1, PORT_DECIDER),
                dst=pool.addr,
                urgent=urgent,
                alpha=alpha if urgent else 0.0,
            )
            replies = pool._handle_request(message)
            assert len(replies) == 1
            assert replies[0].delta >= 0.0
            assert pool.balance_w >= -1e-12
        assert pool.granted_out_w + pool.balance_w == pytest_approx(balance)


def pytest_approx(value):
    import pytest

    return pytest.approx(value, abs=1e-6, rel=1e-9)
