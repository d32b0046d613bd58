"""Unit tests for the pool's escrowed-grant ledger.

Every positive grant opens an escrow entry; the requester's ``GrantAck``
settles it, and an entry unacked by the deadline refunds to the donor.
These tests drive each lifecycle edge directly -- settle, refund,
late-ack reclaim, reclaim shortfall turning into debt, duplicate and
unknown acks -- and the ablation switch that turns the whole layer off.
"""

from __future__ import annotations

import pytest

from repro.core.config import PenelopeConfig
from repro.core.pool import PowerPool
from repro.net.messages import (
    PORT_DECIDER,
    Addr,
    GrantAck,
    PowerGrant,
    PowerRequest,
)
from repro.net.network import Network
from repro.net.roster import Roster
from repro.net.topology import LatencyModel, Topology
from repro.sim.resources import Store

#: The default escrow deadline for the default config:
#: ``2 * (timeout_s + period_s) = 2 * (1 + 1)``.
DEADLINE_S = 4.0


@pytest.fixture
def net(engine, rngs):
    return Network(
        engine, Topology(4, latency=LatencyModel(sigma=0.0)), rngs.stream("net")
    )


def make_pool(engine, net, rngs, **config_kwargs):
    pool = PowerPool(
        engine, net, 1, PenelopeConfig(**config_kwargs), rngs.stream("pool")
    )
    pool.start()
    return pool


@pytest.fixture
def pool(engine, net, rngs):
    return make_pool(engine, net, rngs)


def request_grant(engine, net, pool, src=0):
    """Request power and return the grant -- without acking it."""
    inbox = net.inbox_of(Addr(src, PORT_DECIDER))
    if inbox is None:
        inbox = Store(engine)
        net.attach(Addr(src, PORT_DECIDER), inbox)
    request = PowerRequest(src=Addr(src, PORT_DECIDER), dst=pool.addr)
    net.send(request)
    engine.run(until=engine.now + 0.5)
    grant = inbox.get_nowait()
    assert isinstance(grant, PowerGrant)
    return grant


def send_ack(engine, net, pool, grant, src=0):
    net.send(
        GrantAck(
            src=Addr(src, PORT_DECIDER),
            dst=pool.addr,
            reply_to=grant.msg_id,
            delta=grant.delta,
        )
    )
    engine.run(until=engine.now + 0.5)


class TestEscrowLifecycle:
    def test_grant_opens_escrow(self, engine, net, pool):
        pool.deposit(200.0)
        grant = request_grant(engine, net, pool)
        assert grant.delta == pytest.approx(20.0)
        assert pool.escrow_w == pytest.approx(20.0)
        assert pool.granted_out_w == pytest.approx(20.0)
        assert pool.balance_w == pytest.approx(180.0)

    def test_ack_settles_escrow(self, engine, net, pool):
        pool.deposit(200.0)
        grant = request_grant(engine, net, pool)
        send_ack(engine, net, pool, grant)
        assert pool.escrow_w == 0.0
        # Settled: the watts stay granted-out (the requester applied them).
        assert pool.granted_out_w == pytest.approx(20.0)
        assert pool.balance_w == pytest.approx(180.0)
        assert pool.recorder.counters["pool.escrow_settled"] == 1
        assert "pool.escrow_refunds" not in pool.recorder.counters

    def test_settled_escrow_never_refunds(self, engine, net, pool):
        pool.deposit(200.0)
        grant = request_grant(engine, net, pool)
        send_ack(engine, net, pool, grant)
        engine.run(until=engine.now + 2 * DEADLINE_S)
        assert pool.balance_w == pytest.approx(180.0)
        assert "pool.escrow_refunds" not in pool.recorder.counters

    def test_unacked_escrow_refunds_at_deadline(self, engine, net, pool):
        pool.deposit(200.0)
        request_grant(engine, net, pool)
        engine.run(until=engine.now + DEADLINE_S + 0.5)
        assert pool.balance_w == pytest.approx(200.0)
        assert pool.escrow_w == 0.0
        assert pool.granted_out_w == 0.0
        assert pool.recorder.counters["pool.escrow_refunds"] == 1
        kinds = [t.kind for t in pool.recorder.transactions]
        assert "refund" in kinds

    def test_zero_delta_grant_opens_no_escrow(self, engine, net, pool):
        grant = request_grant(engine, net, pool)  # empty pool
        assert grant.delta == 0.0
        assert pool.escrow_w == 0.0


class TestLateAckReclaim:
    def test_late_ack_reclaims_refunded_watts(self, engine, net, pool):
        pool.deposit(200.0)
        grant = request_grant(engine, net, pool)
        engine.run(until=engine.now + DEADLINE_S + 0.5)  # refund fires
        assert pool.balance_w == pytest.approx(200.0)
        send_ack(engine, net, pool, grant)  # the grant *was* applied
        assert pool.balance_w == pytest.approx(180.0)
        assert pool.granted_out_w == pytest.approx(20.0)
        assert pool.reclaim_debt_w == 0.0
        assert pool.recorder.counters["pool.escrow_reclaims"] == 1

    def test_reclaim_shortfall_becomes_debt(self, engine, net, pool):
        pool.deposit(200.0)
        grant = request_grant(engine, net, pool)
        engine.run(until=engine.now + DEADLINE_S + 0.5)
        # The refunded watts were locally spent before the late ack landed.
        assert pool.withdraw_up_to(1000.0) == pytest.approx(200.0)
        send_ack(engine, net, pool, grant)
        assert pool.balance_w == 0.0
        assert pool.reclaim_debt_w == pytest.approx(20.0)

    def test_deposits_pay_debt_before_balance(self, engine, net, pool):
        pool.deposit(200.0)
        grant = request_grant(engine, net, pool)
        engine.run(until=engine.now + DEADLINE_S + 0.5)
        pool.withdraw_up_to(1000.0)
        send_ack(engine, net, pool, grant)
        granted_before = pool.granted_out_w
        pool.deposit(30.0)
        # 20 W repay the duplicated grant, 10 W reach the balance.
        assert pool.reclaim_debt_w == 0.0
        assert pool.balance_w == pytest.approx(10.0)
        assert pool.granted_out_w == pytest.approx(granted_before + 20.0)
        assert pool.recorder.counters["pool.debt_paydowns"] == 1


class TestAckClassification:
    def test_duplicate_ack_counted(self, engine, net, pool):
        pool.deposit(200.0)
        grant = request_grant(engine, net, pool)
        send_ack(engine, net, pool, grant)
        send_ack(engine, net, pool, grant)
        assert pool.recorder.counters["pool.escrow_settled"] == 1
        assert pool.recorder.counters["pool.duplicate_acks"] == 1

    def test_unknown_ack_counted(self, engine, net, pool):
        net.send(
            GrantAck(
                src=Addr(0, PORT_DECIDER),
                dst=pool.addr,
                reply_to=999_999,
                delta=5.0,
            )
        )
        engine.run(until=engine.now + 0.5)
        assert pool.recorder.counters["pool.unknown_acks"] == 1

    def test_negative_ack_delta_rejected(self):
        with pytest.raises(ValueError):
            GrantAck(
                src=Addr(0, PORT_DECIDER),
                dst=Addr(1, PORT_DECIDER),
                reply_to=1,
                delta=-1.0,
            )


def make_membership_pool(engine, net, rngs, **config_kwargs):
    """Pool on node 1 wired to a failure detector (not started: tests
    steer the view directly)."""
    from repro.membership import FailureDetector

    config_kwargs.setdefault("enable_membership", True)
    # Keep the suspect->confirm timer out of the way unless a test
    # confirms explicitly: suspicion must survive the escrow deadline.
    config_kwargs.setdefault("membership_suspect_timeout_s", 1000.0)
    config = PenelopeConfig(**config_kwargs)
    detector = FailureDetector(
        engine, net, 1, Roster([0, 1, 2, 3]).others(1), config,
        rngs.stream("membership.1"),
    )
    pool = PowerPool(
        engine, net, 1, config, rngs.stream("pool"), membership=detector
    )
    pool.start()
    return pool, detector


def mark(detector, peer, status):
    from repro.net.messages import MembershipUpdate

    view = detector.view
    view.apply(MembershipUpdate(peer, status, view.incarnation_of(peer)), now=0.0)


class TestMembershipEscrow:
    def test_suspected_requester_defers_the_refund(self, engine, net, rngs):
        from repro.net.messages import MEMBER_SUSPECT

        pool, detector = make_membership_pool(engine, net, rngs)
        pool.deposit(200.0)
        request_grant(engine, net, pool)
        mark(detector, 0, MEMBER_SUSPECT)
        engine.run(until=engine.now + DEADLINE_S + 0.5)
        # Verdict pending: watts stay in escrow, nothing refunded yet.
        assert pool.escrow_w == pytest.approx(20.0)
        assert pool.balance_w == pytest.approx(180.0)
        assert pool.recorder.counters["pool.escrow_deferrals"] >= 1
        assert "pool.escrow_refunds" not in pool.recorder.counters

    def test_confirm_writes_off_immediately(self, engine, net, rngs):
        from repro.net.messages import MEMBER_DEAD, MEMBER_SUSPECT

        pool, detector = make_membership_pool(engine, net, rngs)
        pool.deposit(200.0)
        request_grant(engine, net, pool)
        mark(detector, 0, MEMBER_SUSPECT)
        engine.run(until=engine.now + DEADLINE_S + 0.5)  # deferred once
        mark(detector, 0, MEMBER_DEAD)  # listener fires synchronously
        assert pool.escrow_w == 0.0
        assert pool.balance_w == pytest.approx(200.0)
        assert pool.recorder.counters["pool.escrow_confirm_writeoffs"] == 1
        assert pool.recorder.counters["pool.escrow_refunds"] == 1

    def test_refuted_suspicion_refunds_at_next_expiry(self, engine, net, rngs):
        from repro.net.messages import MEMBER_SUSPECT

        pool, detector = make_membership_pool(engine, net, rngs)
        pool.deposit(200.0)
        request_grant(engine, net, pool)
        mark(detector, 0, MEMBER_SUSPECT)
        engine.run(until=engine.now + DEADLINE_S + 0.5)  # deferred
        detector.view.observe_contact(0, engine.now)  # refuted/revived
        engine.run(until=engine.now + DEADLINE_S + 0.5)
        assert pool.escrow_w == 0.0
        assert pool.balance_w == pytest.approx(200.0)
        assert pool.recorder.counters["pool.escrow_refunds"] == 1

    def test_late_ack_after_writeoff_reconciles_via_reclaim(
        self, engine, net, rngs
    ):
        from repro.net.messages import MEMBER_DEAD

        pool, detector = make_membership_pool(engine, net, rngs)
        pool.deposit(200.0)
        grant = request_grant(engine, net, pool)
        mark(detector, 0, MEMBER_DEAD)  # confirm while escrow open
        assert pool.balance_w == pytest.approx(200.0)
        send_ack(engine, net, pool, grant)  # the grant *was* applied
        assert pool.balance_w == pytest.approx(180.0)
        assert pool.granted_out_w == pytest.approx(20.0)
        assert pool.recorder.counters["pool.escrow_reclaims"] == 1

    def test_alive_requester_unaffected_by_membership_wiring(
        self, engine, net, rngs
    ):
        pool, _ = make_membership_pool(engine, net, rngs)
        pool.deposit(200.0)
        request_grant(engine, net, pool)
        engine.run(until=engine.now + DEADLINE_S + 0.5)
        assert pool.balance_w == pytest.approx(200.0)
        assert pool.recorder.counters["pool.escrow_refunds"] == 1
        assert "pool.escrow_deferrals" not in pool.recorder.counters


class TestAblationAndCrash:
    def test_escrow_disabled_grants_are_fire_and_forget(self, engine, net, rngs):
        pool = make_pool(engine, net, rngs, enable_escrow=False)
        pool.deposit(200.0)
        request_grant(engine, net, pool)
        engine.run(until=engine.now + 2 * DEADLINE_S)
        # No escrow, no refund: the pre-escrow (leaky) behavior.
        assert pool.escrow_w == 0.0
        assert pool.balance_w == pytest.approx(180.0)
        assert pool.granted_out_w == pytest.approx(20.0)
        assert "pool.escrow_refunds" not in pool.recorder.counters

    def test_stop_cancels_timers_and_parks_escrow(self, engine, net, pool):
        pool.deposit(200.0)
        request_grant(engine, net, pool)
        pool.stop()
        engine.run(until=engine.now + 2 * DEADLINE_S)
        # A dead pool never refunds: the delta stays parked in the
        # granted-out term, where the manager's signed in-flight
        # accounting covers it whichever way the grant resolves.
        assert pool.granted_out_w == pytest.approx(20.0)
        assert "pool.escrow_refunds" not in pool.recorder.counters

    def test_custom_escrow_timeout_respected(self, engine, net, rngs):
        pool = make_pool(engine, net, rngs, escrow_timeout_s=0.75)
        pool.deposit(200.0)
        request_grant(engine, net, pool)
        engine.run(until=engine.now + 1.0)
        assert pool.balance_w == pytest.approx(200.0)
        assert pool.recorder.counters["pool.escrow_refunds"] == 1
