"""Unit tests for the local decider (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.config import PenelopeConfig
from repro.core.decider import LocalDecider
from repro.core.pool import PowerPool
from repro.net.messages import PORT_POOL, Addr, PowerGrant
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from tests.conftest import SIM

SPEC = SKYLAKE_6126_NODE
INITIAL_CAP = 160.0


class Rig:
    """One decider (node 0) plus a peer pool (node 1), fully controllable."""

    def __init__(self, config=None, peers=(1,)):
        self.engine = Engine(sim=SIM)
        self.rngs = RngRegistry(seed=3)
        self.config = config or PenelopeConfig(stagger_start=False)
        self.network = Network(
            self.engine,
            Topology(3, latency=LatencyModel(sigma=0.0)),
            self.rngs.stream("net"),
        )
        self.rapl = SimulatedRapl(
            self.engine, SPEC, self.rngs.stream("rapl"),
            initial_cap_w=INITIAL_CAP,
            enforcement_delay_s=(0.0, 0.0),
            reading_noise=0.0,
        )
        self.pool = PowerPool(
            self.engine, self.network, 0, self.config, self.rngs.stream("pool0")
        )
        self.peer_pool = PowerPool(
            self.engine, self.network, 1, self.config, self.rngs.stream("pool1")
        )
        self.decider = LocalDecider(
            self.engine,
            self.network,
            0,
            self.rapl,
            self.pool,
            peers=list(peers),
            initial_cap_w=INITIAL_CAP,
            config=self.config,
            rng=self.rngs.stream("decider"),
        )
        self.pool.start()
        self.peer_pool.start()
        self.decider.start()

    def set_draw(self, watts):
        self.rapl.set_consumption(watts)

    def run_periods(self, n=1):
        # The 10 ms slack covers request/grant round-trip latency after the
        # period boundary.
        self.engine.run(until=self.engine.now + n * self.config.period_s + 1e-2)


class TestExcessBranch:
    def test_release_lowers_cap_and_fills_pool(self):
        rig = Rig()
        rig.set_draw(100.0)  # well under 160 - eps
        rig.run_periods(1)
        assert rig.decider.cap_w == pytest.approx(100.0)
        assert rig.pool.balance_w == pytest.approx(60.0)
        assert rig.rapl.cap_w == pytest.approx(100.0)

    def test_release_respects_safe_minimum(self):
        rig = Rig()
        rig.set_draw(SPEC.idle_w)  # 30 W, below the 60 W safe min cap
        rig.run_periods(1)
        assert rig.decider.cap_w == SPEC.min_cap_w
        assert rig.pool.balance_w == pytest.approx(INITIAL_CAP - SPEC.min_cap_w)

    def test_within_epsilon_is_not_excess(self):
        rig = Rig()
        rig.set_draw(INITIAL_CAP - 2.0)  # inside the 5 W margin
        rig.run_periods(1)
        assert rig.decider.cap_w == INITIAL_CAP

    def test_release_recorded(self):
        rig = Rig()
        rig.set_draw(100.0)
        rig.run_periods(1)
        releases = rig.decider.recorder.releases()
        assert len(releases) == 1
        assert releases[0].watts == pytest.approx(60.0)


class TestLocalDiscovery:
    def test_hungry_drains_local_pool_first(self):
        rig = Rig()
        rig.pool.deposit(100.0)
        rig.set_draw(INITIAL_CAP)  # at the cap -> hungry
        rig.run_periods(1)
        # Rate-limited local withdrawal: 10% of 100 = 10 W.
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP + 10.0)
        assert rig.pool.balance_w == pytest.approx(90.0)
        assert rig.decider.requests_sent == 0

    def test_urgent_local_withdrawal_bypasses_limit(self):
        rig = Rig()
        # Drop the cap well below initial, then make the node hungry.
        rig.set_draw(80.0)
        rig.run_periods(1)
        assert rig.decider.cap_w == pytest.approx(80.0)
        rig.pool.withdraw_up_to(1e9)  # empty the pool
        rig.pool.deposit(200.0)
        rig.set_draw(80.0)  # at the new cap -> hungry and below initial
        rig.run_periods(1)
        # Took back initial - cap = 80 W in one step, not 10%.
        assert rig.decider.cap_w >= INITIAL_CAP

    def test_local_withdrawal_respects_max_cap(self):
        config = PenelopeConfig(stagger_start=False, upper_limit_w=500.0, rate=1.0)
        rig = Rig(config=config)
        rig.pool.deposit(500.0)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        assert rig.decider.cap_w <= SPEC.max_cap_w


class TestPeerTransactions:
    def test_request_and_grant_raises_cap(self):
        rig = Rig()
        rig.peer_pool.deposit(200.0)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        assert rig.decider.requests_sent == 1
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP + 20.0)  # 10% of 200
        assert rig.peer_pool.balance_w == pytest.approx(180.0)

    def test_empty_peer_grants_nothing(self):
        rig = Rig()
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        assert rig.decider.requests_sent == 1
        assert rig.decider.cap_w == INITIAL_CAP

    def test_urgent_request_carries_alpha_and_bypasses_limit(self):
        rig = Rig()
        rig.set_draw(60.0)
        rig.run_periods(1)  # release down to 60 W
        rig.pool.withdraw_up_to(1e9)  # strand the released power elsewhere
        rig.peer_pool.deposit(500.0)
        rig.set_draw(60.0)  # hungry at 60 W cap, below initial
        rig.run_periods(1)
        assert rig.decider.urgent_requests_sent == 1
        # alpha = 160 - 60 = 100 -> full recovery in one transaction.
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP)

    def test_turnaround_recorded(self):
        rig = Rig()
        rig.peer_pool.deposit(100.0)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        samples = rig.decider.recorder.turnarounds
        assert len(samples) == 1
        assert not samples[0].timed_out
        assert samples[0].wait_s > 0
        assert samples[0].granted_w == pytest.approx(10.0)

    def test_dead_peer_times_out(self):
        rig = Rig()
        rig.network.mark_dead(1)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(3)
        samples = rig.decider.recorder.turnarounds
        assert samples and all(s.timed_out for s in samples)
        assert all(
            s.wait_s == pytest.approx(rig.config.timeout_s) for s in samples
        )
        assert rig.decider.cap_w == INITIAL_CAP

    def test_no_peers_no_requests(self):
        rig = Rig(peers=())
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(2)
        assert rig.decider.requests_sent == 0

    def test_grant_clamped_to_max_cap_banks_leftover(self):
        config = PenelopeConfig(stagger_start=False, enable_rate_limit=False)
        rig = Rig(config=config)
        rig.decider.cap_w = 240.0
        rig.rapl.set_cap(240.0)
        rig.peer_pool.deposit(100.0)
        rig.set_draw(240.0)
        rig.run_periods(1)
        assert rig.decider.cap_w == SPEC.max_cap_w
        # 100 granted, 10 usable -> 90 banked locally.
        assert rig.pool.balance_w == pytest.approx(90.0)


class TestDistributedUrgency:
    def test_local_urgency_induces_release_to_initial(self):
        rig = Rig()
        rig.decider.cap_w = 200.0  # above initial (took power earlier)
        rig.rapl.set_cap(200.0)
        rig.pool.local_urgency = True
        rig.set_draw(200.0)  # hungry, so no release would happen naturally
        rig.run_periods(1)
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP)
        assert rig.pool.balance_w == pytest.approx(40.0)
        induced = [
            t for t in rig.decider.recorder.transactions
            if t.kind == "induced-release"
        ]
        assert len(induced) == 1
        assert induced[0].watts == pytest.approx(40.0)

    def test_urgent_node_ignores_local_urgency(self):
        rig = Rig()
        rig.set_draw(80.0)
        rig.run_periods(1)  # cap at 80, below initial
        rig.pool.local_urgency = True
        rig.pool.withdraw_up_to(1e9)
        rig.set_draw(80.0)
        rig.run_periods(1)
        # The urgent node does not release below its initial cap.
        assert rig.decider.cap_w <= INITIAL_CAP
        assert not any(
            t.kind == "induced-release"
            for t in rig.decider.recorder.transactions
        )

    def test_urgency_ablation_disables_induction(self):
        config = PenelopeConfig(stagger_start=False, enable_urgency=False)
        rig = Rig(config=config)
        rig.decider.cap_w = 200.0
        rig.rapl.set_cap(200.0)
        rig.pool.local_urgency = True
        rig.set_draw(200.0)
        rig.run_periods(2)
        assert rig.decider.cap_w == 200.0


class TestStaleGrants:
    def test_stale_grant_banked_into_pool(self):
        rig = Rig()
        grant = PowerGrant(
            src=Addr(1, PORT_POOL), dst=rig.decider.addr, delta=12.0, reply_to=999
        )
        rig.network.send(grant)
        rig.set_draw(100.0)
        rig.run_periods(1)
        counters = rig.decider.recorder.counters
        assert counters.get("decider.stale_grants_banked") == 1
        # 12 W banked + the release of this period.
        assert rig.pool.balance_w >= 12.0


class TestLifecycle:
    def test_stop_halts_iterations(self):
        rig = Rig()
        rig.set_draw(100.0)
        rig.run_periods(1)
        iterations = rig.decider.iterations
        rig.decider.stop()
        rig.run_periods(3)
        assert rig.decider.iterations == iterations
        assert not rig.decider.is_running

    def test_double_start_rejected(self):
        rig = Rig()
        with pytest.raises(RuntimeError):
            rig.decider.start()

    def test_is_urgent_property(self):
        rig = Rig()
        assert not rig.decider.is_urgent
        rig.decider.cap_w = 100.0
        assert rig.decider.is_urgent


class TestDeadlineCancellation:
    def test_answered_request_cancels_its_timeout(self):
        rig = Rig()
        rig.peer_pool.deposit(50.0)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        assert rig.decider.requests_sent == 1
        (sample,) = rig.decider.recorder.turnarounds
        assert not sample.timed_out
        assert sample.granted_w > 0
        # Run past where the orphaned deadline would have fired: the
        # timeout of the answered request must be discarded unprocessed,
        # not linger in the queue until its deadline.
        rig.engine.run(until=rig.engine.now + rig.config.timeout_s + 1.0)
        assert rig.engine.cancelled_events >= 1
