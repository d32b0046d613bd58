"""Decider-side reliable-transfer tests: retry/backoff, suspicion, acks.

The retry budget is bounded by the iteration period (fixed cadence is a
§4.5 semantic, not an implementation detail), so these rigs shorten the
response timeout to leave room for in-period retries.
"""

from __future__ import annotations

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

INITIAL = 160.0


class Rig:
    """Decider on node 0; nodes 1.. host real pools (optionally dead)."""

    def __init__(self, n_peers=1, seed=21, **config_kwargs):
        config_kwargs.setdefault("stagger_start", False)
        self.engine = Engine(sim=SIM)
        self.rngs = RngRegistry(seed=seed)
        self.config = PenelopeConfig(**config_kwargs)
        self.network = Network(
            self.engine,
            Topology(n_peers + 1, latency=LatencyModel(sigma=0.0)),
            self.rngs.stream("net"),
        )
        self.rapl = SimulatedRapl(
            self.engine,
            SKYLAKE_6126_NODE,
            self.rngs.stream("rapl"),
            initial_cap_w=INITIAL,
            enforcement_delay_s=(0.0, 0.0),
            reading_noise=0.0,
        )
        self.pool = PowerPool(
            self.engine, self.network, 0, self.config, self.rngs.stream("pool")
        )
        self.peer_pools = {}
        for peer in range(1, n_peers + 1):
            peer_pool = PowerPool(
                self.engine,
                self.network,
                peer,
                self.config,
                self.rngs.stream(f"pool{peer}"),
            )
            peer_pool.start()
            self.peer_pools[peer] = peer_pool
        self.decider = LocalDecider(
            self.engine,
            self.network,
            0,
            self.rapl,
            self.pool,
            peers=list(range(1, n_peers + 1)),
            initial_cap_w=INITIAL,
            config=self.config,
            rng=self.rngs.stream("decider"),
        )
        self.pool.start()
        self.decider.start()

    def run_hungry(self, seconds):
        self.rapl.set_consumption(INITIAL)
        self.engine.run(until=self.engine.now + seconds)

    @property
    def counters(self):
        return self.decider.recorder.counters


class TestRetryBackoff:
    def test_timed_out_request_is_retried_within_the_period(self):
        rig = Rig(response_timeout_s=0.2, request_retries=2)
        rig.network.mark_dead(1)
        rig.run_hungry(3.01)
        assert rig.counters.get("decider.request_retries", 0) >= 1
        # Retries never slip the fixed cadence.
        assert rig.decider.iterations == 3

    def test_retry_counts_are_deterministic(self):
        def retries(seed):
            rig = Rig(seed=seed, response_timeout_s=0.2, request_retries=2)
            rig.network.mark_dead(1)
            rig.run_hungry(4.01)
            return (
                rig.counters.get("decider.request_retries", 0),
                rig.counters.get("decider.request_timeouts", 0),
            )

        assert retries(5) == retries(5)

    def test_no_retries_when_budget_is_zero(self):
        rig = Rig(response_timeout_s=0.2, request_retries=0)
        rig.network.mark_dead(1)
        rig.run_hungry(3.01)
        assert rig.counters.get("decider.request_retries", 0) == 0

    def test_default_timeout_admits_no_retry(self):
        # timeout == period: the first attempt is the whole budget.
        rig = Rig(request_retries=3)
        rig.network.mark_dead(1)
        rig.run_hungry(3.01)
        assert rig.counters.get("decider.request_retries", 0) == 0
        assert rig.counters.get("decider.request_timeouts", 0) >= 2

    def test_retry_can_succeed_after_timeout(self):
        # Peer 1's pool holds power but the node starts dead; it comes
        # back mid-period, so the retried request lands.
        rig = Rig(response_timeout_s=0.3, request_retries=2)
        rig.peer_pools[1].deposit(100.0)
        rig.network.mark_dead(1)
        from repro.sim.engine import run_callable_at

        run_callable_at(rig.engine, 1.45, lambda: rig.network.mark_alive(1))
        rig.run_hungry(2.01)
        assert rig.counters.get("decider.request_retries", 0) >= 1
        assert rig.decider.applied_grants_w > 0


class TestSuspicion:
    def test_timeout_suspects_the_peer(self):
        rig = Rig(response_timeout_s=0.2)
        rig.network.mark_dead(1)
        rig.run_hungry(1.51)  # first tick at t=1.0, timeout at t=1.2
        assert 1 in rig.decider._suspicion

    def test_grant_clears_suspicion(self):
        rig = Rig(response_timeout_s=0.3, request_retries=1)
        rig.peer_pools[1].deposit(100.0)
        rig.network.mark_dead(1)
        from repro.sim.engine import run_callable_at

        run_callable_at(rig.engine, 1.45, lambda: rig.network.mark_alive(1))
        rig.run_hungry(2.01)
        assert rig.decider.applied_grants_w > 0
        assert 1 not in rig.decider._suspicion

    def test_suspected_peer_is_redrawn(self):
        rig = Rig(n_peers=2)
        rig.decider._suspect(1)
        picks = [rig.decider._choose_peer() for _ in range(60)]
        redraws = rig.counters.get("decider.suspicion_redraws", 0)
        assert redraws > 0
        # Biased away, not banned: peer 2 dominates, peer 1 can still
        # appear (an unlucky third draw goes through).
        assert picks.count(2) > picks.count(1)

    def test_suspicion_expires(self):
        rig = Rig(n_peers=2, suspicion_ttl_s=2.0)
        rig.decider._suspect(1)
        rig.engine.run(until=3.0)
        # Lazy purge: the first draw landing on peer 1 clears the entry.
        for _ in range(20):
            rig.decider._choose_peer()
        assert 1 not in rig.decider._suspicion

    def test_zero_ttl_disables_suspicion(self):
        rig = Rig(suspicion_ttl_s=0.0, response_timeout_s=0.2)
        rig.network.mark_dead(1)
        rig.run_hungry(1.51)
        assert rig.counters.get("decider.request_timeouts", 0) >= 1
        assert rig.decider._suspicion == {}

    def test_single_draw_pattern_when_nothing_suspected(self):
        rig = Rig(n_peers=3)
        for _ in range(50):
            rig.decider._choose_peer()
        assert rig.counters.get("decider.suspicion_redraws", 0) == 0

    def test_any_message_from_suspect_clears_immediately(self):
        # Even a *stale* grant (no matching outstanding request) is
        # direct liveness evidence: the suspicion entry goes right away,
        # not at the next expiry sweep.
        rig = Rig(suspicion_ttl_s=30.0)
        rig.decider._suspect(1)
        assert 1 in rig.decider._suspicion
        rig.decider._absorb_grant(
            PowerGrant(
                src=Addr(1, PORT_POOL),
                dst=rig.decider.addr,
                delta=0.0,
                reply_to=999,
            )
        )
        assert 1 not in rig.decider._suspicion

    def test_expired_entries_are_purged_every_tick(self):
        # No discovery draws at all (node never hungry): the per-tick
        # sweep alone must clear expired suspicions.
        rig = Rig(n_peers=2, suspicion_ttl_s=1.0)
        rig.decider._suspect(1)
        rig.decider._suspect(2)
        rig.engine.run(until=3.01)
        assert rig.decider._suspicion == {}

    def test_unexpired_entries_survive_the_tick_sweep(self):
        rig = Rig(n_peers=2, suspicion_ttl_s=60.0)
        rig.decider._suspect(1)
        rig.engine.run(until=3.01)
        assert 1 in rig.decider._suspicion


class TestEmptyGrants:
    def test_empty_grant_counted_as_empty_not_unexpected(self):
        # Peer pool exists but is empty: the zero-delta grant is a
        # legitimate protocol answer, not an unexpected message.
        rig = Rig()
        rig.run_hungry(3.01)
        assert rig.decider.empty_grants >= 1
        assert rig.counters.get("decider.empty_grants", 0) >= 1
        assert rig.counters.get("decider.unexpected_messages", 0) == 0

    def test_stale_empty_grant_also_counted(self):
        rig = Rig()
        rig.decider._absorb_grant(
            PowerGrant(
                src=Addr(1, PORT_POOL),
                dst=rig.decider.addr,
                delta=0.0,
                reply_to=7,
            )
        )
        assert rig.decider.empty_grants == 1
        assert rig.counters.get("decider.unexpected_messages", 0) == 0

    def test_empty_grants_are_never_retried(self):
        rig = Rig(response_timeout_s=0.3, request_retries=3)
        rig.run_hungry(3.01)
        # Every request got a (zero-delta) answer; no timeouts, no retries.
        assert rig.counters.get("decider.request_retries", 0) == 0
        assert rig.counters.get("decider.request_timeouts", 0) == 0


class TestGrantAcks:
    def test_positive_grant_is_acked(self):
        rig = Rig()
        rig.peer_pools[1].deposit(100.0)
        rig.run_hungry(2.01)
        assert rig.decider.applied_grants_w > 0
        donor = rig.peer_pools[1]
        assert donor.recorder.counters.get("pool.escrow_settled", 0) >= 1
        assert donor.escrow_w == 0.0

    def test_ack_retries_resend_on_following_ticks(self):
        rig = Rig(grant_ack_retries=2)
        rig.peer_pools[1].deposit(100.0)
        rig.run_hungry(4.01)
        assert rig.decider.applied_grants_w > 0
        assert rig.counters.get("decider.ack_resends", 0) >= 1
        # Resends are duplicates by design; the donor classifies them.
        donor = rig.peer_pools[1]
        assert donor.recorder.counters.get("pool.duplicate_acks", 0) >= 1

    def test_no_ack_when_escrow_disabled(self):
        rig = Rig(enable_escrow=False)
        rig.peer_pools[1].deposit(100.0)
        rig.run_hungry(2.01)
        assert rig.decider.applied_grants_w > 0
        sent = rig.network.stats.by_kind
        assert sent.get("GrantAck", 0) == 0
