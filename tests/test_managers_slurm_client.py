"""Unit tests for the SLURM client decider, against a scripted server."""

from __future__ import annotations

import pytest

from repro.managers.slurm import SlurmClient, SlurmConfig
from repro.net.messages import (
    PORT_DECIDER,
    PORT_SERVER,
    Addr,
    ExcessReport,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)
from repro.net.network import Network
from repro.net.server import RequestServer
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from tests.conftest import SIM

SPEC = SKYLAKE_6126_NODE
INITIAL = 160.0
SERVER = Addr(1, PORT_SERVER)


class Rig:
    """One SLURM client plus a scripted central server."""

    def __init__(self, grant_w=0.0, config=None, server_running=True):
        self.engine = Engine(sim=SIM)
        self.rngs = RngRegistry(seed=9)
        self.config = config or SlurmConfig(stagger_start=False)
        self.network = Network(
            self.engine,
            Topology(2, latency=LatencyModel(sigma=0.0)),
            self.rngs.stream("net"),
        )
        self.rapl = SimulatedRapl(
            self.engine, SPEC, self.rngs.stream("rapl"), initial_cap_w=INITIAL,
            enforcement_delay_s=(0.0, 0.0), reading_noise=0.0,
        )
        self.grant_w = grant_w
        self.received = []
        self.server = RequestServer(
            self.engine,
            self.network,
            SERVER,
            self._serve,
            self.rngs.stream("server"),
            service_time=(90e-6, 90e-6),
        )
        if server_running:
            self.server.start()
        self.client = SlurmClient(
            self.engine,
            self.network,
            0,
            self.rapl,
            SERVER,
            INITIAL,
            self.config,
            self.rngs.stream("client"),
            recorder=__import__("repro.instrumentation", fromlist=["x"]).MetricsRecorder(),
        )
        self.client.start()

    def _serve(self, message):
        self.received.append(message)
        if isinstance(message, PowerRequest):
            return (
                PowerGrant(
                    src=SERVER,
                    dst=message.src,
                    delta=self.grant_w,
                    reply_to=message.msg_id,
                    urgent=message.urgent,
                ),
            )
        return ()

    def set_draw(self, watts):
        self.rapl.set_consumption(watts)

    def run_periods(self, n=1):
        self.engine.run(until=self.engine.now + n * self.config.period_s + 1e-2)


class TestExcessPath:
    def test_excess_lowers_cap_and_reports(self):
        rig = Rig()
        rig.set_draw(100.0)
        rig.run_periods(1)
        assert rig.client.cap_w == pytest.approx(100.0)
        reports = [m for m in rig.received if isinstance(m, ExcessReport)]
        assert len(reports) == 1
        assert reports[0].delta == pytest.approx(60.0)
        assert rig.client.excess_reported_w == pytest.approx(60.0)

    def test_release_respects_safe_minimum(self):
        rig = Rig()
        rig.set_draw(SPEC.idle_w)
        rig.run_periods(1)
        assert rig.client.cap_w == SPEC.min_cap_w

    def test_within_epsilon_not_excess(self):
        rig = Rig()
        rig.set_draw(INITIAL - 2.0)
        rig.run_periods(1)
        assert rig.client.cap_w == INITIAL


class TestHungryPath:
    def test_request_and_grant_applied(self):
        rig = Rig(grant_w=12.0)
        rig.set_draw(INITIAL)
        rig.run_periods(1)
        assert rig.client.cap_w == pytest.approx(INITIAL + 12.0)
        assert rig.client.applied_grants_w == pytest.approx(12.0)

    def test_urgent_request_carries_alpha(self):
        rig = Rig(grant_w=0.0)
        rig.set_draw(100.0)
        rig.run_periods(1)  # release down to 100
        rig.set_draw(100.0)
        rig.run_periods(1)  # hungry below initial -> urgent
        urgent = [
            m for m in rig.received
            if isinstance(m, PowerRequest) and m.urgent
        ]
        assert urgent
        assert urgent[0].alpha == pytest.approx(60.0)

    def test_grant_clamped_at_max_cap_and_leftover_returned(self):
        rig = Rig(grant_w=50.0, config=SlurmConfig(stagger_start=False))
        rig.client.cap_w = 240.0
        rig.rapl.set_cap(240.0)
        rig.set_draw(240.0)
        rig.run_periods(1)
        assert rig.client.cap_w == SPEC.max_cap_w
        # 10 usable, 40 mailed back as excess without touching the cap.
        returned = [m for m in rig.received if isinstance(m, ExcessReport)]
        assert returned and returned[-1].delta == pytest.approx(40.0)
        assert rig.client.recorder.counters.get(
            "slurm.client.grant_overflow_returned"
        ) == 1

    def test_timeout_when_server_down(self):
        rig = Rig(server_running=False)
        rig.set_draw(INITIAL)
        rig.run_periods(2)
        assert rig.client.recorder.counters.get(
            "slurm.client.request_timeouts", 0
        ) >= 1
        assert rig.client.cap_w == INITIAL

    def test_saturated_cap_sends_no_request(self):
        rig = Rig(grant_w=10.0)
        rig.client.cap_w = SPEC.max_cap_w
        rig.rapl.set_cap(SPEC.max_cap_w)
        rig.set_draw(SPEC.max_cap_w)
        rig.run_periods(1)
        assert not [m for m in rig.received if isinstance(m, PowerRequest)]


class TestReleaseDirective:
    def test_directive_induces_release_to_initial(self):
        rig = Rig()
        rig.client.cap_w = 200.0
        rig.rapl.set_cap(200.0)
        rig.set_draw(200.0)  # hungry: would never release on its own
        rig.network.send(
            ReleaseDirective(src=SERVER, dst=Addr(0, PORT_DECIDER))
        )
        rig.run_periods(2)
        assert rig.client.cap_w <= INITIAL + 1e-9
        induced = [m for m in rig.received if isinstance(m, ExcessReport)]
        assert induced and induced[0].delta == pytest.approx(40.0)

    def test_directive_ignored_when_urgent(self):
        rig = Rig()
        rig.client.cap_w = 100.0  # below initial -> urgent
        rig.rapl.set_cap(100.0)
        rig.set_draw(100.0)
        rig.network.send(
            ReleaseDirective(src=SERVER, dst=Addr(0, PORT_DECIDER))
        )
        rig.run_periods(2)
        # Never releases below initial because of a directive.
        assert rig.client.cap_w <= INITIAL

    def test_directive_ignored_at_initial_cap(self):
        rig = Rig()
        rig.set_draw(INITIAL)
        rig.network.send(
            ReleaseDirective(src=SERVER, dst=Addr(0, PORT_DECIDER))
        )
        rig.run_periods(2)
        assert not [m for m in rig.received if isinstance(m, ExcessReport)]


class TestStaleGrants:
    def test_stale_grant_applied_via_inbox_drain(self):
        rig = Rig()
        rig.set_draw(INITIAL)
        rig.network.send(
            PowerGrant(src=SERVER, dst=Addr(0, PORT_DECIDER), delta=8.0,
                       reply_to=12345)
        )
        rig.run_periods(1)
        assert rig.client.recorder.counters.get(
            "slurm.client.stale_grants_applied"
        ) == 1
        assert rig.client.applied_grants_w == pytest.approx(8.0)
        # The node did not actually need the late power, so the same tick
        # classified it as excess and mailed it straight back -- no watts
        # lost either way.
        assert rig.client.cap_w == pytest.approx(INITIAL)
        returned = [m for m in rig.received if isinstance(m, ExcessReport)]
        assert returned and returned[0].delta == pytest.approx(8.0, abs=0.5)


class TestLifecycle:
    def test_stop_halts(self):
        rig = Rig()
        rig.set_draw(100.0)
        rig.run_periods(1)
        iterations = rig.client.iterations
        rig.client.stop()
        rig.run_periods(2)
        assert rig.client.iterations == iterations

    def test_double_start_rejected(self):
        rig = Rig()
        with pytest.raises(RuntimeError):
            rig.client.start()
