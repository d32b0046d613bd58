"""Unit tests for the cap-trajectory redistribution metric."""

from __future__ import annotations

import pytest

from repro.experiments.metrics import (
    absorbed_power_curve,
    redistribution_time_from_caps,
)
from repro.instrumentation import MetricsRecorder
from tests.conftest import SIM

INITIAL = {2: 100.0, 3: 100.0}


def recorder_with_caps():
    recorder = MetricsRecorder()
    # Node 2 climbs 100 -> 130 -> 150; node 3 climbs 100 -> 140 then falls
    # back to 120 (oscillation / bounce-back).
    recorder.cap(1.0, 2, 100.0)
    recorder.cap(6.0, 2, 130.0)
    recorder.cap(7.0, 3, 140.0)
    recorder.cap(8.0, 2, 150.0)
    recorder.cap(9.0, 3, 120.0)
    return recorder


class TestAbsorbedPowerCurve:
    def test_curve_tracks_net_over_initial(self):
        curve = absorbed_power_curve(recorder_with_caps(), [2, 3], INITIAL, t0=5.0)
        assert curve[0] == (5.0, 0.0)
        assert (6.0, 30.0) in curve
        assert (7.0, 70.0) in curve
        assert (8.0, 90.0) in curve
        assert curve[-1] == (9.0, 70.0)  # node 3's fall-back subtracts

    def test_pre_t0_state_forms_baseline(self):
        recorder = MetricsRecorder()
        recorder.cap(1.0, 2, 120.0)  # before the release instant
        recorder.cap(6.0, 2, 130.0)
        curve = absorbed_power_curve(recorder, [2], {2: 100.0}, t0=5.0)
        assert curve[0] == (5.0, 20.0)
        assert curve[-1] == (6.0, 30.0)

    def test_ignores_non_hungry_nodes(self):
        recorder = recorder_with_caps()
        recorder.cap(6.5, 9, 500.0)
        curve = absorbed_power_curve(recorder, [2, 3], INITIAL, t0=5.0)
        assert all(time != 6.5 for time, _ in curve)

    def test_caps_below_initial_count_zero(self):
        recorder = MetricsRecorder()
        recorder.cap(6.0, 2, 80.0)  # below the initial cap
        curve = absorbed_power_curve(recorder, [2], {2: 100.0}, t0=5.0)
        assert curve[-1][1] == 0.0


class TestRedistributionTimeFromCaps:
    def test_crossing_times(self):
        recorder = recorder_with_caps()
        # Available = 90 W; 50% = 45 W first held at t=7 -> 2 s after t0.
        half = redistribution_time_from_caps(
            recorder, [2, 3], INITIAL, available_w=90.0, fraction=0.5, t0=5.0
        )
        assert half == pytest.approx(2.0)
        full = redistribution_time_from_caps(
            recorder, [2, 3], INITIAL, available_w=90.0, fraction=1.0, t0=5.0
        )
        assert full == pytest.approx(3.0)

    def test_recirculation_not_double_counted(self):
        recorder = MetricsRecorder()
        # One node ping-pongs 100->130->100->130: net absorbed never
        # exceeds 30 even though 60 W of grants flowed.
        recorder.cap(6.0, 2, 130.0)
        recorder.cap(7.0, 2, 100.0)
        recorder.cap(8.0, 2, 130.0)
        time = redistribution_time_from_caps(
            recorder, [2], {2: 100.0}, available_w=60.0, fraction=1.0, t0=5.0
        )
        assert time == float("inf")

    def test_never_reached_is_inf(self):
        time = redistribution_time_from_caps(
            recorder_with_caps(), [2, 3], INITIAL, available_w=500.0,
            fraction=1.0, t0=5.0,
        )
        assert time == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            redistribution_time_from_caps(
                MetricsRecorder(), [2], {2: 1.0}, available_w=0.0, fraction=0.5
            )
        with pytest.raises(ValueError):
            redistribution_time_from_caps(
                MetricsRecorder(), [2], {2: 1.0}, available_w=1.0, fraction=0.0
            )


class TestFixedCadence:
    def test_decider_iterations_track_wall_clock(self):
        """Fixed-cadence ticks: N iterations happen in N periods even when
        response waits eat into the schedule (dead peer -> full timeouts)."""
        from repro.core.config import PenelopeConfig
        from repro.core.decider import LocalDecider
        from repro.core.pool import PowerPool
        from repro.net.network import Network
        from repro.net.topology import LatencyModel, Topology
        from repro.power.domain import SKYLAKE_6126_NODE
        from repro.power.rapl import SimulatedRapl
        from repro.sim.engine import Engine
        from repro.sim.rng import RngRegistry

        engine = Engine(sim=SIM)
        rngs = RngRegistry(seed=0)
        network = Network(
            engine, Topology(2, latency=LatencyModel(sigma=0.0)), rngs.stream("n")
        )
        config = PenelopeConfig(stagger_start=False)
        rapl = SimulatedRapl(
            engine, SKYLAKE_6126_NODE, rngs.stream("r"), initial_cap_w=160.0,
            enforcement_delay_s=(0.0, 0.0), reading_noise=0.0,
        )
        pool = PowerPool(engine, network, 0, config, rngs.stream("p"))
        decider = LocalDecider(
            engine, network, 0, rapl, pool, peers=[1], initial_cap_w=160.0,
            config=config, rng=rngs.stream("d"),
        )
        pool.start()
        decider.start()
        network.mark_dead(1)  # every request burns the full 1 s timeout
        rapl.set_consumption(160.0)  # permanently hungry
        engine.run(until=10.5)
        # Naive sleep-after-wait pacing would manage only ~5 iterations.
        assert decider.iterations == 10
