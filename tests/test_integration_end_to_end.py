"""End-to-end integration tests: the paper's qualitative claims.

Each test runs complete (reduced-size) experiments through the public API
and asserts the *shape* of the paper's results -- who wins, and in which
regime -- plus cross-cutting invariants: budget conservation, audit
cleanliness, determinism.
"""

from __future__ import annotations

import pytest

from repro.cluster.faults import FaultPlan
from repro.experiments.harness import RunSpec, run_single
from repro.experiments.metrics import released_watts
from tests.conftest import SIM

FAST = dict(n_clients=6, workload_scale=0.2, seed=11, sim=SIM)
PAIR = ("EP", "DC")  # maximally skewed: hungry kernel + I/O donor


@pytest.fixture(scope="module")
def fair():
    return run_single(RunSpec("fair", PAIR, 65.0, **FAST))


@pytest.fixture(scope="module")
def penelope():
    return run_single(RunSpec("penelope", PAIR, 65.0, **FAST))


@pytest.fixture(scope="module")
def slurm():
    return run_single(RunSpec("slurm", PAIR, 65.0, **FAST))


class TestNominalClaims:
    def test_dynamic_systems_beat_fair_under_tight_caps(self, fair, penelope, slurm):
        assert penelope.runtime_s < fair.runtime_s
        assert slurm.runtime_s < fair.runtime_s

    def test_penelope_and_slurm_within_a_few_percent(self, penelope, slurm):
        ratio = penelope.runtime_s / slurm.runtime_s
        assert 0.93 < ratio < 1.07

    def test_power_actually_moved(self, penelope):
        assert penelope.recorder.total_granted_w() > 0
        assert released_watts(penelope.recorder, range(6)) > 0

    def test_grants_bounded_by_releases(self, penelope, slurm):
        for result in (penelope, slurm):
            assert (
                result.recorder.total_granted_w()
                <= result.recorder.total_released_w() + 1e-6
            )

    def test_audits_clean(self, fair, penelope, slurm):
        for result in (fair, penelope, slurm):
            result.audit.check()

    def test_all_workloads_finish(self, penelope, slurm):
        assert penelope.unfinished == ()
        assert slurm.unfinished == ()


class TestFaultClaims:
    def test_slurm_server_death_degrades_it_to_static(self, fair):
        plan = FaultPlan().kill(6, 10.0)  # the server node
        hurt = run_single(RunSpec("slurm", PAIR, 65.0, fault_plan=plan, **FAST))
        healthy = run_single(RunSpec("slurm", PAIR, 65.0, **FAST))
        assert hurt.runtime_s > healthy.runtime_s
        # Frozen uneven caps: no better than (usually worse than) Fair.
        assert hurt.runtime_s > fair.runtime_s * 0.97

    def test_penelope_shrugs_off_client_death(self):
        plan = FaultPlan().kill(5, 10.0)  # any client; none is special
        hurt = run_single(RunSpec("penelope", PAIR, 65.0, fault_plan=plan, **FAST))
        healthy = run_single(RunSpec("penelope", PAIR, 65.0, **FAST))
        # Makespan over survivors stays within a few percent.
        assert hurt.runtime_s < healthy.runtime_s * 1.05
        hurt.audit.check()

    def test_penelope_keeps_shifting_after_the_fault(self):
        plan = FaultPlan().kill(5, 5.0)
        hurt = run_single(RunSpec("penelope", PAIR, 65.0, fault_plan=plan, **FAST))
        late_grants = [t for t in hurt.recorder.grants() if t.time > 6.0]
        assert late_grants

    def test_slurm_stops_shifting_after_server_death(self):
        plan = FaultPlan().kill(6, 5.0)
        hurt = run_single(RunSpec("slurm", PAIR, 65.0, fault_plan=plan, **FAST))
        late_grants = [t for t in hurt.recorder.grants() if t.time > 5.5]
        assert late_grants == []


class TestDeterminism:
    @pytest.mark.parametrize("manager", ["fair", "penelope", "slurm", "podd"])
    def test_bit_identical_reruns(self, manager):
        spec = RunSpec(manager, PAIR, 70.0, n_clients=4, workload_scale=0.1, seed=3, sim=SIM)
        a, b = run_single(spec), run_single(spec)
        assert a.runtime_s == b.runtime_s
        assert len(a.recorder.transactions) == len(b.recorder.transactions)
        assert a.network.sent == b.network.sent


class TestUrgencyAblationEndToEnd:
    def test_urgency_reduces_time_below_initial_cap(self):
        from repro.core.config import PenelopeConfig

        def starved_time(enable):
            spec = RunSpec(
                "penelope",
                ("FT", "DC"),  # FT's phase swings exercise urgency
                65.0,
                n_clients=6,
                workload_scale=0.3,
                seed=21,
                manager_config=PenelopeConfig(enable_urgency=enable),
                record_caps=True,
                sim=SIM,
            )
            result = run_single(spec)
            initial = result.spec.budget_w / result.spec.n_clients
            # Total node-seconds spent below 90% of the initial cap.
            starved = 0.0
            for node in range(6):
                caps = result.recorder.caps_of(node)
                for (t0, cap), (t1, _) in zip(caps, caps[1:]):
                    if cap < 0.9 * initial:
                        starved += t1 - t0
            return starved, result.runtime_s

        with_urgency, rt_on = starved_time(True)
        without_urgency, rt_off = starved_time(False)
        # Urgency exists to pull nodes back to their initial caps; with it
        # disabled nodes linger below far longer.
        assert with_urgency < without_urgency
