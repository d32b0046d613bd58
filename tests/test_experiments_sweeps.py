"""Integration tests for the nominal (Fig. 2) and faulty (Fig. 3) sweeps.

Reduced sweeps (few pairs, small cluster, scaled workloads) that still
verify the paper's qualitative claims hold in the reproduction.
"""

from __future__ import annotations

import pytest

from repro.experiments.faulty import (
    fault_plan_for,
    predict_fair_runtime_s,
    run_faulty_sweep,
)
from repro.experiments.nominal import run_nominal_sweep
from tests.conftest import SIM

PAIRS = [("EP", "DC"), ("CG", "LU")]
CAPS = (60.0, 80.0)
ARGS = dict(pairs=PAIRS, caps=CAPS, n_clients=6, workload_scale=0.15, seed=4, sim=SIM)


@pytest.fixture(scope="module")
def nominal():
    return run_nominal_sweep(**ARGS)


@pytest.fixture(scope="module")
def faulty():
    return run_faulty_sweep(**ARGS)


class TestNominalSweep:
    def test_both_systems_beat_fair(self, nominal):
        # Figure 2: dynamic shifting wins under a tight cap.
        for system in ("slurm", "penelope"):
            assert nominal.overall_geomean(system) > 1.0

    def test_systems_close_to_each_other(self, nominal):
        # Paper: SLURM ahead by only ~1.8% on average, never more than 3%
        # per cap.  Allow a generous band for the reduced sweep.
        advantage = nominal.mean_advantage("slurm", "penelope")
        assert abs(advantage) < 0.10

    def test_gain_shrinks_with_looser_caps(self, nominal):
        # At higher caps there is less throttling to fix.
        for system in ("slurm", "penelope"):
            per_cap = nominal.geomean_per_cap(system)
            assert per_cap[60.0] > per_cap[80.0]

    def test_every_cell_recorded(self, nominal):
        assert len(nominal.normalized) == 2 * len(CAPS) * len(PAIRS)
        assert len(nominal.fair_runtimes) == len(CAPS) * len(PAIRS)

    def test_repetitions_aggregate(self):
        single = run_nominal_sweep(
            caps=(70.0,), pairs=[("EP", "DC")], n_clients=4,
            workload_scale=0.1, seed=1, sim=SIM,
        )
        repeated = run_nominal_sweep(
            caps=(70.0,), pairs=[("EP", "DC")], n_clients=4,
            workload_scale=0.1, seed=1, repetitions=3, sim=SIM,
        )
        key = ("penelope", 70.0, ("EP", "DC"))
        # Same shape, different (averaged) values.
        assert set(single.normalized) == set(repeated.normalized)
        assert repeated.normalized[key] != single.normalized[key]

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            run_nominal_sweep(
                caps=(70.0,), pairs=[("EP", "DC")], repetitions=0
            )


class TestFaultySweep:
    def test_penelope_beats_slurm_under_faults(self, faulty):
        # Figure 3's headline: 8-15% in the paper's full sweep; at least
        # a clear win in the reduced one.
        assert faulty.penelope_advantage_over_slurm() > 0.03

    def test_slurm_drops_to_fair_or_below(self, faulty):
        # With the server dead, SLURM's frozen uneven caps hurt; it ends
        # near or below the static baseline.
        assert faulty.overall_geomean("slurm") < 1.03

    def test_penelope_barely_perturbed(self, faulty):
        assert faulty.overall_geomean("penelope") > 1.0


class TestFaultPlacement:
    def test_fair_gets_no_fault(self):
        assert fault_plan_for("fair", ("EP", "DC"), 70.0, 6) is None

    def test_slurm_fault_kills_server_node(self):
        plan = fault_plan_for("slurm", ("EP", "DC"), 70.0, 6)
        assert plan.node_kills[0][0] == 6  # first non-client id

    def test_penelope_fault_kills_a_client(self):
        plan = fault_plan_for("penelope", ("EP", "DC"), 70.0, 6)
        assert plan.node_kills[0][0] == 0

    def test_fault_time_scales_with_runtime(self):
        early = fault_plan_for("slurm", ("EP", "DC"), 70.0, 6,
                               failure_fraction=0.1)
        late = fault_plan_for("slurm", ("EP", "DC"), 70.0, 6,
                              failure_fraction=0.9)
        assert early.node_kills[0][1] < late.node_kills[0][1]

    def test_predicted_runtime_positive_and_cap_sensitive(self):
        tight = predict_fair_runtime_s(("EP", "DC"), 60.0)
        loose = predict_fair_runtime_s(("EP", "DC"), 100.0)
        assert tight > loose > 0
