"""Tests for the pair-profile playback mode of the scaling study."""

from __future__ import annotations

import pytest

from repro.experiments.scaling import (
    ScalingSpec,
    pair_release_traces,
    run_scaling_point,
    sweep_pairs,
)
from repro.power.domain import SKYLAKE_6126_NODE
from tests.conftest import SIM

SPEC = SKYLAKE_6126_NODE


class TestPairReleaseTraces:
    def test_donor_is_the_shorter_app(self):
        # MG (95 s) is shorter than LU (300 s): MG donates.
        donor, hungry = pair_release_traces(("LU", "MG"), SPEC, 5.0, 20.0)
        # At the release instant the donor drops to idle...
        assert donor.demand_at(5.0) == SPEC.idle_w
        assert donor.demand_at(4.9) > SPEC.idle_w
        # ...while the hungry side keeps computing.
        assert hungry.demand_at(5.0) > SPEC.idle_w
        assert hungry.demand_at(24.0) > SPEC.idle_w

    def test_order_of_pair_does_not_matter(self):
        a_donor, _ = pair_release_traces(("LU", "MG"), SPEC, 5.0, 20.0)
        b_donor, _ = pair_release_traces(("MG", "LU"), SPEC, 5.0, 20.0)
        assert a_donor.demand_at(1.0) == b_donor.demand_at(1.0)

    def test_hungry_profile_tiled_past_horizon(self):
        # MG is only 95 s long; ask for a window longer than one run.
        _, hungry = pair_release_traces(("EP", "MG"), SPEC, 5.0, 140.0)
        assert hungry.demand_at(140.0) > SPEC.idle_w

    def test_release_later_than_donor_runtime(self):
        # release_at beyond the donor's full runtime: profile is delayed.
        donor, _ = pair_release_traces(("MG", "LU"), SPEC, 120.0, 20.0)
        assert donor.demand_at(0.0) > SPEC.idle_w
        assert donor.demand_at(121.0) == SPEC.idle_w


class TestPairScalingPoints:
    def test_power_flows_after_release(self):
        result = run_scaling_point(
            ScalingSpec(
                manager="penelope", n_clients=16, pair=("MG", "LU"),
                observe_for_s=20.0, seed=1, sim=SIM,
            )
        )
        assert result.available_w > 0
        assert result.redistribution_median_s > 0

    def test_drained_donor_pair_reports_zero_available(self):
        # DC runs far below its cap throughout, so its excess has already
        # been shifted before the release window: nothing new to move.
        result = run_scaling_point(
            ScalingSpec(
                manager="penelope", n_clients=16, pair=("DC", "EP"),
                observe_for_s=15.0, seed=1, sim=SIM,
            )
        )
        assert result.available_w == pytest.approx(0.0, abs=20.0)
        assert result.redistribution_total_s >= 0.0

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            ScalingSpec(manager="penelope", n_clients=8, pair=("EP", "EP"))

    def test_synthetic_mode_unaffected(self):
        result = run_scaling_point(
            ScalingSpec(manager="penelope", n_clients=16, observe_for_s=15.0,
                        seed=1, sim=SIM)
        )
        # Synthetic donors hold cap(140) - min(60) = 80 W each.
        assert result.available_w == pytest.approx(8 * 80.0, rel=0.05)


class TestSweepPairs:
    def test_distribution_over_pair_subset(self):
        results = sweep_pairs(
            pairs=[("MG", "LU"), ("FT", "CG")],
            n_clients=8,
            managers=("penelope",),
            observe_for_s=12.0,
            seed=1,
            sim=SIM,
        )
        assert set(results) == {
            ("penelope", ("MG", "LU")),
            ("penelope", ("FT", "CG")),
        }
        for result in results.values():
            assert result.turnaround is not None
