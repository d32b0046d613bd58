"""Integration test for the §4.2 overhead experiment."""

from __future__ import annotations

import pytest

from repro.experiments.overhead import run_overhead_experiment
from tests.conftest import SIM


@pytest.fixture(scope="module")
def result():
    # Three representative apps at reduced scale keep the test fast;
    # full-scale all-app runs live in the benchmark.
    return run_overhead_experiment(
        apps=("EP", "CG", "DC"), workload_scale=0.5, seed=1, sim=SIM
    )


class TestOverhead:
    def test_penelope_always_at_least_the_daemon_cost(self, result):
        # The modelled daemon cost is 1.3%; nothing should run faster
        # with Penelope than without.
        for app in result.runtimes:
            assert result.slowdown(app) >= 0.012

    def test_mean_overhead_small(self, result):
        # Paper: ~1.3% mean.  Phase-heavy apps pay a little extra for cap
        # recovery, so allow up to a few percent at reduced scale.
        assert 0.012 <= result.mean_overhead < 0.06

    def test_compute_bound_app_near_pure_daemon_cost(self, result):
        # EP has one flat phase: no cap-recovery dynamics, so its slowdown
        # is the daemon cost almost exactly.
        assert result.slowdown("EP") == pytest.approx(0.013, abs=0.003)

    def test_runtimes_positive_and_ordered(self, result):
        for static, managed in result.runtimes.values():
            assert 0 < static < managed
