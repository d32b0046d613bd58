"""Unit tests for the manager interface and the budget audit."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.managers.base import BudgetAudit, ManagerConfig
from repro.managers.fair import FairManager
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from tests.conftest import SIM


def make_cluster(n=4, cap=80.0):
    engine = Engine(sim=SIM)
    config = ClusterConfig(n_nodes=n, system_power_budget_w=n * 2 * cap)
    return Cluster(engine, config, RngRegistry(seed=0))


class TestManagerConfig:
    def test_defaults_match_paper(self):
        config = ManagerConfig()
        assert config.period_s == 1.0  # deciders iterate once per second
        assert config.timeout_s == 1.0

    def test_explicit_timeout(self):
        assert ManagerConfig(response_timeout_s=0.5).timeout_s == 0.5

    def test_with_period(self):
        fast = ManagerConfig().with_period(0.1)
        assert fast.period_s == 0.1
        assert fast.timeout_s == 0.1

    def test_with_period_preserves_explicit_timeout(self):
        # Regression: with_period used to reset response_timeout_s=None,
        # silently discarding a caller's explicit override.
        fast = ManagerConfig(response_timeout_s=0.25).with_period(0.1)
        assert fast.period_s == 0.1
        assert fast.response_timeout_s == 0.25
        assert fast.timeout_s == 0.25

    def test_with_period_rederives_derived_timeout(self):
        # A derived timeout (None) must keep following the period.
        fast = ManagerConfig().with_period(0.1)
        assert fast.response_timeout_s is None
        assert fast.timeout_s == 0.1

    def test_penelope_with_period_preserves_explicit_timeout(self):
        from repro.core.config import PenelopeConfig

        fast = PenelopeConfig(response_timeout_s=0.25).with_period(0.1)
        assert isinstance(fast, PenelopeConfig)
        assert fast.timeout_s == 0.25
        # The derived escrow deadline follows the preserved timeout.
        assert fast.effective_escrow_timeout_s == 2.0 * (0.25 + 0.1)

    def test_effective_stagger(self):
        assert ManagerConfig().effective_stagger_s == 1.0
        assert ManagerConfig(stagger_start=False).effective_stagger_s == 0.0
        assert ManagerConfig(stagger_window_s=0.002).effective_stagger_s == 0.002

    @pytest.mark.parametrize(
        "bad",
        [
            dict(period_s=0),
            dict(epsilon_w=-1),
            dict(response_timeout_s=0),
            dict(overhead_factor=1.0),
            dict(overhead_factor=-0.1),
            dict(stagger_window_s=-1.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ManagerConfig(**bad)


class TestLifecycle:
    def test_install_sets_even_caps(self):
        cluster = make_cluster(n=4, cap=80.0)
        manager = FairManager()
        manager.install(cluster, client_ids=[0, 1, 2, 3], budget_w=640.0)
        assert manager.initial_caps == {0: 160.0, 1: 160.0, 2: 160.0, 3: 160.0}
        assert all(cluster.node(i).rapl.cap_w == 160.0 for i in range(4))

    def test_double_install_rejected(self):
        cluster = make_cluster()
        manager = FairManager()
        manager.install(cluster, client_ids=[0, 1], budget_w=320.0)
        with pytest.raises(RuntimeError):
            manager.install(cluster, client_ids=[0, 1], budget_w=320.0)

    def test_start_requires_install(self):
        with pytest.raises(RuntimeError):
            FairManager().start()

    def test_double_start_rejected(self):
        cluster = make_cluster()
        manager = FairManager()
        manager.install(cluster, client_ids=[0, 1], budget_w=320.0)
        manager.start()
        with pytest.raises(RuntimeError):
            manager.start()

    def test_unsafe_even_split_rejected(self):
        cluster = make_cluster(n=4, cap=80.0)
        manager = FairManager()
        with pytest.raises(ValueError, match="safe window"):
            manager.install(cluster, client_ids=[0, 1, 2, 3], budget_w=100.0)

    def test_no_clients_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            FairManager().install(cluster, client_ids=[], budget_w=100.0)

    def test_audit_requires_install(self):
        with pytest.raises(RuntimeError):
            FairManager().audit()


class TestBudgetAudit:
    def make_audit(self, **overrides):
        values = dict(
            budget_w=640.0, caps_w=600.0, pooled_w=30.0, in_flight_w=5.0, lost_w=5.0
        )
        values.update(overrides)
        return BudgetAudit(**values)

    def test_exact_budget_ok(self):
        audit = self.make_audit()
        assert audit.accounted_w == 640.0
        assert audit.budget_ok
        audit.check()

    def test_slack(self):
        audit = self.make_audit(caps_w=500.0)
        assert audit.slack_w == pytest.approx(100.0)

    def test_violation_detected(self):
        audit = self.make_audit(caps_w=650.0)
        assert not audit.budget_ok
        with pytest.raises(AssertionError, match="budget violated"):
            audit.check()

    def test_float_tolerance(self):
        audit = self.make_audit(caps_w=600.0 + 5e-7)
        audit.check()

    def test_unsafe_caps_detected(self):
        audit = self.make_audit(unsafe_caps=[3])
        assert not audit.caps_safe
        with pytest.raises(AssertionError, match="unsafe caps"):
            audit.check()

    def test_fair_audit_is_tight(self):
        cluster = make_cluster(n=4, cap=80.0)
        manager = FairManager()
        manager.install(cluster, client_ids=[0, 1, 2, 3], budget_w=640.0)
        audit = manager.audit()
        assert audit.slack_w == pytest.approx(0.0)
        audit.check()
