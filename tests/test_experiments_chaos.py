"""Chaos sweep tests: schedule derivation, the continuous auditor, and
the cache/CLI plumbing.

The smoke runs here are deliberately tiny (4 clients, ~10 simulated
seconds) -- the full-intensity storm lives behind ``repro chaos`` and
the CI chaos-smoke job.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.manager import ConservationLedger
from repro.experiments.chaos import (
    BudgetAuditor,
    ChaosResult,
    ChaosSpec,
    build_chaos_plan,
    chaos_specs,
    format_chaos,
    run_chaos_single,
    run_chaos_sweep,
)
from repro.experiments.serialize import canonical_json, decode, encode
from tests.conftest import SIM

SMOKE = ChaosSpec(
    n_clients=4,
    seed=3,
    duration_s=10.0,
    workload_scale=0.1,
    kills=1,
    flaps=1,
    bursts=1,
    burst_loss=0.05,
    sim=SIM,
)

MEMBERSHIP_SMOKE = ChaosSpec(
    n_clients=6,
    seed=7,
    duration_s=20.0,
    workload_scale=0.1,
    kills=1,
    flaps=0,
    bursts=0,
    partitions=1,
    enable_membership=True,
    membership_probe_period_s=0.5,
    sim=SIM,
)


@pytest.fixture(scope="module")
def smoke_result():
    return run_chaos_single(SMOKE)


@pytest.fixture(scope="module")
def membership_result():
    return run_chaos_single(MEMBERSHIP_SMOKE)


class TestChaosSpec:
    def test_budget_is_per_socket_cap_over_all_sockets(self):
        spec = ChaosSpec(n_clients=10, cap_w_per_socket=70.0)
        assert spec.budget_w == pytest.approx(1400.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clients": 3},
            {"duration_s": 0.0},
            {"kills": -1},
            {"n_clients": 4, "kills": 4},
            {"burst_loss": 1.0},
            {"audit_interval_s": 0.0},
            {"base_loss": 1.0},
            {"base_loss": -0.1},
            {"duplicate_bursts": -1},
            {"reorder_bursts": -1},
            {"clock_drifts": -1},
            {"slow_nodes": -1},
            {"duplicate_prob": 1.0},
            {"duplicate_prob": -0.1},
            {"reorder_window_s": 0.0},
            {"max_drift_rate": 0.0},
            {"max_drift_rate": 1.0},
            {"slow_factor": 1.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosSpec(**kwargs)

    def test_full_base_loss_is_rejected_at_construction(self):
        # Regression: base_loss skipped validation entirely, so a spec
        # with a 100% floor only blew up deep inside Network at run
        # time.  Now it fails at construction like every other field.
        with pytest.raises(ValueError, match=r"base loss out of \[0, 1\)"):
            ChaosSpec(base_loss=1.0)
        # The boundary below 1.0 stays legal.
        assert ChaosSpec(base_loss=0.0).base_loss == 0.0
        assert ChaosSpec(base_loss=0.5).base_loss == 0.5

    def test_chaos_specs_vary_only_the_seed(self):
        specs = chaos_specs([0, 1, 2], n_clients=6, kills=1)
        assert [s.seed for s in specs] == [0, 1, 2]
        assert all(s.n_clients == 6 and s.kills == 1 for s in specs)


class TestBuildChaosPlan:
    def test_same_seed_same_schedule(self):
        spec = ChaosSpec(seed=42)
        assert build_chaos_plan(spec) == build_chaos_plan(spec)

    def test_different_seeds_differ(self):
        a = build_chaos_plan(ChaosSpec(seed=0))
        b = build_chaos_plan(ChaosSpec(seed=1))
        assert a != b

    def test_schedule_respects_the_spec_counts(self):
        spec = ChaosSpec(kills=3, flaps=2, bursts=4, n_clients=8)
        plan = build_chaos_plan(spec)
        assert len(plan.node_kills) == 3
        assert len(plan.restarts) == 3  # every kill gets a paired restart
        assert len(plan.flaps) == 2
        assert len(plan.loss_bursts) == 4

    def test_kill_victims_are_distinct_and_restart_after_dying(self):
        spec = ChaosSpec(kills=4, n_clients=8, duration_s=50.0)
        plan = build_chaos_plan(spec)
        victims = [node for node, _ in plan.node_kills]
        assert len(set(victims)) == len(victims)
        restart_at = dict(plan.restarts)
        for node, killed_at in plan.node_kills:
            assert 0.15 * 50.0 <= killed_at <= 0.5 * 50.0
            assert killed_at < restart_at[node] <= 0.95 * 50.0

    def test_adversarial_counts_draw_their_families(self):
        spec = ChaosSpec(
            n_clients=8,
            duration_s=40.0,
            duplicate_bursts=2,
            reorder_bursts=1,
            clock_drifts=2,
            slow_nodes=1,
        )
        plan = build_chaos_plan(spec)
        assert len(plan.duplicate_bursts) == 2
        assert len(plan.reorder_bursts) == 1
        assert len(plan.clock_drifts) == 2
        assert len(plan.slow_nodes) == 1
        for node, rate, at in plan.clock_drifts:
            assert 0 <= node < 8
            assert abs(rate) <= spec.max_drift_rate
            assert 0.10 * 40.0 <= at <= 0.60 * 40.0
        for node, factor, at, duration in plan.slow_nodes:
            assert 0 <= node < 8
            assert 2.0 <= factor <= spec.slow_factor
            assert duration is not None and duration > 0

    def test_adversarial_draws_append_after_legacy_draws(self):
        # Same back-compat contract as the partition draws: enabling the
        # new families must not shift where kills/flaps/bursts land, so
        # pre-existing seeded schedules replay identically.
        legacy = build_chaos_plan(
            ChaosSpec(seed=9, kills=2, flaps=1, bursts=1, partitions=1)
        )
        extended = build_chaos_plan(
            ChaosSpec(
                seed=9, kills=2, flaps=1, bursts=1, partitions=1,
                duplicate_bursts=1, reorder_bursts=1,
                clock_drifts=1, slow_nodes=1,
            )
        )
        assert extended.node_kills == legacy.node_kills
        assert extended.restarts == legacy.restarts
        assert extended.flaps == legacy.flaps
        assert extended.loss_bursts == legacy.loss_bursts
        assert extended.partitions == legacy.partitions
        assert legacy.duplicate_bursts == []
        assert len(extended.duplicate_bursts) == 1

    def test_schedule_rng_does_not_touch_run_streams(self):
        # Drawing the schedule twice must not perturb a later run: the
        # schedule uses its own registry instance.
        build_chaos_plan(SMOKE)
        a = run_chaos_single(SMOKE)
        build_chaos_plan(SMOKE)
        build_chaos_plan(SMOKE)
        b = run_chaos_single(SMOKE)
        assert a.final == b.final
        assert a.recorder.counters == b.recorder.counters


class TestBudgetAuditor:
    def test_interval_validated(self, smoke_result):
        with pytest.raises(ValueError):
            BudgetAuditor(engine=None, manager=None, interval_s=0.0)

    def test_smoke_run_holds_conservation(self, smoke_result):
        # interval-grid probes plus the final horizon probe
        assert smoke_result.n_audits == 11
        assert (
            smoke_result.max_abs_residual_w <= ConservationLedger.TOLERANCE_W
        )
        smoke_result.final.check()
        counters = smoke_result.recorder.counters
        assert counters["auditor.probes"] == smoke_result.n_audits

    def test_probes_record_ledger_samples(self, smoke_result):
        names = {s.name for s in smoke_result.recorder.samples}
        assert "residual_w" in names
        assert "escrow_w" in names
        assert "write_offs_w" in names
        residuals = [
            s for s in smoke_result.recorder.samples if s.name == "residual_w"
        ]
        assert len(residuals) == smoke_result.n_audits

    def test_storm_actually_happened(self, smoke_result):
        counters = smoke_result.recorder.counters
        assert counters["manager.revives"] == 1  # the kill's paired restart
        assert smoke_result.network.dropped > 0
        assert len(smoke_result.schedule["node_kills"]) == 1


class TestChaosCodecs:
    def test_spec_round_trips_through_json(self):
        decoded = decode(ChaosSpec, json.loads(json.dumps(encode(SMOKE))))
        assert decoded == SMOKE

    def test_result_round_trips_through_json(self, smoke_result):
        decoded = decode(ChaosResult, json.loads(json.dumps(encode(smoke_result))))
        assert decoded.spec == smoke_result.spec
        assert decoded.schedule == smoke_result.schedule
        assert decoded.n_audits == smoke_result.n_audits
        assert decoded.max_abs_residual_w == smoke_result.max_abs_residual_w
        assert decoded.final == smoke_result.final
        assert decoded.recorder.counters == smoke_result.recorder.counters
        assert decoded.recorder.samples == smoke_result.recorder.samples
        assert decoded.network == smoke_result.network


class TestPinnedChaosDeterminism:
    def test_byte_identical_to_pinned_fixture(self):
        # The chaos analogue of TestPinnedTrajectoryDeterminism: kills,
        # flaps and loss bursts cancel in-flight events, which is the
        # queue shape the nominal fixtures never exercise.
        # Batching is pinned off: the fixture bytes encode the staggered
        # per-node trajectory, which the batcher only approximates (one
        # CI leg runs the rest of the suite batched).
        import importlib.util
        import pathlib

        fixtures = pathlib.Path(__file__).parent / "fixtures"
        spec_module = importlib.util.spec_from_file_location(
            "generate_chaos_fixture", fixtures / "generate_chaos_fixture.py"
        )
        assert spec_module is not None and spec_module.loader is not None
        module = importlib.util.module_from_spec(spec_module)
        spec_module.loader.exec_module(module)
        assert replace(module.CHAOS_FIXTURE_SPEC, sim=SMOKE.sim) == SMOKE
        expected = (fixtures / f"{module.CHAOS_FIXTURE_NAME}.json").read_text()
        data = encode(run_chaos_single(module.CHAOS_FIXTURE_SPEC))
        assert canonical_json(data) + "\n" == expected


class TestDetectorMetrics:
    def test_plain_runs_carry_no_detector_report(self, smoke_result):
        assert smoke_result.detector is None

    def test_kill_is_detected_within_three_periods(self, membership_result):
        report = membership_result.detector
        assert report is not None
        assert report["missed_detections"] == 0
        assert report["detections"] == 1
        assert (
            report["median_detection_latency_periods"] <= 3.0
        ), "ISSUE 5 acceptance: median detection within 3 probe periods"

    def test_no_unrefuted_false_confirms(self, membership_result):
        assert membership_result.detector["unrefuted_false_confirms"] == 0

    def test_views_converge_after_heal(self, membership_result):
        report = membership_result.detector
        assert report["view_converged"] is True
        assert report["last_heal_s"] is not None
        assert report["convergence_after_heal_s"] is not None

    def test_conservation_holds_with_membership_on(self, membership_result):
        assert (
            membership_result.max_abs_residual_w
            <= ConservationLedger.TOLERANCE_W
        )
        membership_result.final.check()

    def test_fault_free_membership_run_has_zero_false_positives(self):
        result = run_chaos_single(
            ChaosSpec(
                n_clients=4,
                seed=5,
                duration_s=15.0,
                workload_scale=0.1,
                kills=0,
                flaps=0,
                bursts=0,
                enable_membership=True,
                membership_probe_period_s=0.5,
                sim=SIM,
            )
        )
        report = result.detector
        assert report["false_suspects"] == 0
        assert report["false_confirms"] == 0
        assert report["view_converged"] is True

    def test_membership_off_schedules_are_unchanged(self):
        # The partition draws were appended *after* the legacy draws so
        # pre-membership schedules replay identically seed-for-seed.
        with_partitions = build_chaos_plan(
            ChaosSpec(seed=9, kills=2, flaps=1, bursts=1, partitions=1)
        )
        without = build_chaos_plan(
            ChaosSpec(seed=9, kills=2, flaps=1, bursts=1, partitions=0)
        )
        assert with_partitions.node_kills == without.node_kills
        assert with_partitions.restarts == without.restarts
        assert with_partitions.flaps == without.flaps
        assert with_partitions.loss_bursts == without.loss_bursts
        assert len(with_partitions.partitions) == 1
        assert without.partitions == []

    def test_detector_report_round_trips_through_json(self, membership_result):
        decoded = decode(ChaosResult, json.loads(json.dumps(encode(membership_result))))
        assert decoded.detector == membership_result.detector
        assert decoded.final == membership_result.final

    def test_format_includes_the_detector_table(self, membership_result):
        text = format_chaos([membership_result])
        assert "Failure detector (SWIM)" in text
        assert "detect" in text


class TestChaosSweep:
    def test_sweep_caches_and_replays(self, tmp_path):
        specs = chaos_specs([3], sim=SIM, **{
            k: getattr(SMOKE, k)
            for k in (
                "n_clients", "duration_s", "workload_scale",
                "kills", "flaps", "bursts", "burst_loss",
            )
        })
        first = run_chaos_sweep(specs, cache_dir=str(tmp_path))
        assert len(list(tmp_path.rglob("*.json"))) == 1
        second = run_chaos_sweep(specs, cache_dir=str(tmp_path))
        assert format_chaos(first) == format_chaos(second)
        assert second[0].final == first[0].final

    def test_format_reports_the_verdict(self, smoke_result):
        text = format_chaos([smoke_result])
        assert "conservation probes held" in text
        assert "worst residual" in text
        assert f"{smoke_result.spec.seed:>6}" in text.splitlines()[2 + 1]


class TestChaosCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.seeds == [0, 1, 2]
        assert args.clients == 12
        assert args.kills == 2

    def test_cli_smoke(self, capsys, tmp_path):
        from repro.cli import main

        exit_code = main(
            [
                "chaos",
                "--seeds", "3",
                "--clients", "4",
                "--duration", "10",
                "--scale", "0.1",
                "--kills", "1",
                "--flaps", "1",
                "--bursts", "1",
                "--burst-loss", "0.05",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "conservation probes held" in out
