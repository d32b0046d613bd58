"""Kernel benchmark smoke tests + pinned-trajectory determinism tests.

The determinism half asserts that the simulator reproduces the pinned
protocol revision's results **byte-for-byte** (fixtures under
``tests/fixtures/``, regenerated by ``generate_kernel_fixtures.py``):
refactors of the event kernel must never change what is simulated, only
how fast, and any deliberate protocol change must be accompanied by a
fixture regeneration (visible in review as a fixture diff).

The fixtures were last regenerated for the escrowed-grant protocol:
every positive Penelope grant is now acknowledged, so the Penelope
trajectory (ack messages consume latency draws) differs from the
original seed revision, while the SLURM and Fair trajectories remain
byte-identical to it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
# Module import (not ``from ... import bench_spec``): pytest's
# ``python_functions = bench_*`` would otherwise collect the helper here.
from repro.experiments import bench as kernel_bench
from repro.experiments.harness import run_single
from repro.experiments.serialize import canonical_json, encode

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _fixture_module():
    spec = importlib.util.spec_from_file_location(
        "generate_kernel_fixtures", FIXTURES / "generate_kernel_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


class TestBenchHarness:
    def test_measure_scale_smoke(self):
        entry = kernel_bench.measure_scale(4, sim_seconds=2.0, repetitions=1)
        assert entry["n_clients"] == 4
        assert entry["logical_events"] > 0
        assert entry["engine_events"] > 0
        assert entry["wall_s"] > 0
        assert entry["events_per_sec"] == pytest.approx(
            entry["logical_events"] / entry["wall_s"]
        )
        assert entry["wall_s_per_sim_s"] == pytest.approx(entry["wall_s"] / 2.0)

    def test_logical_events_are_deterministic(self):
        a = kernel_bench.measure_scale(4, sim_seconds=2.0, repetitions=1)
        b = kernel_bench.measure_scale(4, sim_seconds=2.0, repetitions=1)
        # Wall time varies; the event counts must not.
        assert a["logical_events"] == b["logical_events"]
        assert a["engine_events"] == b["engine_events"]

    def test_bench_spec_is_nominal_penelope(self):
        spec = kernel_bench.bench_spec(16)
        assert spec.manager == "penelope"
        assert spec.fault_plan is None
        assert spec.n_clients == 16

    def test_cli_bench_writes_json(self, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        rc = cli_main(
            [
                "bench",
                "--scales", "4",
                "--sim-seconds", "1",
                "--repetitions", "1",
                "--output", str(out),
                "--baseline", str(tmp_path / "missing.json"),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "kernel"
        assert payload["baseline"] is None
        (entry,) = payload["scales"]
        assert entry["n_clients"] == 4
        assert "speedup_vs_baseline" not in entry
        # The batched guard always runs; the 10k sweep row is opt-in.
        guard = payload["batched_guard"]
        assert payload["batched_sweep"] is None
        split = json.loads((tmp_path / "BENCH_kernel.batched.json").read_text())
        assert split["mode"] == "batched_ticks"
        assert split["scales"] == [guard["per_node"], guard["batched"]]

    def test_batched_guard_pair_sweep_row_and_split(self, tmp_path):
        payload = kernel_bench.run_bench(
            scales=[4],
            sim_seconds=1.0,
            repetitions=1,
            baseline_path=tmp_path / "missing.json",
            batched_sweep_scale=6,
        )
        guard = payload["batched_guard"]
        assert guard["n_clients"] == 4
        # Fallback scale, far below the 4096-node target: measured and
        # reported, but the 1.3x budget must not gate the run.
        assert guard["enforced"] is False
        per_node, batched = guard["per_node"], guard["batched"]
        assert per_node["batched_ticks"] is False
        assert batched["batched_ticks"] is True
        assert guard["speedup_vs_per_node"] == pytest.approx(
            batched["events_per_sec"] / per_node["events_per_sec"]
        )
        assert guard["within_budget"] == (
            guard["speedup_vs_per_node"] >= kernel_bench.BATCHED_BUDGET_RATIO
        )
        sweep = payload["batched_sweep"]
        assert sweep["n_clients"] == 6
        assert sweep["batched_ticks"] is True
        assert sweep["logical_events"] > 0
        # Sweep rows stay per-node.
        assert all(not row["batched_ticks"] for row in payload["scales"])
        # The per-mode split artifact collects every batched-series row.
        path = kernel_bench.write_bench_split(
            payload, output=tmp_path / "BENCH_kernel.json"
        )
        assert path.name == "BENCH_kernel.batched.json"
        batched_split = json.loads(path.read_text())
        assert batched_split["mode"] == "batched_ticks"
        assert batched_split["scales"] == [per_node, batched, sweep]

    def test_measure_scale_batched_row(self):
        entry = kernel_bench.measure_scale(
            4, sim_seconds=1.0, repetitions=1, batched=True,
        )
        assert entry["batched_ticks"] is True
        assert entry["logical_events"] > 0

    def test_speedup_computed_against_baseline(self, tmp_path):
        entry = kernel_bench.measure_scale(4, sim_seconds=1.0, repetitions=1)
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps({"scales": [entry]}))
        baseline = kernel_bench.load_baseline(base_path)
        assert baseline is not None
        assert baseline[4]["events_per_sec"] == entry["events_per_sec"]

    def test_checked_in_baseline_covers_default_scales(self):
        baseline = kernel_bench.load_baseline(
            REPO_ROOT / "benchmarks" / "results" / "BENCH_kernel_baseline.json"
        )
        assert baseline is not None
        assert set(baseline) == {64, 256, 1024}
        for entry in baseline.values():
            assert entry["events_per_sec"] > 0


class TestPinnedTrajectoryDeterminism:
    @pytest.mark.parametrize(
        "name",
        [
            "kernel_nominal_penelope",
            "kernel_nominal_slurm",
            "kernel_nominal_fair",
        ],
    )
    def test_byte_identical_to_pinned_fixture(self, name):
        # The fixture bytes are the determinism contract.  Batching is
        # pinned off: the bytes encode the staggered per-node
        # trajectory, which the batcher only approximates (one CI leg
        # runs the rest of the suite batched).
        module = _fixture_module()
        spec = module.FIXTURE_SPECS[name]
        expected = (FIXTURES / f"{name}.json").read_text()
        data = encode(run_single(spec))
        data["network"] = module._upgrade_network_dict(dict(data["network"]))
        assert canonical_json(data) + "\n" == expected
