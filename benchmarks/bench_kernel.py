"""Kernel hot-path microbenchmark (ROADMAP: "as fast as the hardware allows").

Times the event kernel executing the nominal Penelope scenario (the same
measurement ``python -m repro bench`` makes) and records throughput in
kernel-revision-invariant logical events per second -- see
:mod:`repro.experiments.bench` for why engine-level ``processed_events``
cannot be compared across kernel revisions.

When ``benchmarks/results/BENCH_kernel_baseline.json`` is present (it is
checked in, generated at the pre-optimization revision), the benchmark
asserts the current kernel is not slower than that baseline at the
measured scale.
"""

from __future__ import annotations

import json

from conftest import FULL, RESULTS_DIR, save_figure

from repro.experiments.bench import DEFAULT_BASELINE, load_baseline, measure_scale


def bench_kernel_hot_path(benchmark):
    # 60 simulated seconds matches the checked-in baseline entries, so the
    # regression assertion below applies in reduced mode too (a 64-node
    # minute simulates in well under a wall-second).
    n_clients = 256 if FULL else 64
    sim_seconds = 60.0

    result = benchmark.pedantic(
        lambda: measure_scale(n_clients, sim_seconds=sim_seconds, repetitions=1),
        rounds=1,
        iterations=1,
    )
    save_figure("kernel_hot_path", json.dumps(result, indent=2, sort_keys=True))

    benchmark.extra_info["events_per_sec"] = round(result["events_per_sec"])
    benchmark.extra_info["wall_s_per_sim_s"] = round(
        result["wall_s_per_sim_s"], 4
    )

    assert result["logical_events"] > 0
    assert result["engine_events"] > 0
    baseline = load_baseline(DEFAULT_BASELINE)
    if baseline is None:
        baseline = load_baseline(RESULTS_DIR / "BENCH_kernel_baseline.json")
    base = (baseline or {}).get(n_clients)
    if base is not None and base["sim_seconds"] == sim_seconds:
        # Identical logical workload on both sides: the throughput ratio
        # is the wall-clock ratio.  Generous slack absorbs machine noise.
        assert result["events_per_sec"] >= 0.8 * base["events_per_sec"]
