"""Kernel hot-path benchmark (``python -m repro bench``).

Times the simulation kernel executing the paper's nominal Penelope
scenario at several cluster scales and writes ``BENCH_kernel.json``.
The north-star metric for ROADMAP item "runs as fast as the hardware
allows": wall-seconds per simulated second, plus throughput in events
per wall-second.

Metric definition
-----------------
Engine-level ``processed_events`` is **not** comparable across kernel
revisions: converting a three-event process pattern (initialize /
timeout / completion) into a single callback event makes the simulation
faster precisely by *removing* queue events while producing
byte-identical results.  Throughput is therefore counted in *logical
scenario events* -- semantic occurrences pinned down by the
deterministic simulation itself, so the count is identical for any
kernel that simulates the scenario correctly:

* messages sent on the network fabric,
* decider control-loop iterations,
* failure-detector probe rounds (when membership is enabled),
* RAPL cap writes and power reads.

``events_per_sec`` = logical events / wall seconds is comparable across
kernel revisions (its ratio between two revisions equals their
wall-clock ratio on the fixed scenario).  The engine-internal counters
(``engine_events``, ``engine_events_per_sec``, ``engine_cancelled``)
are reported alongside for context.

Batched ticks
-------------
A guard pair compares per-node decider loops against the batched tick
driver (``SimConfig(batched_ticks=True)``) at the largest scale:
batching must deliver ``BATCHED_BUDGET_RATIO`` of extra throughput, and
an optional batched-only row extends the sweep to
``BATCHED_SWEEP_SCALE`` (10k nodes) -- the point the per-node loops
were too slow to pin.

A baseline file (``benchmarks/results/BENCH_kernel_baseline.json``,
generated with the same procedure at the pre-optimization revision)
adds ``speedup_vs_baseline`` to the rows when present.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import PenelopeConfig
from repro.experiments.harness import RunSpec, build_run
from repro.sim.config import SimConfig

#: Cluster sizes of the default sweep.  The paper's Fig. 6/8 range spans
#: 44-1056 nodes; 64-1024 bracket it in powers of four and 4096 probes
#: past it.
DEFAULT_SCALES = (64, 256, 1024, 4096)
DEFAULT_SIM_SECONDS = 60.0
#: Best-of-N wall time per row.  Five repetitions, not three: the
#: guards compare effects of a few percent, and the best-of estimator
#: has to sit below the machine's noise floor (~2% on an otherwise idle
#: host) for the comparison to be meaningful.
DEFAULT_REPETITIONS = 5

#: Where the pre-optimization reference measurements live.
DEFAULT_BASELINE = Path("benchmarks/results/BENCH_kernel_baseline.json")
DEFAULT_OUTPUT = Path("BENCH_kernel.json")

#: The SWIM failure detector may not cost the kernel more than 5% of its
#: event throughput on the nominal scenario (ISSUE 5 overhead budget):
#: membership-on events/sec must stay >= this fraction of membership-off.
MEMBERSHIP_BUDGET_RATIO = 0.95

#: Scale at which the membership overhead guard runs (falls back to the
#: largest measured scale when 256 is not in the sweep).
MEMBERSHIP_GUARD_SCALE = 256

#: The batched tick driver (``SimConfig(batched_ticks=True)``) must
#: reach at least this multiple of the *unbatched* throughput
#: at the guard scale: replacing N generator resumes + N timeouts per
#: period with one callback per period is the whole point, and a ratio
#: below this means the batch loop's bookkeeping ate the win.
BATCHED_BUDGET_RATIO = 1.3

#: Scale at which the batched guard runs (falls back to the largest
#: measured scale when 4096 is not in the sweep).
BATCHED_GUARD_SCALE = 4096

#: The batched guard's measurement horizon is capped at this many
#: sim-seconds regardless of the sweep's ``--sim-seconds``: the 1.3x
#: budget is a pinned protocol point (matching the CI guard leg's 10 s
#: horizon), not a universal constant.  Longer horizons measure the
#: steady state, where the per-node side's startup costs have amortized
#: and the ratio settles lower (~1.23x at 60 s on the reference
#: machine, see EXPERIMENTS.md); the budget deliberately does not gate
#: that regime.
BATCHED_GUARD_SIM_SECONDS = 10.0

#: First past-the-paper sweep point, measured batched-only -- the
#: 10k-node row that the per-node loops were too slow to pin.
BATCHED_SWEEP_SCALE = 10000


def bench_spec(n_clients: int, membership: bool = False) -> RunSpec:
    """The nominal scenario used for all kernel measurements.

    Penelope at EP:DC under an 80 W/socket cap -- the configuration with
    the liveliest request/grant traffic, so every kernel path (messages,
    timeouts, cap enforcement, condition waits) is exercised.  With
    ``membership`` the same scenario also runs the SWIM failure detector
    on every node (the overhead-guard variant).
    """
    return RunSpec(
        "penelope",
        ("EP", "DC"),
        80.0,
        n_clients=n_clients,
        seed=2022,
        workload_scale=1.0,
        manager_config=PenelopeConfig(enable_membership=True) if membership else None,
    )


def _logical_events(cluster: Any, manager: Any) -> int:
    """Count kernel-revision-invariant scenario events (see module doc)."""
    total = cluster.network.stats.sent
    for node in cluster.compute_nodes():
        total += node.rapl.cap_writes + node.rapl.power_reads
    for decider in getattr(manager, "deciders", {}).values():
        total += decider.iterations
    for detector in getattr(manager, "detectors", {}).values():
        total += detector.probe_rounds
    return total


def _measure_once(
    n_clients: int,
    sim_seconds: float,
    membership: bool,
    batched: bool = False,
) -> "Tuple[float, int, int, int]":
    """One timed run: ``(wall_s, logical, engine_events, engine_cancelled)``.

    Builds a fresh simulation universe (construction is excluded from the
    timed section) and runs the engine to the horizon with the cyclic
    garbage collector disabled -- its pauses land on random repetitions
    and can dwarf the kernel differences under test.
    """
    engine, cluster, manager = build_run(
        bench_spec(n_clients, membership=membership),
        sim=SimConfig(batched_ticks=batched),
    )
    manager.start()
    for node in cluster.compute_nodes():
        node.start_workload()
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        engine.run(until=sim_seconds)
        wall = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    # The seed revision predates lazy timeout deletion.
    cancelled = getattr(engine, "cancelled_events", 0)
    return wall, _logical_events(cluster, manager), engine.processed_events, cancelled


def _scale_entry(
    n_clients: int,
    membership: bool,
    sim_seconds: float,
    repetitions: int,
    wall: float,
    counts: "Tuple[int, int, int]",
    batched: bool = False,
) -> Dict[str, Any]:
    """Assemble one measurement row from its best wall time and counts."""
    logical, engine_events, engine_cancelled = counts
    return {
        "n_clients": n_clients,
        "membership": membership,
        "batched_ticks": batched,
        "sim_seconds": sim_seconds,
        "repetitions": repetitions,
        "wall_s": wall,
        "wall_s_per_sim_s": wall / sim_seconds,
        "logical_events": logical,
        "events_per_sec": logical / wall,
        "engine_events": engine_events,
        "engine_cancelled": engine_cancelled,
        "engine_events_per_sec": engine_events / wall,
    }


def measure_scale(
    n_clients: int,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    repetitions: int = DEFAULT_REPETITIONS,
    membership: bool = False,
    batched: bool = False,
) -> Dict[str, Any]:
    """Run the nominal scenario for ``sim_seconds`` and time the kernel.

    The best wall time across repetitions is reported to suppress
    OS scheduling noise; the event counts are identical across
    repetitions by determinism.
    """
    best_wall: Optional[float] = None
    counts: "Tuple[int, int, int]" = (0, 0, 0)
    for _ in range(max(1, repetitions)):
        wall, logical, engine_events, engine_cancelled = _measure_once(
            n_clients, sim_seconds, membership, batched=batched
        )
        counts = (logical, engine_events, engine_cancelled)
        if best_wall is None or wall < best_wall:
            best_wall = wall
    assert best_wall is not None
    return _scale_entry(
        n_clients, membership, sim_seconds, repetitions, best_wall,
        counts, batched=batched,
    )


def measure_guard_pair(
    n_clients: int,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    repetitions: int = DEFAULT_REPETITIONS,
) -> "Tuple[Dict[str, Any], Dict[str, Any]]":
    """Measure membership-off and membership-on back to back, interleaved.

    The overhead guard compares two short runs, so slow drift in machine
    speed (CPU frequency scaling, background load) between the two
    measurements can swamp the ~5% effect under test.  Alternating
    plain/membership runs within each repetition makes both sides sample
    the same drift; best-of-N then suppresses the fast noise.
    """
    best: Dict[bool, Optional[float]] = {False: None, True: None}
    counts: Dict[bool, "Tuple[int, int, int]"] = {}
    for _ in range(max(1, repetitions)):
        for membership in (False, True):
            wall, logical, engine_events, cancelled = _measure_once(
                n_clients, sim_seconds, membership
            )
            previous = best[membership]
            if previous is None or wall < previous:
                best[membership] = wall
            counts[membership] = (logical, engine_events, cancelled)

    def _entry(membership: bool) -> Dict[str, Any]:
        wall = best[membership]
        assert wall is not None
        return _scale_entry(
            n_clients, membership, sim_seconds, repetitions,
            wall, counts[membership],
        )

    return _entry(False), _entry(True)


def measure_batched_pair(
    n_clients: int,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    repetitions: int = DEFAULT_REPETITIONS,
) -> "Tuple[Dict[str, Any], Dict[str, Any]]":
    """Measure per-node and batched tick driving back to back, interleaved.

    Returns ``(per_node_entry, batched_entry)``.  Identical
    drift-cancellation treatment as :func:`measure_guard_pair`: the two
    tick drivers alternate within each repetition (order flipping every
    repetition) so machine-speed drift samples both sides equally,
    then best-of-N suppresses fast noise.  The nominal scenario staggers
    decider starts, which the batcher quantizes onto slots, so the two
    logical-event counts may differ by a handful of boundary ticks --
    each side's events/sec uses its own count, keeping the ratio fair.
    """
    best: Dict[bool, Optional[float]] = {False: None, True: None}
    counts: Dict[bool, "Tuple[int, int, int]"] = {}
    for repetition in range(max(1, repetitions)):
        order = (False, True) if repetition % 2 == 0 else (True, False)
        for batched in order:
            wall, logical, engine_events, cancelled = _measure_once(
                n_clients, sim_seconds, membership=False, batched=batched,
            )
            previous = best[batched]
            if previous is None or wall < previous:
                best[batched] = wall
            counts[batched] = (logical, engine_events, cancelled)

    def _entry(batched: bool) -> Dict[str, Any]:
        wall = best[batched]
        assert wall is not None
        return _scale_entry(
            n_clients, False, sim_seconds, repetitions,
            wall, counts[batched], batched=batched,
        )

    return _entry(False), _entry(True)


def load_baseline(path: Path) -> Optional[Dict[int, Dict[str, Any]]]:
    """Baseline measurements keyed by cluster size, or None if absent."""
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    return {entry["n_clients"]: entry for entry in data["scales"]}


def run_bench(
    scales: Sequence[int] = DEFAULT_SCALES,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    repetitions: int = DEFAULT_REPETITIONS,
    baseline_path: Path = DEFAULT_BASELINE,
    progress: bool = False,
    batched_sweep_scale: Optional[int] = None,
) -> Dict[str, Any]:
    """Measure every scale plus the guards and assemble the payload.

    ``batched_sweep_scale`` (e.g. ``BATCHED_SWEEP_SCALE``) adds one
    batched-only row past the sweep -- the 10k-node point where the
    per-node tick loops are too slow to be worth pinning.  ``None`` (the
    default) skips it; the batched guard itself always runs.
    """
    baseline = load_baseline(baseline_path)
    results: List[Dict[str, Any]] = []
    for n in scales:
        entry = measure_scale(n, sim_seconds=sim_seconds, repetitions=repetitions)
        base = baseline.get(n) if baseline else None
        if base is not None:
            # Same logical workload on both sides, so the events/sec
            # ratio and the wall-time ratio are the same number.
            entry["baseline_events_per_sec"] = base["events_per_sec"]
            entry["baseline_wall_s_per_sim_s"] = base["wall_s_per_sim_s"]
            entry["speedup_vs_baseline"] = (
                entry["events_per_sec"] / base["events_per_sec"]
            )
        if progress:
            speedup = entry.get("speedup_vs_baseline")
            extra = f"  speedup={speedup:.2f}x" if speedup is not None else ""
            print(
                f"[bench] {n:5d} nodes: "
                f"{entry['wall_s']:.3f}s wall for {sim_seconds:g} sim-s "
                f"({entry['events_per_sec']:,.0f} events/s){extra}"
            )
        results.append(entry)
    # -- batched tick guard --------------------------------------------------
    # Batching must beat per-node loops by BATCHED_BUDGET_RATIO at the
    # largest measured scale: one callback per period per stagger slot
    # versus N generator resumes + N timeouts.  Both sides are
    # re-measured interleaved (not taken from the sweep above) so
    # machine-speed drift cancels.
    batched_n = (
        BATCHED_GUARD_SCALE if BATCHED_GUARD_SCALE in scales else max(scales)
    )
    per_node, batched_entry = measure_batched_pair(
        batched_n,
        sim_seconds=min(sim_seconds, BATCHED_GUARD_SIM_SECONDS),
        repetitions=repetitions,
    )
    batched_ratio = batched_entry["events_per_sec"] / per_node["events_per_sec"]
    batched_guard: Dict[str, Any] = {
        "n_clients": batched_n,
        "per_node": per_node,
        "batched": batched_entry,
        "speedup_vs_per_node": batched_ratio,
        "budget_ratio": BATCHED_BUDGET_RATIO,
        "within_budget": batched_ratio >= BATCHED_BUDGET_RATIO,
        # The 1.3x claim is about amortizing per-node overheads at
        # scale; a fallback run at 64 nodes has little to amortize, so
        # the budget only gates when the 4096-node target ran.
        "enforced": batched_n >= BATCHED_GUARD_SCALE,
    }
    if progress:
        verdict = "PASS" if batched_guard["within_budget"] else (
            "FAIL" if batched_guard["enforced"] else "below-target scale"
        )
        print(
            f"[bench] batched guard @ {batched_n} nodes: "
            f"{batched_entry['wall_s']:.3f}s wall vs "
            f"{per_node['wall_s']:.3f}s per-node "
            f"({batched_ratio:.3f}x, budget >= "
            f"{BATCHED_BUDGET_RATIO:g}x) {verdict}"
        )
    # -- batched 10k sweep row ----------------------------------------------
    batched_sweep: Optional[Dict[str, Any]] = None
    if batched_sweep_scale:
        batched_sweep = measure_scale(
            batched_sweep_scale, sim_seconds=sim_seconds,
            repetitions=repetitions, batched=True,
        )
        if progress:
            print(
                f"[bench] {batched_sweep_scale:5d} nodes [batched]: "
                f"{batched_sweep['wall_s']:.3f}s wall for "
                f"{sim_seconds:g} sim-s "
                f"({batched_sweep['events_per_sec']:,.0f} events/s)"
            )
    # -- membership overhead guard ------------------------------------------
    # Same scenario, detector on, at (preferably) 256 nodes: the extra
    # probe/ack traffic is itself counted in logical events, so the
    # events/sec ratio isolates per-event kernel cost -- membership must
    # keep at least MEMBERSHIP_BUDGET_RATIO of the plain throughput.  The
    # plain side is re-measured interleaved with the membership side (not
    # taken from the sweep above) so machine-speed drift cancels.
    guard_n = (
        MEMBERSHIP_GUARD_SCALE
        if MEMBERSHIP_GUARD_SCALE in scales
        else max(scales)
    )
    plain, membership_entry = measure_guard_pair(
        guard_n, sim_seconds=sim_seconds, repetitions=repetitions,
    )
    ratio = membership_entry["events_per_sec"] / plain["events_per_sec"]
    membership_entry["plain_events_per_sec"] = plain["events_per_sec"]
    membership_entry["throughput_ratio_vs_plain"] = ratio
    membership_entry["budget_ratio"] = MEMBERSHIP_BUDGET_RATIO
    membership_entry["within_budget"] = ratio >= MEMBERSHIP_BUDGET_RATIO
    if progress:
        verdict = "PASS" if membership_entry["within_budget"] else "FAIL"
        print(
            f"[bench] {guard_n:5d} nodes + membership: "
            f"{membership_entry['wall_s']:.3f}s wall "
            f"({membership_entry['events_per_sec']:,.0f} events/s, "
            f"{ratio:.3f}x of plain, budget >= "
            f"{MEMBERSHIP_BUDGET_RATIO:g}) {verdict}"
        )
    return {
        "benchmark": "kernel",
        "scenario": "penelope nominal EP:DC @ 80 W/socket, seed 2022",
        "metric_note": (
            "events_per_sec counts kernel-revision-invariant logical "
            "scenario events (messages sent + decider iterations + "
            "failure-detector probe rounds + RAPL cap writes + power "
            "reads); engine_events is the kernel's own processed-event "
            "count and is NOT comparable across revisions"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "baseline": str(baseline_path) if baseline else None,
        "scales": results,
        "batched_guard": batched_guard,
        "batched_sweep": batched_sweep,
        "membership": membership_entry,
    }


def write_bench(payload: Dict[str, Any], output: Path = DEFAULT_OUTPUT) -> Path:
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return output


def write_bench_split(
    payload: Dict[str, Any], output: Path = DEFAULT_OUTPUT
) -> Path:
    """Write the batched-mode file next to ``output`` (CI artifact).

    ``BENCH_kernel.json`` -> ``BENCH_kernel.batched.json``, collecting
    every batched-tick row (the guard pair plus the 10k sweep row, if
    measured) so the batched mode diffs as its own series.
    """
    batched_guard = payload["batched_guard"]
    batched_rows = [batched_guard["per_node"], batched_guard["batched"]]
    if payload.get("batched_sweep") is not None:
        batched_rows.append(payload["batched_sweep"])
    sub = dict(payload)
    sub["mode"] = "batched_ticks"
    sub["scales"] = batched_rows
    path = output.with_name(f"{output.stem}.batched{output.suffix}")
    path.write_text(json.dumps(sub, indent=2, sort_keys=True) + "\n")
    return path


def main(
    scales: Sequence[int] = DEFAULT_SCALES,
    sim_seconds: float = DEFAULT_SIM_SECONDS,
    repetitions: int = DEFAULT_REPETITIONS,
    baseline_path: Path = DEFAULT_BASELINE,
    output: Path = DEFAULT_OUTPUT,
    batched_sweep_scale: Optional[int] = None,
) -> Dict[str, Any]:
    """CLI entry: run the sweep, print progress, write the JSON."""
    payload = run_bench(
        scales=scales,
        sim_seconds=sim_seconds,
        repetitions=repetitions,
        baseline_path=baseline_path,
        progress=True,
        batched_sweep_scale=batched_sweep_scale,
    )
    path = write_bench(payload, output=output)
    print(f"[bench] wrote {path}")
    print(f"[bench] wrote {write_bench_split(payload, output=output)}")
    return payload
