"""One benchmark operation, measured in this (fresh) process.

Started by ``run.py`` with a cleared environment and ``src`` as the
only ``PYTHONPATH`` entry; prints one JSON object (timings, output
digest, per-layer metrics when traced) as its last stdout line.  Run it
directly only to debug:

    PYTHONPATH=src python3 perfbench/workloads.py --workload p2p-scale \
        --seed 0 --kind sliced

Operation kinds: a single simulation is either *sliced* (``engine.run``
to every ``k * SLICE_S``, timing each slice), an unsliced *replay* of
the same input, or *traced* (sliced, with spans).  A campaign operation
is a cold pass into a fresh result cache (under ``$TMPDIR``) followed by
``WARM_PASSES`` warm passes that replay it, optionally traced.  All
times are nominal seconds (``calibrate.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import Calibrator
from spans import Tracer, layer_metrics, server_queue_depth, span_table, universe_counts

from repro.core.config import PenelopeConfig
from repro.experiments import runner
from repro.experiments.faulty import run_faulty_sweep
from repro.experiments.harness import RunSpec, build_run
from repro.experiments.nominal import run_nominal_sweep
from repro.experiments.scaling import SCALING_RUN, ScalingSpec, sweep_scale
from repro.managers.slurm import SlurmConfig
from repro.sim.config import SimConfig

#: Simulated seconds per slice of a sliced run.
SLICE_S = 0.1

#: Warm passes per campaign operation (``replay_s`` is their median).
WARM_PASSES = 3


@dataclass(frozen=True)
class SimWorkload:
    """One simulation, built through ``build_run`` and run to a horizon."""

    spec: Callable[[int], RunSpec]
    sim: SimConfig
    slices: int


@dataclass(frozen=True)
class CampaignWorkload:
    """The reduced figure reproduction (Figs. 2, 3, 6/8) at ``jobs=1``."""

    pairs: Tuple[Tuple[str, str], ...]
    caps: Tuple[float, ...]
    n_clients: int
    workload_scale: float
    scales: Tuple[int, ...]
    observe_for_s: float


def _penelope(n: int, membership: bool = False) -> Callable[[int], RunSpec]:
    config = PenelopeConfig(enable_membership=True) if membership else None

    def spec(seed: int) -> RunSpec:
        return RunSpec("penelope", ("EP", "DC"), 80.0, n_clients=n, seed=seed,
                       workload_scale=1.0, manager_config=config)

    return spec


def _central(n: int) -> Callable[[int], RunSpec]:
    # benchmarks/conftest.py's Fig. 4/5/7 SLURM settings: service time
    # scaled by 1056/n so the knee sits where the paper's 1056 nodes put it.
    factor = 1056 / n
    config = SlurmConfig(
        period_s=1.0 / 20.0,
        rate_scheme="scale-aware",
        overhead_factor=0.0,
        stagger_window_s=2e-3,
        server_service_time_s=(80e-6 * factor, 100e-6 * factor),
        server_inbox_capacity=2048,
    )

    def spec(seed: int) -> RunSpec:
        return RunSpec("slurm", ("EP", "DC"), 80.0, n_clients=n, seed=seed,
                       workload_scale=1.0, manager_config=config)

    return spec


BATCHED = SimConfig(scheduler="heap", batched_ticks=True)
PER_NODE = SimConfig(scheduler="heap", batched_ticks=False)
FIG_PAIRS = (("EP", "DC"), ("CG", "LU"), ("FT", "MG"), ("BT", "DC"), ("EP", "CG"), ("SP", "UA"))

#: size -> workload name -> definition.  ``tiny`` is the self-test size.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "full": {
        "p2p-scale": SimWorkload(_penelope(4096), BATCHED, slices=100),
        "p2p-membership": SimWorkload(_penelope(1024, membership=True), PER_NODE, slices=100),
        "central-saturation": SimWorkload(_central(256), PER_NODE, slices=100),
        "figure-campaign": CampaignWorkload(
            pairs=FIG_PAIRS, caps=(60.0, 80.0, 100.0), n_clients=10,
            workload_scale=0.25, scales=(44, 132, 264, 528), observe_for_s=40.0,
        ),
    },
    "tiny": {
        "p2p-scale": SimWorkload(_penelope(64), BATCHED, slices=10),
        "p2p-membership": SimWorkload(_penelope(32, membership=True), PER_NODE, slices=10),
        "central-saturation": SimWorkload(_central(16), PER_NODE, slices=10),
        "figure-campaign": CampaignWorkload(
            pairs=(("EP", "DC"),), caps=(80.0,), n_clients=4,
            workload_scale=0.05, scales=(8, 16), observe_for_s=5.0,
        ),
    },
}


def canonical_digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    """One measured operation's outcome."""

    kind: str  # "sliced", "replay", "traced", "campaign", "campaign-traced"
    setup_s: float = 0.0
    wall_s: float = 0.0
    digest: Any = None
    ok: bool = True
    error: str = ""
    #: Seconds per simulated second, one per slice or per spec, and the
    #: simulated seconds each covers.
    per_sim_s: List[float] = field(default_factory=list)
    sim_s: List[float] = field(default_factory=list)
    #: Seconds per executed simulation.
    run_s: List[float] = field(default_factory=list)
    replay_s: float = 0.0
    #: Seconds the executed simulations took, for runs per second.
    busy_s: float = 0.0
    #: Nominal seconds per host second over the operation.
    speed_factor: float = 1.0
    #: The timed section in host seconds, calibration chunks included.
    raw_wall_s: float = 0.0
    attempted: int = 1
    failed: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fidelity: Dict[str, Any] = field(default_factory=dict)


# -- single simulations ------------------------------------------------------


def sim_digest(engine: Any, cluster: Any, manager: Any) -> str:
    """Logical events, network stats, engine events and final caps."""
    return canonical_digest({
        "logical_events": universe_counts(manager, cluster)["logical"],
        "network": asdict(cluster.network.stats),
        "processed_events": engine.processed_events,
        "caps": [cluster.node(i).rapl.cap_w for i in manager.client_ids],
    })


def sim_op(work: SimWorkload, seed: int, kind: str) -> Op:
    """Build, start and run one simulation to the horizon.

    A sliced run times each ``engine.run(until=k * SLICE_S)``.
    """
    op = Op(kind)
    depths: List[int] = []
    slices: List[Tuple[float, float]] = []
    calibrator = Calibrator()
    tracer = Tracer(calibrator.clock) if kind == "traced" else None
    clock = time.perf_counter
    gc.collect()
    with calibrator, tracer or contextlib.nullcontext():
        start = clock()
        engine, cluster, manager = build_run(work.spec(seed), sim=work.sim)
        manager.start()
        for node in cluster.compute_nodes():
            node.start_workload()
        built = clock()
        if kind == "replay":
            engine.run(until=work.slices * SLICE_S)
        else:
            for k in range(1, work.slices + 1):
                sliced = clock()
                engine.run(until=k * SLICE_S)
                slices.append((sliced, clock()))
                if tracer is not None:
                    depth = server_queue_depth(manager)
                    if depth is not None:
                        depths.append(depth)
        end = clock()
        manager.audit().check()
    nominal = calibrator.nominal
    op.setup_s = nominal(start, built)
    op.wall_s = nominal(built, end)
    op.per_sim_s = [nominal(a, b) / SLICE_S for a, b in slices]
    op.sim_s = [SLICE_S] * len(slices)
    op.run_s = [nominal(start, end)]
    op.busy_s = op.run_s[0]
    if kind == "replay":
        op.replay_s = op.wall_s
    op.digest = sim_digest(engine, cluster, manager)
    if tracer is not None:
        tracer.fold()
        op.layers = layer_metrics(tracer, depths)
        op.spans = span_table(tracer)
    return calibrated(op, calibrator, end - built)


def calibrated(op: Op, calibrator: Calibrator, raw_wall_s: float) -> Op:
    """Record the calibration; scale the per-layer times (measured on the
    calibrator's clock) by the block's speed factor."""
    factor = calibrator.speed_factor()
    op.speed_factor = factor
    op.raw_wall_s = raw_wall_s
    op.layers = {k: v * factor if k.endswith("_s") else v for k, v in op.layers.items()}
    op.spans = {
        name: {k: v * factor if k.endswith("_s") else v for k, v in row.items()}
        for name, row in op.spans.items()
    }
    return op


# -- the figure campaign -----------------------------------------------------


class _Progress:
    """Sweep-runner progress events, timestamped (``perf_counter``) on
    arrival."""

    def __init__(self) -> None:
        self.events: List[Tuple[float, runner.ProgressEvent]] = []

    def __call__(self, event: runner.ProgressEvent) -> None:
        self.events.append((time.perf_counter(), event))


def _campaign_pass(work: CampaignWorkload, seed: int, cache_dir: str) -> Tuple[Any, List[Any]]:
    """The three sweeps; returns (results, per-sweep (start, events))
    with ``perf_counter`` times."""
    progress = _Progress()
    runner.add_progress_listener(progress)
    sweeps: List[Any] = []
    try:
        common = dict(
            caps=work.caps, pairs=list(work.pairs), n_clients=work.n_clients,
            workload_scale=work.workload_scale, seed=seed, jobs=1, cache_dir=cache_dir,
        )
        marks = []
        for call in (
            lambda: run_nominal_sweep(**common),
            lambda: run_faulty_sweep(**common),
            lambda: sweep_scale(scales=work.scales, frequency_hz=1.0,
                                managers=("penelope", "slurm"), seed=seed,
                                observe_for_s=work.observe_for_s, jobs=1,
                                cache_dir=cache_dir),
        ):
            first = len(progress.events)
            started = time.perf_counter()
            sweeps.append(call())
            marks.append((started, progress.events[first:]))
    finally:
        runner.remove_progress_listener(progress)
    return sweeps, marks


def _cache_digests(cache_dir: str) -> Dict[str, Any]:
    """fingerprint -> (digest of the stored result_to_dict, simulated s)."""
    out: Dict[str, Any] = {}
    for path in sorted(Path(cache_dir).rglob("*.json")):
        payload = json.loads(path.read_text())
        result = payload["result"]
        sim_s = result.get("runtime_s")
        if sim_s is None:
            spec = payload["spec"]
            sim_s = spec["release_at_s"] + spec["observe_for_s"]
        out[path.stem] = (canonical_digest(result)[:12], sim_s, path.stat().st_size)
    return out


def _fingerprint(spec: Any) -> str:
    kind = SCALING_RUN if isinstance(spec, ScalingSpec) else runner.SINGLE_RUN
    return runner.spec_fingerprint(spec, kind)


def _fidelity(sweeps: List[Any]) -> Dict[str, Any]:
    nominal, faulty, scale = sweeps
    return {
        "fig2_slurm_over_penelope_pct": 100 * nominal.mean_advantage("slurm", "penelope"),
        "fig2_paper_pct": 1.8,
        "fig3_penelope_over_slurm_pct": 100 * faulty.penelope_advantage_over_slurm(),
        "fig3_paper_pct": "8-15",
        "fig6_median_redistribution_s": {
            f"{manager}@{n}": result.redistribution_median_s
            for (manager, n), result in sorted(scale.items())
        },
    }


def _same_results(cold: List[Any], warm: List[Any]) -> List[bool]:
    """Per sweep: did the warm pass decode to the cold pass's results?"""
    to_dict = SCALING_RUN.result_to_dict
    return [
        cold[0] == warm[0],
        cold[1] == warm[1],
        {k: to_dict(v) for k, v in cold[2].items()} == {k: to_dict(v) for k, v in warm[2].items()},
    ]


def campaign_op(work: CampaignWorkload, seed: int, kind: str) -> Op:
    """A cold pass into a fresh cache, then ``WARM_PASSES`` warm passes
    replaying it."""
    op = Op(kind)
    calibrator = Calibrator()
    tracer = Tracer(calibrator.clock) if kind == "campaign-traced" else None
    clock = time.perf_counter
    cache_dir = tempfile.mkdtemp(prefix="cache-")
    passes: List[Tuple[Any, List[Any]]] = []
    bounds: List[Tuple[float, float]] = []
    try:
        gc.collect()
        with calibrator, tracer or contextlib.nullcontext():
            for _ in range(1 + WARM_PASSES):
                started = clock()
                passes.append(_campaign_pass(work, seed, cache_dir))
                bounds.append((started, clock()))
        stored = _cache_digests(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    (cold, cold_marks), warm = passes[0], passes[1:]
    nominal = calibrator.nominal
    op.wall_s = op.busy_s = nominal(*bounds[0])
    op.replay_s = statistics.median(nominal(*b) for b in bounds[1:])

    def set_up(marks: List[Any]) -> float:
        """From each sweep's call to the start of its first spec (spec
        construction, fingerprints, the first cache lookup), summed."""
        total = 0.0
        for sweep_start, events in marks:
            arrived, event = events[0]
            began = arrived - event.duration_s
            total += nominal(sweep_start, began)
        return total

    op.setup_s = statistics.median(set_up(marks) for _, marks in passes)
    digests: Dict[str, str] = {}
    for arrived, event in (pair for _, events in cold_marks for pair in events):
        if event.cached:
            continue
        fingerprint = _fingerprint(event.spec)
        digest, sim_s, _ = stored[fingerprint]
        digests[fingerprint[:12]] = digest
        # The runner timed the spec with perf_counter, ending just
        # before the progress event arrived.
        duration = nominal(arrived - event.duration_s, arrived)
        op.run_s.append(duration)
        op.per_sim_s.append(duration / sim_s)
        op.sim_s.append(sim_s)
    op.digest = digests
    events = [e for _, marks in passes for _, evs in marks for _, e in evs]
    op.attempted = len(events)
    # A warm spec that re-executed, or a sweep whose warm results differ
    # from the cold ones, fails the replay gate.
    for results, marks in warm:
        op.failed += sum(1 for _, evs in marks for _, e in evs if not e.cached)
        for same, (_, evs) in zip(_same_results(cold, results), marks):
            if not same:
                op.failed += len(evs)
    op.fidelity = _fidelity(cold)
    if tracer is not None:
        cache = {"bytes": float(sum(size for _, _, size in stored.values())),
                 "hits": float(sum(1 for e in events if e.cached)),
                 "lookups": float(len(events))}
        op.layers = layer_metrics(tracer, [], cache)
        op.spans = span_table(tracer)
    return calibrated(op, calibrator, bounds[0][1] - bounds[0][0])


# -- entry point -------------------------------------------------------------


def run_op(work: Any, seed: int, kind: str) -> Op:
    """One operation; an exception fails it instead of ending the run."""
    try:
        if isinstance(work, CampaignWorkload):
            return campaign_op(work, seed, kind)
        return sim_op(work, seed, kind)
    except Exception as exc:  # noqa: BLE001 -- a failed op is a measurement
        return Op(kind, ok=False, error=f"{type(exc).__name__}: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kind", required=True,
                        choices=("sliced", "replay", "traced", "campaign", "campaign-traced"))
    args = parser.parse_args(argv)

    work = WORKLOADS[args.size][args.workload]
    payload = asdict(run_op(work, args.seed, args.kind))
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # run_sweep takes no SimConfig: campaign runs use the default one,
    # which the cleared environment leaves at its built-in values.
    sim = work.sim if isinstance(work, SimWorkload) else SimConfig()
    payload["env"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sim_config": asdict(sim),
        "scheduler": sim.make_scheduler().__class__.__name__,
        "batched_ticks": sim.effective_batched_ticks(),
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
