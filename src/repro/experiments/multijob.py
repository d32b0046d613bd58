"""Back-to-back multi-job runs: the §4.4 generalization.

"Under our experimental setup, only one application runs on every node
during a single test, but in a generalized environment multiple workloads
would run on the same hardware back to back.  If these workloads have
drastically different power consumption patterns, a failure to SLURM's
server could throttle application performance even more than is indicated
by our data."

This experiment implements exactly that scenario: every node runs a
*sequence* of applications with deliberately contrasting power appetites
(a donor-ish job followed by a hungry one, or vice versa).  A server
failure during job 1 freezes caps that were tuned for job 1's demand --
precisely wrong for job 2 -- so the degradation is larger than in the
single-job Figure 3 runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.cluster.faults import FaultPlan
from repro.experiments import serialize
from repro.experiments.harness import build_universe, extra_nodes
from repro.experiments.runner import (
    ProgressListener,
    TaskKind,
    raise_on_failures,
    run_sweep,
)
from repro.instrumentation import MetricsRecorder
from repro.managers.base import ManagerConfig
from repro.sim.config import SimConfig
from repro.sim.rng import RngRegistry
from repro.workloads.apps import build_app
from repro.workloads.phases import Workload, concatenate

#: The default contrasting schedule: half the nodes run hungry-then-donor,
#: the other half donor-then-hungry, so the power pattern inverts mid-run.
DEFAULT_SEQUENCES: Tuple[Tuple[str, ...], Tuple[str, ...]] = (
    ("EP", "DC"),
    ("DC", "EP"),
)


def build_sequences(
    n_clients: int,
    sequences: Sequence[Sequence[str]] = DEFAULT_SEQUENCES,
    rngs: Optional[RngRegistry] = None,
    workload_scale: float = 1.0,
) -> Dict[int, Workload]:
    """One concatenated multi-job workload per node, round-robin over
    ``sequences``."""
    rngs = rngs or RngRegistry(seed=0)
    jitter = rngs.stream("multijob.jitter")
    workloads: Dict[int, Workload] = {}
    for node_id in range(n_clients):
        sequence = sequences[node_id % len(sequences)]
        jobs = [build_app(app, rng=jitter, scale=workload_scale) for app in sequence]
        workloads[node_id] = concatenate("+".join(sequence), jobs)
    return workloads


@dataclass
class MultiJobResult:
    """One multi-job run's outcome."""

    manager: str
    runtime_s: float
    faulted: bool
    recorder: MetricsRecorder

    @property
    def performance(self) -> float:
        return 1.0 / self.runtime_s


@dataclass(frozen=True)
class MultiJobSpec:
    """Everything needed to reproduce one back-to-back multi-job run."""

    manager: str
    n_clients: int = 10
    cap_w_per_socket: float = 65.0
    seed: int = 0
    workload_scale: float = 1.0
    sequences: Tuple[Tuple[str, ...], ...] = DEFAULT_SEQUENCES
    fault_plan: Optional[FaultPlan] = None
    manager_config: Optional[ManagerConfig] = None
    #: Kernel knobs, tick mode included (per-node by default).
    sim: SimConfig = SimConfig()

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("need at least one client node")
        if self.cap_w_per_socket <= 0:
            raise ValueError("cap must be positive")
        if not self.sequences:
            raise ValueError("need at least one job sequence")


def run_multijob_spec(spec: MultiJobSpec) -> MultiJobResult:
    """Run the back-to-back schedule described by ``spec``."""
    _, cluster, manager = build_universe(
        spec.manager,
        seed=spec.seed,
        n_clients=spec.n_clients,
        budget_w=spec.cap_w_per_socket * 2 * spec.n_clients,
        sim=spec.sim,
        workloads=lambda rngs: build_sequences(
            spec.n_clients,
            sequences=spec.sequences,
            rngs=rngs,
            workload_scale=spec.workload_scale,
        ),
        manager_config=spec.manager_config,
        fault_plan=spec.fault_plan,
    )
    assert manager is not None
    manager.start()
    runtime = cluster.run_to_completion()
    manager.audit().check()
    manager.stop()
    return MultiJobResult(
        manager=spec.manager,
        runtime_s=runtime,
        faulted=spec.fault_plan is not None and not spec.fault_plan.is_empty,
        recorder=manager.recorder,
    )


# -- sweep-runner integration ------------------------------------------------


#: :func:`run_multijob_spec` as a sweep-runner task kind.
MULTIJOB_RUN = TaskKind(
    name="multijob",
    fn=run_multijob_spec,
    spec_to_dict=serialize.encode,
    result_to_dict=serialize.encode,
    result_from_dict=functools.partial(serialize.decode, MultiJobResult),
)


@dataclass
class MultiJobComparison:
    """Fair vs dynamic managers, nominal and with a mid-job-1 server kill."""

    fair_runtime_s: float
    nominal: Dict[str, float]
    faulty: Dict[str, float]

    def normalized(self, manager: str, faulted: bool) -> float:
        runtime = (self.faulty if faulted else self.nominal)[manager]
        return self.fair_runtime_s / runtime

    def degradation(self, manager: str) -> float:
        """Relative slowdown caused by the fault (0 = unaffected)."""
        return self.faulty[manager] / self.nominal[manager] - 1.0


def run_multijob_comparison(
    managers: Sequence[str] = ("slurm", "penelope"),
    n_clients: int = 10,
    cap_w_per_socket: float = 65.0,
    seed: int = 0,
    workload_scale: float = 1.0,
    fault_at_fraction: float = 0.25,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    progress: Optional[ProgressListener] = None,
    sim: SimConfig = SimConfig(),
    **runner_kwargs: Any,
) -> MultiJobComparison:
    """The §4.4 generalization experiment.

    The fault strikes during job 1 (at ``fault_at_fraction`` of the Fair
    runtime), so the frozen caps are tuned for the *wrong* job afterwards.
    Every run uses the tick mode ``sim``.

    Runs fan out through :func:`~repro.experiments.runner.run_sweep` in
    two waves: the fault-free runs first (the fault instant depends on the
    measured Fair runtime), then every faulted run.
    """

    def base_spec(manager: str, fault_plan: Optional[FaultPlan] = None) -> MultiJobSpec:
        return MultiJobSpec(
            manager=manager,
            n_clients=n_clients,
            cap_w_per_socket=cap_w_per_socket,
            seed=seed,
            workload_scale=workload_scale,
            fault_plan=fault_plan,
            sim=sim,
        )

    sweep = dict(
        kind=MULTIJOB_RUN, jobs=jobs, cache_dir=cache_dir,
        use_cache=use_cache, progress=progress, **runner_kwargs,
    )
    fault_free = raise_on_failures(
        run_sweep(
            [base_spec("fair")] + [base_spec(manager) for manager in managers],
            **sweep,
        ),
        context="multijob fault-free wave",
    )
    fair = fault_free[0]
    nominal = {
        manager: result.runtime_s
        for manager, result in zip(managers, fault_free[1:])
    }

    fault_time = fault_at_fraction * fair.runtime_s
    faulted_specs = []
    for manager in managers:
        plan = FaultPlan()
        if extra_nodes(manager) > 0:
            plan.kill(n_clients, fault_time)  # the (first) server node
        else:
            plan.kill(0, fault_time)  # any client; none is special
        faulted_specs.append(base_spec(manager, fault_plan=plan))
    faulty = {
        manager: result.runtime_s
        for manager, result in zip(
            managers,
            raise_on_failures(
                run_sweep(faulted_specs, **sweep),
                context="multijob faulted wave",
            ),
        )
    }
    return MultiJobComparison(
        fair_runtime_s=fair.runtime_s, nominal=nominal, faulty=faulty
    )


def format_multijob(comparison: MultiJobComparison) -> str:
    """Text table for the back-to-back experiment."""
    lines = [
        "Back-to-back multi-job runs (§4.4 generalization): contrasting jobs "
        "per node, fault during job 1",
        f"{'system':>10} | {'nominal vs Fair':>15} | {'faulty vs Fair':>14} | "
        f"{'fault cost':>10}",
        "-" * 60,
    ]
    for manager in sorted(comparison.nominal):
        lines.append(
            f"{manager:>10} | {comparison.normalized(manager, False):>14.3f}x | "
            f"{comparison.normalized(manager, True):>13.3f}x | "
            f"{100 * comparison.degradation(manager):>9.1f}%"
        )
    return "\n".join(lines)
