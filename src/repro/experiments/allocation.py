"""Allocation quality: how close does shifting get to the oracle split?

The point of dynamic power management is to approximate, online and
without global knowledge, the allocation an oracle with offline profiles
would choose.  PoDD's water-filling assignment over the workloads' mean
demands *is* that oracle (it is how PoDD initializes), which gives a
yardstick for everyone else:

* **Fair** stays at the even split -- its distance to the oracle is the
  total mis-allocation dynamic systems can recover;
* **SLURM** and **Penelope** should close most of that distance within a
  few decider periods and hold it (§3.3 predicts the centralized system
  converges somewhat faster at low scale).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import serialize
from repro.experiments.harness import RunSpec, build_run
from repro.experiments.runner import (
    ProgressListener,
    TaskKind,
    raise_on_failures,
    run_sweep,
)
from repro.managers.base import ManagerConfig
from repro.managers.podd import proportional_caps
from repro.sim.config import SimConfig


@dataclass(frozen=True)
class AllocationTrace:
    """Mean |cap - oracle| per node over time, for one run."""

    manager: str
    times: np.ndarray
    mean_abs_deviation_w: np.ndarray
    oracle: Dict[int, float]
    even_split_deviation_w: float

    def steady_state_deviation_w(self, tail_fraction: float = 0.25) -> float:
        """Mean deviation over the last ``tail_fraction`` of the window."""
        if not (0.0 < tail_fraction <= 1.0):
            raise ValueError("tail_fraction must lie in (0, 1]")
        tail = max(1, int(round(self.times.size * tail_fraction)))
        return float(self.mean_abs_deviation_w[-tail:].mean())

    def recovered_fraction(self, tail_fraction: float = 0.25) -> float:
        """Share of Fair's mis-allocation this manager eliminated (1 =
        reached the oracle, 0 = no better than the even split)."""
        if self.even_split_deviation_w == 0:
            return 1.0
        return 1.0 - self.steady_state_deviation_w(tail_fraction) / (
            self.even_split_deviation_w
        )


def oracle_allocation(cluster, client_ids: Sequence[int], budget_w: float) -> Dict[int, float]:
    """The offline-profile water-filling split (PoDD's initializer)."""
    spec = cluster.config.spec
    demands = {
        node_id: (
            cluster.node(node_id).executor.workload.mean_demand_w(spec)
            if cluster.node(node_id).executor is not None
            else spec.min_cap_w
        )
        for node_id in client_ids
    }
    return proportional_caps(demands, budget_w, spec.min_cap_w, spec.max_cap_w)


@dataclass(frozen=True)
class AllocationSpec:
    """One allocation-quality measurement, fully described."""

    manager: str
    pair: Tuple[str, str] = ("EP", "DC")
    cap_w_per_socket: float = 65.0
    n_clients: int = 10
    seed: int = 0
    workload_scale: float = 0.5
    observe_s: float = 30.0
    sample_every_s: float = 1.0
    manager_config: Optional[ManagerConfig] = None
    #: Kernel knobs, tick mode included (per-node by default).
    sim: SimConfig = SimConfig()

    def __post_init__(self) -> None:
        if self.observe_s <= 0 or self.sample_every_s <= 0:
            raise ValueError("observation times must be positive")


def run_allocation_point(spec: AllocationSpec) -> AllocationTrace:
    """Run ``spec.manager`` and sample its caps' distance to the oracle.

    Observation stops at ``spec.observe_s`` (well before any workload
    ends, so the oracle stays meaningful throughout).
    """
    run_spec = RunSpec(
        spec.manager,
        spec.pair,
        spec.cap_w_per_socket,
        n_clients=spec.n_clients,
        seed=spec.seed,
        workload_scale=spec.workload_scale,
        manager_config=spec.manager_config,
        sim=spec.sim,
    )
    engine, cluster, manager = build_run(run_spec)
    oracle = oracle_allocation(cluster, manager.client_ids, run_spec.budget_w)
    even = run_spec.budget_w / spec.n_clients
    even_deviation = float(
        np.mean([abs(even - oracle[node]) for node in manager.client_ids])
    )
    manager.start()
    cluster.start_workloads()
    times: List[float] = []
    deviations: List[float] = []
    t = 0.0
    while t < spec.observe_s:
        t += spec.sample_every_s
        engine.run(until=t)
        deviation = float(
            np.mean(
                [
                    abs(cluster.node(node).rapl.cap_w - oracle[node])
                    for node in manager.client_ids
                ]
            )
        )
        times.append(t)
        deviations.append(deviation)
    manager.audit().check()
    return AllocationTrace(
        manager=spec.manager,
        times=np.array(times),
        mean_abs_deviation_w=np.array(deviations),
        oracle=oracle,
        even_split_deviation_w=even_deviation,
    )


# -- sweep-runner integration ------------------------------------------------


#: :func:`run_allocation_point` as a sweep-runner task kind.
ALLOCATION_RUN = TaskKind(
    name="allocation",
    fn=run_allocation_point,
    spec_to_dict=serialize.encode,
    result_to_dict=serialize.encode,
    result_from_dict=functools.partial(serialize.decode, AllocationTrace),
)


def compare_allocation_quality(
    managers: Sequence[str] = ("fair", "slurm", "penelope"),
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    progress: Optional[ProgressListener] = None,
    runner_options: Optional[Dict[str, Any]] = None,
    sim: SimConfig = SimConfig(),
    **kwargs,
) -> Dict[str, AllocationTrace]:
    """Allocation traces for several managers under identical conditions.

    One spec per manager, in the tick mode ``sim``, fanned out (and
    cached) through :func:`~repro.experiments.runner.run_sweep`.
    ``**kwargs`` feed the :class:`AllocationSpec` template, so the
    resilient-executor options (``retry``, ``journal``, ``resume``,
    ``harness_faults``) travel in the explicit ``runner_options`` dict
    instead.
    """
    specs = [AllocationSpec(manager=manager, sim=sim, **kwargs) for manager in managers]
    traces = raise_on_failures(
        run_sweep(
            specs,
            kind=ALLOCATION_RUN,
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=use_cache,
            progress=progress,
            **(runner_options or {}),
        ),
        context="allocation comparison",
    )
    return dict(zip(managers, traces))


def format_allocation(traces: Dict[str, AllocationTrace]) -> str:
    """Text table: steady-state oracle distance and recovered fraction."""
    any_trace = next(iter(traces.values()))
    lines = [
        "Allocation quality: distance from the offline-oracle split "
        f"(even split starts {any_trace.even_split_deviation_w:.1f} W/node away)",
        f"{'system':>10} | {'steady dev W':>12} | {'recovered':>9}",
        "-" * 38,
    ]
    for manager, trace in sorted(traces.items()):
        lines.append(
            f"{manager:>10} | {trace.steady_state_deviation_w():>12.2f} | "
            f"{100 * trace.recovered_fraction():>8.1f}%"
        )
    return "\n".join(lines)
