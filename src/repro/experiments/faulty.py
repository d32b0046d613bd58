"""§4.4 / Figure 3: performance with faulty power management.

The same sweep as Figure 2, but a node failure is induced partway through
every run:

* for **SLURM**, the server node dies -- caps freeze at their (uneven)
  values, and every client keeps paying decider overhead for nothing;
* for **Penelope**, one client node dies -- the paper's point is that no
  single node is special, so this is the worst a node failure can do;
* **Fair** has no moving parts to fail and is unaffected.

Runtime for a run with a dead compute node is the makespan of the
surviving nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.stats import geometric_mean, normalized_performance
from repro.cluster.faults import FaultPlan
from repro.experiments.harness import RunSpec, needs_server_node
from repro.experiments.runner import ProgressListener, raise_on_failures, run_sweep
from repro.sim.config import SimConfig
from repro.workloads.apps import APP_NAMES, build_app
from repro.workloads.generator import unique_pairs
from repro.workloads.performance import runtime_at_constant_cap
from repro.power.domain import SKYLAKE_6126_NODE

#: When the failure strikes, as a fraction of the predicted Fair runtime.
DEFAULT_FAILURE_FRACTION = 0.33


def predict_fair_runtime_s(
    pair: Tuple[str, str], cap_w_per_socket: float, workload_scale: float = 1.0
) -> float:
    """Closed-form Fair makespan estimate used to place the failure."""
    spec = SKYLAKE_6126_NODE
    cap = cap_w_per_socket * spec.sockets
    return max(
        runtime_at_constant_cap(build_app(app, scale=workload_scale), cap, spec)
        for app in pair
    )


def fault_plan_for(
    manager: str,
    pair: Tuple[str, str],
    cap_w_per_socket: float,
    n_clients: int,
    workload_scale: float = 1.0,
    failure_fraction: float = DEFAULT_FAILURE_FRACTION,
    victim_client: int = 0,
) -> Optional[FaultPlan]:
    """The §4.4 failure for ``manager`` (None for Fair)."""
    if manager == "fair":
        return None
    at = failure_fraction * predict_fair_runtime_s(
        pair, cap_w_per_socket, workload_scale
    )
    plan = FaultPlan()
    if needs_server_node(manager):
        # The server node is the first non-client id (harness convention).
        plan.kill(n_clients, at)
    else:
        plan.kill(victim_client, at)
    return plan


@dataclass
class FaultyResult:
    """Normalized performances under induced failures."""

    caps: Tuple[float, ...]
    systems: Tuple[str, ...]
    pairs: Tuple[Tuple[str, str], ...]
    normalized: Dict[Tuple[str, float, Tuple[str, str]], float] = field(
        default_factory=dict
    )
    fair_runtimes: Dict[Tuple[float, Tuple[str, str]], float] = field(
        default_factory=dict
    )

    def geomean_per_cap(self, system: str) -> Dict[float, float]:
        out: Dict[float, float] = {}
        for cap in self.caps:
            values = [
                self.normalized[(system, cap, pair)]
                for pair in self.pairs
                if (system, cap, pair) in self.normalized
            ]
            if values:
                out[cap] = geometric_mean(values)
        return out

    def overall_geomean(self, system: str) -> float:
        values = [
            self.normalized[(system, cap, pair)]
            for cap in self.caps
            for pair in self.pairs
            if (system, cap, pair) in self.normalized
        ]
        return geometric_mean(values)

    def penelope_advantage_over_slurm(self) -> float:
        """The paper's headline: 8-15% mean gain for Penelope (§4.4)."""
        return self.overall_geomean("penelope") / self.overall_geomean("slurm") - 1.0


def run_faulty_sweep(
    caps: Sequence[float] = (60.0, 70.0, 80.0, 90.0, 100.0),
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    systems: Sequence[str] = ("slurm", "penelope"),
    n_clients: int = 20,
    seed: int = 0,
    workload_scale: float = 1.0,
    failure_fraction: float = DEFAULT_FAILURE_FRACTION,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    progress: Optional[ProgressListener] = None,
    sim: SimConfig = SimConfig(),
    **runner_kwargs: Any,
) -> FaultyResult:
    """Run the Figure 3 sweep: every run suffers its §4.4 failure.

    The failure instant comes from the *predicted* Fair runtime (a closed
    form), not the measured one, so the whole sweep -- Fair baselines and
    faulted runs alike -- is known up-front and fans out through
    :func:`~repro.experiments.runner.run_sweep` (``jobs`` worker
    processes, results cached under ``cache_dir``), every run in the
    tick mode ``sim``.
    """
    pair_list = list(pairs) if pairs is not None else unique_pairs(APP_NAMES)
    result = FaultyResult(
        caps=tuple(caps), systems=tuple(systems), pairs=tuple(pair_list)
    )

    def run_spec(
        manager: str, cap: float, pair: Tuple[str, str], plan: Optional[FaultPlan] = None
    ) -> RunSpec:
        return RunSpec(
            manager=manager,
            pair=pair,
            cap_w_per_socket=cap,
            n_clients=n_clients,
            seed=seed,
            workload_scale=workload_scale,
            fault_plan=plan,
            sim=sim,
        )

    specs: list = []
    slots: list = []
    for cap in caps:
        for pair in pair_list:
            specs.append(run_spec("fair", cap, pair))
            slots.append(("fair", cap, pair))
            for system in systems:
                plan = fault_plan_for(
                    system,
                    pair,
                    cap,
                    n_clients,
                    workload_scale=workload_scale,
                    failure_fraction=failure_fraction,
                )
                specs.append(run_spec(system, cap, pair, plan))
                slots.append((system, cap, pair))

    runs = raise_on_failures(
        run_sweep(
            specs,
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=use_cache,
            progress=progress,
            **runner_kwargs,
        ),
        context="faulty sweep",
    )

    by_slot = dict(zip(slots, runs))
    for cap in caps:
        for pair in pair_list:
            fair = by_slot[("fair", cap, pair)]
            result.fair_runtimes[(cap, pair)] = fair.runtime_s
            for system in systems:
                run = by_slot[(system, cap, pair)]
                result.normalized[(system, cap, pair)] = normalized_performance(
                    run.runtime_s, fair.runtime_s
                )
    return result
