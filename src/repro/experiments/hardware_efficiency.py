"""Benefit 3, quantified: no node withheld for a coordinator.

§1 lists three benefits of the peer-to-peer design; the third is that it
"does not require withholding node(s) from the computing setup in order
to operate the central server."  The paper states but never measures it.

This experiment fixes the *hardware* (H nodes) and the *system power
budget* and asks how much work per second each design extracts:

* Penelope uses all H nodes as clients;
* SLURM computes on H-1 (one runs the server);
* HA SLURM computes on H-2 (primary + standby).

Every client runs an identical workload instance, so throughput is
``clients x work_per_client / makespan``.  Whether the extra node pays is
the classic overprovisioning trade-off (§1 cites Patki et al. [33]):
spreading the budget over more nodes wins when speed is strongly
*concave* in power (memory-bound apps like CG barely slow down when
capped), but loses for near-linear compute-bound apps (like EP), where
each extra node's idle power is a tax on the budget.  Measuring both
regimes shows when benefit 3 is worth real throughput and when it is
"only" the fault-tolerance and scalability argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.experiments.harness import build_universe, extra_nodes
from repro.sim.config import SimConfig
from repro.workloads.apps import build_app


@dataclass(frozen=True)
class ThroughputResult:
    """Work extracted from fixed hardware under a fixed budget."""

    manager: str
    total_nodes: int
    compute_nodes: int
    makespan_s: float
    work_per_client_s: float

    @property
    def throughput(self) -> float:
        """Node-seconds of work completed per second of wall time."""
        return self.compute_nodes * self.work_per_client_s / self.makespan_s


def run_hardware_efficiency(
    manager_name: str,
    total_nodes: int = 21,
    budget_w: float = 21 * 2 * 70.0,
    app: str = "EP",
    workload_scale: float = 0.5,
    seed: int = 0,
    sim: SimConfig = SimConfig(),
) -> ThroughputResult:
    """Throughput of ``manager_name`` on fixed hardware and budget.

    The manager's coordinator needs (0 / 1 / 2 nodes) come out of the
    compute pool; the whole ``budget_w`` is divided among the remaining
    clients.
    """
    withheld = extra_nodes(manager_name)
    n_clients = total_nodes - withheld
    if n_clients < 2:
        raise ValueError("not enough hardware left to compute on")
    _, cluster, manager = build_universe(
        manager_name,
        seed=seed,
        n_clients=n_clients,
        budget_w=budget_w,
        sim=sim,
        workloads=lambda rngs: {
            node_id: build_app(app, rng=rngs.stream("workload.jitter"), scale=workload_scale)
            for node_id in range(n_clients)
        },
    )
    assert manager is not None
    work_total = sum(
        node.executor.workload.total_work_s for node in cluster.compute_nodes()
    )
    manager.start()
    makespan = cluster.run_to_completion()
    manager.audit().check()
    manager.stop()
    return ThroughputResult(
        manager=manager_name,
        total_nodes=total_nodes,
        compute_nodes=n_clients,
        makespan_s=makespan,
        work_per_client_s=work_total / n_clients,
    )


def compare_hardware_efficiency(
    managers: Sequence[str] = ("penelope", "slurm", "slurm-ha"),
    **kwargs,
) -> Dict[str, ThroughputResult]:
    return {
        manager: run_hardware_efficiency(manager, **kwargs)
        for manager in managers
    }


def format_hardware_efficiency(results: Dict[str, ThroughputResult]) -> str:
    """Text table: throughput per design on identical hardware + budget."""
    any_result = next(iter(results.values()))
    lines = [
        f"Benefit 3 quantified: {any_result.total_nodes} nodes of hardware, "
        "one shared power budget",
        f"{'system':>10} | {'compute nodes':>13} | {'makespan s':>10} | "
        f"{'throughput':>10}",
        "-" * 52,
    ]
    baseline = max(r.throughput for r in results.values())
    for manager, result in sorted(
        results.items(), key=lambda kv: -kv[1].throughput
    ):
        lines.append(
            f"{manager:>10} | {result.compute_nodes:>13} | "
            f"{result.makespan_s:>10.2f} | {result.throughput:>9.3f}x"
            .replace(f"{result.throughput:>9.3f}x",
                     f"{result.throughput / baseline:>9.3f}x")
        )
    return "\n".join(lines)
