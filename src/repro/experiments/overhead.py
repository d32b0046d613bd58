"""§4.2: Penelope's per-node overhead.

"We measure the runtime of each workload ... on a single node under a
static cap.  We then run all the workloads again, but this time launching
Penelope on this node.  This is a one node system, so no power is being
shared ... We observe an average of 1.3% overhead across all workloads."

In the reproduction the daemon cost is a model input
(``overhead_factor``, default 0.013), so this experiment is a consistency
check rather than a discovery: it verifies that the modelled daemons --
including their cap perturbations from sensor noise -- produce the
expected end-to-end slowdown and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PenelopeConfig
from repro.experiments.harness import build_universe
from repro.sim.config import SimConfig
from repro.workloads.apps import APP_NAMES, build_app


@dataclass(frozen=True)
class OverheadResult:
    """Per-app slowdowns of Penelope-on versus static cap."""

    cap_w_per_socket: float
    #: app -> (static runtime, penelope runtime).
    runtimes: Dict[str, Tuple[float, float]]

    def slowdown(self, app: str) -> float:
        static, managed = self.runtimes[app]
        return managed / static - 1.0

    @property
    def mean_overhead(self) -> float:
        """Mean percent slowdown across apps (paper: ~1.3 %)."""
        return float(
            np.mean([self.slowdown(app) for app in sorted(self.runtimes)])
        )


def _single_node_runtime(
    app: str,
    cap_w_per_socket: float,
    seed: int,
    workload_scale: float,
    with_penelope: bool,
    sim: SimConfig,
    config: Optional[PenelopeConfig] = None,
) -> float:
    """One app on one node, with or without the Penelope daemons."""
    _, cluster, manager = build_universe(
        "penelope" if with_penelope else None,
        seed=seed,
        n_clients=1,
        budget_w=cap_w_per_socket * 2,
        sim=sim,
        workloads=lambda rngs: {
            0: build_app(app, rng=rngs.stream("workload.jitter"), scale=workload_scale)
        },
        manager_config=config,
    )
    if manager is not None:
        manager.start()
    runtime = cluster.run_to_completion()
    if manager is not None:
        manager.audit().check()
        manager.stop()
    return runtime


def run_overhead_experiment(
    apps: Sequence[str] = APP_NAMES,
    cap_w_per_socket: float = 80.0,
    seed: int = 0,
    workload_scale: float = 1.0,
    config: Optional[PenelopeConfig] = None,
    sim: SimConfig = SimConfig(),
) -> OverheadResult:
    """Measure Penelope-on vs static-cap runtimes for every app (§4.2),
    both sides in the tick mode ``sim``."""
    runtimes: Dict[str, Tuple[float, float]] = {}
    for app in apps:
        static = _single_node_runtime(
            app, cap_w_per_socket, seed, workload_scale, with_penelope=False, sim=sim
        )
        managed = _single_node_runtime(
            app,
            cap_w_per_socket,
            seed,
            workload_scale,
            with_penelope=True,
            sim=sim,
            config=config,
        )
        runtimes[app] = (static, managed)
    return OverheadResult(cap_w_per_socket=cap_w_per_socket, runtimes=runtimes)
