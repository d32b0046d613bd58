"""Regenerate the experiment-builder trajectory fixture.

Usage::

    PYTHONPATH=src python tests/fixtures/generate_builder_fixture.py

The fixture pins the simulation universes built by the experiments that
no other byte fixture covers: the §4.5 scaling point (Penelope and
SLURM, synthetic release and pair playback), the back-to-back multi-job
run (nominal and with its server killed), the §4.2 overhead experiment,
the hardware-efficiency comparison and the allocation-quality point.

Every run is made in per-node tick mode, the default of every spec and
experiment.  For every universe a run builds (in build order) the
fixture records the engine's processed-event count, the network
statistics and the managed clients' final caps; for the run itself it
records the result's codec bytes.  ``tests/test_builder_fixture.py``
asserts the experiments reproduce these bytes exactly.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys
from typing import Any, Callable, Dict, Iterator, List

from repro.cluster.faults import FaultPlan
from repro.experiments.allocation import AllocationSpec, run_allocation_point
from repro.experiments.hardware_efficiency import run_hardware_efficiency
from repro.experiments.multijob import MultiJobSpec, run_multijob_spec
from repro.experiments.overhead import run_overhead_experiment
from repro.experiments.scaling import ScalingSpec, run_scaling_point
from repro.experiments.serialize import canonical_json, encode
from repro.managers.base import PowerManager
from repro.net.network import Network

FIXTURE_PATH = pathlib.Path(__file__).parent / "builder_trajectories.json"


@contextlib.contextmanager
def universes() -> Iterator[List[Dict[str, Any]]]:
    """Collect every universe built inside the block.

    Each entry holds the universe's network and, once one is installed
    on it, its manager.  Every universe builds exactly one network.
    """
    built: List[Dict[str, Any]] = []
    network_init = Network.__init__
    manager_install = PowerManager.install

    def init(self: Network, *args: Any, **kwargs: Any) -> None:
        network_init(self, *args, **kwargs)
        built.append({"network": self, "manager": None})

    def install(self: PowerManager, cluster: Any, *args: Any, **kwargs: Any) -> None:
        for universe in built:
            if universe["network"] is cluster.network:
                universe["manager"] = self
        manager_install(self, cluster, *args, **kwargs)

    Network.__init__ = init  # type: ignore[method-assign]
    PowerManager.install = install  # type: ignore[method-assign]
    try:
        yield built
    finally:
        Network.__init__ = network_init  # type: ignore[method-assign]
        PowerManager.install = manager_install  # type: ignore[method-assign]


def _universe_record(universe: Dict[str, Any]) -> Dict[str, Any]:
    network = universe["network"]
    manager = universe["manager"]
    final_caps = None
    if manager is not None:
        final_caps = [
            manager.cluster.node(node_id).rapl.cap_w for node_id in manager.client_ids
        ]
    return {
        "processed_events": network.engine.processed_events,
        "network": encode(network.stats),
        "final_caps": final_caps,
    }


#: name -> zero-argument run.  Sizes are small so the replay stays quick.
FIXTURE_RUNS: Dict[str, Callable[[], Any]] = {
    "scaling_penelope_synthetic": lambda: run_scaling_point(
        ScalingSpec("penelope", n_clients=16, observe_for_s=20.0, seed=0)
    ),
    "scaling_slurm_synthetic": lambda: run_scaling_point(
        ScalingSpec("slurm", n_clients=16, frequency_hz=2.0, observe_for_s=10.0, seed=1)
    ),
    "scaling_penelope_pair": lambda: run_scaling_point(
        ScalingSpec("penelope", n_clients=24, pair=("CG", "LU"), observe_for_s=20.0, seed=2)
    ),
    "scaling_slurm_pair": lambda: run_scaling_point(
        ScalingSpec("slurm", n_clients=32, pair=("CG", "LU"), observe_for_s=10.0, seed=3)
    ),
    "multijob_penelope_nominal": lambda: run_multijob_spec(
        MultiJobSpec("penelope", n_clients=6, workload_scale=0.1, seed=0)
    ),
    "multijob_slurm_nominal": lambda: run_multijob_spec(
        MultiJobSpec("slurm", n_clients=6, workload_scale=0.1, seed=1)
    ),
    "multijob_slurm_server_kill": lambda: run_multijob_spec(
        MultiJobSpec(
            "slurm", n_clients=6, workload_scale=0.1, seed=1,
            fault_plan=FaultPlan().kill(6, 3.0),
        )
    ),
    "overhead_two_apps": lambda: run_overhead_experiment(
        apps=("EP", "CG"), cap_w_per_socket=80.0, seed=4, workload_scale=0.1
    ),
    "hardware_penelope": lambda: run_hardware_efficiency(
        "penelope", total_nodes=8, budget_w=8 * 2 * 70.0, workload_scale=0.1, seed=5
    ),
    "hardware_slurm": lambda: run_hardware_efficiency(
        "slurm", total_nodes=8, budget_w=8 * 2 * 70.0, workload_scale=0.1, seed=5
    ),
    "hardware_slurm_ha": lambda: run_hardware_efficiency(
        "slurm-ha", total_nodes=8, budget_w=8 * 2 * 70.0, workload_scale=0.1, seed=5
    ),
    "allocation_penelope": lambda: run_allocation_point(
        AllocationSpec("penelope", n_clients=8, workload_scale=0.5, observe_s=5.0, seed=6)
    ),
}


def trajectory(name: str) -> Dict[str, Any]:
    """Run ``name`` in per-node mode and record its universes and result."""
    with universes() as built:
        result = FIXTURE_RUNS[name]()
    return {
        "universes": [_universe_record(universe) for universe in built],
        "result": encode(result),
    }


def build_fixture() -> Dict[str, Any]:
    return {name: trajectory(name) for name in FIXTURE_RUNS}


def main() -> int:
    FIXTURE_PATH.write_text(canonical_json(build_fixture()) + "\n")
    print(f"wrote {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
