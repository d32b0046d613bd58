"""Regenerate the saturated-SLURM trajectory fixture.

Usage::

    PYTHONPATH=src python tests/fixtures/generate_slurm_saturation_fixture.py

The fixture pins the centralized manager past its knee (§4.5): 32
clients at 20 Hz against a server whose per-request service time is
scaled by 1056/32 (the benchmark convention that puts the paper's
1056-node knee at this size), a 64-deep server inbox, the scale-aware
grant rule and centralized urgency.  At that load the inbox overflows,
requests time out, urgent deficits go unmet and release directives
flow -- the code paths the small nominal fixtures barely touch.  A
third run is SLURM-HA with its primary server killed mid-run, so
clients time out and fail over to the standby.

Each run is driven for :data:`HORIZON_S` simulated seconds and records
the engine's processed-event count, the network statistics, the
recorder's counters, every turnaround sample and transaction, and
every node's final cap.  ``tests/test_slurm_saturation_fixture.py``
asserts the simulator reproduces these bytes exactly.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Any, Dict

from repro.cluster.faults import FaultPlan
from repro.experiments.harness import RunSpec, build_run
from repro.experiments.serialize import canonical_json, encode
from repro.managers.slurm import SlurmConfig
from repro.managers.slurm_ha import HaSlurmConfig
from repro.sim.config import SimConfig

FIXTURE_PATH = pathlib.Path(__file__).parent / "slurm_saturation.json"

N_CLIENTS = 32
HORIZON_S = 5.0
#: Kernel knobs are pinned so the fixture holds whatever the environment
#: selects.
SIM = SimConfig(batched_ticks=False)

_FACTOR = 1056 / N_CLIENTS
_SATURATED = dict(
    period_s=1.0 / 20.0,
    rate_scheme="scale-aware",
    enable_urgency=True,
    server_service_time_s=(80e-6 * _FACTOR, 100e-6 * _FACTOR),
    server_inbox_capacity=64,
)

#: name -> spec.  The HA run kills its primary server (node
#: ``N_CLIENTS``, the lower of the two withheld ids) at t=2 s.
FIXTURE_SPECS: Dict[str, RunSpec] = {
    "slurm_seed0": RunSpec(
        "slurm", ("EP", "DC"), 80.0, n_clients=N_CLIENTS, seed=0,
        manager_config=SlurmConfig(**_SATURATED), sim=SIM,
    ),
    "slurm_seed1": RunSpec(
        "slurm", ("CG", "LU"), 80.0, n_clients=N_CLIENTS, seed=1,
        manager_config=SlurmConfig(**_SATURATED), sim=SIM,
    ),
    "slurm_ha_primary_kill": RunSpec(
        "slurm-ha", ("EP", "DC"), 80.0, n_clients=N_CLIENTS, seed=2,
        manager_config=HaSlurmConfig(**_SATURATED),
        fault_plan=FaultPlan().kill(N_CLIENTS, 2.0), sim=SIM,
    ),
}


def trajectory(spec: RunSpec) -> Dict[str, Any]:
    """Drive ``spec`` for :data:`HORIZON_S` and record its trajectory."""
    engine, cluster, manager = build_run(spec)
    manager.start()
    cluster.start_workloads()
    engine.run(until=HORIZON_S)
    recorder = manager.recorder
    return {
        "processed_events": engine.processed_events,
        "network": encode(cluster.network.stats),
        "counters": dict(sorted(recorder.counters.items())),
        "turnarounds": encode(recorder.turnarounds),
        "transactions": encode(recorder.transactions),
        "final_caps": [node.rapl.cap_w for node in cluster.nodes],
    }


def build_fixture() -> Dict[str, Any]:
    return {name: trajectory(spec) for name, spec in FIXTURE_SPECS.items()}


def main() -> int:
    FIXTURE_PATH.write_text(canonical_json(build_fixture()) + "\n")
    print(f"wrote {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
