"""Regenerate the kernel-determinism fixtures.

Usage::

    PYTHONPATH=src python tests/fixtures/generate_kernel_fixtures.py

The fixtures pin one protocol revision's simulation results:
``tests/test_sim_bench.py`` asserts that the simulator reproduces each
recorded ``RunResult`` byte-for-byte, so any change to event ordering,
RNG stream consumption or float arithmetic in the sim core shows up as
a fixture mismatch.  Deliberate protocol changes regenerate the
fixtures (the diff documents the trajectory change); the last
regeneration was for the escrowed-grant protocol, which adds one
``GrantAck`` per positive Penelope grant and therefore shifts
Penelope's latency-draw sequence.  SLURM and Fair remained
byte-identical to the original seed revision across that change.

Only *nominal* (fault-free, loss-free) scenarios are pinned.  Faulty
results intentionally changed when ``Network.send`` started sampling
latency before the drop checks (the RNG stream-alignment fix), so they
cannot be compared across that revision.

The network-stats section is stored in the current (split dead-drop)
codec format.  When regenerating from a revision whose codec still
emits the merged ``dropped_dead`` counter, the script upgrades the dict
-- valid because nominal runs never drop on dead nodes (asserted).
"""

from __future__ import annotations

import pathlib
import sys

from repro.experiments.harness import RunSpec, run_single
from repro.experiments.serialize import canonical_json, encode
from repro.sim.config import SimConfig

FIXTURE_DIR = pathlib.Path(__file__).parent

#: The fixtures encode the staggered per-node trajectory, which the
#: batcher only approximates, so every spec pins it.
SIM = SimConfig(batched_ticks=False)

#: name -> spec.  Small enough to run in seconds, varied enough to cover
#: the peer-to-peer (penelope), centralized (slurm) and static (fair)
#: event mixes.
FIXTURE_SPECS = {
    "kernel_nominal_penelope": RunSpec(
        "penelope",
        ("EP", "DC"),
        70.0,
        n_clients=4,
        seed=7,
        workload_scale=0.1,
        record_caps=True,
        sim=SIM,
    ),
    "kernel_nominal_slurm": RunSpec(
        "slurm",
        ("CG", "LU"),
        80.0,
        n_clients=4,
        seed=11,
        workload_scale=0.1,
        sim=SIM,
    ),
    "kernel_nominal_fair": RunSpec(
        "fair",
        ("EP", "DC"),
        70.0,
        n_clients=4,
        seed=3,
        workload_scale=0.1,
        sim=SIM,
    ),
}


def _upgrade_network_dict(network: dict) -> dict:
    """Translate a merged-counter network dict to the split-codec shape."""
    if "dropped_dead" in network:
        merged = network.pop("dropped_dead")
        assert merged == 0, "nominal fixtures must not contain dead drops"
        network["dropped_dead_src"] = 0
        network["dropped_dead_dst"] = 0
    return network


def main() -> int:
    for name, spec in FIXTURE_SPECS.items():
        data = encode(run_single(spec))
        data["network"] = _upgrade_network_dict(dict(data["network"]))
        path = FIXTURE_DIR / f"{name}.json"
        path.write_text(canonical_json(data) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
