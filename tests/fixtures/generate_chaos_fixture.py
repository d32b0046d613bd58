"""Regenerate the chaos-determinism fixture.

Usage::

    PYTHONPATH=src python tests/fixtures/generate_chaos_fixture.py

Pins one full chaos-storm trajectory (kills + flap + loss burst over a
tiny cluster) the same way ``generate_kernel_fixtures.py`` pins the
nominal runs: ``tests/test_experiments_chaos.py`` replays the spec and
asserts the serialized :class:`ChaosResult` matches byte-for-byte.  Chaos exercises queue
shapes the nominal fixtures never produce -- cancelled in-flight
messages from node kills, retry timers, same-instant fault bursts -- so
this fixture is the adversarial half of the determinism contract.

Deliberate protocol changes regenerate the fixture; the diff documents
the trajectory change.
"""

from __future__ import annotations

import pathlib
import sys

from repro.experiments.chaos import ChaosSpec, run_chaos_single
from repro.experiments.serialize import canonical_json, encode
from repro.sim.config import SimConfig

FIXTURE_DIR = pathlib.Path(__file__).parent

#: Matches the SMOKE spec in tests/test_experiments_chaos.py: small
#: enough to run in ~a second, chaotic enough to cancel events.  The
#: tick mode is pinned: the bytes encode the staggered per-node
#: trajectory, which the batcher only approximates.
CHAOS_FIXTURE_SPEC = ChaosSpec(
    n_clients=4,
    seed=3,
    duration_s=10.0,
    workload_scale=0.1,
    kills=1,
    flaps=1,
    bursts=1,
    burst_loss=0.05,
    sim=SimConfig(batched_ticks=False),
)

CHAOS_FIXTURE_NAME = "chaos_smoke"


def main() -> int:
    data = encode(run_chaos_single(CHAOS_FIXTURE_SPEC))
    path = FIXTURE_DIR / f"{CHAOS_FIXTURE_NAME}.json"
    path.write_text(canonical_json(data) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
