"""Byte-identity regression for the experiments' universe construction.

``tests/fixtures/builder_trajectories.json`` pins the scaling,
multi-job, overhead, hardware-efficiency and allocation runs (see the
generator's docstring).  Any change to how those experiments build
their engine, cluster, workloads and manager -- named-stream draws,
same-instant install order, budgets, initial caps -- shows up here as a
mismatch.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.serialize import canonical_json

FIXTURES = Path(__file__).parent / "fixtures"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "generate_builder_fixture", FIXTURES / "generate_builder_fixture.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _generator()
PINNED = json.loads(GENERATOR.FIXTURE_PATH.read_text())


def test_fixture_file_is_canonical():
    assert GENERATOR.FIXTURE_PATH.read_text() == canonical_json(PINNED) + "\n"
    assert sorted(PINNED) == sorted(GENERATOR.FIXTURE_RUNS)


@pytest.mark.parametrize("name", sorted(GENERATOR.FIXTURE_RUNS))
def test_trajectory_bytes(name):
    got = GENERATOR.trajectory(name)
    assert canonical_json(got["universes"]) == canonical_json(PINNED[name]["universes"])
    assert canonical_json(got["result"]) == canonical_json(PINNED[name]["result"])


def test_fixture_exercises_its_scenarios():
    # Guards the fixture's purpose: a regenerated file whose runs no
    # longer move power, kill the server or build both overhead
    # universes would pin the wrong thing.
    for name in ("scaling_penelope_synthetic", "scaling_penelope_pair",
                 "scaling_slurm_synthetic", "scaling_slurm_pair"):
        assert PINNED[name]["result"]["available_w"] > 0
    assert PINNED["multijob_slurm_server_kill"]["result"]["faulted"] is True
    assert (
        PINNED["multijob_slurm_server_kill"]["result"]["runtime_s"]
        > PINNED["multijob_slurm_nominal"]["result"]["runtime_s"]
    )
    overhead = PINNED["overhead_two_apps"]["universes"]
    assert [u["final_caps"] is None for u in overhead] == [True, False, True, False]
