"""Byte-identity regression for SLURM past its knee.

``tests/fixtures/slurm_saturation.json`` pins three saturated runs of
the centralized manager (see the generator's docstring).  Any change to
the client's request wait, the server's urgency bookkeeping, event
ordering or RNG consumption in that regime shows up here as a mismatch.
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
        "generate_slurm_saturation_fixture",
        FIXTURES / "generate_slurm_saturation_fixture.py",
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _generator()
PINNED = json.loads(GENERATOR.FIXTURE_PATH.read_text())


def test_fixture_file_is_canonical():
    # Comparing re-encoded sections below is only as strict as the file
    # bytes if the file itself is canonical JSON.
    assert GENERATOR.FIXTURE_PATH.read_text() == canonical_json(PINNED) + "\n"
    assert sorted(PINNED) == sorted(GENERATOR.FIXTURE_SPECS)


@pytest.mark.parametrize("name", sorted(GENERATOR.FIXTURE_SPECS))
def test_trajectory_bytes(name):
    got = GENERATOR.trajectory(GENERATOR.FIXTURE_SPECS[name])
    assert canonical_json(got) == canonical_json(PINNED[name])


@pytest.mark.parametrize("name", sorted(GENERATOR.FIXTURE_SPECS))
def test_fixture_exercises_saturation(name):
    # Guards the fixture's purpose: a regenerated file that no longer
    # overflows the inbox or sends directives would pin the wrong regime.
    run = PINNED[name]
    counters = run["counters"]
    assert run["network"]["dropped_overflow"] > 0
    assert run["network"]["by_kind"]["ReleaseDirective"] > 0
    assert counters["slurm.client.request_timeouts"] > 0
    assert counters["slurm.client.stale_grants_applied"] > 0
    granted = [t for t in run["turnarounds"] if not t[4]]
    assert granted, "some requests must be answered in time"
    if name.startswith("slurm_ha"):
        assert counters["slurm-ha.client.failovers"] > 0
