"""Shared fixtures for the test suite.

``REPRO_BATCHED_TICKS=1`` (or ``true``/``on``/``yes``) runs the suite's
universes with batched decider ticks: it is read once, here, into
:data:`SIM`, which the ``engine`` fixture and every test that builds an
engine, a spec or a sweep pass on explicitly.  Tests that pin a mode
keep pinning it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

#: The tick mode of this test run (CI runs one leg in each).
SIM = SimConfig(
    batched_ticks=os.environ.get("REPRO_BATCHED_TICKS", "").strip().lower()
    in ("1", "true", "on", "yes")
)


@pytest.fixture
def engine() -> Engine:
    return Engine(sim=SIM)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(seed=12345)
