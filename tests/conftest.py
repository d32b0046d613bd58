"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(seed=12345)
