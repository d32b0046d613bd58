"""Modes are explicit arguments; the environment is read only at the edges.

A run is a function of its seed and spec alone.  Nothing below the CLI
reads ``REPRO_BATCHED_TICKS``: a spec, a config or an engine built
without a tick mode is per-node whatever the environment says.
:func:`repro.cli.main` reads the variable once and passes the mode to
every command, and ``tests/conftest.py`` reads it once for this suite.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.experiments.allocation import AllocationSpec
from repro.experiments.chaos import CHAOS_RUN, ChaosSpec
from repro.experiments.harness import RunSpec
from repro.experiments.multijob import MultiJobSpec
from repro.experiments.runner import SINGLE_RUN, spec_fingerprint
from repro.experiments.scaling import ScalingSpec
from repro.experiments.serialize import decode
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from tests.conftest import SIM

ENV = "REPRO_BATCHED_TICKS"
PER_NODE = SimConfig()
BATCHED = SimConfig(batched_ticks=True)

#: Each task kind's spec, built without a tick mode.
SPECS = {
    "single": lambda: RunSpec("penelope", ("EP", "DC"), 80.0),
    "scaling": lambda: ScalingSpec("penelope"),
    "chaos": lambda: ChaosSpec(),
    "multijob": lambda: MultiJobSpec("penelope"),
    "allocation": lambda: AllocationSpec("penelope"),
}


class TestNothingBelowTheCliReadsTheEnvironment:
    @pytest.fixture(autouse=True)
    def batched_environment(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv(ENV, "1")

    def test_sim_config_defaults_to_per_node(self):
        assert SimConfig().batched_ticks is False

    def test_engine_defaults_to_per_node(self):
        assert Engine().batched_ticks is False

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_spec_without_a_mode_is_per_node(self, kind):
        assert SPECS[kind]().sim == PER_NODE


@pytest.mark.parametrize("value,mode", [("1", BATCHED), (None, PER_NODE)], ids=["set", "unset"])
@pytest.mark.parametrize(
    "argv,kind,spec_cls",
    [
        (["chaos", "--seeds", "0", "--clients", "4", "--duration", "5"], CHAOS_RUN, ChaosSpec),
        (
            ["nominal", "--caps", "70", "--pairs", "EP:DC", "--clients", "4", "--scale", "0.05"],
            SINGLE_RUN,
            RunSpec,
        ),
    ],
    ids=["chaos", "nominal"],
)
def test_cli_runs_every_spec_in_the_exported_mode(
    tmp_path, monkeypatch, value, mode, argv, kind, spec_cls
):
    if value is None:
        monkeypatch.delenv(ENV, raising=False)
    else:
        monkeypatch.setenv(ENV, value)
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    specs = []
    for path in (tmp_path / kind.name).glob("*.json"):
        spec = decode(spec_cls, json.loads(path.read_text())["spec"])
        # Each result is cached under its spec's fingerprint, mode included.
        assert path.stem == spec_fingerprint(spec, kind)
        specs.append(spec)
    assert specs and {spec.sim for spec in specs} == {mode}


def test_leg_mode_matches_env(engine):
    # The batched CI leg exports REPRO_BATCHED_TICKS=1; if the suite
    # stopped taking its mode from it, that leg would silently become a
    # second per-node run.
    exported = os.environ.get(ENV, "").strip().lower() in ("1", "true", "on", "yes")
    assert SIM.batched_ticks is exported
    assert engine.batched_ticks is exported
