"""Cache keys record the tick mode.

Batched and per-node ticks give different trajectories, so a result
computed in one mode must never answer a sweep run in the other.  Every
task-kind spec carries its ``SimConfig`` (per-node unless the caller
passes another), and ``spec_fingerprint`` hashes it.  The per-node mode
is left out of the encoding, so per-node cache keys -- and cache files
written before specs carried a mode -- stay valid.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.harness import RunSpec
from repro.experiments.runner import (
    SINGLE_RUN,
    ResultCache,
    run_sweep,
    spec_fingerprint,
)
from repro.experiments.scaling import SCALING_RUN, ScalingSpec
from repro.experiments.serialize import canonical_json, decode
from repro.sim.config import SimConfig

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "codec_golden.json").read_text())
PER_NODE = SimConfig(batched_ticks=False)
BATCHED = SimConfig(batched_ticks=True)


def _golden_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_codec_golden", FIXTURES / "generate_codec_golden.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``(golden entry, task kind, spec)`` for both specs of all five kinds.
SPECS = _golden_generator().SPECS
IDS = [name for name, _, _ in SPECS]


@pytest.mark.parametrize("name,kind,spec", SPECS, ids=IDS)
def test_batched_and_per_node_fingerprints_differ(name, kind, spec):
    per_node = spec_fingerprint(replace(spec, sim=PER_NODE), kind)
    batched = spec_fingerprint(replace(spec, sim=BATCHED), kind)
    assert per_node != batched


@pytest.mark.parametrize("name,kind,spec", SPECS, ids=IDS)
def test_per_node_fingerprint_is_the_pinned_key(name, kind, spec):
    assert spec_fingerprint(replace(spec, sim=PER_NODE), kind) == GOLDEN[name]["fingerprint"]


def test_explicit_mode_is_in_the_key():
    def fingerprint(**mode: SimConfig) -> str:
        spec = RunSpec("penelope", ("EP", "DC"), 80.0, n_clients=8, workload_scale=0.1, **mode)
        return spec_fingerprint(spec)

    default = fingerprint()
    assert fingerprint(sim=PER_NODE) == default != fingerprint(sim=BATCHED)


@pytest.mark.parametrize("name,kind,spec", SPECS, ids=IDS)
def test_pinned_spec_without_a_mode_decodes_per_node(name, kind, spec):
    stored = json.loads(GOLDEN[name]["json"])
    assert "sim" not in stored
    assert decode(type(spec), stored).sim == PER_NODE


def test_cache_file_from_before_the_mode_field_loads_per_node(tmp_path):
    # A cache file as the codec wrote it before specs carried a mode:
    # the golden corpus pins those exact bytes.
    fingerprint = GOLDEN["single/spec-defaults"]["fingerprint"]
    path = tmp_path / SINGLE_RUN.name / f"{fingerprint}.json"
    path.parent.mkdir()
    path.write_text(
        canonical_json(
            {
                "fingerprint": fingerprint,
                "kind": SINGLE_RUN.name,
                "spec": json.loads(GOLDEN["single/spec-defaults"]["json"]),
                "result": json.loads(GOLDEN["single/result-defaults"]["json"]),
            }
        )
    )
    cache = ResultCache(tmp_path, SINGLE_RUN)
    per_node = RunSpec(manager="fair", pair=("EP", "DC"), cap_w_per_socket=70.0)
    assert cache.load(replace(per_node, sim=BATCHED)) is None
    result = cache.load(per_node)
    assert result is not None and result.spec.sim == PER_NODE


def test_batched_sweep_never_reads_a_per_node_entry(tmp_path, monkeypatch):
    per_node = ScalingSpec(manager="penelope", n_clients=4, release_at_s=1.0, observe_for_s=2.0)
    run_sweep([per_node], kind=SCALING_RUN, cache_dir=tmp_path)

    batched = replace(per_node, sim=BATCHED)
    loaded = []
    load = ResultCache.load

    def spy(self, spec):
        loaded.append(spec)
        return load(self, spec)

    monkeypatch.setattr(ResultCache, "load", spy)
    events = []
    [result] = run_sweep(
        [batched], kind=SCALING_RUN, cache_dir=tmp_path, progress=events.append
    )
    assert loaded == [batched]
    assert [event.cached for event in events] == [False]
    assert result.spec == batched
    assert len(list(tmp_path.rglob("*.json"))) == 2
