"""Result-cache behaviour: hits skip execution, stale keys miss, and
corrupted cache files fall back to re-running instead of crashing."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import pytest

import repro.experiments.runner as runner
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.experiments import serialize
from repro.experiments.harness import RunSpec
from repro.experiments.runner import (
    SINGLE_RUN,
    ResultCache,
    TaskKind,
    run_sweep,
    spec_fingerprint,
)
from repro.managers.slurm import SlurmConfig
from tests.conftest import SIM

# -- counting stub: proves when the run function actually executes -----------

#: Every spec the stub run function was called with, in call order.
CALLS = []


@dataclass(frozen=True)
class StubSpec:
    value: int
    knob: float = 1.0


def run_stub(spec: StubSpec) -> dict:
    CALLS.append(spec)
    return {"value": spec.value, "knob": spec.knob}


STUB = TaskKind(
    name="stub",
    fn=run_stub,
    spec_to_dict=lambda s: {"value": s.value, "knob": s.knob},
    result_to_dict=lambda r: dict(r),
    result_from_dict=lambda d: {"value": int(d["value"]), "knob": float(d["knob"])},
)


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


class TestCacheHitSkipsExecution:
    def test_warm_cache_executes_nothing(self, tmp_path):
        specs = [StubSpec(i) for i in range(4)]
        first = run_sweep(specs, kind=STUB, cache_dir=tmp_path)
        assert len(CALLS) == 4
        second = run_sweep(specs, kind=STUB, cache_dir=tmp_path)
        assert len(CALLS) == 4  # zero executions on the warm pass
        assert second == first

    def test_second_pass_events_are_all_cached(self, tmp_path):
        specs = [StubSpec(i) for i in range(3)]
        run_sweep(specs, kind=STUB, cache_dir=tmp_path)
        events = []
        run_sweep(specs, kind=STUB, cache_dir=tmp_path, progress=events.append)
        assert [e.cached for e in events] == [True, True, True]
        assert [e.index for e in events] == [0, 1, 2]

    def test_partial_cache_runs_only_the_missing_specs(self, tmp_path):
        run_sweep([StubSpec(0), StubSpec(1)], kind=STUB, cache_dir=tmp_path)
        CALLS.clear()
        results = run_sweep(
            [StubSpec(0), StubSpec(2), StubSpec(1)], kind=STUB, cache_dir=tmp_path
        )
        assert CALLS == [StubSpec(2)]
        assert [r["value"] for r in results] == [0, 2, 1]

    def test_no_cache_dir_always_executes(self):
        specs = [StubSpec(0)]
        run_sweep(specs, kind=STUB)
        run_sweep(specs, kind=STUB)
        assert len(CALLS) == 2

    def test_use_cache_false_neither_reads_nor_writes(self, tmp_path):
        specs = [StubSpec(0)]
        run_sweep(specs, kind=STUB, cache_dir=tmp_path, use_cache=False)
        assert list(tmp_path.rglob("*.json")) == []
        run_sweep(specs, kind=STUB, cache_dir=tmp_path)  # still a cold cache
        run_sweep(specs, kind=STUB, cache_dir=tmp_path, use_cache=False)
        assert len(CALLS) == 3

    def test_no_temp_files_left_behind(self, tmp_path):
        run_sweep([StubSpec(i) for i in range(3)], kind=STUB, cache_dir=tmp_path)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert leftovers == []


class TestInvalidation:
    BASE = RunSpec("penelope", ("EP", "DC"), 70.0, n_clients=4, workload_scale=0.1)

    def test_every_runspec_field_perturbs_the_fingerprint(self):
        variants = [
            replace(self.BASE, manager="slurm"),
            replace(self.BASE, pair=("CG", "LU")),
            replace(self.BASE, cap_w_per_socket=71.0),
            replace(self.BASE, n_clients=5),
            replace(self.BASE, seed=1),
            replace(self.BASE, workload_scale=0.2),
            replace(self.BASE, manager_config=PenelopeConfig(rate=0.2)),
            replace(self.BASE, fault_plan=FaultPlan().kill(0, 1.0)),
            replace(self.BASE, record_caps=True),
            replace(self.BASE, time_limit_s=500.0),
        ]
        fingerprints = {spec_fingerprint(v) for v in variants}
        assert len(fingerprints) == len(variants)
        assert spec_fingerprint(self.BASE) not in fingerprints

    def test_config_field_change_perturbs_the_fingerprint(self):
        a = RunSpec("slurm", ("EP", "DC"), 70.0, manager_config=SlurmConfig())
        b = replace(
            a, manager_config=SlurmConfig(server_service_time_s=(1e-3, 2e-3))
        )
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_salt_perturbs_the_fingerprint(self):
        assert spec_fingerprint(self.BASE) != spec_fingerprint(
            self.BASE, salt="bust"
        )

    def test_task_kind_is_part_of_the_key(self):
        clone = replace(SINGLE_RUN, name="single-v2")
        assert spec_fingerprint(self.BASE) != spec_fingerprint(self.BASE, kind=clone)

    def test_code_version_is_part_of_the_key(self, monkeypatch):
        before = spec_fingerprint(self.BASE)
        monkeypatch.setattr(runner, "CODE_VERSION", "999")
        assert spec_fingerprint(self.BASE) != before

    def test_changed_stub_spec_misses_the_cache(self, tmp_path):
        run_sweep([StubSpec(1, knob=1.0)], kind=STUB, cache_dir=tmp_path)
        run_sweep([StubSpec(1, knob=2.0)], kind=STUB, cache_dir=tmp_path)
        assert CALLS == [StubSpec(1, knob=1.0), StubSpec(1, knob=2.0)]


class TestCorruptionFallback:
    SPEC = StubSpec(7)

    def _primed_path(self, tmp_path):
        run_sweep([self.SPEC], kind=STUB, cache_dir=tmp_path)
        CALLS.clear()
        path = ResultCache(tmp_path, STUB).path_for(self.SPEC)
        assert path.is_file()
        return path

    def _assert_reruns_and_repairs(self, tmp_path):
        results = run_sweep([self.SPEC], kind=STUB, cache_dir=tmp_path)
        assert CALLS == [self.SPEC]  # corrupted entry fell back to executing
        assert results == [{"value": 7, "knob": 1.0}]
        CALLS.clear()
        run_sweep([self.SPEC], kind=STUB, cache_dir=tmp_path)
        assert CALLS == []  # and the rewritten entry is good again

    def test_garbage_file(self, tmp_path):
        self._primed_path(tmp_path).write_text("not json at all {{{")
        self._assert_reruns_and_repairs(tmp_path)

    def test_truncated_file(self, tmp_path):
        path = self._primed_path(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        self._assert_reruns_and_repairs(tmp_path)

    def test_empty_file(self, tmp_path):
        self._primed_path(tmp_path).write_text("")
        self._assert_reruns_and_repairs(tmp_path)

    def test_fingerprint_mismatch(self, tmp_path):
        path = self._primed_path(tmp_path)
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload))
        self._assert_reruns_and_repairs(tmp_path)

    def test_missing_result_key(self, tmp_path):
        path = self._primed_path(tmp_path)
        payload = json.loads(path.read_text())
        del payload["result"]
        path.write_text(json.dumps(payload))
        self._assert_reruns_and_repairs(tmp_path)

    def test_undecodable_result(self, tmp_path):
        path = self._primed_path(tmp_path)
        payload = json.loads(path.read_text())
        payload["result"] = {"value": "seven", "knob": 1.0}
        path.write_text(json.dumps(payload))
        self._assert_reruns_and_repairs(tmp_path)


class TestSingleRunCache:
    def test_cached_run_result_is_byte_identical(self, tmp_path):
        spec = RunSpec(
            "penelope", ("EP", "DC"), 70.0, n_clients=4, workload_scale=0.05, sim=SIM
        )
        fresh = run_sweep([spec], cache_dir=tmp_path)[0]
        events = []
        cached = run_sweep([spec], cache_dir=tmp_path, progress=events.append)[0]
        assert [e.cached for e in events] == [True]
        assert serialize.canonical_json(
            serialize.encode(cached)
        ) == serialize.canonical_json(serialize.encode(fresh))
