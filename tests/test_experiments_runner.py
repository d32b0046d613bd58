"""Determinism, ordering and progress tests for the parallel sweep runner.

The load-bearing property: because every run seeds its own
``RngRegistry`` and the runner reassembles results in *spec order*,
``run_sweep(specs, jobs=N)`` is byte-identical to the serial in-process
loop for every N.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from repro.experiments import serialize
from repro.experiments.harness import RunSpec
from repro.experiments.runner import (
    TaskKind,
    add_progress_listener,
    remove_progress_listener,
    run_sweep,
)
from tests.conftest import SIM

#: Small but heterogeneous: three managers, two caps, two seeds.
SPECS = [
    RunSpec(manager, ("EP", "DC"), cap, n_clients=4, workload_scale=0.05, seed=seed, sim=SIM)
    for manager, cap, seed in (
        ("fair", 70.0, 0),
        ("penelope", 70.0, 0),
        ("slurm", 70.0, 0),
        ("penelope", 90.0, 1),
        ("fair", 90.0, 1),
    )
]


def _canonical(results):
    return serialize.canonical_json(
        [serialize.encode(result) for result in results]
    )


@pytest.fixture(scope="module")
def serial_results():
    return run_sweep(SPECS, jobs=1)


@pytest.fixture(scope="module")
def parallel_results():
    return run_sweep(SPECS, jobs=2)


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(
        self, serial_results, parallel_results
    ):
        assert _canonical(serial_results) == _canonical(parallel_results)

    def test_results_come_back_in_spec_order(self, parallel_results):
        assert [result.spec for result in parallel_results] == SPECS

    def test_serial_results_in_spec_order(self, serial_results):
        assert [result.spec for result in serial_results] == SPECS

    def test_more_jobs_than_specs(self):
        results = run_sweep(SPECS[:2], jobs=8)
        assert _canonical(results) == _canonical(run_sweep(SPECS[:2], jobs=1))


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SPECS[:1], jobs=0)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SPECS[:1], jobs=-3)

    def test_empty_sweep(self):
        assert run_sweep([], jobs=1) == []
        assert run_sweep([], jobs=4) == []


# -- progress events (cheap custom kind; no simulation needed) ---------------


@dataclass(frozen=True)
class EchoSpec:
    value: int


def run_echo(spec: EchoSpec) -> dict:
    return {"value": spec.value}


ECHO = TaskKind(
    name="echo",
    fn=run_echo,
    spec_to_dict=lambda s: {"value": s.value},
    result_to_dict=lambda r: dict(r),
    result_from_dict=lambda d: {"value": int(d["value"])},
)

ECHO_SPECS = [EchoSpec(i) for i in range(5)]


class TestProgress:
    def test_per_call_callback_sees_every_spec(self):
        events = []
        run_sweep(ECHO_SPECS, kind=ECHO, jobs=1, progress=events.append)
        assert [e.index for e in events] == [0, 1, 2, 3, 4]
        assert all(e.total == 5 for e in events)
        assert all(e.kind == "echo" for e in events)
        assert all(not e.cached for e in events)
        assert all(e.duration_s >= 0 for e in events)
        assert [e.spec for e in events] == ECHO_SPECS

    def test_parallel_events_cover_every_spec(self):
        events = []
        run_sweep(ECHO_SPECS, kind=ECHO, jobs=2, progress=events.append)
        assert sorted(e.index for e in events) == [0, 1, 2, 3, 4]

    def test_module_listener_subscribes_and_unsubscribes(self):
        events = []
        add_progress_listener(events.append)
        try:
            run_sweep(ECHO_SPECS[:2], kind=ECHO)
            assert len(events) == 2
        finally:
            remove_progress_listener(events.append)
        run_sweep(ECHO_SPECS[:2], kind=ECHO)
        assert len(events) == 2  # nothing after unsubscribe

    def test_remove_unknown_listener_is_a_noop(self):
        remove_progress_listener(lambda event: None)

    def test_jobs_none_uses_all_cpus(self):
        results = run_sweep(ECHO_SPECS, kind=ECHO, jobs=None)
        assert results == [{"value": i} for i in range(5)]


# -- duration accounting -----------------------------------------------------


@dataclass(frozen=True)
class SleepSpec:
    value: int
    seconds: float


def run_sleepy(spec: SleepSpec) -> dict:
    time.sleep(spec.seconds)
    return {"value": spec.value}


SLEEPY = TaskKind(
    name="sleepy",
    fn=run_sleepy,
    spec_to_dict=lambda s: {"value": s.value, "seconds": s.seconds},
    result_to_dict=lambda r: dict(r),
    result_from_dict=lambda d: {"value": int(d["value"])},
)


class TestDurationAccounting:
    def test_parallel_duration_is_per_task_not_cumulative(self):
        # Regression: the old parallel path timed each result against the
        # *sweep* start, so with 4 x 0.5s tasks on 2 workers the second
        # wave reported ~1.0s each.  Per-task timing stays near 0.5s.
        specs = [SleepSpec(i, 0.5) for i in range(4)]
        events = []
        run_sweep(specs, kind=SLEEPY, jobs=2, progress=events.append)
        assert len(events) == 4
        assert all(0.4 <= e.duration_s < 0.85 for e in events)
