"""Retry, quarantine, harness self-chaos and interrupt-safety tests.

The resilient executor's contract: ``run_sweep`` always returns one slot
per spec -- successes hold results, exhausted specs hold in-slot
:class:`TaskFailure` records -- and a crashed/hung worker only costs the
affected attempts, never the campaign.  The harness-fault shim
(``crash:I,hang:I,raise:I``) is the injection mechanism CI gates on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments.journal import TaskFailure, replay_journal, task_failure_from_dict
from repro.experiments.runner import (
    HarnessFaultError,
    HarnessFaults,
    RetryPolicy,
    SweepFailure,
    TaskKind,
    backoff_delay_s,
    raise_on_failures,
    run_sweep,
    spec_fingerprint,
    split_failures,
)

#: Retries resolve in milliseconds so tests stay fast.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01)


# -- task kinds (module-level: picklable by the pool) ------------------------


@dataclass(frozen=True)
class FlakySpec:
    """Fails its first ``fail_until`` attempts, then succeeds.

    Attempts are counted in a per-spec marker file so the count survives
    worker process boundaries and is inspectable after the sweep.
    """

    value: int
    fail_until: int
    marker_dir: str


def _marker(spec: FlakySpec) -> Path:
    return Path(spec.marker_dir) / f"{spec.value}.attempts"


def attempts_recorded(spec: FlakySpec) -> int:
    marker = _marker(spec)
    return int(marker.read_text()) if marker.exists() else 0


def run_flaky(spec: FlakySpec) -> dict:
    attempt = attempts_recorded(spec)
    # Write-then-rename: an interrupted sweep SIGTERMs its workers, and a
    # marker torn between truncate and write would read back as ''.
    marker = _marker(spec)
    tmp = marker.with_name(f".{marker.name}.{os.getpid()}")
    tmp.write_text(str(attempt + 1))
    os.replace(tmp, marker)
    if attempt < spec.fail_until:
        raise RuntimeError(f"flaky: attempt {attempt} of spec {spec.value}")
    return {"value": spec.value, "attempts": attempt + 1}


FLAKY = TaskKind(
    name="flaky",
    fn=run_flaky,
    spec_to_dict=lambda s: {
        "value": s.value,
        "fail_until": s.fail_until,
        "dir": s.marker_dir,
    },
    result_to_dict=lambda r: dict(r),
    result_from_dict=lambda d: dict(d),
)


def flaky_specs(tmp_path, fail_untils) -> list:
    return [
        FlakySpec(value, fail_until, str(tmp_path))
        for value, fail_until in enumerate(fail_untils)
    ]


# -- deterministic backoff ---------------------------------------------------


class TestBackoffSchedule:
    FP = "a" * 64

    def test_schedule_is_a_pure_function_of_task_identity(self):
        policy = RetryPolicy()
        first = [backoff_delay_s(policy, self.FP, a) for a in range(6)]
        again = [backoff_delay_s(policy, self.FP, a) for a in range(6)]
        assert first == again

    def test_exponential_envelope_with_bounded_jitter(self):
        policy = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=100.0)
        for attempt in range(6):
            base = 0.05 * 2**attempt
            delay = backoff_delay_s(policy, self.FP, attempt)
            assert 0.5 * base <= delay < base

    def test_cap_bounds_late_attempts(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=2.0)
        for attempt in range(4, 10):
            assert backoff_delay_s(policy, self.FP, attempt) < 2.0

    def test_jitter_differs_across_fingerprints(self):
        # Decorrelated retries: two specs failing together must not
        # retry in lock-step.
        policy = RetryPolicy()
        a = backoff_delay_s(policy, "a" * 64, 0)
        b = backoff_delay_s(policy, "b" * 64, 0)
        assert a != b


# -- harness fault spec parsing ----------------------------------------------


class TestHarnessFaultsParse:
    def test_round_trip(self):
        faults = HarnessFaults.parse("crash:0,hang:1,raise:2,crash:5")
        assert faults.crash == frozenset({0, 5})
        assert faults.hang == frozenset({1})
        assert faults.always_raise == frozenset({2})
        assert bool(faults)

    def test_empty_and_none_are_falsy(self):
        assert not HarnessFaults.parse("")
        assert not HarnessFaults.parse(None)
        assert not HarnessFaults.parse(" , ,")

    def test_missing_colon_rejected(self):
        with pytest.raises(ValueError, match="mode:index"):
            HarnessFaults.parse("crash")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown harness fault mode"):
            HarnessFaults.parse("explode:3")

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValueError):
            HarnessFaults.parse("crash:first")

    def test_run_sweep_fails_fast_on_bad_spec(self, tmp_path):
        # A typo'd fault spec must not execute half a campaign first.
        specs = flaky_specs(tmp_path, [0])
        with pytest.raises(ValueError):
            run_sweep(specs, kind=FLAKY, jobs=1, harness_faults="bogus")
        assert attempts_recorded(specs[0]) == 0


# -- retry / quarantine semantics --------------------------------------------


class TestRetrySerial:
    def test_succeeds_on_retry(self, tmp_path):
        specs = flaky_specs(tmp_path, [2])  # fails attempts 0 and 1
        results = run_sweep(specs, kind=FLAKY, jobs=1, retry=FAST_RETRY)
        assert results == [{"value": 0, "attempts": 3}]
        assert attempts_recorded(specs[0]) == 3

    def test_exhausted_retries_quarantine_in_slot(self, tmp_path):
        specs = flaky_specs(tmp_path, [0, 99, 0])
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.001)
        results = run_sweep(specs, kind=FLAKY, jobs=1, retry=policy)
        assert results[0] == {"value": 0, "attempts": 1}
        assert results[2] == {"value": 2, "attempts": 1}
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "exception"
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2  # max_retries=1 -> two attempts
        assert failure.index == 1
        assert failure.fingerprint == spec_fingerprint(specs[1], FLAKY)
        assert attempts_recorded(specs[1]) == 2

    def test_zero_retries_means_single_attempt(self, tmp_path):
        specs = flaky_specs(tmp_path, [1])
        policy = RetryPolicy(max_retries=0)
        results = run_sweep(specs, kind=FLAKY, jobs=1, retry=policy)
        assert isinstance(results[0], TaskFailure)
        assert results[0].attempts == 1

    def test_quarantine_fires_a_progress_event(self, tmp_path):
        specs = flaky_specs(tmp_path, [99, 0])
        events = []
        run_sweep(
            specs, kind=FLAKY, jobs=1,
            retry=RetryPolicy(max_retries=0),
            progress=events.append,
        )
        assert [e.index for e in events] == [0, 1]
        assert all(not e.cached for e in events)


class TestRetryParallel:
    def test_mixed_sweep_keeps_order_and_length(self, tmp_path):
        specs = flaky_specs(tmp_path, [0, 99, 1, 0])
        results = run_sweep(specs, kind=FLAKY, jobs=2, retry=FAST_RETRY)
        assert len(results) == 4
        assert results[0] == {"value": 0, "attempts": 1}
        assert isinstance(results[1], TaskFailure)
        assert results[1].attempts == 3
        assert results[2] == {"value": 2, "attempts": 2}
        assert results[3] == {"value": 3, "attempts": 1}


class TestFailureHandling:
    def test_split_failures(self, tmp_path):
        specs = flaky_specs(tmp_path, [0, 99])
        results = run_sweep(
            specs, kind=FLAKY, jobs=1, retry=RetryPolicy(max_retries=0)
        )
        ok, failures = split_failures(results)
        assert ok == [{"value": 0, "attempts": 1}]
        assert [f.index for f in failures] == [1]

    def test_raise_on_failures_raises_sweep_failure(self, tmp_path):
        specs = flaky_specs(tmp_path, [99])
        results = run_sweep(
            specs, kind=FLAKY, jobs=1, retry=RetryPolicy(max_retries=0)
        )
        with pytest.raises(SweepFailure, match="quarantined in smoke"):
            raise_on_failures(results, context="smoke")
        try:
            raise_on_failures(results)
        except SweepFailure as exc:
            assert [f.index for f in exc.failures] == [0]

    def test_raise_on_failures_passes_clean_lists_through(self):
        assert raise_on_failures([{"ok": 1}]) == [{"ok": 1}]

    def test_task_failure_codec_round_trip(self):
        from repro.experiments.journal import task_failure_to_dict

        failure = TaskFailure(
            kind="flaky", fingerprint="f" * 64, index=3,
            reason="timeout", error_type="TaskTimeout",
            message="exceeded task deadline of 2s", attempts=3,
        )
        assert task_failure_from_dict(task_failure_to_dict(failure)) == failure
        # The journal stores the record as JSON text; it survives that too.
        assert (
            task_failure_from_dict(json.loads(json.dumps(task_failure_to_dict(failure))))
            == failure
        )


# -- harness self-chaos (the CI gate's mechanism) ----------------------------


class TestHarnessFaultInjection:
    def test_crash_and_poison_with_pool_recovery(self, tmp_path):
        # crash:0 kills a worker on the first attempt (innocents and the
        # crasher itself recover on the rebuilt pool); raise:2 poisons
        # spec 2 on every attempt, so it must end up quarantined.
        specs = flaky_specs(tmp_path, [0, 0, 0, 0])
        results = run_sweep(
            specs, kind=FLAKY, jobs=2, retry=FAST_RETRY,
            harness_faults="crash:0,raise:2",
        )
        assert len(results) == 4
        assert results[0]["value"] == 0
        assert results[1]["value"] == 1
        assert results[3]["value"] == 3
        failure = results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.error_type == "HarnessFaultError"
        assert failure.attempts == 3

    def test_hung_worker_reclaimed_by_deadline(self, tmp_path):
        # hang:1 sleeps for an hour on its first attempt; the 0.75s task
        # deadline charges it, rebuilds the pool, and the retry succeeds.
        specs = flaky_specs(tmp_path, [0, 0, 0])
        policy = RetryPolicy(
            max_retries=2, task_timeout_s=0.75, backoff_base_s=0.001
        )
        results = run_sweep(
            specs, kind=FLAKY, jobs=2, retry=policy, harness_faults="hang:1",
        )
        assert [r["value"] for r in results] == [0, 1, 2]

    def test_environment_does_not_arm_the_shim(self, tmp_path, monkeypatch):
        # Only the harness_faults argument arms the shim.
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "raise:0")
        specs = flaky_specs(tmp_path, [0, 0])
        results = run_sweep(
            specs, kind=FLAKY, jobs=1, retry=RetryPolicy(max_retries=0)
        )
        assert results == [{"value": 0, "attempts": 1}, {"value": 1, "attempts": 1}]

    def test_serial_shim_raises_every_attempt(self, tmp_path):
        specs = flaky_specs(tmp_path, [0])
        results = run_sweep(
            specs, kind=FLAKY, jobs=1, retry=FAST_RETRY, harness_faults="raise:0"
        )
        assert isinstance(results[0], TaskFailure)
        assert results[0].attempts == 3
        # The shim raised before the task body ran even once.
        assert attempts_recorded(specs[0]) == 0
        assert issubclass(HarnessFaultError, RuntimeError)


# -- KeyboardInterrupt safety ------------------------------------------------


class _InterruptAfter:
    """Progress listener that raises KeyboardInterrupt after N events."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.seen = 0

    def __call__(self, event) -> None:
        self.seen += 1
        if self.seen >= self.after:
            raise KeyboardInterrupt


class TestKeyboardInterrupt:
    def test_serial_interrupt_keeps_durable_state_and_reraises(self, tmp_path):
        specs = flaky_specs(tmp_path / "m", [0, 0, 0])
        (tmp_path / "m").mkdir()
        journal = tmp_path / "campaign.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                specs, kind=FLAKY, jobs=1,
                cache_dir=tmp_path / "cache", journal=journal,
                progress=_InterruptAfter(1),
            )
        # The interrupted spec's result was cached and journaled before
        # the listener fired (write-ahead ordering).
        replay = replay_journal(journal)
        assert spec_fingerprint(specs[0], FLAKY) in replay.done
        assert spec_fingerprint(specs[2], FLAKY) not in replay.done
        assert attempts_recorded(specs[0]) == 1
        assert attempts_recorded(specs[2]) == 0

    def test_parallel_interrupt_flushes_then_resume_completes(self, tmp_path):
        (tmp_path / "m").mkdir()
        specs = flaky_specs(tmp_path / "m", [0, 0, 0, 0])
        journal = tmp_path / "campaign.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                specs, kind=FLAKY, jobs=2, journal=journal,
                progress=_InterruptAfter(1),
            )
        replay = replay_journal(journal)
        assert len(replay.done) >= 1
        results = run_sweep(specs, kind=FLAKY, jobs=2, journal=journal, resume=True)
        assert [r["value"] for r in results] == [0, 1, 2, 3]
        # Journal-restored specs were not re-executed on resume.
        for spec in specs:
            if spec_fingerprint(spec, FLAKY) in replay.done:
                assert attempts_recorded(spec) == 1
