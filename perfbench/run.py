"""The repository benchmark: host-time cost of reproducing the paper.

Usage (from the repository root):

    python3 perfbench/run.py --workload p2p-scale --seed 0 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-test             # tiny sizes, checks itself
    python3 perfbench/run.py --pin 0 1               # re-pin output digests

Each operation runs in a fresh child process (``workloads.py``) with the
program's selector variables cleared, ``src`` as the only ``PYTHONPATH``
entry and ``TMPDIR`` (where result caches go) a directory under
``.perfbench-tmp/`` that is removed afterwards.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  See ``RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from spans import LAYER_METRICS  # the benchmark's own module; imports no program code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "digests.json"
TMP_ROOT = ROOT / ".perfbench-tmp"

WORKLOAD_NAMES = ("p2p-scale", "p2p-membership", "central-saturation", "figure-campaign")

#: Variables that select what the program runs; cleared for the child.
CLEARED_ENV = (
    "REPRO_SCHEDULER",
    "REPRO_BATCHED_TICKS",
    "REPRO_HARNESS_FAULTS",
    "REPRO_BENCH_FULL",
    "REPRO_BENCH_JOBS",
)

#: End-to-end metrics: name -> unit.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_per_sim_s.p50": "s/s",
    "wall_s_per_sim_s.p90": "s/s",
    "run_s.p50": "s",
    "run_s.p85": "s",
    "runs_per_s": "1/s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}

#: A child may not outlive this (the run as a whole must end in 180 s).
CHILD_TIMEOUT_S = 170.0


def _quantile(values: List[float], q: int, n: int) -> float:
    """The ``q``-th of ``n`` quantiles (inclusive method; one value -> it)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


def _per_sim_quantile(ops: List[Dict[str, Any]], share: float) -> float:
    """Seconds per simulated second that ``share`` of all simulated time
    ran within (each slice or spec weighs its simulated seconds)."""
    pairs = sorted((v, w) for op in ops for v, w in zip(op["per_sim_s"], op["sim_s"]))
    target = share * sum(w for _, w in pairs)
    covered = 0.0
    for value, weight in pairs:
        covered += weight
        if covered >= target:
            return value
    return pairs[-1][0]


def e2e_metrics(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics from the untraced operations of one run."""
    ops = [op for op in ops if op["ok"] and "traced" not in op["kind"]]
    timed = [op for op in ops if op["kind"] != "replay"]
    replays = [op for op in ops if op["replay_s"] > 0]
    run_s = [v for op in ops for v in op["run_s"]]
    return {
        "setup_s": statistics.median(op["setup_s"] for op in ops),
        "wall_s": statistics.median(op["wall_s"] for op in timed),
        "wall_s_per_sim_s.p50": _per_sim_quantile(timed, 0.5),
        "wall_s_per_sim_s.p90": _per_sim_quantile(timed, 0.9),
        "run_s.p50": _quantile(run_s, 1, 2),
        "run_s.p85": _quantile(run_s, 17, 20),
        "runs_per_s": len(run_s) / sum(op["busy_s"] for op in ops),
        "replay_s": statistics.median(op["replay_s"] for op in replays),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
    }


def layer_metrics(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced operations, plus the
    traced/untraced wall-time ratio."""
    ok = [op for op in ops if op["ok"]]
    traced = [op for op in ok if "traced" in op["kind"]]
    plain = [op for op in ok if "traced" not in op["kind"]]
    metrics = {
        name: statistics.median(op["layers"][name] for op in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(op["wall_s"] for op in traced)
        / statistics.median(op["wall_s"] for op in plain)
    )
    return metrics


def gate(ops: List[Dict[str, Any]], pinned: Optional[Any]) -> Tuple[int, int, List[str]]:
    """Apply the correctness gate; returns (attempted, failed, messages).

    Every operation must pass its budget audit (else it raised and is not
    ``ok``) and reproduce the pinned output digest of its workload and
    seed; for a seed without a pin, the first operation's digest is the
    reference the others must match.  Campaign digests are per spec, and
    a campaign operation also counts the warm-pass specs that failed to
    replay from the cache.
    """
    reference = pinned
    if reference is None:
        reference = next((op["digest"] for op in ops if op["ok"]), None)
    attempted = failed = 0
    messages: List[str] = []
    for op in ops:
        attempted += op["attempted"]
        if not op["ok"]:
            failed += op["attempted"]
            messages.append(f"{op['kind']}: {op['error']}")
            continue
        bad = op["failed"]
        if op["failed"]:
            messages.append(f"{op['kind']}: {op['failed']} warm-pass specs failed to replay")
        digest = op["digest"]
        if isinstance(digest, dict):
            differ = sum(1 for fp, d in digest.items() if reference.get(fp) != d)
            missing = sum(1 for fp in reference if fp not in digest)
            bad += differ + missing
            if differ or missing:
                messages.append(f"{op['kind']}: {differ} spec digests differ, {missing} missing")
        elif digest != reference:
            bad += 1
            messages.append(f"{op['kind']}: digest {digest[:16]} != {str(reference)[:16]}")
        failed += min(bad, op["attempted"])
    return attempted, failed, messages


def child_env(tmp: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def run_op(workload: str, seed: int, kind: str, size: str, timeout_s: float) -> Dict[str, Any]:
    """One operation in a fresh interpreter; returns its JSON payload."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="op-", dir=TMP_ROOT))
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--size", size, "--seed", str(seed), "--kind", kind,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(tmp), stdout=subprocess.PIPE,
            timeout=max(timeout_s, 1.0), text=True,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {kind}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> List[Dict[str, Any]]:
    """Operations back to back for about ``seconds``.

    The kinds cycle through a fixed pattern (sliced/replay, or
    untraced/traced with ``trace``; the campaign's one kind twice, so its
    per-spec percentiles pool two cold passes) and every pattern runs at
    least once.  A new operation starts only if the mean operation so far
    would end within ``seconds``, so a run lasts about ``seconds``.
    """
    if workload == "figure-campaign":
        pattern = ("campaign", "campaign-traced") if trace else ("campaign", "campaign")
    else:
        pattern = ("sliced", "traced") if trace else ("sliced", "replay")
    started = time.perf_counter()
    deadline = started + CHILD_TIMEOUT_S
    ops: List[Dict[str, Any]] = []
    while True:
        now = time.perf_counter()
        if len(ops) >= len(pattern):
            mean_op_s = (now - started) / len(ops)
            if now + mean_op_s > started + seconds:
                return ops
        ops.append(run_op(workload, seed, pattern[len(ops) % len(pattern)], size, deadline - now))


def report(name: str, seed: int, ops: List[Dict[str, Any]], trace: bool,
           pinned: Optional[Any]) -> Dict[str, Any]:
    """Print the human-readable block; return the contract's result line."""
    attempted, failed, messages = gate(ops, pinned)
    env = ops[0]["env"]
    print(f"[{name}] seed={seed} python={env['python']} nproc={env['nproc']} "
          f"sim_config={json.dumps(env['sim_config'])} scheduler={env['scheduler']} "
          f"batched_ticks={env['batched_ticks']}")
    print(f"[{name}] operations={attempted} failed={failed} error_rate={failed / attempted:.4f} "
          f"digest={'pinned' if pinned is not None else 'self-consistent (seed not pinned)'}")
    for message in messages:
        print(f"[{name}] gate: {message}")
    print(f"[{name}] host speed factor (nominal s per host s): "
          f"{statistics.median(op['speed_factor'] for op in ops):.3f}; uncalibrated wall_s "
          f"{statistics.median(op['raw_wall_s'] for op in ops):.4g} s")
    units = LAYER_METRICS if trace else E2E_METRICS
    metrics: Dict[str, Dict[str, Any]] = {}
    if failed < attempted:
        values = layer_metrics(ops) if trace else e2e_metrics(ops)
        for metric, unit in units.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
            print(f"[{name}] {metric} = {values[metric]:.6g} {unit}")
    for op in ops:
        if op["fidelity"]:
            print(f"[{name}] fidelity: {json.dumps(op['fidelity'], sort_keys=True)}")
            break
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def pinned_digest(workload: str, seed: int) -> Optional[Any]:
    """The digest ``digests.json`` pins for ``workload`` at ``seed``."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    return pins.get(workload, {}).get(str(seed))


# -- self-test ---------------------------------------------------------------


def self_test() -> int:
    """Run every workload at its tiny size and check the benchmark itself."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []
    expected = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    if expected[False] != E2E_METRICS or expected[True] != LAYER_METRICS:
        problems.append("BENCHMARK.json metric names/units differ from the benchmark's")
    for workload in WORKLOAD_NAMES:
        for trace in (False, True):
            ops = measure(workload, 0, 0, trace, size="tiny")
            line = report(workload, 0, ops, trace, pinned=None)
            if not line["correct"]:
                problems.append(f"{workload} trace={trace}: gate failed")
            for metric, unit in expected[trace].items():
                got = line["metrics"].get(metric)
                if got is None or got["unit"] != unit:
                    problems.append(f"{workload} trace={trace}: {metric} missing or unit wrong")
            digests = {op["kind"]: op["digest"] for op in ops}
            if len(set(map(json.dumps, digests.values()))) != 1:
                problems.append(f"{workload} trace={trace}: digests differ across {sorted(digests)}")
            for op in ops:
                for span, row in op["spans"].items():
                    if row["self_s"] > row["inclusive_s"] + 1e-9:
                        problems.append(f"{workload}: span {span} self time > inclusive")
        # A wrong pin must fail the operations it covers.
        wrong = {"x" * 12: "0" * 12} if workload == "figure-campaign" else "0" * 64
        if gate(ops, wrong)[1] == 0:
            problems.append(f"{workload}: a wrong pinned digest failed no operation")
    for problem in problems:
        print(f"[self-test] FAIL {problem}")
    print(f"[self-test] {'PASS' if not problems else 'FAIL'}")
    return 0 if not problems else 1


# -- pinning -----------------------------------------------------------------


def pin(seeds: List[int]) -> int:
    """Record each workload's output digest for ``seeds`` in digests.json."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for workload in WORKLOAD_NAMES:
        for seed in seeds:
            ops = measure(workload, seed, 0, False)
            attempted, failed, messages = gate(ops, None)
            if failed:
                print(f"[pin] {workload} seed {seed}: {messages}")
                return 1
            pins.setdefault(workload, {})[str(seed)] = ops[0]["digest"]
            print(f"[pin] {workload} seed {seed} pinned")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Penelope reproduction benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.pin:
        return pin(args.pin)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        ops = measure(name, args.seed, args.seconds, bool(args.trace))
        line = report(name, args.seed, ops, bool(args.trace), pinned_digest(name, args.seed))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
