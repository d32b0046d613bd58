"""Shrinking chaos fuzzer: search fault schedules for invariant breaks.

``repro fuzz`` samples random :class:`~repro.experiments.chaos.ChaosSpec`
intensities and schedule seeds across *all* fault families -- kills,
restarts, flaps, loss bursts, partitions, duplication, reordering, clock
drift and gray-slow nodes -- and runs each schedule under the full
:mod:`~repro.experiments.invariants` monitor (not fail-fast, so one run
collects every breach).  On the first violation it applies greedy
delta-debugging to the *schedule*:

1. **Drop faults** one at a time, keeping each removal that still
   reproduces the violated invariant (a kill takes its paired restarts
   with it -- a restart without its kill would try to revive a live
   node).
2. **Shorten windows**: halve the duration of loss/duplication/
   reordering bursts and slow-node windows while the violation holds.
3. **Reduce the cluster**: lower ``n_clients`` toward the minimum that
   still covers every node id the plan references.

The minimized schedule is emitted as a JSON repro file (format
``penelope-fuzz-repro/1``) that ``repro fuzz --replay <file>`` re-runs
deterministically: every sampled spec keeps the default per-node tick
mode (the batcher approximates staggered ticks; a repro must be exact)
and all sampling comes from the master seed's ``fuzz.sample`` stream,
so the same invocation always finds, shrinks and replays the same
schedule.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.faults import FaultPlan
from repro.experiments import serialize
from repro.experiments.chaos import ChaosSpec, build_chaos_plan, run_chaos_single
from repro.experiments.invariants import (
    Invariant,
    InvariantViolation,
    default_invariants,
    get_invariant,
)
from repro.experiments.journal import CampaignJournal, replay_journal
from repro.sim.rng import RngRegistry

#: Repro-file schema identifier (bump on incompatible change).
REPRO_FORMAT = "penelope-fuzz-repro/1"


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign: trial budget plus sampling bounds."""

    trials: int = 25
    master_seed: int = 0
    duration_s: float = 20.0
    #: Sampled cluster sizes span [4, clients_max].
    clients_max: int = 10
    #: Chaos-run budget for delta-debugging one violation.
    max_shrink_runs: int = 40
    #: Invariant names to arm; ``None`` means the production defaults.
    invariants: Optional[Tuple[str, ...]] = None
    #: Also arm the deliberately-breakable ``selftest-node-death``
    #: invariant -- the end-to-end plumbing check (any kill trips it).
    self_test: bool = False

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.clients_max < 4:
            raise ValueError("clients_max must be at least 4")
        if self.max_shrink_runs < 0:
            raise ValueError("shrink budget must be non-negative")

    def resolve_invariants(self) -> List[Invariant]:
        if self.invariants is not None:
            resolved = [get_invariant(name) for name in self.invariants]
        else:
            resolved = default_invariants()
        if self.self_test and not any(
            inv.name == "selftest-node-death" for inv in resolved
        ):
            resolved.append(get_invariant("selftest-node-death"))
        return resolved


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    config: FuzzConfig
    trials_run: int
    #: Per-trial summaries: seed, fault counts, violated invariant (or None).
    trials: List[Dict[str, Any]] = field(default_factory=list)
    #: The minimized repro (None when every trial ran clean).
    repro: Optional[Dict[str, Any]] = None

    @property
    def violation_found(self) -> bool:
        return self.repro is not None


# -- trial sampling -----------------------------------------------------------


def sample_spec(rng: np.random.Generator, config: FuzzConfig) -> ChaosSpec:
    """Draw one trial's spec: cluster shape and per-family fault counts.

    Every family can appear (0-2 events each) so the search space covers
    interactions between them; the schedule itself is then derived from
    the drawn ``seed`` by :func:`build_chaos_plan` as usual.
    """
    n_clients = int(rng.integers(4, config.clients_max + 1))
    return ChaosSpec(
        n_clients=n_clients,
        seed=int(rng.integers(0, 2**31 - 1)),
        duration_s=config.duration_s,
        kills=int(rng.integers(0, min(3, n_clients - 1))),
        flaps=int(rng.integers(0, 3)),
        bursts=int(rng.integers(0, 3)),
        partitions=int(rng.integers(0, 2)),
        duplicate_bursts=int(rng.integers(0, 3)),
        reorder_bursts=int(rng.integers(0, 3)),
        clock_drifts=int(rng.integers(0, 3)),
        slow_nodes=int(rng.integers(0, 3)),
        enable_membership=bool(rng.integers(0, 2)),
    )


def _zero_fault_counts(spec: ChaosSpec) -> ChaosSpec:
    """The spec with schedule-deriving counts zeroed.

    Once a concrete plan is carried explicitly (shrinking, repro files),
    the counts are dead weight; zeroing them makes the repro
    self-describing -- the plan IS the schedule.
    """
    return dataclasses.replace(
        spec,
        kills=0,
        flaps=0,
        bursts=0,
        partitions=0,
        duplicate_bursts=0,
        reorder_bursts=0,
        clock_drifts=0,
        slow_nodes=0,
    )


# -- plan atoms (delta-debugging units) ---------------------------------------

#: Plan categories whose entries each count as one removable fault.
_ATOM_CATEGORIES = (
    "restarts",
    "node_kills",
    "flaps",
    "loss_bursts",
    "partitions",
    "duplicate_bursts",
    "reorder_bursts",
    "clock_drifts",
    "slow_nodes",
)


def plan_atoms(plan_dict: Dict[str, Any]) -> List[Tuple[str, int]]:
    """Every removable fault as a ``(category, index)`` pair.

    Restarts come first so a paired restart can be dropped on its own
    (leaving the kill) before the kill-removal pass would take both.
    """
    atoms: List[Tuple[str, int]] = []
    for category in _ATOM_CATEGORIES:
        atoms.extend(
            (category, i) for i in range(len(plan_dict.get(category, [])))
        )
    return atoms


def fault_count(plan_dict: Dict[str, Any]) -> int:
    """Faults in a plan; a kill and its paired restarts count as one."""
    count = 0
    killed = {node for node, _ in plan_dict.get("node_kills", [])}
    for category in _ATOM_CATEGORIES:
        for entry in plan_dict.get(category, []):
            if category == "restarts" and entry[0] in killed:
                continue  # folded into its kill
            count += 1
    return count


def _remove_atom(
    plan_dict: Dict[str, Any], atom: Tuple[str, int]
) -> Dict[str, Any]:
    """A copy of the plan without ``atom``.

    Removing a kill also removes every restart of the same node: a
    restart whose node was never killed would try to revive a live node
    and crash the run instead of probing the invariant.
    """
    category, index = atom
    out = {k: [list(e) for e in v] for k, v in plan_dict.items()}
    removed = out[category].pop(index)
    if category == "node_kills":
        node = removed[0]
        out["restarts"] = [e for e in out.get("restarts", []) if e[0] != node]
    return out


def _halve_window(
    plan_dict: Dict[str, Any], category: str, index: int
) -> Optional[Dict[str, Any]]:
    """A copy with one burst/slow window's duration halved (None = n/a)."""
    out = {k: [list(e) for e in v] for k, v in plan_dict.items()}
    entry = out[category][index]
    if category in ("loss_bursts", "duplicate_bursts", "reorder_bursts"):
        slot = 2  # [intensity, at, duration]
    elif category == "slow_nodes":
        slot = 3  # [node, factor, at, duration]
    else:
        return None
    duration = entry[slot]
    if duration is None or duration <= 1e-3:
        return None
    entry[slot] = duration / 2.0
    return out


def _max_node_ref(plan_dict: Dict[str, Any]) -> int:
    """Highest node id the plan mentions (-1 when it mentions none)."""
    ids = [-1]
    ids.extend(node for node, _ in plan_dict.get("node_kills", []))
    ids.extend(node for node, _ in plan_dict.get("restarts", []))
    for isolated, *_ in plan_dict.get("flaps", []):
        ids.extend(isolated)
    for isolated, *_ in plan_dict.get("partitions", []):
        ids.extend(isolated)
    ids.extend(node for node, _, _ in plan_dict.get("clock_drifts", []))
    ids.extend(node for node, _, _, _ in plan_dict.get("slow_nodes", []))
    return max(ids)


# -- the shrink loop ----------------------------------------------------------


@dataclass
class ShrinkResult:
    spec: ChaosSpec
    plan_dict: Dict[str, Any]
    violation: InvariantViolation
    runs_spent: int


def _violates(
    spec: ChaosSpec,
    plan_dict: Dict[str, Any],
    invariants: Sequence[Invariant],
    target: str,
) -> Optional[InvariantViolation]:
    """Run the candidate schedule; the target invariant's violation or None."""
    result = run_chaos_single(
        spec,
        plan=serialize.decode(FaultPlan, plan_dict),
        invariants=invariants,
        fail_fast=False,
    )
    for violation in result.violations:
        if violation.invariant == target:
            return violation
    return None


def shrink(
    spec: ChaosSpec,
    plan_dict: Dict[str, Any],
    invariants: Sequence[Invariant],
    violation: InvariantViolation,
    max_runs: int,
) -> ShrinkResult:
    """Greedy delta-debugging toward a minimal violating schedule."""
    target = violation.invariant
    spec = _zero_fault_counts(spec)
    best = {k: [list(e) for e in v] for k, v in plan_dict.items()}
    runs = 0

    def try_candidate(
        candidate_spec: ChaosSpec, candidate_plan: Dict[str, Any]
    ) -> Optional[InvariantViolation]:
        nonlocal runs
        if runs >= max_runs:
            return None
        runs += 1
        return _violates(candidate_spec, candidate_plan, invariants, target)

    # Pass 1: drop whole faults while the violation survives.  Restart
    # the scan after every successful removal -- indices shift, and a
    # removal can unlock further ones.
    changed = True
    while changed and runs < max_runs:
        changed = False
        for atom in plan_atoms(best):
            candidate = _remove_atom(best, atom)
            found = try_candidate(spec, candidate)
            if found is not None:
                best, violation, changed = candidate, found, True
                break

    # Pass 2: shorten timed windows (two halvings per window at most).
    for _ in range(2):
        shortened = False
        for category in ("loss_bursts", "duplicate_bursts", "reorder_bursts", "slow_nodes"):
            for index in range(len(best.get(category, []))):
                candidate = _halve_window(best, category, index)
                if candidate is None:
                    continue
                found = try_candidate(spec, candidate)
                if found is not None:
                    best, violation, shortened = candidate, found, True
        if not shortened:
            break

    # Pass 3: shrink the cluster to the smallest size the plan permits.
    floor = max(4, _max_node_ref(best) + 1)
    for n_clients in range(floor, spec.n_clients):
        candidate_spec = dataclasses.replace(spec, n_clients=n_clients)
        found = try_candidate(candidate_spec, best)
        if found is not None:
            spec, violation = candidate_spec, found
            break

    return ShrinkResult(
        spec=spec, plan_dict=best, violation=violation, runs_spent=runs
    )


# -- the campaign -------------------------------------------------------------


def _trial_fingerprint(master_seed: int, trial: int, spec: ChaosSpec) -> str:
    """Content hash identifying one fuzz trial in the campaign journal."""
    return serialize.sha256_of(
        {"fuzz": master_seed, "trial": trial, "spec": serialize.encode(spec)}
    )


def run_fuzz(
    config: FuzzConfig,
    journal: Optional[str] = None,
    resume: bool = False,
) -> FuzzReport:
    """Run one seeded campaign: sample, run, and shrink the first breach.

    With a ``journal`` path every trial verdict is appended to a
    write-ahead :class:`~repro.experiments.journal.CampaignJournal`;
    ``resume=True`` replays it first and skips trials with a durable
    *clean* verdict.  Trial sampling always draws for every trial slot
    (skipped or not), so the sampled schedule sequence -- and therefore
    any violation found after a resume -- is identical to an
    uninterrupted campaign.  A restored *violated* trial re-runs live:
    the shrink search is recomputed, which is deterministic anyway.
    """
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    invariants = config.resolve_invariants()
    rng = RngRegistry(seed=config.master_seed).stream("fuzz.sample")
    report = FuzzReport(config=config, trials_run=0)
    restored: Dict[str, Dict[str, Any]] = {}
    if resume and journal is not None:
        restored = replay_journal(journal).done
    journal_log: Optional[CampaignJournal] = None
    if journal is not None:
        journal_log = CampaignJournal.open(
            journal, "fuzz", f"seed={config.master_seed}", config.trials
        )
    try:
        for trial in range(config.trials):
            spec = sample_spec(rng, config)
            fingerprint = _trial_fingerprint(config.master_seed, trial, spec)
            report.trials_run += 1
            prior = restored.get(fingerprint)
            if prior is not None and prior.get("violated") is None:
                report.trials.append(dict(prior))
                continue
            if journal_log is not None:
                journal_log.record_submitted(fingerprint, trial, 0)
            result = run_chaos_single(
                spec, invariants=invariants, fail_fast=False
            )
            summary: Dict[str, Any] = {
                "trial": trial,
                "seed": spec.seed,
                "n_clients": spec.n_clients,
                "violated": None,
            }
            report.trials.append(summary)
            if not result.violations:
                if journal_log is not None:
                    journal_log.record_done(fingerprint, trial, dict(summary))
                continue
            first = result.violations[0]
            summary["violated"] = first.invariant
            plan_dict = serialize.encode(build_chaos_plan(spec))
            shrunk = shrink(
                spec, plan_dict, invariants, first, config.max_shrink_runs
            )
            report.repro = {
                "format": REPRO_FORMAT,
                "master_seed": config.master_seed,
                "trial": trial,
                "spec": serialize.encode(shrunk.spec),
                "plan": shrunk.plan_dict,
                "invariants": [inv.name for inv in invariants],
                "sim": {"batched_ticks": False},
                "violation": serialize.encode(shrunk.violation),
                "fault_count": fault_count(shrunk.plan_dict),
                "shrink_runs": shrunk.runs_spent,
            }
            if journal_log is not None:
                journal_log.record_done(fingerprint, trial, dict(summary))
            break
    finally:
        if journal_log is not None:
            journal_log.close()
    return report


# -- repro files --------------------------------------------------------------


def write_repro(repro: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(repro, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_repro(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format") != REPRO_FORMAT:
        raise ValueError(
            f"not a {REPRO_FORMAT} file: format={data.get('format')!r}"
        )
    return data


def replay_repro(
    repro: Dict[str, Any],
) -> Tuple[Optional[InvariantViolation], List[InvariantViolation]]:
    """Re-run a repro file's schedule; deterministic by construction.

    Returns ``(reproduced, all_violations)`` where ``reproduced`` is the
    recorded invariant's violation when it fired again, else ``None``.
    """
    spec = serialize.decode(ChaosSpec, repro["spec"])
    invariants = [get_invariant(name) for name in repro["invariants"]]
    expected = serialize.decode(InvariantViolation, repro["violation"])
    result = run_chaos_single(
        spec,
        plan=serialize.decode(FaultPlan, repro["plan"]),
        invariants=invariants,
        fail_fast=False,
    )
    reproduced = next(
        (v for v in result.violations if v.invariant == expected.invariant),
        None,
    )
    return reproduced, list(result.violations)


def format_fuzz(report: FuzzReport) -> str:
    """Text summary of a campaign."""
    lines = [
        f"Fuzz campaign: {report.trials_run}/{report.config.trials} trials, "
        f"master seed {report.config.master_seed}",
    ]
    for summary in report.trials:
        verdict = summary["violated"] or "clean"
        lines.append(
            f"  trial {summary['trial']:>3}  seed {summary['seed']:>10}  "
            f"n={summary['n_clients']:>3}  {verdict}"
        )
    if report.repro is None:
        lines.append("no invariant violations found")
    else:
        repro = report.repro
        violation = repro["violation"]
        lines.append(
            f"VIOLATION: {violation['invariant']} at "
            f"t={violation['time']:.3f}s -- {violation['message']}"
        )
        lines.append(
            f"shrunk to {repro['fault_count']} fault(s) on "
            f"{repro['spec'].get('n_clients', '?')} nodes in "
            f"{repro['shrink_runs']} shrink runs"
        )
    return "\n".join(lines)
