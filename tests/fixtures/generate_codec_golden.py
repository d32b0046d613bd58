"""Regenerate the codec golden corpus.

Usage::

    PYTHONPATH=src python tests/fixtures/generate_codec_golden.py

Pins the canonical JSON of every shape the harness codec writes to a
cache file, a journal or a fingerprint: for each sweep task kind an
all-defaults spec and an every-optional-field-set spec (with their
``spec_fingerprint``) plus a minimal and a fully populated result; a
fault plan using all nine categories; every wire message type; and the
decoded form of the
legacy inputs older caches still hold.  ``tests/test_codec_golden.py``
asserts today's codec reproduces every entry byte for byte, so a codec
change that moves a cache key or a stored result fails there first.

The corpus is built from hand-made objects, not simulations: it pins
the codec, not the trajectory.  Regenerate only for a deliberate format
change (and bump ``runner.CODE_VERSION`` with it).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.stats import DistributionSummary
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.core.manager import ConservationLedger
from repro.experiments.allocation import ALLOCATION_RUN, AllocationSpec, AllocationTrace
from repro.experiments.chaos import CHAOS_RUN, ChaosResult, ChaosSpec
from repro.experiments.harness import RunResult, RunSpec
from repro.experiments.invariants import InvariantViolation
from repro.experiments.multijob import MULTIJOB_RUN, MultiJobResult, MultiJobSpec
from repro.experiments.runner import SINGLE_RUN, TaskKind, spec_fingerprint
from repro.experiments.scaling import SCALING_RUN, ScalingResult, ScalingSpec
from repro.experiments.serialize import canonical_json, decode, encode
from repro.instrumentation import MetricsRecorder
from repro.managers.base import BudgetAudit
from repro.managers.slurm import SlurmConfig
from repro.managers.slurm_ha import HaSlurmConfig
from repro.membership.messages import (
    MembershipAck,
    MembershipGossip,
    MembershipPing,
    MembershipPingReq,
)
from repro.net.messages import (
    Addr,
    ExcessReport,
    GrantAck,
    MembershipUpdate,
    Message,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)
from repro.net.network import NetworkStats
from repro.power.domain import PowerDomainSpec
from repro.sim.config import SimConfig

FIXTURE = pathlib.Path(__file__).parent / "codec_golden.json"


def full_fault_plan() -> FaultPlan:
    """A plan with every one of the nine fault categories populated."""
    return (
        FaultPlan()
        .kill(3, 2.5)
        .partition([1, 2], 1.0, 4.0)
        .partition([5], 6.0)
        .restart(3, 7.25)
        .flap([4, 6], 0.5, 0.75, 1.25, 3)
        .loss_burst(0.2, 3.0, 1.5)
        .duplicate_burst(0.3, 1.0, 2.0)
        .reorder_burst(0.05, 2.0, 3.0)
        .clock_drift(2, -0.03, 0.1)
        .slow_node(1, 8.0, 0.2, 5.0)
        .slow_node(4, 2.5, 1.0)
    )


def full_recorder() -> MetricsRecorder:
    recorder = MetricsRecorder(record_caps=True)
    recorder.transaction(0.1 + 0.2, "request", 1, 2, 12.5, urgent=True)
    recorder.transaction(1e-7, "grant", 2, 1, 0.0)
    recorder.turnaround(1.5, 4, 0.003, 7.25, False)
    recorder.turnaround(2.0, 5, 0.3, 0.0, True)
    recorder.cap(0.5, 1, 140.0)
    recorder.cap(1.0, 2, 131.5)
    recorder.sample(0.25, "pooled_w", 3.75)
    recorder.counters["net.dropped"] = 3
    recorder.counters["decider.retries"] = 1
    return recorder


def full_network() -> NetworkStats:
    return NetworkStats(
        sent=40,
        delivered=33,
        dropped_dead_src=1,
        dropped_dead_dst=2,
        dropped_partition=1,
        dropped_overflow=1,
        dropped_unattached=1,
        dropped_loss=1,
        duplicated=4,
        reordered=2,
        by_kind={"PowerRequest": 25, "PowerGrant": 15},
        duplicated_by_kind={"PowerRequest": 4},
        reordered_by_kind={"PowerGrant": 2},
    )


def ledger(time: float) -> ConservationLedger:
    return ConservationLedger(
        time=time,
        budget_w=1120.0,
        caps_live_w=1000.5,
        caps_dead_w=50.0,
        pooled_w=40.25,
        escrow_w=9.25,
        in_flight_w=10.0,
        write_offs_w=10.0,
        reclaim_debt_w=0.0,
    )


PENELOPE = PenelopeConfig(
    period_s=0.5,
    response_timeout_s=0.2,
    pool_service_time_s=(1e-6, 2e-6),
    escrow_timeout_s=1.5,
    enable_membership=True,
)
SLURM = SlurmConfig(rate=0.2, server_service_time_s=(90e-6, 110e-6))
HA_SLURM = HaSlurmConfig(failover_after_timeouts=5, stagger_window_s=0.01)

#: Every spec pins the per-node tick mode, the default the codec omits.
PER_NODE = SimConfig(batched_ticks=False)

SINGLE_DEFAULTS = RunSpec(
    manager="fair", pair=("EP", "DC"), cap_w_per_socket=70.0, sim=PER_NODE
)
SINGLE_FULL = RunSpec(
    manager="penelope",
    pair=("MG", "EP"),
    cap_w_per_socket=62.5,
    n_clients=8,
    seed=17,
    workload_scale=0.25,
    manager_config=PENELOPE,
    fault_plan=full_fault_plan(),
    record_caps=True,
    time_limit_s=500.0,
    sim=PER_NODE,
)
SCALING_DEFAULTS = ScalingSpec(manager="slurm", sim=PER_NODE)
SCALING_FULL = ScalingSpec(
    manager="penelope",
    n_clients=64,
    frequency_hz=4.0,
    cap_w_per_socket=60.0,
    donor_demand_w_per_socket=90.0,
    hungry_demand_w_per_socket=120.0,
    release_at_s=2.0,
    observe_for_s=10.0,
    seed=5,
    spec=PowerDomainSpec(
        sockets=1,
        min_cap_w_per_socket=35.0,
        max_cap_w_per_socket=140.0,
        idle_w_per_socket=25.0,
    ),
    pair=("BT", "CG"),
    stagger_window_s=0.5,
    server_inbox_capacity=64,
    manager_config=PENELOPE,
    sim=PER_NODE,
)
MULTIJOB_DEFAULTS = MultiJobSpec(manager="penelope", sim=PER_NODE)
MULTIJOB_FULL = MultiJobSpec(
    manager="slurm",
    n_clients=6,
    cap_w_per_socket=55.0,
    seed=9,
    workload_scale=0.5,
    sequences=(("EP", "DC"), ("MG",)),
    fault_plan=FaultPlan().kill(0, 1.0).loss_burst(0.1, 2.0, 1.0),
    manager_config=HA_SLURM,
    sim=PER_NODE,
)
ALLOCATION_DEFAULTS = AllocationSpec(manager="fair", sim=PER_NODE)
ALLOCATION_FULL = AllocationSpec(
    manager="slurm",
    pair=("LU", "SP"),
    cap_w_per_socket=72.5,
    n_clients=12,
    seed=4,
    workload_scale=0.75,
    observe_s=12.0,
    sample_every_s=0.5,
    manager_config=SLURM,
    sim=PER_NODE,
)
CHAOS_DEFAULTS = ChaosSpec(sim=PER_NODE)
CHAOS_FULL = ChaosSpec(
    n_clients=6,
    pair=("CG", "FT"),
    cap_w_per_socket=66.0,
    seed=21,
    duration_s=15.0,
    workload_scale=0.5,
    kills=1,
    flaps=3,
    bursts=1,
    partitions=2,
    enable_membership=True,
    membership_probe_period_s=0.25,
    burst_loss=0.05,
    base_loss=0.01,
    audit_interval_s=0.5,
    response_timeout_s=0.4,
    request_retries=3,
    grant_ack_retries=1,
    duplicate_bursts=1,
    reorder_bursts=2,
    clock_drifts=1,
    slow_nodes=2,
    duplicate_prob=0.2,
    reorder_window_s=0.1,
    max_drift_rate=0.02,
    slow_factor=4.0,
    sim=PER_NODE,
)

#: ``(entry name, task kind, spec)`` for every fingerprinted spec.
SPECS: List[Tuple[str, TaskKind, Any]] = [
    ("single/spec-defaults", SINGLE_RUN, SINGLE_DEFAULTS),
    ("single/spec-full", SINGLE_RUN, SINGLE_FULL),
    ("scaling/spec-defaults", SCALING_RUN, SCALING_DEFAULTS),
    ("scaling/spec-full", SCALING_RUN, SCALING_FULL),
    ("multijob/spec-defaults", MULTIJOB_RUN, MULTIJOB_DEFAULTS),
    ("multijob/spec-full", MULTIJOB_RUN, MULTIJOB_FULL),
    ("allocation/spec-defaults", ALLOCATION_RUN, ALLOCATION_DEFAULTS),
    ("allocation/spec-full", ALLOCATION_RUN, ALLOCATION_FULL),
    ("chaos/spec-defaults", CHAOS_RUN, CHAOS_DEFAULTS),
    ("chaos/spec-full", CHAOS_RUN, CHAOS_FULL),
]


def results() -> List[Tuple[str, TaskKind, Any]]:
    """``(entry name, task kind, result)``: minimal and full per kind."""
    return [
        (
            "single/result-defaults",
            SINGLE_RUN,
            RunResult(
                spec=SINGLE_DEFAULTS,
                runtime_s=12.0,
                recorder=MetricsRecorder(record_caps=False),
                audit=BudgetAudit(1120.0, 1100.0, 20.0, 0.0, 0.0),
                network=NetworkStats(),
            ),
        ),
        (
            "single/result-full",
            SINGLE_RUN,
            RunResult(
                spec=SINGLE_FULL,
                runtime_s=123.456789,
                recorder=full_recorder(),
                audit=BudgetAudit(1120.0, 1000.5, 80.25, 9.25, 30.0, [3, 11]),
                network=full_network(),
                finish_times={10: 99.5, 2: 88.25, 3: 101.0},
                unfinished=(4, 7),
            ),
        ),
        (
            "scaling/result-defaults",
            SCALING_RUN,
            ScalingResult(
                spec=SCALING_DEFAULTS,
                available_w=0.0,
                redistribution_median_s=float("nan"),
                redistribution_total_s=float("nan"),
                total_capped=False,
                turnaround=None,
                timeout_fraction=0.0,
                messages_sent=0,
                messages_dropped_overflow=0,
                server_requests_served=0,
                recorder=MetricsRecorder(record_caps=False),
            ),
        ),
        (
            "scaling/result-full",
            SCALING_RUN,
            ScalingResult(
                spec=SCALING_FULL,
                available_w=1234.5,
                redistribution_median_s=0.0125,
                redistribution_total_s=3.5,
                total_capped=True,
                turnaround=DistributionSummary(
                    count=4,
                    mean=0.01,
                    std=0.002,
                    minimum=0.005,
                    p25=0.007,
                    median=0.01,
                    p75=0.0125,
                    maximum=0.02,
                ),
                timeout_fraction=0.25,
                messages_sent=400,
                messages_dropped_overflow=3,
                server_requests_served=120,
                recorder=full_recorder(),
            ),
        ),
        (
            "multijob/result-defaults",
            MULTIJOB_RUN,
            MultiJobResult(
                manager="penelope",
                runtime_s=50.0,
                faulted=False,
                recorder=MetricsRecorder(record_caps=False),
            ),
        ),
        (
            "multijob/result-full",
            MULTIJOB_RUN,
            MultiJobResult(
                manager="slurm", runtime_s=61.75, faulted=True, recorder=full_recorder()
            ),
        ),
        (
            "allocation/result-defaults",
            ALLOCATION_RUN,
            AllocationTrace(
                manager="fair",
                times=np.array([]),
                mean_abs_deviation_w=np.array([]),
                oracle={},
                even_split_deviation_w=0.0,
            ),
        ),
        (
            "allocation/result-full",
            ALLOCATION_RUN,
            AllocationTrace(
                manager="slurm",
                times=np.array([0.0, 0.5, 1.0]),
                mean_abs_deviation_w=np.array([12.5, 6.25, 0.1 + 0.2]),
                oracle={11: 131.0, 0: 140.0, 3: 110.5},
                even_split_deviation_w=np.float64(12.75),
            ),
        ),
        (
            "chaos/result-defaults",
            CHAOS_RUN,
            ChaosResult(
                spec=CHAOS_DEFAULTS,
                schedule=encode(FaultPlan()),
                n_audits=0,
                max_abs_residual_w=0.0,
                final=ledger(0.0),
                recorder=MetricsRecorder(record_caps=False),
                network=NetworkStats(),
            ),
        ),
        (
            "chaos/result-full",
            CHAOS_RUN,
            ChaosResult(
                spec=CHAOS_FULL,
                schedule=encode(full_fault_plan()),
                n_audits=30,
                max_abs_residual_w=1e-9,
                final=ledger(15.0),
                recorder=full_recorder(),
                network=full_network(),
                detector={"false_positives": 1, "latency_s": [0.5, None]},
                violations=[
                    InvariantViolation(
                        invariant="conservation",
                        time=3.25,
                        message="residual 0.5 W",
                        context={"node": 3, "watts": 0.5, "ids": [1, 2]},
                    ),
                    InvariantViolation("clock-monotone", 4.0, "clock ran backwards"),
                ],
            ),
        ),
    ]


def messages() -> List[Tuple[str, Any]]:
    """One instance of every wire message type, ids pinned explicitly."""
    a, b = Addr(1, "pool"), Addr(2, "decider")
    gossip = (MembershipUpdate(3, "suspect", 2), MembershipUpdate(4, "alive", 0))
    return [
        (
            "PowerRequest",
            PowerRequest(
                src=a, dst=b, msg_id=101, urgent=True, alpha=0.5, iteration=7,
            ),
        ),
        ("PowerRequest-defaults", PowerRequest(src=a, dst=b, msg_id=102)),
        (
            "PowerGrant",
            PowerGrant(
                src=b, dst=a, msg_id=103, delta=4.5, reply_to=101, gossip=gossip,
            ),
        ),
        ("GrantAck", GrantAck(src=a, dst=b, msg_id=104, reply_to=103, delta=4.5)),
        ("ExcessReport", ExcessReport(src=a, dst=b, msg_id=105, delta=2.0)),
        ("ReleaseDirective", ReleaseDirective(src=b, dst=a, msg_id=106, on_behalf_of=9)),
        ("MembershipPing", MembershipPing(src=a, dst=b, msg_id=107, gossip=gossip)),
        ("MembershipPingReq", MembershipPingReq(src=a, dst=b, msg_id=108, target=4)),
        (
            "MembershipAck",
            MembershipAck(
                src=b, dst=a, msg_id=109, subject=4, incarnation=2, reply_to=108,
            ),
        ),
        ("MembershipGossip", MembershipGossip(src=a, dst=b, msg_id=110, gossip=gossip[:1])),
    ]


#: A fault plan from before the churn and adversarial categories.
LEGACY_FAULT_PLAN: Dict[str, Any] = {
    "node_kills": [[2, 1.5]],
    "partitions": [[[1, 3], 0.5, None], [[4], 2.0, 1.0]],
}

#: Network stats from before the send/arrival split of dead-node drops.
LEGACY_NETWORK_STATS: Dict[str, Any] = {
    "sent": 10,
    "delivered": 6,
    "dropped_dead": 2,
    "dropped_partition": 1,
    "dropped_overflow": 0,
    "dropped_unattached": 1,
    "dropped_loss": 0,
    "by_kind": {"PowerRequest": 10},
}


#: ``(entry name, decode type, value)`` for the standalone shapes.
def standalone() -> List[Tuple[str, type, Any]]:
    entries: List[Tuple[str, type, Any]] = [
        ("fault-plan/all-categories", FaultPlan, full_fault_plan())
    ]
    for name, message in messages():
        entries.append((f"message/{name}", Message, message))
    return entries


#: ``(entry name, decode type, legacy input)``; pinned as re-encoded.
LEGACY: List[Tuple[str, type, Dict[str, Any]]] = [
    ("legacy/fault-plan-without-late-keys", FaultPlan, LEGACY_FAULT_PLAN),
    ("legacy/network-stats-dropped-dead", NetworkStats, LEGACY_NETWORK_STATS),
]


def build() -> Dict[str, Dict[str, str]]:
    """Every corpus entry: canonical JSON, plus the fingerprint of specs."""
    corpus: Dict[str, Dict[str, str]] = {}
    for name, kind, spec in SPECS:
        corpus[name] = {
            "json": canonical_json(encode(spec)),
            "fingerprint": spec_fingerprint(spec, kind),
        }
    for name, _, result in results():
        corpus[name] = {"json": canonical_json(encode(result))}
    for name, _, value in standalone():
        corpus[name] = {"json": canonical_json(encode(value))}
    for name, cls, data in LEGACY:
        corpus[name] = {"json": canonical_json(encode(decode(cls, data)))}
    return corpus


def main() -> int:
    FIXTURE.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
