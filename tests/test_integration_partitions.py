"""Integration tests: network partitions (the §1 fault-tolerance argument
extends beyond node crashes -- "a node-level failure or network partition
would fully halt any power shifting" under a central server)."""

from __future__ import annotations

from repro.cluster.faults import FaultPlan
from repro.experiments.harness import RunSpec, run_single
from tests.conftest import SIM

FAST = dict(n_clients=6, workload_scale=0.2, seed=17, sim=SIM)
PAIR = ("EP", "DC")


class TestPartitionedSlurm:
    def test_isolating_the_server_halts_all_shifting(self):
        # Partition the server (node id 6) away from every client.
        plan = FaultPlan().partition([6], at_time_s=5.0)
        result = run_single(RunSpec("slurm", PAIR, 65.0, fault_plan=plan, **FAST))
        late_grants = [t for t in result.recorder.grants() if t.time > 5.5]
        assert late_grants == []
        result.audit.check()

    def test_shifting_resumes_after_heal(self):
        plan = FaultPlan().partition([6], at_time_s=5.0, heal_after_s=10.0)
        result = run_single(RunSpec("slurm", PAIR, 65.0, fault_plan=plan, **FAST))
        resumed = [t for t in result.recorder.grants() if t.time > 16.0]
        assert resumed
        result.audit.check()


class TestPartitionedPenelope:
    def test_majority_side_keeps_shifting(self):
        # Isolate one client; the other five keep trading peer-to-peer.
        plan = FaultPlan().partition([0], at_time_s=5.0)
        result = run_single(RunSpec("penelope", PAIR, 65.0, fault_plan=plan, **FAST))
        late_grants = [
            t for t in result.recorder.grants()
            if t.time > 6.0 and t.src != 0 and t.dst != 0
        ]
        assert late_grants
        result.audit.check()

    def test_partition_hurts_penelope_relatively_less(self):
        # Compare each system's partitioned run against its own healthy
        # baseline: isolating SLURM's server halts all shifting, while
        # isolating one Penelope client leaves the other peers trading.
        slurm_healthy = run_single(RunSpec("slurm", PAIR, 65.0, **FAST))
        slurm_part = run_single(
            RunSpec(
                "slurm", PAIR, 65.0,
                fault_plan=FaultPlan().partition([6], at_time_s=5.0), **FAST,
            )
        )
        penelope_healthy = run_single(RunSpec("penelope", PAIR, 65.0, **FAST))
        penelope_part = run_single(
            RunSpec(
                "penelope", PAIR, 65.0,
                fault_plan=FaultPlan().partition([0], at_time_s=5.0), **FAST,
            )
        )
        slurm_slowdown = slurm_part.runtime_s / slurm_healthy.runtime_s
        penelope_slowdown = penelope_part.runtime_s / penelope_healthy.runtime_s
        assert penelope_slowdown < slurm_slowdown

    def test_all_workloads_still_finish(self):
        plan = FaultPlan().partition([0, 1], at_time_s=3.0)
        result = run_single(RunSpec("penelope", PAIR, 65.0, fault_plan=plan, **FAST))
        assert result.unfinished == ()
