"""Cluster model: nodes executing workloads under simulated RAPL.

* :class:`~repro.cluster.node.SimNode` -- one machine: power domain,
  simulated RAPL, and a workload executor whose speed responds to the
  currently *enforced* cap.
* :class:`~repro.cluster.node.TraceNode` -- a machine that plays back a
  recorded power profile instead of running a workload (§4.5).
* :class:`~repro.cluster.cluster.Cluster` -- nodes + network; the unit a
  power manager installs onto.
* :mod:`repro.cluster.faults` -- node-kill and partition injection (§4.4).
"""

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import (
    FaultPlan,
    partition_at,
    kill_node_at,
)
from repro.cluster.node import SimNode, TraceNode, WorkloadExecutor

__all__ = [
    "Cluster",
    "ClusterConfig",
    "FaultPlan",
    "SimNode",
    "TraceNode",
    "WorkloadExecutor",
    "kill_node_at",
    "partition_at",
]
