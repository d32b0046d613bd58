"""The cluster: nodes plus the network a power manager installs onto."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.cluster.node import Node, SimNode, TraceNode
from repro.power.domain import SKYLAKE_6126_NODE, PowerDomainSpec
from repro.sim.engine import Engine
from repro.sim.events import EventBase, FirstOf
from repro.sim.rng import RngRegistry
from repro.workloads.generator import PairAssignment
from repro.workloads.phases import Workload
from repro.workloads.traces import PowerTrace, constant_trace


@dataclass(frozen=True)
class ClusterConfig:
    """Construction parameters for a simulated cluster.

    ``system_power_budget_w`` is the system-wide cap ``C_system`` of §2.1;
    managers derive initial node caps from it.  The default enforcement
    delay window matches RAPL's sub-0.5 s convergence.
    """

    n_nodes: int = 20
    spec: PowerDomainSpec = SKYLAKE_6126_NODE
    system_power_budget_w: float = 20 * 2 * 80.0  # 80 W/socket default sweep midpoint
    latency: LatencyModel = field(default_factory=LatencyModel)
    enforcement_delay_s: Tuple[float, float] = (0.2, 0.5)
    reading_noise: float = 0.01
    #: Probability of any message being lost in flight (lossy fabric).
    message_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.system_power_budget_w <= 0:
            raise ValueError("power budget must be positive")

    @property
    def fair_share_w(self) -> float:
        """The Fair per-node cap ``C_system / N``."""
        return self.system_power_budget_w / self.n_nodes

    def validate_budget(self) -> None:
        """The budget must admit a safe static allocation (§2.1)."""
        share = self.fair_share_w
        if not self.spec.is_safe_cap(share):
            raise ValueError(
                f"fair share {share:.1f} W outside safe window "
                f"[{self.spec.min_cap_w:.1f}, {self.spec.max_cap_w:.1f}] W"
            )


class Cluster:
    """Nodes, network and workload wiring for one simulation run.

    By default every node is a :class:`~repro.cluster.node.SimNode`.
    Given ``traces`` (node id -> power profile), every node is instead a
    :class:`~repro.cluster.node.TraceNode` playing its profile back;
    nodes without one (a manager's server nodes) idle.
    """

    def __init__(
        self,
        engine: Engine,
        config: ClusterConfig,
        rng_registry: Optional[RngRegistry] = None,
        traces: Optional[Mapping[int, PowerTrace]] = None,
    ) -> None:
        config.validate_budget()
        self.engine = engine
        self.config = config
        self.rngs = rng_registry or RngRegistry(seed=0)
        self.topology = Topology(config.n_nodes, latency=config.latency)
        self.network = Network(
            engine,
            self.topology,
            self.rngs.stream("net.latency"),
            loss_probability=config.message_loss_probability,
        )
        self.nodes: List[Node]
        if traces is None:
            self.nodes = [
                SimNode(
                    engine,
                    node_id,
                    config.spec,
                    self.rngs.stream(f"node.{node_id}.rapl"),
                    initial_cap_w=config.fair_share_w,
                    enforcement_delay_s=config.enforcement_delay_s,
                    reading_noise=config.reading_noise,
                )
                for node_id in range(config.n_nodes)
            ]
        else:
            idle = constant_trace(config.spec.idle_w)
            self.nodes = [
                TraceNode(
                    engine,
                    node_id,
                    config.spec,
                    traces.get(node_id, idle),
                    initial_cap_w=config.fair_share_w,
                )
                for node_id in range(config.n_nodes)
            ]

    # -- lookups -----------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def node_ids(self) -> range:
        return range(self.config.n_nodes)

    def alive_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.alive]

    def compute_nodes(self) -> List[Node]:
        """Nodes with a workload attached."""
        return [n for n in self.nodes if n.executor is not None]

    # -- workloads ------------------------------------------------------------

    def install_assignment(
        self,
        assignment: Union[PairAssignment, Mapping[int, Workload]],
        overhead_factor: float = 0.0,
    ) -> None:
        """Attach workloads to their nodes: a pair's (§4.1 half/half) or
        any node id -> workload mapping."""
        workloads = (
            assignment.workloads
            if isinstance(assignment, PairAssignment)
            else assignment
        )
        for node_id, workload in workloads.items():
            self.nodes[node_id].assign_workload(
                workload, overhead_factor=overhead_factor
            )

    def start_workloads(self) -> None:
        for node in self.compute_nodes():
            node.start_workload()

    def completion_event(self) -> EventBase:
        """Fires when every workload has finished or its node was killed.

        §4.1: "the runtime of an experiment [is] the time necessary for all
        nodes to complete their workloads."  A killed node's workload can
        never finish, so its ``settled`` event (finish-or-kill) is what
        completion waits on -- a kill *during* the run correctly unblocks
        the experiment (§4.4).

        The event counts down the ``settled`` events still pending: it
        succeeds once the last one is processed (at construction if none
        is pending) and fails, defusing the culprit, if one fails.
        """
        pending = [
            node.executor.settled
            for node in self.compute_nodes()
            if node.executor is not None and not node.executor.settled.triggered
        ]
        done = self.engine.event()
        remaining = len(pending)
        if not remaining:
            done.succeed()
            return done

        def settle(event: EventBase) -> None:
            nonlocal remaining
            if not event.ok:
                # Delivered through ``done`` (or, once ``done`` has fired,
                # deliberately dropped): not an unhandled loop failure.
                event._defused = True
                if not done.triggered:
                    done.fail(event.value)
                return
            remaining -= 1
            if not remaining and not done.triggered:
                done.succeed()

        for event in pending:
            assert event.callbacks is not None
            event.callbacks.append(settle)
        return done

    def run_to_completion(
        self, time_limit_s: float = 1e7, start_workloads: bool = True
    ) -> float:
        """Run the simulation until all workloads finish; returns makespan.

        Unstarted workloads are started first (disable with
        ``start_workloads=False`` if you staged them manually).
        ``time_limit_s`` guards against livelock bugs: exceeding it raises.
        """
        for node in self.compute_nodes():
            assert node.executor is not None
            if start_workloads and node.alive and not node.executor.is_running \
                    and not node.executor.is_done:
                node.start_workload()
        done = self.completion_event()
        guard = self.engine.timeout(time_limit_s)
        self.engine.run(until=FirstOf(self.engine, done, guard))
        if not done.processed or not done.ok:
            raise RuntimeError(
                f"cluster did not complete within {time_limit_s} simulated seconds"
            )
        if not guard.processed:
            # The livelock guard never fired: cancel it, or the queue
            # keeps a far-future timer and a later drain of this engine
            # would leap the clock to the guard's expiry.
            guard.cancel()
        makespans = [
            node.executor.finished_at
            for node in self.compute_nodes()
            if node.executor is not None and node.executor.finished_at is not None
        ]
        return max(makespans) if makespans else self.engine.now

    # -- power views --------------------------------------------------------------

    def total_requested_caps_w(self, only_alive: bool = True) -> float:
        nodes: Sequence[Node] = self.alive_nodes() if only_alive else self.nodes
        return sum(node.rapl.cap_w for node in nodes)

    def cap_snapshot(self) -> Dict[int, float]:
        return {node.node_id: node.rapl.cap_w for node in self.nodes}

    def power_snapshot(self) -> Dict[int, float]:
        return {node.node_id: node.rapl.instantaneous_power_w for node in self.nodes}

    # -- faults -------------------------------------------------------------------

    def kill_node(self, node_id: int) -> None:
        """Crash ``node_id`` now: executor, daemons, and network endpoint."""
        node = self.nodes[node_id]
        node.kill()
        self.network.mark_dead(node_id)

    def revive_node(self, node_id: int, restart_workload: bool = True) -> None:
        """Restart a crashed node and rejoin it to the network.

        The workload (if any) restarts from scratch; manager daemons are
        *not* rebuilt here -- that is the power manager's job (it owns
        the accounting for what the crash destroyed; see
        ``PowerManager.revive_node``).  Partitions are independent state:
        a node that was both killed and partitioned stays partitioned
        until the partition heals.
        """
        node = self.nodes[node_id]
        node.revive()
        self.network.mark_alive(node_id)
        if restart_workload and node.executor is not None:
            node.start_workload()
