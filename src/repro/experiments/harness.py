"""The one universe builder, and the single-run driver built on it.

:func:`build_universe` constructs every experiment's simulation: engine,
cluster (workload-running or trace-playback nodes), workloads, manager
and fault plan.  A :class:`RunSpec` fully describes one nominal/faulty
measurement: manager, application pair, initial per-socket cap, cluster
size, seed, optional fault plan and tick mode.  :func:`run_single`
builds a fresh universe for it, runs to completion, audits the §2.1
constraints and returns a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.core.manager import PenelopeManager
from repro.instrumentation import MetricsRecorder
from repro.managers.base import BudgetAudit, ManagerConfig, PowerManager
from repro.managers.fair import FairManager
from repro.managers.podd import PoddManager
from repro.managers.slurm import SlurmConfig, SlurmManager
from repro.managers.slurm_ha import HaSlurmConfig, HaSlurmManager
from repro.net.network import NetworkStats
from repro.power.domain import SKYLAKE_6126_NODE, PowerDomainSpec
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workloads.generator import PairAssignment, assign_pair_to_cluster
from repro.workloads.phases import Workload
from repro.workloads.traces import PowerTrace

#: Builds a universe's workloads from its random streams: a pair
#: assignment or any node id -> workload mapping.
WorkloadsFactory = Callable[
    [RngRegistry], Union[PairAssignment, Mapping[int, Workload]]
]

#: manager name -> (factory taking an optional ManagerConfig,
#:                  dedicated server nodes withheld beyond the clients,
#:                  config class the factory expects)
MANAGER_FACTORIES: Dict[
    str, Tuple[Callable[..., PowerManager], int, type]
] = {
    "fair": (FairManager, 0, ManagerConfig),
    "penelope": (PenelopeManager, 0, PenelopeConfig),
    "slurm": (SlurmManager, 1, SlurmConfig),
    "podd": (PoddManager, 1, SlurmConfig),
    "slurm-ha": (HaSlurmManager, 2, HaSlurmConfig),
}


def expected_config_type(name: str) -> type:
    """The :class:`ManagerConfig` (sub)class ``name``'s factory expects."""
    return MANAGER_FACTORIES[name][2]


def check_manager_config(name: str, config: Optional[ManagerConfig]) -> None:
    """Reject a config that is not of (a subclass of) the type ``name``'s
    factory expects; ``None`` always passes."""
    config_type = expected_config_type(name)
    if config is not None and not isinstance(config, config_type):
        raise TypeError(
            f"{name} requires a {config_type.__name__}, got {type(config).__name__}"
        )


def make_manager(
    name: str,
    config: Optional[ManagerConfig] = None,
    recorder: Optional[MetricsRecorder] = None,
) -> PowerManager:
    """Instantiate a manager by name, with a type-checked config.

    The config check is table-driven so every manager -- including Fair,
    whose factory previously sat outside the per-name isinstance ladder --
    gets the same treatment: a ``None`` config means factory defaults, a
    config of the registered type (or a subclass) is passed through, and
    anything else is a :class:`TypeError`.
    """
    try:
        factory = MANAGER_FACTORIES[name][0]
    except KeyError:
        raise KeyError(
            f"unknown manager {name!r}; choose from {sorted(MANAGER_FACTORIES)}"
        ) from None
    check_manager_config(name, config)
    if config is None:
        return factory(recorder=recorder)
    return factory(config=config, recorder=recorder)


def extra_nodes(name: str) -> int:
    """Dedicated server nodes a manager withholds beyond the clients."""
    return MANAGER_FACTORIES[name][1]


def needs_server_node(name: str) -> bool:
    return extra_nodes(name) > 0


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one experiment run."""

    manager: str
    pair: Tuple[str, str]
    cap_w_per_socket: float
    n_clients: int = 20
    seed: int = 0
    #: Shrinks class-D runtimes for quick tests (1.0 = paper-like).
    workload_scale: float = 1.0
    manager_config: Optional[ManagerConfig] = None
    fault_plan: Optional[FaultPlan] = None
    record_caps: bool = False
    time_limit_s: float = 1e6
    #: Kernel knobs, tick mode included (per-node by default).
    sim: SimConfig = SimConfig()

    def __post_init__(self) -> None:
        if self.manager not in MANAGER_FACTORIES:
            raise ValueError(f"unknown manager {self.manager!r}")
        if self.n_clients < 2:
            raise ValueError("need at least two client nodes for a pair")
        if self.cap_w_per_socket <= 0:
            raise ValueError("cap must be positive")
        check_manager_config(self.manager, self.manager_config)

    @property
    def budget_w(self) -> float:
        """System-wide budget: the per-socket cap over all client sockets."""
        return self.cap_w_per_socket * 2 * self.n_clients


@dataclass
class RunResult:
    """Outcome of one run."""

    spec: RunSpec
    runtime_s: float
    recorder: MetricsRecorder
    audit: BudgetAudit
    network: NetworkStats
    #: node_id -> finish time for completed workloads.
    finish_times: Dict[int, float] = field(default_factory=dict)
    #: Nodes whose workload never finished (killed nodes).
    unfinished: Tuple[int, ...] = ()

    @property
    def performance(self) -> float:
        """The paper's performance metric, 1/runtime (§4.1)."""
        return 1.0 / self.runtime_s


def pair_workloads(
    pair: Tuple[str, str], n_clients: int, scale: float
) -> WorkloadsFactory:
    """§4.1's half/half split of ``pair`` over the first ``n_clients``
    nodes, jittered from the ``workload.jitter`` stream."""
    return lambda rngs: assign_pair_to_cluster(
        pair, range(n_clients), rng=rngs.stream("workload.jitter"), scale=scale
    )


def build_universe(
    manager: Optional[str],
    *,
    seed: int,
    n_clients: int,
    budget_w: float,
    sim: SimConfig,
    workloads: Optional[WorkloadsFactory] = None,
    traces: Optional[Mapping[int, PowerTrace]] = None,
    node_spec: PowerDomainSpec = SKYLAKE_6126_NODE,
    manager_config: Optional[ManagerConfig] = None,
    record_caps: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    loss_probability: float = 0.0,
) -> Tuple[Engine, Cluster, Optional[PowerManager]]:
    """Construct (engine, cluster, manager) for one run without starting it.

    Clients are nodes ``0..n_clients-1``; the manager's server nodes
    (:func:`extra_nodes`) follow them, and the system budget grows by
    the same ratio so every node's fair share stays ``budget_w /
    n_clients``.  Nodes run ``workloads`` or, given ``traces``, play
    back power profiles.  ``manager=None`` builds an unmanaged cluster.
    ``sim`` is the kernel mode; spec-driven runs pass their spec's.
    """
    engine = Engine(sim=sim)
    rngs = RngRegistry(seed=seed)
    power_manager = None
    extra = 0
    if manager is not None:
        power_manager = make_manager(
            manager, config=manager_config, recorder=MetricsRecorder(record_caps=record_caps)
        )
        extra = extra_nodes(manager)
    cluster_config = ClusterConfig(
        n_nodes=n_clients + extra,
        spec=node_spec,
        system_power_budget_w=budget_w * (n_clients + extra) / n_clients,
        message_loss_probability=loss_probability,
    )
    cluster = Cluster(engine, cluster_config, rngs, traces=traces)
    if workloads is not None:
        cluster.install_assignment(
            workloads(rngs),
            overhead_factor=(
                power_manager.config.overhead_factor if power_manager else 0.0
            ),
        )
    if power_manager is not None:
        power_manager.install(
            cluster, client_ids=list(range(n_clients)), budget_w=budget_w
        )
    if fault_plan is not None:
        fault_plan.install(cluster, power_manager)
    return engine, cluster, power_manager


def build_run(
    spec: RunSpec, sim: Optional[SimConfig] = None
) -> Tuple[Engine, Cluster, PowerManager]:
    """Construct (engine, cluster, manager) for ``spec`` without running.

    Exposed separately so tests and examples can poke at a mid-flight
    simulation.  ``sim`` overrides ``spec.sim`` (the kernel benchmarks
    run one spec in both tick modes).
    """
    engine, cluster, manager = build_universe(
        spec.manager,
        seed=spec.seed,
        n_clients=spec.n_clients,
        budget_w=spec.budget_w,
        sim=sim if sim is not None else spec.sim,
        workloads=pair_workloads(spec.pair, spec.n_clients, spec.workload_scale),
        manager_config=spec.manager_config,
        record_caps=spec.record_caps,
        fault_plan=spec.fault_plan,
    )
    assert manager is not None
    return engine, cluster, manager


def run_single(spec: RunSpec) -> RunResult:
    """Run one experiment to completion and audit it."""
    engine, cluster, manager = build_run(spec)
    manager.start()
    runtime = cluster.run_to_completion(time_limit_s=spec.time_limit_s)
    audit = manager.audit()
    audit.check()
    manager.stop()
    finish_times = {
        node.node_id: node.executor.finished_at
        for node in cluster.compute_nodes()
        if node.executor is not None and node.executor.finished_at is not None
    }
    unfinished = tuple(
        node.node_id
        for node in cluster.compute_nodes()
        if node.executor is not None and node.executor.finished_at is None
    )
    return RunResult(
        spec=spec,
        runtime_s=runtime,
        recorder=manager.recorder,
        audit=audit,
        network=cluster.network.stats,
        finish_times=finish_times,
        unfinished=unfinished,
    )
