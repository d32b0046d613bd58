"""One simulated machine: power domain, RAPL, and a workload executor.

A cluster node is one of two kinds: a :class:`SimNode` runs a workload
under simulated RAPL, and a :class:`TraceNode` plays back a recorded
power profile (the §4.5 large-scale mode).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple, Union

import numpy as np

from repro.power.domain import PowerDomainSpec
from repro.power.rapl import SimulatedRapl
from repro.power.trace_source import TracePowerSource
from repro.power.sockets import (
    consumed_with_sockets,
    socket_demands_w,
    speed_with_sockets,
)
from repro.sim.engine import Engine
from repro.sim.events import Event, EventBase, Timeout
from repro.sim.process import Interrupt, Process
from repro.workloads.performance import consumed_power_w, speed_under_cap
from repro.workloads.phases import Phase, Workload
from repro.workloads.traces import PowerTrace

#: Interrupt causes understood by the executor.
_CAUSE_RECOMPUTE = "recompute"
_CAUSE_KILL = "kill"


class WorkloadExecutor:
    """Advances a workload's phases at cap-dependent speed.

    The executor is the bridge between the power substrate and the
    application model: whenever the enforced cap or the active phase
    changes it recomputes both the node's power draw (reported into the
    RAPL meter) and the phase's execution speed.

    ``overhead_factor`` models the management daemons stealing capacity
    from the application -- §4.2 measures Penelope's cost at ~1.3 % mean
    slowdown; we model it directly as a speed multiplier.
    """

    def __init__(
        self,
        engine: Engine,
        rapl: SimulatedRapl,
        workload: Workload,
        overhead_factor: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if not (0.0 <= overhead_factor < 1.0):
            raise ValueError(f"overhead_factor out of [0, 1): {overhead_factor!r}")
        self.engine = engine
        self.rapl = rapl
        self.workload = workload
        self.overhead_factor = overhead_factor
        self.name = name or f"exec[{workload.app}]"
        #: Fires with the completion time when the workload finishes.
        self.done: Event = engine.event(name=f"{self.name}.done")
        #: Fires when the workload finishes OR the node is killed -- the
        #: event experiment completion waits on (a killed node's workload
        #: will never finish, §4.4).
        self.settled: Event = engine.event(name=f"{self.name}.settled")
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.killed = False
        self._process: Optional[Process] = None
        self._phase_index = 0
        rapl.on_cap_enforced.append(self._on_cap_enforced)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Process:
        if self._process is not None:
            raise RuntimeError(f"{self.name} already started")
        self.started_at = self.engine.now
        self._process = self.engine.process(self._run(), name=self.name)
        return self._process

    def kill(self) -> None:
        """Abort execution (node crash): draw drops to zero, no completion."""
        self.killed = True
        if self._process is not None and self._process.is_alive:
            if self._process.is_initializing:
                self._process.cancel()
                self.rapl.set_consumption(0.0)
            else:
                self._process.interrupt(_CAUSE_KILL)
        else:
            self.rapl.set_consumption(0.0)
        if not self.settled.triggered:
            self.settled.succeed(None)

    @property
    def is_running(self) -> bool:
        return self._process is not None and self._process.is_alive

    @property
    def is_done(self) -> bool:
        return self.finished_at is not None

    @property
    def progress_fraction(self) -> float:
        """Rough progress indicator: completed phases / total phases."""
        return self._phase_index / self.workload.n_phases

    # -- cap notifications ----------------------------------------------------

    def _on_cap_enforced(self, cap_w: float) -> None:
        del cap_w
        if self._process is not None and self._process.is_alive:
            self._process.interrupt(_CAUSE_RECOMPUTE)

    # -- main loop ----------------------------------------------------------------

    def _phase_speed_and_draw(self, phase: Phase) -> Tuple[float, float]:
        """(speed, draw) for ``phase`` under the currently enforced cap.

        Balanced phases use the node-level model; phases declaring NUMA
        imbalance are evaluated per socket under the RAPL object's cap
        split policy (lockstep threads run at the slowest socket's speed).
        """
        spec = self.rapl.spec
        cap = self.rapl.effective_cap_w
        if phase.imbalance > 0.0 and spec.sockets > 1:
            demands = socket_demands_w(
                phase.demand_w_per_socket, phase.imbalance, spec
            )
            policy = getattr(self.rapl, "socket_split_policy", "even")
            speed = speed_with_sockets(cap, demands, spec, phase.beta, policy)
            draw = consumed_with_sockets(cap, demands, spec, policy)
        else:
            demand = phase.demand_w(spec)
            speed = speed_under_cap(cap, demand, spec.idle_w, phase.beta)
            draw = consumed_power_w(cap, demand, spec.idle_w)
        return speed * (1.0 - self.overhead_factor), draw

    def _run(self) -> Generator[EventBase, Any, None]:
        spec = self.rapl.spec
        engine = self.engine
        set_consumption = self.rapl.set_consumption
        try:
            for self._phase_index, phase in enumerate(self.workload.phases):
                remaining_work = phase.work_s
                while remaining_work > 1e-12:
                    speed, draw = self._phase_speed_and_draw(phase)
                    set_consumption(draw)
                    segment_start = engine._now
                    try:
                        yield Timeout(engine, remaining_work / speed)
                        remaining_work = 0.0
                    except Interrupt as interrupt:
                        elapsed = engine._now - segment_start
                        remaining_work -= elapsed * speed
                        if interrupt.cause == _CAUSE_KILL:
                            raise
                        # else: recompute with the new enforced cap
            self._phase_index = self.workload.n_phases
            self.finished_at = self.engine.now
            self.rapl.set_consumption(spec.idle_w)
            self.done.succeed(self.finished_at)
            if not self.settled.triggered:
                self.settled.succeed(self.finished_at)
        except Interrupt as interrupt:
            if interrupt.cause == _CAUSE_KILL:
                self.rapl.set_consumption(0.0)
                return
            raise  # pragma: no cover - only kill escapes the loop


class SimNode:
    """A cluster machine: identity, power domain, RAPL, optional workload."""

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        spec: PowerDomainSpec,
        rng: np.random.Generator,
        initial_cap_w: Optional[float] = None,
        enforcement_delay_s: Tuple[float, float] = (0.2, 0.5),
        reading_noise: float = 0.01,
    ) -> None:
        self.engine = engine
        self.node_id = node_id
        self.spec = spec
        self.rapl = SimulatedRapl(
            engine,
            spec,
            rng,
            initial_cap_w=initial_cap_w,
            enforcement_delay_s=enforcement_delay_s,
            reading_noise=reading_noise,
        )
        self.executor: Optional[WorkloadExecutor] = None
        self.alive = True
        #: Manager agents register teardown callbacks here so that a node
        #: kill also crashes the daemons it hosts.
        self.on_kill: List[Callable[[], None]] = []

    def assign_workload(
        self, workload: Workload, overhead_factor: float = 0.0
    ) -> WorkloadExecutor:
        """Attach (but do not start) a workload executor."""
        if self.executor is not None:
            raise RuntimeError(f"node {self.node_id} already has a workload")
        self.executor = WorkloadExecutor(
            self.engine,
            self.rapl,
            workload,
            overhead_factor=overhead_factor,
            name=f"exec[{workload.app}@{self.node_id}]",
        )
        return self.executor

    def start_workload(self) -> None:
        if self.executor is None:
            raise RuntimeError(f"node {self.node_id} has no workload")
        self.executor.start()

    def kill(self) -> None:
        """Crash the node: application and hosted daemons stop."""
        if not self.alive:
            return
        self.alive = False
        if self.executor is not None:
            self.executor.kill()
        else:
            self.rapl.set_consumption(0.0)
        for callback in list(self.on_kill):
            callback()

    def revive(self) -> None:
        """Restart a crashed node (cold boot).

        The machine comes back empty-handed: kill callbacks are cleared
        (whoever rebuilds daemons re-registers), and the workload -- if
        one was assigned -- is rebuilt from scratch, modelling a batch
        system resubmitting the job; crash progress is lost.  The fresh
        executor is *not* started (callers sequence that), and its
        ``settled`` event is new, so completion events built before the
        crash do not wait on the restarted run.
        """
        if self.alive:
            raise RuntimeError(f"node {self.node_id} is already alive")
        self.alive = True
        self.on_kill.clear()
        old = self.executor
        if old is not None:
            # The dead executor's cap listener would interrupt a process
            # that no longer exists; drop it before rebuilding.
            try:
                self.rapl.on_cap_enforced.remove(old._on_cap_enforced)
            except ValueError:  # pragma: no cover - defensive
                pass
            self.executor = None
            self.assign_workload(old.workload, overhead_factor=old.overhead_factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.alive else "dead"
        return f"<SimNode {self.node_id} {status} cap={self.rapl.cap_w:.1f}W>"


class TraceNode:
    """A machine that plays back a power profile instead of a workload.

    §4.5: at simulated scale the deciders "no longer interact with
    hardware, and instead use curated profiles of power consumption over
    time".  The node's demand comes from a
    :class:`~repro.workloads.traces.PowerTrace` through a
    :class:`~repro.power.trace_source.TracePowerSource`, which enforces
    caps immediately and reads without noise, so a trace node draws no
    random stream.  It runs no workload: ``executor`` is always ``None``
    and a kill only stops the daemons it hosts.
    """

    executor: Optional[WorkloadExecutor] = None

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        spec: PowerDomainSpec,
        trace: PowerTrace,
        initial_cap_w: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.node_id = node_id
        self.spec = spec
        self.rapl = TracePowerSource(engine, spec, trace, initial_cap_w=initial_cap_w)
        self.alive = True
        self.on_kill: List[Callable[[], None]] = []

    def assign_workload(
        self, workload: Workload, overhead_factor: float = 0.0
    ) -> WorkloadExecutor:
        raise RuntimeError(f"trace node {self.node_id} runs no workload")

    def start_workload(self) -> None:
        raise RuntimeError(f"trace node {self.node_id} runs no workload")

    def kill(self) -> None:
        """Crash the node: the daemons it hosts stop."""
        if not self.alive:
            return
        self.alive = False
        for callback in list(self.on_kill):
            callback()

    def revive(self) -> None:
        """Restart a crashed node; the profile plays on."""
        if self.alive:
            raise RuntimeError(f"node {self.node_id} is already alive")
        self.alive = True
        self.on_kill.clear()


#: Either node kind; a cluster holds one kind throughout.
Node = Union[SimNode, TraceNode]
