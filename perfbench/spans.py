"""Span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :class:`Tracer`
replaces a layer's public entry points with timing wrappers *where the
caller looks them up* (a class attribute, a module global the caller
imported, or a ``TaskKind`` field), and restores the originals on exit.
Nothing under ``src/`` is edited.

A span's *self time* is its duration minus the time its child spans
cover.  Spans nest on one stack (the simulator is single-threaded), so
the self times of all spans partition the traced wall time that any span
covers, and a layer's self time is the sum over its spans.

Counts are not measured by spans: they are read from the public
attributes of every simulated universe (a manager and the cluster it was
installed on) once its run is over -- :meth:`Tracer.fold`.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metrics, in the order they are reported: name -> unit.
LAYER_METRICS: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_logical": "ratio",
    "sim.cancelled_ratio": "ratio",
    "sim.self_s": "s",
    "core.ticks": "count",
    "core.tick.self_s": "s",
    "core.pool.self_s": "s",
    "core.grant_yield": "ratio",
    "core.timeout_ratio": "ratio",
    "membership.probe_rounds": "count",
    "membership.msg_share": "ratio",
    "membership.build_s": "s",
    "net.sent": "count",
    "net.send.self_s": "s",
    "net.drop_ratio": "ratio",
    "net.server.queue_depth.p90": "count",
    "managers.install_s": "s",
    "managers.server.served": "count",
    "managers.server.utilization": "ratio",
    "managers.timeout_ratio": "ratio",
    "power.reads": "count",
    "power.cap_writes": "count",
    "power.self_s": "s",
    "cluster.build_s": "s",
    "cluster.install_assignment_s": "s",
    "workloads.assign_s": "s",
    "experiments.runs": "count",
    "experiments.fingerprint_s": "s",
    "experiments.encode_s": "s",
    "experiments.decode_s": "s",
    "experiments.cache_store_s": "s",
    "experiments.cache_load_s": "s",
    "experiments.cache_bytes": "B",
    "experiments.cache_hit_ratio": "ratio",
    "experiments.self_s": "s",
    "analysis.self_s": "s",
    "instrumentation.samples": "count",
    "trace.overhead_ratio": "ratio",
}

#: Span name -> layer.  Every span the tracer installs appears here.
SPAN_LAYERS: Dict[str, str] = {
    "Engine.run": "sim",
    "Network.send": "net",
    "SimulatedRapl.read_power": "power",
    "SimulatedRapl.set_cap": "power",
    "LocalDecider.tick_start": "core",
    "LocalDecider.tick_end": "core",
    "PowerPool.deposit": "core",
    "PowerPool.withdraw_up_to": "core",
    "FailureDetector.__init__": "membership",
    "MemberView.__init__": "membership",
    "PowerManager.install": "managers",
    "PowerManager.audit": "managers",
    "Cluster.__init__": "cluster",
    "Cluster.install_assignment": "cluster",
    "assign_pair_to_cluster": "workloads",
    "run_sweep": "experiments",
    "spec_fingerprint": "experiments",
    "ResultCache.load": "experiments",
    "ResultCache.store": "experiments",
    "kind.fn": "experiments",
    "kind.result_to_dict": "experiments",
    "kind.result_from_dict": "experiments",
    "redistribution_time_from_caps": "analysis",
    "turnaround_summary": "analysis",
    "timeout_rate": "analysis",
}

_MEMBERSHIP_KIND_PREFIX = "Membership"


class Tracer:
    """Span timing plus per-universe count folding for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (manager, cluster) pairs installed since the last fold.
        self._universes: List[Tuple[Any, Any]] = []
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[float] = []
        self._restore: List[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as span ``name``."""
        stack = self._stack
        inclusive = self.inclusive
        self_time = self.self_time
        calls = self.calls
        clock = self._clock

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                inclusive[name] += duration
                self_time[name] += duration - child
                calls[name] += 1
                if stack:
                    stack[-1] += duration

        return span

    def _patch_attr(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = self.wrap(name, original)
        if isinstance(owner, type) or not _is_frozen(owner):
            setattr(owner, attr, wrapped)
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            # TaskKind is a frozen dataclass; the runner reads kind.fn etc.
            object.__setattr__(owner, attr, wrapped)
            self._restore.append(lambda: object.__setattr__(owner, attr, original))

    def install(self) -> "Tracer":
        """Patch every span point listed in :data:`SPAN_LAYERS`."""
        from repro.cluster.cluster import Cluster
        from repro.core.decider import LocalDecider
        from repro.core.pool import PowerPool
        from repro.experiments import faulty, harness, nominal, runner, scaling
        from repro.managers.base import PowerManager
        from repro.membership.detector import FailureDetector
        from repro.membership.view import MemberView
        from repro.net.network import Network
        from repro.power.rapl import SimulatedRapl
        from repro.sim.engine import Engine

        for cls, attr in (
            (Engine, "run"),
            (Network, "send"),
            (SimulatedRapl, "read_power"),
            (SimulatedRapl, "set_cap"),
            (LocalDecider, "tick_start"),
            (LocalDecider, "tick_end"),
            (PowerPool, "deposit"),
            (PowerPool, "withdraw_up_to"),
            (FailureDetector, "__init__"),
            (MemberView, "__init__"),
            (PowerManager, "audit"),
            (Cluster, "__init__"),
            (Cluster, "install_assignment"),
            (runner.ResultCache, "load"),
            (runner.ResultCache, "store"),
        ):
            self._patch_attr(cls, attr, f"{cls.__name__}.{attr}")
        self._patch_install(PowerManager)
        self._patch_attr(harness, "assign_pair_to_cluster", "assign_pair_to_cluster")
        for module in (nominal, faulty, scaling):
            self._patch_attr(module, "run_sweep", "run_sweep")
        self._patch_attr(runner, "spec_fingerprint", "spec_fingerprint")
        for attr in ("redistribution_time_from_caps", "turnaround_summary", "timeout_rate"):
            self._patch_attr(scaling, attr, attr)
        for kind in (runner.SINGLE_RUN, scaling.SCALING_RUN):
            self._patch_kind_fn(kind)
            for attr in ("result_to_dict", "result_from_dict"):
                self._patch_attr(kind, attr, f"kind.{attr}")
        return self

    def _patch_install(self, cls: type) -> None:
        """Span ``install``; the wrapper also remembers each universe
        (manager, cluster) for :meth:`fold`.  Only the base method is
        patched: no workload runs PoDD, the one manager overriding it."""
        original = cls.__dict__["install"]
        universes = self._universes

        @functools.wraps(original)
        def remember(manager: Any, cluster: Any, *args: Any, **kwargs: Any) -> Any:
            universes.append((manager, cluster))
            return original(manager, cluster, *args, **kwargs)

        cls.install = self.wrap("PowerManager.install", remember)  # type: ignore[attr-defined]
        self._restore.append(lambda: setattr(cls, "install", original))

    def _patch_kind_fn(self, kind: Any) -> None:
        """Span the task function; fold each run's universe once it ends."""
        original = kind.fn
        timed = self.wrap("kind.fn", original)

        def run_and_fold(spec: Any) -> Any:
            result = timed(spec)
            self.fold()
            return result

        object.__setattr__(kind, "fn", run_and_fold)
        self._restore.append(lambda: object.__setattr__(kind, "fn", original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- counts ----------------------------------------------------------------

    def fold(self) -> None:
        """Add the counts of every universe installed since the last fold."""
        counts = self.counts
        for manager, cluster in self._universes:
            for key, value in universe_counts(manager, cluster).items():
                counts[key] += value
        self._universes.clear()

    def self_sum(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if SPAN_LAYERS[k] == layer)


def _is_frozen(obj: Any) -> bool:
    params = getattr(type(obj), "__dataclass_params__", None)
    return bool(params is not None and params.frozen)


def _nodes(cluster: Any) -> List[Any]:
    nodes = cluster.nodes
    return list(nodes.values()) if isinstance(nodes, dict) else list(nodes)


def universe_counts(manager: Any, cluster: Any) -> Dict[str, float]:
    """Counts of one finished simulation, from public attributes only."""
    engine = cluster.engine
    stats = cluster.network.stats
    out: Dict[str, float] = defaultdict(float)
    out["engine_events"] = engine.processed_events
    out["engine_cancelled"] = engine.cancelled_events
    out["sent"] = stats.sent
    out["dropped"] = stats.dropped
    out["membership_sent"] = sum(
        n for kind, n in stats.by_kind.items() if kind.startswith(_MEMBERSHIP_KIND_PREFIX)
    )
    for node in _nodes(cluster):
        out["power_reads"] += node.rapl.power_reads
        out["cap_writes"] += node.rapl.cap_writes
    deciders = getattr(manager, "deciders", {})
    for decider in deciders.values():
        out["ticks"] += decider.iterations
    for detector in getattr(manager, "detectors", {}).values():
        out["probe_rounds"] += detector.probe_rounds
    recorder = manager.recorder
    requests = len(recorder.turnarounds)
    timeouts = sum(1 for s in recorder.turnarounds if s.timed_out)
    if deciders:
        out["core_requests"] += requests
        out["core_timeouts"] += timeouts
        out["core_grants"] += sum(
            1 for s in recorder.turnarounds if s.granted_w > 0 and not s.timed_out
        )
    else:
        out["manager_requests"] += requests
        out["manager_timeouts"] += timeouts
    server = getattr(manager, "server", None)
    request_server = getattr(server, "server", None)
    if request_server is not None:
        out["server_served"] += request_server.requests_served
        out["server_busy_s"] += request_server.busy_time
        out["server_elapsed_s"] += engine.now
    out["samples"] += (
        len(recorder.transactions)
        + len(recorder.turnarounds)
        + len(recorder.caps)
        + len(recorder.samples)
    )
    out["logical"] = (
        out["sent"] + out["power_reads"] + out["cap_writes"] + out["ticks"] + out["probe_rounds"]
    )
    return out


def server_queue_depth(manager: Any) -> Optional[int]:
    """The central server's inbox depth now (``None`` without a server)."""
    request_server = getattr(getattr(manager, "server", None), "server", None)
    return None if request_server is None else request_server.queue_depth


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    queue_depths: List[int],
    cache: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced operation but
    ``trace.overhead_ratio``, which needs the untraced operations too.

    A layer the workload bypasses reads 0: no span of it ran, and no
    universe had it.  ``cache`` carries the campaign's cache counters
    (``bytes``, ``hits``, ``lookups``).
    """
    c = tracer.counts
    inc = tracer.inclusive
    slf = tracer.self_time
    cache = cache or {}
    depth_p90 = (
        statistics.quantiles(queue_depths, n=10, method="inclusive")[8]
        if len(queue_depths) > 1
        else float(queue_depths[0]) if queue_depths else 0.0
    )
    return {
        "sim.events": c["engine_events"],
        "sim.events_per_logical": _ratio(c["engine_events"], c["logical"]),
        "sim.cancelled_ratio": _ratio(c["engine_cancelled"], c["engine_events"]),
        "sim.self_s": tracer.self_sum("sim"),
        "core.ticks": c["ticks"],
        "core.tick.self_s": slf["LocalDecider.tick_start"] + slf["LocalDecider.tick_end"],
        "core.pool.self_s": slf["PowerPool.deposit"] + slf["PowerPool.withdraw_up_to"],
        "core.grant_yield": _ratio(c["core_grants"], c["core_requests"]),
        "core.timeout_ratio": _ratio(c["core_timeouts"], c["core_requests"]),
        "membership.probe_rounds": c["probe_rounds"],
        "membership.msg_share": _ratio(c["membership_sent"], c["sent"]),
        "membership.build_s": tracer.self_sum("membership"),
        "net.sent": c["sent"],
        "net.send.self_s": tracer.self_sum("net"),
        "net.drop_ratio": _ratio(c["dropped"], c["sent"]),
        "net.server.queue_depth.p90": depth_p90,
        "managers.install_s": inc["PowerManager.install"],
        "managers.server.served": c["server_served"],
        "managers.server.utilization": _ratio(c["server_busy_s"], c["server_elapsed_s"]),
        "managers.timeout_ratio": _ratio(c["manager_timeouts"], c["manager_requests"]),
        "power.reads": c["power_reads"],
        "power.cap_writes": c["cap_writes"],
        "power.self_s": tracer.self_sum("power"),
        "cluster.build_s": inc["Cluster.__init__"],
        "cluster.install_assignment_s": inc["Cluster.install_assignment"],
        "workloads.assign_s": inc["assign_pair_to_cluster"],
        "experiments.runs": tracer.calls["kind.fn"],
        "experiments.fingerprint_s": slf["spec_fingerprint"],
        "experiments.encode_s": slf["kind.result_to_dict"],
        "experiments.decode_s": slf["kind.result_from_dict"],
        "experiments.cache_store_s": slf["ResultCache.store"],
        "experiments.cache_load_s": slf["ResultCache.load"],
        "experiments.cache_bytes": cache.get("bytes", 0.0),
        "experiments.cache_hit_ratio": _ratio(cache.get("hits", 0.0), cache.get("lookups", 0.0)),
        "experiments.self_s": tracer.self_sum("experiments"),
        "analysis.self_s": tracer.self_sum("analysis"),
        "instrumentation.samples": c["samples"],
    }


def span_table(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Inclusive/self seconds and call count per span (for the report)."""
    return {
        name: {
            "inclusive_s": tracer.inclusive[name],
            "self_s": tracer.self_time[name],
            "calls": tracer.calls[name],
        }
        for name in sorted(tracer.calls)
    }
