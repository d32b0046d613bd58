"""Message delivery with latency, failures, partitions and drop accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set

import numpy as np

from repro.net.messages import Addr, Message
from repro.net.topology import Topology
from repro.sim.engine import Engine
from repro.sim.events import Callback
from repro.sim.resources import Store


@dataclass(slots=True)
class NetworkStats:
    """Counters exposed for tests and the scaling analysis.

    Dead-node drops are split by *when* the death mattered: a message
    from an already-dead sender is dropped at send time
    (``dropped_dead_src``), while a destination that dies with the
    message in flight drops it at arrival time (``dropped_dead_dst``).
    Fault experiments need the distinction -- the first measures traffic
    the dead node would have generated, the second measures collateral
    loss on the live side of a crash.

    ``duplicated`` and ``reordered`` count messages touched by the
    adversarial fault families (echoed by a duplication fault, or given
    extra reorder-window delay); both get a by-kind split like the send
    counter, so chaos reports can assert which protocol traffic a fault
    window actually hit.
    """

    sent: int = 0
    delivered: int = 0
    dropped_dead_src: int = 0
    dropped_dead_dst: int = 0
    dropped_partition: int = 0
    dropped_overflow: int = 0
    dropped_unattached: int = 0
    dropped_loss: int = 0
    duplicated: int = 0
    reordered: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    duplicated_by_kind: Dict[str, int] = field(default_factory=dict)
    reordered_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def dropped_dead(self) -> int:
        """Back-compat aggregate of both dead-node drop modes."""
        return self.dropped_dead_src + self.dropped_dead_dst

    @property
    def dropped(self) -> int:
        return (
            self.dropped_dead_src
            + self.dropped_dead_dst
            + self.dropped_partition
            + self.dropped_overflow
            + self.dropped_unattached
            + self.dropped_loss
        )


class Network:
    """Connects node inboxes and delivers :class:`Message` objects.

    Each participating node registers a bounded :class:`~repro.sim.resources.Store`
    as its inbox.  ``send`` samples a latency, then delivers the message into
    the destination inbox -- unless the source or destination is dead, the
    pair is partitioned, or the inbox is full, in which case the message is
    dropped and the reason counted.
    """

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        rng: np.random.Generator,
        loss_probability: float = 0.0,
    ) -> None:
        if not (0.0 <= loss_probability < 1.0):
            raise ValueError(f"loss_probability out of [0, 1): {loss_probability!r}")
        self.engine = engine
        self.topology = topology
        self._rng = rng
        self._inboxes: Dict[Addr, Store] = {}
        self._handlers: Dict[Addr, Callable[[Message], None]] = {}
        self._dead: Set[int] = set()
        #: Probability of any message being lost in flight (lossy fabric,
        #: a faulty-environment axis beyond node crashes and partitions).
        self.loss_probability = loss_probability
        #: The construction-time loss rate; timed loss bursts (fault
        #: injection) override ``loss_probability`` and restore to this.
        self.base_loss_probability = loss_probability
        self.stats = NetworkStats()
        #: Pre-drawn unit lognormal latency factors.  A numpy scalar draw
        #: costs microseconds of Generator dispatch per message; drawing
        #: blocks amortizes it, and a vectorized ``lognormal(size=k)``
        #: consumes the bit stream exactly like ``k`` scalar draws, so
        #: trajectories are unchanged.  Refills only happen while
        #: ``loss_probability == 0`` -- loss draws interleave on the same
        #: stream, and a lossy-from-construction network must keep the
        #: legacy draw-for-draw alignment (see :meth:`send`).
        self._latency_units: "np.ndarray[Any, Any]" = np.empty(0)
        self._latency_idx = 0
        self._latency_buffering = True
        # -- adversarial fault families (all default-off) ----------------
        # Each family draws from its *own* caller-supplied stream, never
        # from the latency stream: arming or disarming a family therefore
        # cannot shift the positions of latency or loss draws, which is
        # what keeps every pinned fixture byte-identical while the knobs
        # sit at their defaults.
        #: Probability that a sent message is delivered twice (same
        #: ``msg_id``, second copy later) -- the adversarial case for
        #: at-most-once grant application and escrow settlement.
        self._duplicate_probability = 0.0
        self._duplicate_rng: Optional[np.random.Generator] = None
        #: Width of the extra per-message delay during a reordering
        #: window; uniform extra delays this large invert arrival order
        #: between messages sent close together (latency inversion).
        self._reorder_window_s = 0.0
        self._reorder_rng: Optional[np.random.Generator] = None
        #: Gray-slow nodes: node id -> latency multiplier applied to
        #: every message the node sends or receives.
        self._slow_factors: Dict[int, float] = {}

    # -- membership ------------------------------------------------------

    def attach(self, addr: Addr, inbox: Store) -> None:
        """Register ``inbox`` as the delivery target for endpoint ``addr``."""
        if not self.topology.contains(addr.node):
            raise ValueError(f"node id {addr.node!r} outside topology")
        if addr in self._inboxes or addr in self._handlers:
            raise ValueError(f"endpoint {addr!s} already attached")
        self._inboxes[addr] = inbox

    def attach_handler(
        self, addr: Addr, handler: Callable[[Message], None]
    ) -> None:
        """Register a datagram endpoint: ``handler`` runs synchronously
        inside the delivery event.

        For protocols whose receive path never blocks and consumes no
        service time (the SWIM failure detector), this halves the
        per-message engine cost versus an inbox -- no store churn and no
        separate server wake-up event.  The usual arrival-time drop
        checks (dead destination, partition) still apply.
        """
        if not self.topology.contains(addr.node):
            raise ValueError(f"node id {addr.node!r} outside topology")
        if addr in self._inboxes or addr in self._handlers:
            raise ValueError(f"endpoint {addr!s} already attached")
        self._handlers[addr] = handler

    def detach(self, addr: Addr) -> None:
        self._inboxes.pop(addr, None)
        self._handlers.pop(addr, None)

    def inbox_of(self, addr: Addr) -> Optional[Store]:
        return self._inboxes.get(addr)

    # -- failure bookkeeping ------------------------------------------------

    def mark_dead(self, node_id: int) -> None:
        """Stop delivering to and from ``node_id`` (node crash)."""
        self._dead.add(node_id)

    def mark_alive(self, node_id: int) -> None:
        self._dead.discard(node_id)

    def is_dead(self, node_id: int) -> bool:
        return node_id in self._dead

    def set_loss_probability(self, probability: float) -> None:
        """Override the in-flight loss rate (timed loss-burst faults).

        Messages already in flight are unaffected -- their loss draw
        happened at send time.  Note the draw-count consequence for RNG
        alignment: the loss draw is only consumed while the probability
        is positive, so runs that toggle bursts consume different stream
        positions than runs that do not (burst experiments never pair
        trajectories across schedules, so this is acceptable).
        """
        if not (0.0 <= probability < 1.0):
            raise ValueError(f"loss probability out of [0, 1): {probability!r}")
        self.loss_probability = probability

    def disable_latency_buffering(self) -> None:
        """Stop drawing latency factors ahead of use (see ``send``).

        Fault plans with timed loss bursts call this at install time:
        loss draws interleave with latency draws on the same stream, so
        pre-drawn latencies would shift the position of every loss draw
        once a burst starts.  Must run before traffic flows -- factors
        already buffered would keep draining at shifted positions.
        """
        self._latency_buffering = False

    # -- adversarial fault families ------------------------------------------

    def enable_duplication(
        self, probability: float, rng: np.random.Generator
    ) -> None:
        """Deliver each subsequent message twice with ``probability``.

        The second copy is the *same message* (same ``msg_id``)
        arriving later -- exactly what a fabric that retransmits or
        multipaths produces, and the adversarial input for any
        at-most-once guarantee (grant application, escrow settlement).
        ``rng`` must be a dedicated stream: duplication draws never touch
        the latency stream, so arming this fault leaves every other draw
        position unchanged.
        """
        if not (0.0 <= probability < 1.0):
            raise ValueError(
                f"duplication probability out of [0, 1): {probability!r}"
            )
        self._duplicate_probability = probability
        self._duplicate_rng = rng

    def disable_duplication(self) -> None:
        """End a duplication window (the stream is kept for later bursts)."""
        self._duplicate_probability = 0.0

    def enable_reordering(
        self, window_s: float, rng: np.random.Generator
    ) -> None:
        """Add uniform extra delay in ``[0, window_s)`` to each message.

        Messages sent within ``window_s`` of each other can arrive in
        inverted order -- a latency-inversion burst.  Like duplication,
        the extra-delay draws come from their own dedicated stream.
        """
        if window_s <= 0:
            raise ValueError(f"reorder window must be positive: {window_s!r}")
        self._reorder_window_s = window_s
        self._reorder_rng = rng

    def disable_reordering(self) -> None:
        """End a reordering window (the stream is kept for later bursts)."""
        self._reorder_window_s = 0.0

    def set_node_slowdown(self, node_id: int, factor: float) -> None:
        """Mark ``node_id`` gray-slow: its traffic takes ``factor``x longer.

        Applies multiplicatively to every message the node sends *or*
        receives (both endpoints slow stack), modelling a node that is
        alive and correct but degraded -- the case failure detectors
        chronically mis-classify.  Purely deterministic: no RNG draws.
        """
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive: {factor!r}")
        if not self.topology.contains(node_id):
            raise ValueError(f"node id {node_id!r} outside topology")
        self._slow_factors[node_id] = factor

    def clear_node_slowdown(self, node_id: int) -> None:
        self._slow_factors.pop(node_id, None)

    # -- sending ---------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Inject ``message``; delivery happens after a latency delay.

        Dropping is silent from the sender's perspective, exactly like UDP:
        the protocols above recover via response timeouts.

        RNG stream-alignment contract: every ``send`` consumes exactly one
        latency draw from the network stream *before* any drop check (plus
        one loss draw per send whenever ``loss_probability > 0``).  Drops
        therefore never shift the stream positions of later messages, so
        a nominal run and a faulty run with the same seed stay aligned
        draw-for-draw -- the property that makes nominal-vs-faulty result
        pairing meaningful.

        Delivery is a single :class:`~repro.sim.events.Callback` event
        scheduled directly on the engine queue; the arrival-time checks
        live in :meth:`_deliver`.
        """
        stats = self.stats
        stats.sent += 1
        kind = message.kind
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        latency = self.topology.latency
        sigma = latency.sigma
        if sigma == 0.0:
            delay = latency.sample(message.src.node, message.dst.node, self._rng)
        else:
            idx = self._latency_idx
            units = self._latency_units
            if idx < len(units):
                unit = float(units[idx])
                self._latency_idx = idx + 1
            elif self.loss_probability == 0.0 and self._latency_buffering:
                units = self._rng.lognormal(mean=0.0, sigma=sigma, size=512)
                self._latency_units = units
                self._latency_idx = 1
                unit = float(units[0])
            else:
                # Lossy stream: loss draws interleave with latency draws,
                # so drawing ahead here would shift them.  With no buffer
                # outstanding this is exactly the legacy scalar sequence.
                unit = float(self._rng.lognormal(mean=0.0, sigma=sigma))
            median = (
                latency.median_local_s
                if message.src.node == message.dst.node
                else latency.median_remote_s
            )
            delay = median * unit
            if delay < latency.floor_s:
                delay = latency.floor_s
        if message.src.node in self._dead:
            stats.dropped_dead_src += 1
            return
        if self.loss_probability > 0.0 and float(
            self._rng.random()
        ) < self.loss_probability:
            stats.dropped_loss += 1
            return
        # Adversarial fault families (default-off: every guard below is
        # false until a fault injector arms it, so the nominal send path
        # is untouched).  They run after the drop checks -- only messages
        # actually in flight are slowed, jittered or duplicated -- and
        # draw from their own dedicated streams, never the latency/loss
        # stream, so arming them cannot shift any other draw position.
        if self._slow_factors:
            src_factor = self._slow_factors.get(message.src.node)
            if src_factor is not None:
                delay *= src_factor
            dst_factor = self._slow_factors.get(message.dst.node)
            if dst_factor is not None:
                delay *= dst_factor
        if self._reorder_window_s > 0.0:
            assert self._reorder_rng is not None
            delay += self._reorder_window_s * float(self._reorder_rng.random())
            stats.reordered += 1
            stats.reordered_by_kind[kind] = (
                stats.reordered_by_kind.get(kind, 0) + 1
            )
        # Direct Callback construction (== engine.call_later) saves a call
        # per message on the simulation's hottest path; constant tiebreak
        # key for the same reason.
        Callback(self.engine, delay, self._deliver, message, name="net.deliver")
        if self._duplicate_probability > 0.0:
            assert self._duplicate_rng is not None
            if float(self._duplicate_rng.random()) < self._duplicate_probability:
                stats.duplicated += 1
                stats.duplicated_by_kind[kind] = (
                    stats.duplicated_by_kind.get(kind, 0) + 1
                )
                # The echo trails the original by up to one extra latency
                # (the same message, same msg_id -- a true duplicate).
                echo_delay = delay * (
                    1.0 + float(self._duplicate_rng.random())
                )
                Callback(
                    self.engine,
                    echo_delay,
                    self._deliver,
                    message,
                    name="net.deliver.dup",
                )

    def _deliver(self, message: Message) -> None:
        # Conditions are evaluated at *arrival* time: a destination that died
        # in flight still loses the message.
        if message.dst.node in self._dead:
            self.stats.dropped_dead_dst += 1
            return
        if not self.topology.reachable(message.src.node, message.dst.node):
            self.stats.dropped_partition += 1
            return
        inbox = self._inboxes.get(message.dst)
        if inbox is None:
            handler = self._handlers.get(message.dst)
            if handler is None:
                self.stats.dropped_unattached += 1
                return
            self.stats.delivered += 1
            handler(message)
            return
        if inbox.try_put(message):
            self.stats.delivered += 1
        else:
            self.stats.dropped_overflow += 1
