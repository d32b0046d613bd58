"""The per-node SWIM-style failure detector.

Every Penelope node runs one :class:`FailureDetector` next to its pool
and decider.  Each protocol period it direct-probes one peer (shuffled
round-robin, so every peer is probed once per ``N`` periods); the direct
probe has the whole period to answer, and a round that ends unanswered
sends ``k`` indirect probe-requests through relays and waits one extra
probe timeout before marking the target *suspected*.  (Folding the
direct wait into the period keeps the hot path at one timer event per
round -- the overhead budget enforced by ``repro bench``.)  A suspicion
that survives the suspect timeout without refutation is confirmed dead
-- the event the pool's escrow layer treats as a write-off trigger.

Dissemination is epidemic: accepted updates ride piggyback on every
outgoing message (the detector's own probes/acks *and*, via
:meth:`stamp`, the pool/decider power traffic) and, while updates are
pending, on a few dedicated gossip messages per period so idle nodes
still converge.

Determinism: all randomness (probe order, relay and gossip fan-out
choice, start stagger) comes from the single named stream the manager
passes in (``penelope.membership.<node>[.gen<k>]``); timers are named
:class:`~repro.sim.events.Callback` events (lint R6); the subsystem
never touches the power path's RNG streams, so runs with the detector
disabled replay byte-identically.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.instrumentation import MetricsRecorder
from repro.membership.messages import (
    MembershipAck,
    MembershipGossip,
    MembershipPing,
    MembershipPingReq,
)
from repro.membership.view import (
    ALIVE,
    DEAD,
    SUSPECT,
    MemberView,
    MembershipTransition,
)
from repro.net.messages import PORT_MEMBERSHIP, Addr, MembershipUpdate, Message
from repro.net.network import Network
from repro.sim import (
    Callback,
    Engine,
    EventBase,
    Interrupt,
    Process,
    Timeout,
    stop_process,
)

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard (core imports us)
    from repro.core.config import PenelopeConfig

_M = TypeVar("_M", bound=Message)

#: How many relayed-probe correlations a node remembers (acks landing
#: after eviction are treated as direct evidence only, never forwarded).
_RELAY_HISTORY = 128


class FailureDetector:
    """SWIM probe loop + membership view for one node.

    Parameters
    ----------
    engine, network:
        Simulation kernel and fabric.
    node_id:
        The owning node; the detector listens on
        ``Addr(node_id, PORT_MEMBERSHIP)``.
    peers:
        All *other* member ids, ascending: a shared ``Roster.others``
        view (the view's member list too), not a per-node copy.
    config:
        The ``membership_*`` knobs of :class:`PenelopeConfig`.
    rng:
        The detector's dedicated named stream.
    initial_incarnation:
        Carried across crash-restarts by the manager (old incarnation
        plus one) so the revived node's ``alive`` overrides stale
        ``dead`` entries.
    """

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: int,
        peers: Sequence[int],
        config: "PenelopeConfig",
        rng: np.random.Generator,
        recorder: Optional[MetricsRecorder] = None,
        initial_incarnation: int = 0,
    ) -> None:
        self.engine = engine
        self.network = network
        self.node_id = node_id
        self.config = config
        self.recorder = recorder or MetricsRecorder()
        self._rng = rng
        self.peers = peers
        self.addr = Addr(node_id, PORT_MEMBERSHIP)
        self.view = MemberView(
            node_id,
            self.peers,
            initial_incarnation=initial_incarnation,
            gossip_budget=config.membership_gossip_repeats,
        )
        self.view.listeners.append(self._on_transition)
        #: Completed probe rounds (a logical control-loop event, counted
        #: by the kernel benchmark alongside decider iterations).
        self.probe_rounds = 0
        #: Shuffled probe rotation of peer indices (a fresh permutation).
        self._rotation: List[int] = []
        #: Current probe round: target and whether any ack arrived.
        self._probe_target: Optional[int] = None
        self._probe_acked = False
        #: Relayed-probe correlations: our relayed ping's msg_id ->
        #: (origin node, target node).
        self._relay: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        #: Pending suspect -> confirm timers, by subject.
        self._confirm_timers: Dict[int, Callback] = {}
        self._process: Optional[Process] = None
        #: Local-clock scale factor (1.0 = nominal); stretches the probe
        #: period, indirect-probe timeout and suspect-confirm timer of a
        #: node whose clock drifts (``faults.clock_drift_at``).  At
        #: exactly 1.0 every ``x * scale`` is bitwise ``x``.
        self.clock_scale: float = 1.0

    # -- lifecycle ------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._process is not None and self._process.is_alive

    def start(self) -> Process:
        if self._process is not None and self._process.is_alive:
            raise RuntimeError(f"detector {self.node_id} already running")
        # A datagram endpoint, not a RequestServer: the SWIM receive path
        # is synchronous and consumes no service time, so handling right
        # inside the delivery event spares the per-message inbox churn
        # and server wake-up (the bench overhead budget depends on it).
        self.network.attach_handler(self.addr, self._handle)
        self._process = self.engine.process(
            self._probe_loop(), name=f"membership@{self.node_id}.probe"
        )
        return self._process

    def stop(self) -> None:
        """Crash/stop the detector (node kill or shutdown).

        The view and its transition log survive -- the manager reads
        them for metrics, and a crash-restart seeds the replacement
        detector's incarnation from them.
        """
        if self._process is not None:
            stop_process(self._process)
            self._process = None
        self.network.detach(self.addr)
        for timer in self._confirm_timers.values():
            if not timer.processed:
                timer.cancel()
        self._confirm_timers.clear()

    # -- integration surface (pool / decider) ---------------------------------

    def live_peers(self) -> Sequence[int]:
        """The discovery candidate set: peers believed alive, sorted."""
        return self.view.alive_peers()

    def stamp(self, message: _M) -> _M:
        """Piggyback pending membership updates onto ``message``.

        Returns the message unchanged when nothing is pending; otherwise
        a ``dataclasses.replace`` copy (same ``msg_id``, lint R4)
        carrying up to ``membership_piggyback_max`` updates.
        """
        updates = self.view.select_updates(self.config.membership_piggyback_max)
        if not updates:
            return message
        return replace(message, gossip=updates)

    def ingest(self, message: Message) -> None:
        """Absorb liveness evidence from any received message.

        The sender is directly observed alive, and any piggybacked
        updates are merged -- this is how pool/decider traffic doubles
        as the dissemination fabric.
        """
        src = message.src.node
        if src != self.node_id:
            self._observe_alive(src)
        for update in message.gossip:
            self._apply_update(update)

    # -- the probe loop --------------------------------------------------------

    def _probe_loop(self) -> Generator[EventBase, Any, None]:
        engine = self.engine
        config = self.config
        period = config.membership_probe_period_s
        probe_timeout = config.membership_probe_timeout_s
        indirect = config.membership_indirect_probes
        recorder = self.recorder
        try:
            # Stagger starts so a cluster's probes do not beat in lockstep.
            # clock_scale is re-read at every wait so a drift fault landing
            # mid-run takes effect on the very next timer.
            yield Timeout(engine, float(self._rng.uniform(0.0, period)) * self.clock_scale)
            while True:
                target = self._next_target()
                if target is None:  # no peers at all
                    yield Timeout(engine, period * self.clock_scale)
                    continue
                self._probe_target = target
                self._probe_acked = False
                self.probe_rounds += 1
                self._send(
                    MembershipPing(
                        src=self.addr, dst=Addr(target, PORT_MEMBERSHIP)
                    )
                )
                recorder.bump("membership.pings")
                # The common (answered) round costs exactly one timer
                # event; only an unanswered round pays for a second wait,
                # covering the indirect probes through relays.
                yield Timeout(engine, period * self.clock_scale)
                if not self._probe_acked and indirect > 0:
                    relays = self._pick_relays(target)
                    for relay in relays:
                        self._send(
                            MembershipPingReq(
                                src=self.addr,
                                dst=Addr(relay, PORT_MEMBERSHIP),
                                target=target,
                            )
                        )
                        recorder.bump("membership.ping_reqs")
                    if relays:
                        yield Timeout(engine, probe_timeout * self.clock_scale)
                if not self._probe_acked:
                    self._on_probe_failed(target)
                self._probe_target = None
                self._send_gossip()
        except Interrupt:
            return

    def _next_target(self) -> Optional[int]:
        """Shuffled round-robin over *all* peers.

        Confirmed-dead peers stay in the rotation on purpose: probing
        them is how a healed partition or a restarted node is
        rediscovered (the ack revives them locally and triggers the
        accusation echo).  The wasted ping per rotation is the price of
        needing no out-of-band rejoin channel.
        """
        if not self.peers:
            return None
        if not self._rotation:
            self._rotation = self._rng.permutation(len(self.peers)).tolist()
        return self.peers[self._rotation.pop()]

    def _pick_relays(self, target: int) -> List[int]:
        candidates = [p for p in self.view.alive_peers() if p != target]
        if not candidates:
            return []
        order = self._rng.permutation(len(candidates))
        k = min(self.config.membership_indirect_probes, len(candidates))
        return [candidates[int(i)] for i in order[:k]]

    def _send_gossip(self) -> None:
        """Dedicated dissemination for idle nodes (piggyback's backstop)."""
        fanout = self.config.membership_gossip_fanout
        if fanout <= 0 or not self.view.has_pending_updates:
            return
        candidates = self.view.alive_peers()
        if not candidates:
            return
        order = self._rng.permutation(len(candidates))
        for i in order[: min(fanout, len(candidates))]:
            peer = candidates[int(i)]
            # Each message gets its own batch: every send spends budget.
            self._send(
                MembershipGossip(src=self.addr, dst=Addr(peer, PORT_MEMBERSHIP))
            )
            self.recorder.bump("membership.gossips")
            if not self.view.has_pending_updates:
                break

    def _send(self, message: Message) -> None:
        self.network.send(self.stamp(message))

    # -- inbound protocol -------------------------------------------------------

    def _handle(self, message: Message) -> None:
        """Datagram endpoint: runs synchronously inside the delivery event."""
        self.ingest(message)
        if isinstance(message, MembershipPing):
            self._send(
                MembershipAck(
                    src=self.addr,
                    dst=message.src,
                    subject=self.node_id,
                    incarnation=self.view.incarnation,
                    reply_to=message.msg_id,
                )
            )
            return
        if isinstance(message, MembershipPingReq):
            if message.target == self.node_id:
                # Asked about ourselves -- answer on the spot.
                self._send(
                    MembershipAck(
                        src=self.addr,
                        dst=message.src,
                        subject=self.node_id,
                        incarnation=self.view.incarnation,
                    )
                )
                return
            ping = MembershipPing(
                src=self.addr, dst=Addr(message.target, PORT_MEMBERSHIP)
            )
            self._relay[ping.msg_id] = (message.src.node, message.target)
            while len(self._relay) > _RELAY_HISTORY:
                self._relay.popitem(last=False)
            self.recorder.bump("membership.relayed_pings")
            self._send(ping)
            return
        if isinstance(message, MembershipAck):
            if message.reply_to is not None and message.reply_to in self._relay:
                origin, _target = self._relay.pop(message.reply_to)
                self._send(
                    MembershipAck(
                        src=self.addr,
                        dst=Addr(origin, PORT_MEMBERSHIP),
                        subject=message.subject,
                        incarnation=message.incarnation,
                    )
                )
                return
            self._note_ack(message.subject, message.incarnation)
            return
        if isinstance(message, MembershipGossip):
            return  # payload already absorbed by ingest()
        self.recorder.bump("membership.unexpected_messages")

    def _note_ack(self, subject: int, incarnation: int) -> None:
        self.recorder.bump("membership.acks")
        if subject == self._probe_target:
            self._probe_acked = True
        # A fresher incarnation overrides a same-or-lower suspicion via
        # the normal rules; equal-incarnation suspicions are cleared by
        # the direct-contact path below.
        self._apply_update(MembershipUpdate(subject, ALIVE, incarnation))
        self._observe_alive(subject)

    # -- state-machine plumbing --------------------------------------------------

    def _apply_update(self, update: MembershipUpdate) -> None:
        if update.node == self.node_id:
            if (
                update.status != ALIVE
                and update.incarnation >= self.view.incarnation
            ):
                self.view.refute(update.incarnation)
                self.recorder.bump("membership.refutes")
            return
        self.view.apply(update, self.engine.now)

    def _observe_alive(self, node: int) -> None:
        accusation = self.view.observe_contact(node, self.engine.now)
        if accusation is None:
            return
        status, incarnation = accusation
        # Echo the accusation to the subject: we cannot bump its
        # incarnation for it, but handing the accusation back makes the
        # subject refute with a higher one -- the only update that
        # overrides the stale suspect/dead entry in *everyone's* view.
        self.network.send(
            MembershipGossip(
                src=self.addr,
                dst=Addr(node, PORT_MEMBERSHIP),
                gossip=(MembershipUpdate(node, status, incarnation),),
            )
        )
        self.recorder.bump("membership.accusation_echoes")

    def _on_probe_failed(self, target: int) -> None:
        self.recorder.bump("membership.probe_failures")
        if self.view.status_of(target) == ALIVE:
            self._apply_update(
                MembershipUpdate(
                    target, SUSPECT, self.view.incarnation_of(target)
                )
            )

    def _on_transition(self, transition: MembershipTransition) -> None:
        subject = transition.subject
        timer = self._confirm_timers.pop(subject, None)
        if timer is not None and not timer.processed:
            timer.cancel()
        if transition.status == SUSPECT:
            self.recorder.bump("membership.suspects")
            self._confirm_timers[subject] = Callback(
                self.engine,
                self.config.membership_suspect_timeout_s * self.clock_scale,
                self._confirm,
                subject,
                transition.incarnation,
                name=f"membership.confirm[{self.node_id}->{subject}]",
            )
        elif transition.status == DEAD:
            self.recorder.bump("membership.confirms")
        else:
            self.recorder.bump("membership.revivals")

    def _confirm(self, subject: int, incarnation: int) -> None:
        """Suspect timer fired: unrefuted suspicion becomes confirmed death."""
        self._confirm_timers.pop(subject, None)
        if (
            self.view.status_of(subject) == SUSPECT
            and self.view.incarnation_of(subject) == incarnation
        ):
            self._apply_update(MembershipUpdate(subject, DEAD, incarnation))
