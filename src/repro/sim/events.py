"""Waitable events for the simulation kernel.

The design follows the classic simpy model: an *event* moves through three
states -- untriggered, triggered (scheduled on the engine queue with a value
or an exception), and processed (its callbacks have run).  Processes wait on
events by ``yield``-ing them; the engine resumes the process when the event
is processed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Engine

#: Scheduling priorities.  Lower sorts earlier at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

#: Sentinel distinguishing "no value yet" from ``None``.
_PENDING = object()


class EventBase:
    """A one-shot waitable occurrence on the simulation timeline.

    Parameters
    ----------
    engine:
        The :class:`~repro.sim.engine.Engine` this event belongs to.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = (
        "engine",
        "name",
        "callbacks",
        "_value",
        "_ok",
        "_defused",
        "_cancelled",
    )

    def __init__(self, engine: "Engine", name: Optional[str] = None) -> None:
        self.engine = engine
        self.name = name
        #: Callbacks invoked (with this event) when the event is processed.
        #: ``None`` once processed.
        self.callbacks: Optional[List[Callable[["EventBase"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        # When an event fails and nobody is waiting on it, the engine raises
        # the exception at the top level unless the failure was "defused" by
        # being delivered into a process.
        self._defused = False
        # Lazily-deleted queue entries (see Timeout.cancel): the queue
        # drops cancelled events -- at its head or in a bulk compaction
        # -- instead of ever surfacing them for processing.
        self._cancelled = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "EventBase":
        """Trigger the event successfully with ``value``.

        ``delay`` defers *processing* (callback execution) by that much
        simulated time; the default processes the event at the current
        instant (after already-queued events).
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._ok = True
        self._value = value
        # Inlined Engine._schedule: triggering is one of the kernel's
        # hottest operations (every grant, inbox hand-off and process
        # completion lands here).  ``_push`` is the queue's pre-bound
        # enqueue (see repro.sim.schedulers).
        engine = self.engine
        engine._push(
            (engine._now + delay, PRIORITY_NORMAL, next(engine._sequence), self)
        )
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "EventBase":
        """Trigger the event as failed with ``exception``.

        A failed event delivered to a waiting process re-raises the
        exception inside that process.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._ok = False
        self._value = exception
        engine = self.engine
        engine._push(
            (engine._now + delay, PRIORITY_NORMAL, next(engine._sequence), self)
        )
        return self

    # -- engine interface ------------------------------------------------

    def _process(self) -> None:
        """Invoke callbacks.  Called exactly once by the engine."""
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{label} {state} at {hex(id(self))}>"


class Event(EventBase):
    """A plain, manually-triggered event (rendezvous point)."""

    __slots__ = ()


class Timeout(EventBase):
    """An event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(
        self,
        engine: "Engine",
        delay: float,
        value: Any = None,
        name: Optional[str] = None,
    ) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined EventBase.__init__ + Engine._schedule: timeouts are the
        # single most-allocated event type (every tick, wait and deadline),
        # so the constructor avoids the two extra calls.
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        engine._push(
            (engine._now + delay, PRIORITY_NORMAL, next(engine._sequence), self)
        )

    def cancel(self) -> None:
        """Abandon the timeout before it fires (lazy deletion).

        The queue entry stays on the heap but never runs callbacks: the
        queue drops it when it surfaces or sweeps it in a bulk
        compaction, so cancelling is O(1) instead of an O(n) heap
        removal.  The cancellation is *counted eagerly* --
        ``engine.cancelled_events`` increments here, and the queue is
        told so its live ``len()`` stays exact.  Hot paths that arm a
        deadline per request (e.g. the decider's bounded wait for a
        grant) use this to stop abandoned deadlines from churning the
        event loop at scale.

        Only the owner of a timeout may cancel it: any callbacks already
        registered (by a :class:`FirstOf` or a waiting process) will never
        run.
        Cancelling twice is a no-op; cancelling an already-processed
        timeout is an error.
        """
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} has already been processed")
        if self._cancelled:
            return
        self._cancelled = True
        self.engine._note_cancelled()


class Callback(EventBase):
    """A pre-succeeded event that runs ``fn(*args)`` when processed.

    The cheap alternative to spawning a generator :class:`Process` for
    one-shot deferred work: a full process costs three queue events
    (initialize, timeout, completion) plus a generator frame, while a
    ``Callback`` is a single queue entry whose processing is one direct
    call.  Message delivery and RAPL cap enforcement -- the simulation's
    hottest paths -- run on these.

    The event triggers successfully with ``None``; waiters registered via
    ``callbacks`` are notified after ``fn`` returns, so a ``Callback`` can
    still be yielded on like any other event.
    """

    __slots__ = ("_fn", "_args")

    def __init__(
        self,
        engine: "Engine",
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative callback delay: {delay!r}")
        # Inlined EventBase.__init__ + Engine._schedule (hot path, see
        # class docstring).
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._fn = fn
        self._args = args
        engine._push(
            (engine._now + delay, priority, next(engine._sequence), self)
        )

    def cancel(self) -> None:
        """Abandon the callback before it fires (lazy deletion).

        Same contract as :meth:`Timeout.cancel`: the entry is dropped
        unprocessed (at surfacing or by a bulk sweep), ``fn`` never
        runs, any waiters registered on the event are never notified,
        and the cancellation is counted eagerly.  Used by the pool's
        escrow bookkeeping, where almost every refund deadline is
        cancelled by the ack that beats it.
        """
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} has already been processed")
        if self._cancelled:
            return
        self._cancelled = True
        self.engine._note_cancelled()

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        self._fn(*self._args)
        for callback in callbacks:
            callback(self)


class FirstOf(EventBase):
    """Wakes on the first of two sub-events to be processed.

    Triggers with ``None`` as soon as either sub-event is processed,
    failing instead when that first sub-event failed (the failure is
    defused: it surfaces in the waiter, not at the top of the event
    loop).  There is no snapshot of sub-event values: callers inspect
    the sub-events themselves, e.g. the decider's and the SLURM
    client's grant-or-deadline wait, once per request cluster-wide.

    A sub-event that is already processed at construction triggers the
    wait on the spot, in declaration order: ``first`` wins if both are.
    A sub-event still pending keeps the wait registered, so its late
    firing is ignored (a late failure is defused).
    """

    __slots__ = ()

    def __init__(
        self, engine: "Engine", first: EventBase, second: EventBase
    ) -> None:
        # Inlined EventBase.__init__ (hot path).
        self.engine = engine
        self.name = None
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._cancelled = False
        callbacks = first.callbacks
        if callbacks is None:
            self._on_sub(first)
        else:
            callbacks.append(self._on_sub)
        callbacks = second.callbacks
        if callbacks is None:
            self._on_sub(second)
        else:
            callbacks.append(self._on_sub)

    def _on_sub(self, event: EventBase) -> None:
        if self._value is not _PENDING:
            # Late failures of sub-events must not be silently lost.
            if not event._ok:
                event._defused = True
            return
        if event._ok:
            self.succeed(None)
        else:
            event._defused = True
            self.fail(event._value)


class InlineFirstOf(FirstOf):
    """A :class:`FirstOf` that wakes its waiter synchronously on success
    of its *first* sub-event, instead of via a queued completion event.

    Used by the batched tick driver's request wait (grant-or-deadline):
    the grant path -- a message hand-off whose event already carries the
    sequence number fixing its position -- resumes the continuation in
    place, saving one queue round-trip per granted request at scale.
    Equivalence holds because processing order is a function of sequence
    numbers assigned at *creation*: resuming early cannot move any
    already-queued event, and the continuation's own state is node-local.

    The *second* sub-event (the shared deadline) keeps the queued path:
    its re-enqueue with a fresh sequence number is what makes a timeout
    resolving exactly at a tick instant resume *after* that instant's
    batch (see :mod:`repro.core.batcher`), so catch-up ticks stay ordered
    behind batch ticks exactly like the per-node loop.  Sub-event
    failures also stay queued (rare, and failure surfacing relies on the
    engine's processing pass).
    """

    __slots__ = ("_first",)

    def __init__(
        self, engine: "Engine", first: EventBase, second: EventBase
    ) -> None:
        # Set before FirstOf.__init__, which may already deliver a
        # processed sub-event to ``_on_sub``.
        self._first = first
        FirstOf.__init__(self, engine, first, second)

    def _on_sub(self, event: EventBase) -> None:
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        if event is not self._first or not event._ok:
            FirstOf._on_sub(self, event)
            return
        self._value = None
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(self)
