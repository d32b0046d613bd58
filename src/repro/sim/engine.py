"""The simulation event loop and clock.

The engine owns a queue of triggered events keyed by ``(time, priority,
sequence)``.  The sequence number makes simultaneous events process in
trigger order, which (together with seeded RNG streams) makes every
simulation fully deterministic.  The queue is a binary heap with lazy
deletion (:class:`~repro.sim.schedulers.HeapScheduler`).

Hot-path notes
--------------
``run`` inlines the pop/process cycle instead of calling :meth:`step`
per event: at paper scale the loop dispatches hundreds of thousands of
events per wall-second, and the per-event call overhead is measurable
(see ``benchmarks/bench_kernel.py``).  Every ``run`` mode drains the
same loop over ``pop_due(horizon)``; running to a drained queue or to
a stop event uses an infinite horizon.  Event constructors push onto
the queue through the pre-bound ``engine._push`` rather than a method
lookup.  Cancelled events (lazy deletion,
:meth:`repro.sim.events.Timeout.cancel`) are counted eagerly at cancel
time -- :meth:`Engine._note_cancelled` -- and the queue drops their
entries internally (at the head or in a bulk compaction), so they never
reach the dispatch loop and never count toward ``processed_events``.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.config import SimConfig
from repro.sim.events import (
    PRIORITY_NORMAL,
    Callback,
    Event,
    EventBase,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.schedulers import HeapScheduler

#: Horizon of ``run(until=None)`` and ``run(until=<event>)``.
_INF = float("inf")


class SimulationError(RuntimeError):
    """An unhandled event failure surfaced at the top of the event loop."""


class StopSimulation(Exception):
    """Internal control-flow exception that stops :meth:`Engine.run`."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Engine:
    """Discrete-event simulation engine.

    Typical usage::

        engine = Engine()

        def worker(engine):
            yield engine.timeout(1.0)
            return "done"

        proc = engine.process(worker(engine))
        engine.run()
        assert engine.now == 1.0 and proc.value == "done"

    ``sim`` carries the kernel knobs (batched decider ticks and their
    stagger slots); the default runs per-node ticks.
    """

    def __init__(self, start_time: float = 0.0, sim: SimConfig = SimConfig()) -> None:
        self._now = float(start_time)
        self._scheduler = HeapScheduler()
        #: Kernel execution-mode flags, read by agent builders (the
        #: Penelope manager checks them to decide whether to drive its
        #: deciders through a :class:`~repro.core.batcher.TickBatcher`).
        self.batched_ticks = sim.batched_ticks
        self.tick_slots = sim.tick_slots
        #: Pre-bound enqueue -- the hottest call in the simulator; event
        #: constructors invoke it directly.
        self._push = self._scheduler.push
        self._sequence = count()
        self._active_process: Optional[Process] = None
        #: Monotone counter of processed events (useful for cost accounting
        #: and loop-progress assertions in tests).  Cancelled events are
        #: discarded without being processed and do not count.
        self.processed_events = 0
        #: Events cancelled while queued, counted at cancel time.
        self.cancelled_events = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if the engine is inside one."""
        return self._active_process

    @property
    def scheduler(self) -> HeapScheduler:
        """The event queue driving this engine."""
        return self._scheduler

    # -- factories -----------------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create an untriggered :class:`~repro.sim.events.Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`~repro.sim.events.Timeout` firing after ``delay``."""
        return Timeout(self, delay, value=value)

    def call_later(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
    ) -> Callback:
        """Run ``fn(*args)`` after ``delay`` as a single queue event.

        The lightweight replacement for spawning a process that sleeps
        once and acts: one queue entry, no generator.  Used by the network
        (message delivery) and RAPL (cap enforcement) hot paths.
        """
        return Callback(self, delay, fn, *args, name=name)

    def process(
        self,
        generator: Generator[EventBase, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`~repro.sim.process.Process` from ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------------

    def _schedule(
        self, event: EventBase, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Put a triggered event on the processing queue."""
        # ``not >=`` rather than ``<``: it also rejects NaN, whose entry
        # would break the queue's total order.
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        self._push((self._now + delay, priority, next(self._sequence), event))

    def _note_cancelled(self) -> None:
        """Record a queued event's cancellation (called by ``cancel()``).

        Counts the cancellation eagerly and tells the queue, whose
        live ``len()`` excludes dead entries from this point on and
        which compacts itself when dead entries pile up.
        """
        self.cancelled_events += 1
        self._scheduler.note_cancelled()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        head = self._scheduler.peek()
        return head[0] if head is not None else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        item = self._scheduler.pop()
        if item is None:
            raise IndexError("step() on an empty event queue")
        when, _, _, event = item
        assert when >= self._now, "event queue went backwards"
        self._now = when
        self.processed_events += 1
        event._process()
        if not event._ok and not event._defused:
            exc = event.value
            raise SimulationError(
                f"unhandled failure of {event!r}: {exc!r}"
            ) from exc

    def run(self, until: Union[None, float, int, EventBase] = None) -> Any:
        """Run the simulation.

        * ``until=None`` -- run until the event queue drains.
        * ``until=<number>`` -- run until simulated time reaches that value
          (the clock is advanced to exactly ``until`` even if no event falls
          on it).
        * ``until=<event>`` -- run until that event is processed and return
          its value (raising if it failed).
        """
        stop_event: Optional[EventBase] = None
        if until is None:
            horizon = _INF
        elif isinstance(until, EventBase):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed.
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
            stop_event.callbacks.append(_stop_callback)
            horizon = _INF
        else:
            horizon = float(until)
            if not horizon >= self._now:
                raise ValueError(
                    f"until={horizon!r} lies in the past (now={self._now!r})"
                )
        pop_due = self._scheduler.pop_due
        # Counter updates are batched in a local and flushed in ``finally``:
        # an instance-attribute read-modify-write per event is measurable
        # at paper scale.
        processed = 0
        try:
            while True:
                item = pop_due(horizon)
                if item is None:
                    break
                when, _, _, event = item
                self._now = when
                processed += 1
                event._process()
                if not event._ok and not event._defused:
                    exc = event.value
                    raise SimulationError(
                        f"unhandled failure of {event!r}: {exc!r}"
                    ) from exc
        except StopSimulation as stop:
            event = stop.value
            if not event.ok:
                raise event.value
            return event.value
        finally:
            self.processed_events += processed
        if stop_event is not None:
            raise SimulationError(
                f"event queue drained before {stop_event!r} fired"
            )
        if until is not None:
            self._now = horizon
        return None


def _stop_callback(event: EventBase) -> None:
    raise StopSimulation(event)


def run_callable_at(
    engine: Engine, when: float, func: Callable[[], Any], name: Optional[str] = None
) -> Process:
    """Schedule a plain callable to run at absolute simulated time ``when``.

    Convenience used by fault injectors and experiment scripts.  Returns a
    full :class:`Process` (not a bare callback event) so callers can
    interrupt or wait on it.
    """
    if when < engine.now:
        raise ValueError(f"when={when!r} is in the past (now={engine.now!r})")

    def _runner() -> Generator[EventBase, Any, Any]:
        yield engine.timeout(when - engine.now)
        func()

    return engine.process(_runner(), name=name or f"at[{when:g}]")
