"""Differential rig: the event queue against a reference, and ``run`` against itself.

The determinism contract (DESIGN.md) says the event queue is a *total
order* over ``(time, priority, sequence)``.  These tests enforce it
differentially:

* **Queue level** (hypothesis): randomized push/pop/pop_due/peek/cancel
  workloads with clustered timestamps, duplicate times and priority
  ties must produce the identical operation-by-operation transcript on
  :class:`HeapScheduler` and on a sorted-list model of the live
  entries, shrinking to minimal counterexamples.
* **Engine level** (hypothesis): random schedules of timeouts,
  callbacks, cancellations, zero-delay chains and interrupts must
  process in the same order with the same clock and counters whether
  the horizon is reached in one ``run(until=h)``, in a ladder of
  ``run(until=k*h/m)`` slices, or one ``step()`` at a time (``pop``
  rather than ``pop_due``).

Whole-scenario bytes are pinned separately by the byte fixtures
(``test_fixture_byte_identity.py``, ``test_sim_bench.py``,
``test_experiments_chaos.py``).
"""

from __future__ import annotations

from bisect import insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.schedulers import HeapScheduler
from tests.conftest import SIM

# ---------------------------------------------------------------------------
# Queue-level differential workloads
# ---------------------------------------------------------------------------


class _FakeEvent:
    """Just enough of EventBase for a queue: a cancellation flag.

    ``popped`` tracks whether the entry already left the queue, so the
    workload only cancels *queued* entries -- mirroring the engine,
    where ``cancel()`` raises once an event has been processed and
    ``note_cancelled`` therefore fires exactly once per queued entry.
    """

    __slots__ = ("_cancelled", "popped", "tag")

    def __init__(self, tag: int) -> None:
        self._cancelled = False
        self.popped = False
        self.tag = tag


class _SortedModel:
    """Reference queue: the live entries as one sorted list.

    Sequence numbers are unique, so tuple comparison never reaches the
    event.  Cancelled entries are filtered on every read.
    """

    def __init__(self) -> None:
        self.items: list = []

    def push(self, item) -> None:
        insort(self.items, item)

    def _head(self):
        self.items = [item for item in self.items if not item[3]._cancelled]
        return self.items[0] if self.items else None

    def pop(self):
        return self.items.pop(0) if self._head() is not None else None

    def pop_due(self, horizon):
        head = self._head()
        return self.items.pop(0) if head is not None and head[0] <= horizon else None

    def peek(self):
        return self._head()

    def note_cancelled(self) -> None:
        pass

    def __len__(self) -> int:
        return sum(not item[3]._cancelled for item in self.items)


#: Clustered delays: a small grid (duplicate timestamps, zero delays)
#: plus occasional arbitrary floats.
_delays = st.one_of(
    st.sampled_from([0.0, 0.0, 0.001, 0.001, 0.25, 0.25, 1.0, 5.0, 40.0]),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _delays, st.integers(0, 1)),
        st.tuples(st.just("pop"), st.just(0), st.just(0)),
        st.tuples(st.just("pop_due"), _delays, st.just(0)),
        st.tuples(st.just("peek"), st.just(0), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(0, 200), st.just(0)),
    ),
    min_size=1,
    max_size=200,
)


def _run_ops(queue, ops):
    """Interpret an op list against one queue; return the transcript.

    Pushes respect the engine's no-past-scheduling guarantee: times are
    ``now + delay`` where ``now`` advances to each popped entry's time
    (and to the horizon on ``pop_due``, mirroring ``run(until=...)``).
    """
    transcript = []
    events = []
    now = 0.0
    sequence = 0
    for op, arg, priority in ops:
        if op == "push":
            event = _FakeEvent(sequence)
            events.append(event)
            queue.push((now + arg, priority, sequence, event))
            sequence += 1
        elif op == "pop":
            item = queue.pop()
            if item is not None:
                now = item[0]
                item[3].popped = True
            transcript.append(("pop", _key(item)))
        elif op == "pop_due":
            horizon = now + arg
            item = queue.pop_due(horizon)
            if item is not None:
                item[3].popped = True
            now = item[0] if item is not None else horizon
            transcript.append(("pop_due", _key(item)))
        elif op == "peek":
            transcript.append(("peek", _key(queue.peek())))
        elif op == "cancel":
            if events:
                event = events[arg % len(events)]
                if not event.popped and not event._cancelled:
                    event._cancelled = True
                    queue.note_cancelled()
        transcript.append(("len", len(queue)))
    # Drain what is left so every queued entry's position is compared.
    while True:
        item = queue.pop()
        transcript.append(("drain", _key(item)))
        if item is None:
            return transcript


def _key(item):
    if item is None:
        return None
    time, priority, sequence, event = item
    # The final field doubles as an assertion: surfaced entries are
    # never cancelled under the eager-accounting contract.
    return (time, priority, sequence, event.tag, event._cancelled)


class TestSchedulerDifferential:
    @given(ops=_ops)
    @settings(max_examples=300, deadline=None)
    def test_heap_matches_sorted_model_transcript(self, ops):
        assert _run_ops(HeapScheduler(), ops) == _run_ops(_SortedModel(), ops)

    def test_far_future_entries_sort_last(self):
        heap = HeapScheduler()
        heap.push((float("inf"), 1, 0, _FakeEvent(0)))
        heap.push((1.0, 1, 1, _FakeEvent(1)))
        heap.push((float("inf"), 1, 2, _FakeEvent(2)))
        assert [heap.pop()[2] for _ in range(3)] == [1, 0, 2]


# ---------------------------------------------------------------------------
# Engine-level slicing invariance
# ---------------------------------------------------------------------------

_schedule = st.lists(
    st.tuples(
        st.sampled_from(["timeout", "callback", "cancelled", "chain", "interrupt"]),
        _delays,
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=40,
)


def _engine_trace(schedule, horizon, mode, slices=1):
    """Run one synthetic workload to ``horizon``, then drain the queue.

    ``mode`` is ``"run"`` (one ``run(until=horizon)``), ``"ladder"``
    (``slices`` runs ending exactly at ``horizon``) or ``"step"``
    (``step()`` while the head is due, then ``run(until=horizon)`` only
    moves the clock).  Returns the trace plus ``(now, processed,
    cancelled)`` at the horizon and after the drain.
    """
    engine = Engine(sim=SIM)
    trace = []

    def note(tag):
        trace.append((engine.now, tag))

    for index, (kind, delay, width) in enumerate(schedule):
        if kind == "timeout":
            def proc(index=index, delay=delay):
                yield engine.timeout(delay)
                note(("timeout", index))
            engine.process(proc())
        elif kind == "callback":
            engine.call_later(delay, note, ("callback", index))
        elif kind == "cancelled":
            # Cancel strictly before the timeout would fire, so the entry
            # is lazily discarded by the queue.
            timeout = engine.timeout(delay + 1.0)
            engine.call_later(delay / 2.0, timeout.cancel)
        elif kind == "chain":
            # Zero-delay chain: each link re-schedules at the same instant.
            def link(remaining, index=index):
                note(("chain", index, remaining))
                if remaining:
                    engine.call_later(0.0, link, remaining - 1)
            engine.call_later(delay, link, width)
        elif kind == "interrupt":
            def sleeper(index=index):
                try:
                    yield engine.timeout(1e9)
                except Exception:
                    note(("interrupted", index))
            victim = engine.process(sleeper())
            engine.call_later(delay, victim.interrupt, "diff-rig")

    def counters():
        return engine.now, engine.processed_events, engine.cancelled_events

    if mode == "ladder":
        for k in range(1, slices):
            engine.run(until=horizon * k / slices)
    elif mode == "step":
        while engine.peek() <= horizon:
            engine.step()
    engine.run(until=horizon)
    at_horizon = counters()
    engine.run()
    return trace, at_horizon, counters()


class TestEngineDifferential:
    @given(
        schedule=_schedule,
        horizon=st.floats(1.0, 500.0, allow_nan=False),
        slices=st.integers(2, 7),
    )
    @settings(max_examples=150, deadline=None)
    def test_processing_order_clock_and_counters_match(self, schedule, horizon, slices):
        reference = _engine_trace(schedule, horizon, "run")
        assert _engine_trace(schedule, horizon, "ladder", slices) == reference
        assert _engine_trace(schedule, horizon, "step") == reference
