"""Event and event-queue primitives for the discrete-event simulator.

The :class:`EventQueue` is a binary heap ordered by ``(time, priority,
sequence)``. The monotonically increasing sequence number guarantees
FIFO order for events scheduled at the same instant with the same
priority, which makes simulations deterministic.

Hot-path notes
--------------
This module sits under every simulated packet: one push and one pop per
scheduled callback. The heap therefore holds ``(time, priority, seq,
event)`` tuples rather than the events themselves: ``heapq`` compares
tuples in C, and because ``seq`` is unique a comparison never reaches
the :class:`Event` (which defines no ordering of its own); ordering
events through a Python ``__lt__`` would cost ~5 interpreted calls per
packet. :meth:`EventQueue.push` builds its :class:`Event` without an
``__init__`` frame. :meth:`Simulator.run
<repro.sim.simulator.Simulator.run>` pops the heap entries itself and
calls ``event.callback(*event.args)``, so neither
:meth:`EventQueue.pop_ready` nor :meth:`Event.fire` runs per event;
:meth:`Simulator.step <repro.sim.simulator.Simulator.step>` and direct
queue users keep them.
The heap list is never rebound (:meth:`EventQueue.compact` and
:meth:`EventQueue.restore` rebuild it in place), so the run loop holds
it across callbacks that compact or restore the queue.

Cancelled events are *lazily* discarded when they surface during a pop
or peek; ``cancel`` additionally counts live cancellations and compacts
the heap in O(n) once more than half of it is dead, so a workload
that cancels most of what it schedules (e.g. transport timeouts that
almost never fire) cannot grow the queue without bound. Queue-counted
cancellations are flagged on the event (``qcancelled``) so the lazy
discard path can *decrement* the live-cancellation counter — without
that, the counter overstates the dead population after discards and
triggers spurious O(n) compactions (the accounting bug pinned by
``tests/test_sim_events_backends.py``; :meth:`EventQueue.tombstones`
is its physical count).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

#: Default event priority. Lower numbers fire first at equal timestamps.
DEFAULT_PRIORITY = 0

# ``_new_object(Event)`` allocates an event without running __init__.
_new_object = object.__new__

#: Compaction threshold: rebuild the heap when it holds more than
#: this many queue-cancelled events *and* they outnumber the live ones.
_COMPACTION_MIN = 64


class Event:
    """A single scheduled callback.

    ``(time, priority, seq)`` is its position in the firing order; the
    queue keys its heap entry on that triple. ``qcancelled`` records
    whether the cancellation was routed through the owning queue (and
    therefore counted toward its compaction bookkeeping); direct
    :meth:`cancel` calls leave it ``False``.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "qcancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        cancelled: bool = False,
    ) -> None:
        # EventQueue.push() inlines this body; change the two together.
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self.qcancelled = False

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:g}, prio={self.priority}, seq={self.seq}{state})"

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped.

        Cancellation is O(1); the event stays in the heap until its
        timestamp is reached and is then discarded. Prefer
        :meth:`EventQueue.cancel` when the owning queue is at hand —
        it additionally lets the queue compact away dead entries.
        """
        self.cancelled = True

    def fire(self) -> Any:
        """Invoke the callback. The simulator calls this, not users."""
        return self.callback(*self.args)


#: A heap entry: the event's ``(time, priority, seq)`` key, then the
#: event. ``seq`` is unique, so tuple comparison never reaches the event.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects."""

    __slots__ = ("_heap", "_seq", "_cancelled_count", "compactions_total")

    def __init__(self) -> None:
        # Bound once and never rebound: the simulator's run loop holds it.
        self._heap: List[_Entry] = []
        self._seq = 0
        # Live queue-cancelled events still in the heap. Direct
        # Event.cancel() calls are still honoured on pop, they just
        # don't count toward compaction.
        self._cancelled_count = 0
        # Telemetry: O(n) rebuilds performed (obs samples this).
        self.compactions_total = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule *callback* at absolute *time* and return the event."""
        seq = self._seq
        self._seq = seq + 1
        # Event.__init__ inlined: this runs once per scheduled callback,
        # and a slot store costs less than a Python frame. Change the
        # two together.
        event = _new_object(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.qcancelled = False
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel *event* and compact the heap when mostly dead.

        Equivalent to ``event.cancel()`` plus bookkeeping: once more
        than half the heap (and at least :data:`_COMPACTION_MIN`
        entries) consists of queue-cancelled events, the heap is
        rebuilt without them in O(n). The counter is decremented again
        when a cancelled head is lazily discarded, so it always equals
        the number of queue-cancelled events actually present.

        *event* must still be pending: cancelling one that already
        popped (fired) counts a tombstone that does not exist. The
        simulator's handle discipline — callbacks drop their own event
        reference when they fire — upholds this.
        """
        if event.cancelled:
            return
        event.cancelled = True
        event.qcancelled = True
        self._cancelled_count += 1
        if (
            self._cancelled_count >= _COMPACTION_MIN
            and self._cancelled_count * 2 > len(self._heap)
        ):
            self.compact()

    def compact(self) -> int:
        """Drop every cancelled event and re-heapify; returns the count
        of events removed. Called automatically by :meth:`cancel`."""
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled_count = 0
        self.compactions_total += 1
        return before - len(heap)

    def _discard_head(self) -> None:
        """Drop the (cancelled) head, maintaining the live-dead count."""
        event = heapq.heappop(self._heap)[3]
        if event.qcancelled:
            event.qcancelled = False
            self._cancelled_count -= 1

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if empty.

        Skips (and drops) cancelled events at the head of the heap so
        the answer reflects the next event that will actually fire.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            self._discard_head()
        if not heap:
            return None
        return heap[0][0]

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises :class:`SimulationError` when the queue is empty.
        """
        heap = self._heap
        while heap:
            if heap[0][3].cancelled:
                self._discard_head()
                continue
            return heapq.heappop(heap)[3]
        raise SimulationError("pop() from an empty event queue")

    def pop_ready(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the next live event with ``time <= until`` in one scan.

        Returns ``None`` when the queue is empty or the next live event
        lies beyond *until* (the event is left in place): the peek/pop
        pair as one pass over any cancelled heads. :meth:`Simulator.step
        <repro.sim.simulator.Simulator.step>` uses it; ``Simulator.run``
        inlines the same scan. Change the two together.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3].cancelled:
                self._discard_head()
                continue
            if until is not None and head[0] > until:
                return None
            return heapq.heappop(heap)[3]
        return None

    def tombstones(self) -> int:
        """Queue-cancelled events still physically in the heap.

        Counted by walking the heap, independently of the running
        counter that drives compaction — the two must always agree.
        """
        return sum(1 for entry in self._heap if entry[3].qcancelled)

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._cancelled_count = 0

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`push` will assign."""
        return self._seq

    def live_events(self) -> List[Event]:
        """Pending non-cancelled events in firing order.

        The checkpoint codec serializes exactly these; cancelled
        entries are dead weight a restored run never needs.
        """
        return [entry[3] for entry in sorted(self._heap) if not entry[3].cancelled]

    def restore(self, events: List[Event], next_seq: int) -> None:
        """Replace the queue contents with pre-built events.

        The events keep their original ``(time, priority, seq)``
        triples and *next_seq* continues the original numbering, so
        the restored queue fires — and breaks future ties — exactly
        like the snapshotted one.
        """
        heap = self._heap
        heap[:] = [(event.time, event.priority, event.seq, event) for event in events]
        heapq.heapify(heap)
        self._seq = next_seq
        self._cancelled_count = 0
