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
calls ``event.callback(*event.args)``, so :meth:`EventQueue.pop_ready`
does not run per event; :meth:`Simulator.step
<repro.sim.simulator.Simulator.step>` keeps it.
The heap list is never rebound (:meth:`EventQueue.restore` rebuilds it
in place), so the run loop holds it across callbacks that restore the
queue.

Cancellation is a flag: :meth:`Event.cancel` marks the event, and the
pop paths drop a cancelled entry when it reaches the head of the heap.
A dead entry therefore stays until its own timestamp comes round, and
never fires.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Default event priority. Lower numbers fire first at equal timestamps.
DEFAULT_PRIORITY = 0

# ``_new_object(Event)`` allocates an event without running __init__.
_new_object = object.__new__


class Event:
    """A single scheduled callback.

    ``(time, priority, seq)`` is its position in the firing order; the
    queue keys its heap entry on that triple.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

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

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:g}, prio={self.priority}, seq={self.seq}{state})"

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped.

        Cancellation is O(1); the event stays in the heap until its
        timestamp is reached and is then discarded.
        """
        self.cancelled = True


#: A heap entry: the event's ``(time, priority, seq)`` key, then the
#: event. ``seq`` is unique, so tuple comparison never reaches the event.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        # Bound once and never rebound: the simulator's run loop holds it.
        self._heap: List[_Entry] = []
        self._seq = 0

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
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if empty.

        Skips (and drops) cancelled events at the head of the heap so
        the answer reflects the next event that will actually fire.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def pop_ready(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the next live event with ``time <= until`` in one scan.

        Returns ``None`` when the queue is empty or the next live event
        lies beyond *until* (the event is left in place), dropping any
        cancelled heads on the way. :meth:`Simulator.step
        <repro.sim.simulator.Simulator.step>` uses it; ``Simulator.run``
        inlines the same scan. Change the two together.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3].cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and head[0] > until:
                return None
            return heapq.heappop(heap)[3]
        return None

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
