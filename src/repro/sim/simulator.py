"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock and an event queue.
Model components schedule callbacks with :meth:`Simulator.schedule` (at
an absolute time) or :meth:`Simulator.call_later` (relative delay) and
the main loop dispatches them in timestamp order.

Design notes
------------
* The clock only moves forward; scheduling into the past raises
  :class:`SimulationError` immediately rather than corrupting causality.
* ``run(until=...)`` stops *after* processing every event with
  ``time <= until`` and then sets the clock to ``until``, so rate
  measurements over ``[0, until]`` are well defined.
* The clock is the ``_now`` slot behind the read-only :attr:`now`
  property. The per-packet transmit chain (interface completion, the
  engine's sent handler, the bulk refill) reads ``_now`` directly to
  skip a Python-level property call per read; nothing outside this
  class writes it.
* :meth:`Simulator.run` pops the queue's ``(time, priority, seq,
  event)`` heap entries itself and calls ``event.callback(*event.args)``:
  an event costs its callback's frame and nothing else.
  :meth:`Simulator.step` pops through :meth:`EventQueue.pop_ready
  <repro.sim.events.EventQueue.pop_ready>` and calls the callback the
  same way.
* An event is cancelled by :meth:`Event.cancel
  <repro.sim.events.Event.cancel>` on the handle that scheduling
  returned; the run loop drops it when it reaches the head of the heap.
* The simulator is deliberately single-threaded. Determinism — given a
  seed — is a core requirement for reproducing the paper's experiments.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .events import DEFAULT_PRIORITY, Event, EventQueue


class Simulator:
    """A deterministic single-threaded discrete-event simulator."""

    __slots__ = (
        "_now",
        "_queue",
        "_running",
        "_stopped",
        "_events_processed",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (for tests/diagnostics)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def queue(self):
        """The underlying event queue (checkpoint codec access)."""
        return self._queue

    def restore_clock(self, now: float, events_processed: int) -> None:
        """Set the clock and dispatch counter (checkpoint restore).

        Only legal outside :meth:`run` — restoring mid-dispatch would
        corrupt causality the same way scheduling into the past does.
        """
        if self._running:
            raise SimulationError("cannot restore the clock while running")
        self._now = now
        self._events_processed = events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule *callback(*args)* at absolute virtual *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f} before now={self._now:.9f}"
            )
        return self._queue.push(time, callback, args, priority)

    def call_later(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule *callback(*args)* after a relative *delay* seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self._now + delay, callback, args, priority)

    def call_now(
        self,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule *callback(*args)* at the current instant.

        The callback runs after the currently executing event returns —
        this is the standard trick for breaking deep recursion between
        interacting components (e.g. interface -> scheduler -> interface).
        """
        return self._queue.push(self._now, callback, args, priority)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch a single event. Returns ``False`` if none remain."""
        event = self._queue.pop_ready()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once every event with ``time <= until`` has fired, then
            set the clock to exactly *until*. ``None`` runs to exhaustion.
        max_events:
            Safety valve for tests; raises :class:`SimulationError` if
            exceeded, which usually indicates a scheduling livelock.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until:.9f}, clock already at {self._now:.9f}"
            )
        self._running = True
        self._stopped = False
        dispatched = 0
        # The dispatch loop is the hottest code in the repository: one
        # iteration per simulated event. It runs EventQueue.pop_ready()'s
        # scan inline, so an event costs no Python frame beyond its
        # callback's; change the two together. The heap list is never
        # rebound, so it is bound once here even though a callback may
        # restore the queue.
        heap = self._queue._heap
        heappop = heapq.heappop
        try:
            while heap and not self._stopped:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                self._now = time
                self._events_processed += 1
                event.callback(*event.args)
                dispatched += 1
                if max_events is not None and dispatched > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
        finally:
            self._running = False
        if until is not None and not self._stopped:
            self._now = max(self._now, until)

    def stop(self) -> None:
        """Stop :meth:`run` after the current event finishes."""
        self._stopped = True
