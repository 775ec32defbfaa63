"""Higher-level scheduling helpers built on :class:`Simulator`.

This wraps the raw event API with the periodic process that samplers,
capacity changers and traffic sources need.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SimulationError
from .events import Event
from .simulator import Simulator


class PeriodicProcess:
    """Invoke a callback every *period* seconds until stopped.

    The callback receives the current virtual time. The first invocation
    happens at ``start_time + period``.
    """

    __slots__ = (
        "_sim",
        "_period",
        "_callback",
        "_event",
        "_running",
    )

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[float], Any],
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        """``True`` between :meth:`start` and :meth:`stop`."""
        return self._running

    def start(self) -> None:
        """Begin ticking. Idempotent."""
        if self._running:
            return
        self._running = True
        self._event = self._sim.call_later(self._period, self._tick)

    def stop(self) -> None:
        """Stop ticking. Idempotent."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._callback(self._sim.now)
        if self._running:
            self._event = self._sim.call_later(self._period, self._tick)
