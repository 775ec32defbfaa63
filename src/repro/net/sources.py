"""Traffic sources.

Each source feeds packets into one :class:`~repro.net.flow.Flow`:

* :class:`BulkSource` — a finite (or unbounded) transfer that keeps the
  flow continuously backlogged, the workload used throughout the
  paper's evaluation ("all flows are continuously backlogged").
* :class:`CbrSource` — constant bit rate.
* :class:`PoissonSource` — Poisson packet arrivals.
* :class:`OnOffSource` — exponential on/off bursts of CBR traffic.
* :class:`TraceSource` — replay an explicit ``(time, size)`` list.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.simulator import Simulator
from .flow import Flow
from .packet import Packet


class BulkSource:
    """Keep a flow backlogged until *total_bytes* have been queued.

    Rather than pre-queueing an entire multi-megabyte transfer, the
    source maintains ``target_depth`` packets in the flow queue and tops
    it up whenever the scheduler dequeues one — the event-driven
    equivalent of an application whose socket buffer is always full.

    ``total_bytes=None`` means the transfer never ends.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        packet_size: int = 1500,
        total_bytes: Optional[int] = None,
        target_depth: int = 8,
        start_time: float = 0.0,
    ) -> None:
        if packet_size <= 0:
            raise ConfigurationError(f"packet_size must be positive, got {packet_size}")
        if target_depth <= 0:
            raise ConfigurationError(f"target_depth must be positive, got {target_depth}")
        if total_bytes is not None and total_bytes <= 0:
            raise ConfigurationError(f"total_bytes must be positive, got {total_bytes}")
        self._sim = sim
        self._flow = flow
        # The flow's backlog deque, held for the per-packet refill; the
        # queue never rebinds it (a restore refills it in place).
        self._backlog = flow.queue.packets
        self._packet_size = packet_size
        self._remaining = total_bytes
        self._target_depth = target_depth
        self._started = False
        flow.on_dequeue(self._refill)
        # Sources are routinely created mid-run (e.g. an app starting);
        # clamp to "now" rather than scheduling into the past.
        sim.schedule(max(start_time, sim.now), self._start)

    @property
    def exhausted(self) -> bool:
        """``True`` once every byte of the transfer has been queued."""
        return self._remaining is not None and self._remaining <= 0

    def _start(self) -> None:
        self._started = True
        self._refill(self._flow, None)

    def snapshot_state(self) -> dict:
        """Mutable source state (progress through the transfer)."""
        return {"remaining": self._remaining, "started": self._started}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self._remaining = state["remaining"]
        self._started = state["started"]

    def _refill(self, flow: Flow, packet: Optional[Packet]) -> None:
        """Top the backlog up to ``target_depth`` packets.

        The flow's dequeue listener, so it runs inside every pull,
        before the scheduler tests whether the pull drained the flow.
        One frame per pulled packet: lookups are hoisted so each queued
        packet costs one ``len()`` on the backlog deque.
        """
        if not self._started:
            return
        backlog = self._backlog
        target_depth = self._target_depth
        offer = flow.offer
        flow_id = flow.flow_id
        packet_size = self._packet_size
        # Simulator.now without the property call.
        now = self._sim._now
        while len(backlog) < target_depth:
            size = packet_size
            remaining = self._remaining
            if remaining is not None:
                if remaining <= 0:
                    break
                size = min(size, remaining)
                self._remaining = remaining - size
            # Positional: calling a class with keywords builds a kwargs
            # dict, which costs more than the rest of the construction.
            offer(Packet(flow_id, size, now))


class CbrSource:
    """Constant-bit-rate arrivals: one *packet_size* packet every
    ``packet_size * 8 / rate_bps`` seconds between *start_time* and
    *stop_time*."""

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        rate_bps: float,
        packet_size: int = 1500,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be positive, got {rate_bps}")
        if packet_size <= 0:
            raise ConfigurationError(f"packet_size must be positive, got {packet_size}")
        self._sim = sim
        self._flow = flow
        self._packet_size = packet_size
        self._interval = packet_size * 8 / rate_bps
        self._stop_time = stop_time
        self.packets_offered = 0
        sim.schedule(max(start_time, sim.now), self._emit)

    def snapshot_state(self) -> dict:
        """Mutable source state."""
        return {"packets_offered": self.packets_offered}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.packets_offered = state["packets_offered"]

    def _emit(self) -> None:
        if self._stop_time is not None and self._sim.now >= self._stop_time:
            return
        self._flow.offer(
            Packet(self._flow.flow_id, self._packet_size, self._sim.now)
        )
        self.packets_offered += 1
        self._sim.call_later(self._interval, self._emit)


class PoissonSource:
    """Poisson packet arrivals at *rate_pps* packets/second."""

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        rate_pps: float,
        rng: random.Random,
        packet_size: int = 1500,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
    ) -> None:
        if rate_pps <= 0:
            raise ConfigurationError(f"rate_pps must be positive, got {rate_pps}")
        self._sim = sim
        self._flow = flow
        self._rate_pps = rate_pps
        self._rng = rng
        self._packet_size = packet_size
        self._stop_time = stop_time
        self.packets_offered = 0
        sim.schedule(max(start_time, sim.now) + rng.expovariate(rate_pps), self._emit)

    def snapshot_state(self) -> dict:
        """Mutable source state (RNG state lives with the streams)."""
        return {"packets_offered": self.packets_offered}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.packets_offered = state["packets_offered"]

    def _emit(self) -> None:
        if self._stop_time is not None and self._sim.now >= self._stop_time:
            return
        self._flow.offer(
            Packet(self._flow.flow_id, self._packet_size, self._sim.now)
        )
        self.packets_offered += 1
        self._sim.call_later(self._rng.expovariate(self._rate_pps), self._emit)


class OnOffSource:
    """Bursty traffic: exponential ON periods of CBR, exponential OFF.

    During ON, packets arrive back-to-back at *peak_rate_bps*. Mean ON
    and OFF durations are ``mean_on`` / ``mean_off`` seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        peak_rate_bps: float,
        mean_on: float,
        mean_off: float,
        rng: random.Random,
        packet_size: int = 1500,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
    ) -> None:
        if peak_rate_bps <= 0:
            raise ConfigurationError(f"peak_rate_bps must be positive, got {peak_rate_bps}")
        if mean_on <= 0 or mean_off <= 0:
            raise ConfigurationError("mean_on and mean_off must be positive")
        self._sim = sim
        self._flow = flow
        self._interval = packet_size * 8 / peak_rate_bps
        self._mean_on = mean_on
        self._mean_off = mean_off
        self._rng = rng
        self._packet_size = packet_size
        self._stop_time = stop_time
        self._on_until = 0.0
        self.packets_offered = 0
        sim.schedule(max(start_time, sim.now), self._start_burst)

    def snapshot_state(self) -> dict:
        """Mutable source state (RNG state lives with the streams)."""
        return {"on_until": self._on_until, "packets_offered": self.packets_offered}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self._on_until = state["on_until"]
        self.packets_offered = state["packets_offered"]

    def _stopped(self) -> bool:
        return self._stop_time is not None and self._sim.now >= self._stop_time

    def _start_burst(self) -> None:
        if self._stopped():
            return
        self._on_until = self._sim.now + self._rng.expovariate(1.0 / self._mean_on)
        self._emit()

    def _emit(self) -> None:
        if self._stopped():
            return
        if self._sim.now >= self._on_until:
            off = self._rng.expovariate(1.0 / self._mean_off)
            self._sim.call_later(off, self._start_burst)
            return
        self._flow.offer(
            Packet(self._flow.flow_id, self._packet_size, self._sim.now)
        )
        self.packets_offered += 1
        self._sim.call_later(self._interval, self._emit)


class TraceSource:
    """Replay explicit ``(arrival_time, size_bytes)`` pairs."""

    def __init__(
        self,
        sim: Simulator,
        flow: Flow,
        arrivals: Iterable[Tuple[float, int]],
    ) -> None:
        self._sim = sim
        self._flow = flow
        self.packets_offered = 0
        entries: List[Tuple[float, int]] = sorted(arrivals)
        for when, size in entries:
            if size <= 0:
                raise ConfigurationError(f"trace packet size must be positive, got {size}")
            sim.schedule(when, self._emit, size)

    def snapshot_state(self) -> dict:
        """Mutable source state."""
        return {"packets_offered": self.packets_offered}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.packets_offered = state["packets_offered"]

    def _emit(self, size: int) -> None:
        self._flow.offer(Packet(self._flow.flow_id, size, self._sim.now))
        self.packets_offered += 1


def sized_transfer(rate_bps: float, duration: float, packet_size: int = 1500) -> int:
    """Bytes a transfer must carry to last *duration* at *rate_bps*.

    Rounds to whole packets so a :class:`BulkSource` drains exactly.
    Used by the Figure 6 reproduction to size flows a and b so they
    complete at the paper's 66 s and 85 s marks.
    """
    total = rate_bps * duration / 8
    packets = max(1, int(math.floor(total / packet_size + 0.5)))
    return packets * packet_size
