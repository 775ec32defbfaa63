"""The runtime flow object.

A :class:`Flow` bundles the pieces the scheduling engine needs: the
flow's identity, its rate preference (weight ``phi``), its interface
preference set, its backlog queue and its service accounting.

Interface preferences are stored here as a set of interface names; the
:mod:`repro.prefs` package offers richer policy builders that compile
down to these sets.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, FrozenSet, Iterable, List, Optional

from ..errors import ConfigurationError, PreferenceError
from .packet import Packet
from .queueing import FlowQueue


class Flow:
    """One application flow with user preferences and a backlog."""

    __slots__ = (
        "flow_id",
        "weight",
        "allowed_interfaces",
        "deadline_budget",
        "nominal_rate_bps",
        "queue",
        "bytes_sent",
        "packets_sent",
        "completed_at",
        "_arrival_listeners",
        "_backlogged_listeners",
        "_dequeue_listeners",
        "_drop_listeners",
        "_prefs_listeners",
    )

    def __init__(
        self,
        flow_id: str,
        weight: float = 1.0,
        allowed_interfaces: Optional[Iterable[str]] = None,
        max_queue_bytes: Optional[int] = None,
        queue_policy: str = "drop-tail",
        deadline_budget: Optional[float] = None,
        nominal_rate_bps: Optional[float] = None,
    ) -> None:
        if not flow_id:
            raise ConfigurationError("flow_id must be non-empty")
        if weight <= 0:
            raise PreferenceError(
                f"flow {flow_id!r}: weight must be positive, got {weight}"
            )
        self.flow_id = flow_id
        self.weight = float(weight)
        # The interface-preference set, or ``None`` meaning "any".
        # Read-only for everyone else: change it through restrict_to(),
        # then tell the engine (notify_preferences_changed), which
        # refreshes every willing-interface cache derived from it.
        self.allowed_interfaces: Optional[FrozenSet[str]] = (
            frozenset(allowed_interfaces) if allowed_interfaces is not None else None
        )
        if self.allowed_interfaces is not None and not self.allowed_interfaces:
            raise PreferenceError(
                f"flow {flow_id!r}: empty interface preference set — the flow "
                "could never be served"
            )
        if deadline_budget is not None and deadline_budget <= 0:
            raise ConfigurationError(
                f"flow {flow_id!r}: deadline_budget must be positive, "
                f"got {deadline_budget}"
            )
        if nominal_rate_bps is not None and nominal_rate_bps <= 0:
            raise ConfigurationError(
                f"flow {flow_id!r}: nominal_rate_bps must be positive, "
                f"got {nominal_rate_bps}"
            )
        # Per-packet latency SLO (seconds): packets offered without an
        # explicit deadline get stamped ``created_at + deadline_budget``.
        self.deadline_budget: Optional[float] = deadline_budget
        # Declared demand (bits/s) for admission control; ``None`` marks
        # an elastic flow that admission controllers count as zero load.
        self.nominal_rate_bps: Optional[float] = nominal_rate_bps
        self.queue = FlowQueue(flow_id, max_bytes=max_queue_bytes, policy=queue_policy)
        # Delivered service, counted by the scheduling engine's sent
        # handler (packets consumed by an egress filter do not count).
        self.bytes_sent = 0
        self.packets_sent = 0
        self.completed_at: Optional[float] = None
        self._arrival_listeners: List[Callable[["Flow", Packet], None]] = []
        self._backlogged_listeners: List[Callable[["Flow"], None]] = []
        self._dequeue_listeners: List[Callable[["Flow", Packet], None]] = []
        self._drop_listeners: List[Callable[["Flow", Packet], None]] = []
        self._prefs_listeners: List[Callable[["Flow"], None]] = []
        self.queue.set_drop_listener(self._dropped)

    # ------------------------------------------------------------------
    # Preferences
    # ------------------------------------------------------------------
    def willing_to_use(self, interface_id: str) -> bool:
        """``π_ij = 1``? — is this flow willing to use *interface_id*."""
        allowed = self.allowed_interfaces
        return allowed is None or interface_id in allowed

    def restrict_to(self, interfaces: AbstractSet[str]) -> None:
        """Replace the interface-preference set (live policy change)."""
        if not interfaces:
            raise PreferenceError(
                f"flow {self.flow_id!r}: cannot restrict to an empty set"
            )
        self.allowed_interfaces = frozenset(interfaces)
        for listener in self._prefs_listeners:
            listener(self)

    def on_prefs_change(self, listener: Callable[["Flow"], None]) -> None:
        """Register a callback fired after :meth:`restrict_to`.

        For observers only (e.g. a benchmark's Π-respect history): no
        scheduler or engine cache listens here. Those are refreshed by
        :meth:`~repro.core.engine.SchedulingEngine.notify_preferences_changed`,
        the call every Π edit of a registered flow must be followed by.
        """
        self._prefs_listeners.append(listener)

    # ------------------------------------------------------------------
    # Backlog
    # ------------------------------------------------------------------
    @property
    def backlogged(self) -> bool:
        """``True`` while packets are queued."""
        return bool(self.queue.packets)

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued."""
        return self.queue.backlog_bytes

    def on_arrival(self, listener: Callable[["Flow", Packet], None]) -> None:
        """Register a callback fired on each accepted packet arrival.

        The FIFO scheduler and the HTTP proxy use this to follow every
        arrival.
        """
        self._arrival_listeners.append(listener)

    def on_backlogged(self, listener: Callable[["Flow"], None]) -> None:
        """Register a callback fired when an accepted arrival leaves the
        backlog at exactly one packet (the flow went from empty to
        backlogged).

        The engine uses this to kick idle interfaces; a refill into a
        non-empty backlog makes no call. These listeners run before the
        :meth:`on_arrival` listeners.
        """
        self._backlogged_listeners.append(listener)

    def offer(self, packet: Packet) -> bool:
        """Enqueue *packet*; returns ``False`` if drop-tail discarded it.

        Packets arriving without an explicit deadline inherit the
        flow's :attr:`deadline_budget` relative to their creation time,
        so every traffic source threads deadlines without knowing about
        them.
        """
        if packet.deadline is None and self.deadline_budget is not None:
            packet.deadline = packet.created_at + self.deadline_budget
        queue = self.queue
        packets = queue.packets
        if queue.max_bytes is None:
            # FlowQueue.enqueue()'s accept path for an unbounded queue,
            # inlined: this runs once per packet. Change the two
            # together.
            if packet.flow_id != queue.flow_id:
                raise ConfigurationError(
                    f"packet for flow {packet.flow_id!r} enqueued on queue "
                    f"for flow {queue.flow_id!r}"
                )
            packets.append(packet)
            queue._backlog_bytes += packet.size_bytes
            queue._enqueued_packets += 1
        elif not queue.enqueue(packet):
            return False
        if len(packets) == 1:
            for listener in self._backlogged_listeners:
                listener(self)
        for listener in self._arrival_listeners:
            listener(self, packet)
        return True

    def on_drop(self, listener: Callable[["Flow", Packet], None]) -> None:
        """Register a callback fired when the backlog discards a packet.

        The engine subscribes here so chaos reports can attribute queue
        loss per flow through ``engine.stats``.
        """
        self._drop_listeners.append(listener)

    def _dropped(self, packet: Packet) -> None:
        for listener in self._drop_listeners:
            listener(self, packet)

    def on_dequeue(self, listener: Callable[["Flow", Packet], None]) -> None:
        """Register a callback fired when a packet leaves the backlog.

        Refilling traffic sources use this to keep an "always
        backlogged" flow topped up without pre-queueing the whole
        transfer.
        """
        self._dequeue_listeners.append(listener)

    def pull(self) -> Packet:
        """Dequeue the head-of-line packet (schedulers call this).

        Raises :class:`IndexError` when the backlog is empty. The
        dequeue listeners (a bulk source's refill) run before this
        returns, so a flow that is topped up on every pull is never
        seen drained by the scheduler that pulled.
        """
        # FlowQueue.dequeue() inlined: this runs once per packet.
        # Change the two together.
        queue = self.queue
        packet = queue.packets.popleft()
        queue._backlog_bytes -= packet.size_bytes
        for listener in self._dequeue_listeners:
            listener(self, packet)
        return packet

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Mutable flow state (preferences, accounting, backlog)."""
        return {
            "flow_id": self.flow_id,
            "weight": self.weight,
            "allowed": (
                sorted(self.allowed_interfaces)
                if self.allowed_interfaces is not None
                else None
            ),
            "deadline_budget": self.deadline_budget,
            "nominal_rate_bps": self.nominal_rate_bps,
            "bytes_sent": self.bytes_sent,
            "packets_sent": self.packets_sent,
            "completed_at": self.completed_at,
            "queue": self.queue.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`.

        Restores *into* this existing object so every listener wired at
        build time (engine kicks, source refills, stats) stays attached.
        """
        if state["flow_id"] != self.flow_id:
            raise ConfigurationError(
                f"snapshot is for flow {state['flow_id']!r}, not {self.flow_id!r}"
            )
        self.weight = state["weight"]
        self.allowed_interfaces = (
            frozenset(state["allowed"]) if state["allowed"] is not None else None
        )
        self.deadline_budget = state.get("deadline_budget")
        self.nominal_rate_bps = state.get("nominal_rate_bps")
        self.bytes_sent = state["bytes_sent"]
        self.packets_sent = state["packets_sent"]
        self.completed_at = state["completed_at"]
        self.queue.restore_state(state["queue"])

    def __repr__(self) -> str:
        allowed_interfaces = self.allowed_interfaces
        allowed = (
            "any"
            if allowed_interfaces is None
            else "{" + ",".join(sorted(allowed_interfaces)) + "}"
        )
        return (
            f"Flow({self.flow_id!r}, w={self.weight:g}, ifaces={allowed}, "
            f"backlog={self.backlog_bytes}B)"
        )
