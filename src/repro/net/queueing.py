"""Per-flow packet queues.

:class:`FlowQueue` is the backlog the schedulers inspect: a FIFO with
byte accounting and an optional capacity bound. Two overflow policies
exist: ``"drop-tail"`` rejects the arriving packet (the classical
router default), ``"drop-head"`` evicts the oldest queued packets to
make room for the new one — the right policy when fresher data is more
valuable than stale data (live streams, telemetry) and the one chaos
runs use so loss attribution points at the backlog that aged out.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterator, List, Optional

from ..errors import ConfigurationError
from .packet import Packet, decode_packet, encode_packet

#: Valid overflow policies for a bounded :class:`FlowQueue`.
DROP_POLICIES = ("drop-tail", "drop-head")


class FlowQueue:
    """A FIFO of packets for a single flow with byte accounting.

    Parameters
    ----------
    flow_id:
        The owning flow (stored for diagnostics; enqueue asserts match).
    max_bytes:
        Optional capacity bound. ``None`` means unbounded, which is the
        right model for the paper's always-backlogged experiments.
    on_drop:
        Optional callback invoked with each dropped packet.
    policy:
        Overflow policy for a bounded queue: ``"drop-tail"`` (default)
        discards the arriving packet; ``"drop-head"`` evicts queued
        packets from the head until the arrival fits.
    """

    __slots__ = (
        "flow_id",
        "max_bytes",
        "policy",
        "_on_drop",
        "packets",
        "_backlog_bytes",
        "_dropped_packets",
        "_dropped_bytes",
        "_enqueued_packets",
    )

    def __init__(
        self,
        flow_id: str,
        max_bytes: Optional[int] = None,
        on_drop: Optional[Callable[[Packet], None]] = None,
        policy: str = "drop-tail",
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(f"max_bytes must be positive, got {max_bytes}")
        if policy not in DROP_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {DROP_POLICIES}, got {policy!r}"
            )
        self.flow_id = flow_id
        self.max_bytes = max_bytes
        self.policy = policy
        self._on_drop = on_drop
        # The backlog, head first. Read-only for everyone else: bound
        # once here and never rebound (restore_state refills it in
        # place), so hot paths may hold the reference and test
        # ``len``/truthiness or read ``packets[0]`` without a method
        # call; only this class's methods mutate it.
        self.packets: Deque[Packet] = deque()
        self._backlog_bytes = 0
        self._dropped_packets = 0
        self._dropped_bytes = 0
        self._enqueued_packets = 0

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packets)

    def __bool__(self) -> bool:
        return bool(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @property
    def backlog_bytes(self) -> int:
        """Total bytes currently queued."""
        return self._backlog_bytes

    @property
    def dropped_packets(self) -> int:
        """Packets discarded by the overflow policy so far."""
        return self._dropped_packets

    @property
    def dropped_bytes(self) -> int:
        """Bytes discarded by the overflow policy so far."""
        return self._dropped_bytes

    @property
    def enqueued_packets(self) -> int:
        """Packets accepted so far (excludes drop-tail rejections)."""
        return self._enqueued_packets

    def head(self) -> Optional[Packet]:
        """The head-of-line packet without removing it."""
        return self.packets[0] if self.packets else None

    def head_size(self) -> Optional[int]:
        """Size in bytes of the head-of-line packet, if any."""
        head = self.head()
        return head.size_bytes if head is not None else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_drop_listener(self, on_drop: Optional[Callable[[Packet], None]]) -> None:
        """Install (or replace) the per-drop callback.

        The engine uses this to attribute queue loss to flows in its
        :class:`~repro.net.sink.StatsCollector` without the queue's
        creator having to know about the engine.
        """
        self._on_drop = on_drop

    def _drop(self, packet: Packet) -> None:
        self._dropped_packets += 1
        self._dropped_bytes += packet.size_bytes
        if self._on_drop is not None:
            self._on_drop(packet)

    def enqueue(self, packet: Packet) -> bool:
        """Append *packet*; returns ``False`` if it was not accepted.

        With ``"drop-tail"`` an overflowing arrival is rejected. With
        ``"drop-head"`` queued packets are evicted oldest-first until
        the arrival fits (an arrival larger than ``max_bytes`` by
        itself is still rejected — there is no room to make).
        :meth:`Flow.offer <repro.net.flow.Flow.offer>` inlines the
        unbounded accept path; change the two together.
        """
        if packet.flow_id != self.flow_id:
            raise ConfigurationError(
                f"packet for flow {packet.flow_id!r} enqueued on queue "
                f"for flow {self.flow_id!r}"
            )
        if self.max_bytes is not None:
            if packet.size_bytes > self.max_bytes:
                self._drop(packet)
                return False
            if self._backlog_bytes + packet.size_bytes > self.max_bytes:
                if self.policy == "drop-tail":
                    self._drop(packet)
                    return False
                while (
                    self.packets
                    and self._backlog_bytes + packet.size_bytes > self.max_bytes
                ):
                    evicted = self.packets.popleft()
                    self._backlog_bytes -= evicted.size_bytes
                    self._drop(evicted)
        self.packets.append(packet)
        self._backlog_bytes += packet.size_bytes
        self._enqueued_packets += 1
        return True

    def dequeue(self) -> Packet:
        """Remove and return the head-of-line packet.

        Raises :class:`IndexError` when empty, mirroring ``deque``.
        :meth:`Flow.pull <repro.net.flow.Flow.pull>` inlines this body;
        change the two together.
        """
        packet = self.packets.popleft()
        self._backlog_bytes -= packet.size_bytes
        return packet

    def clear(self) -> List[Packet]:
        """Empty the queue, returning the removed packets."""
        removed = list(self.packets)
        self.packets.clear()
        self._backlog_bytes = 0
        return removed

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Queue contents and drop accounting as a JSON-safe dict."""
        return {
            "packets": [encode_packet(packet) for packet in self.packets],
            "dropped_packets": self._dropped_packets,
            "dropped_bytes": self._dropped_bytes,
            "enqueued_packets": self._enqueued_packets,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite contents and accounting from :meth:`snapshot_state`.

        Refills the internal deque in place — the drop listener and the
        capacity policy are build-time wiring and must not re-fire while
        reconstructing an already-admitted backlog, and holders of
        :attr:`packets` must keep seeing the live backlog.
        """
        # Decode everything first: a bad document raises with the
        # queue still intact.
        restored = [decode_packet(doc) for doc in state["packets"]]
        self.packets.clear()
        self.packets.extend(restored)
        self._backlog_bytes = sum(packet.size_bytes for packet in self.packets)
        self._dropped_packets = state["dropped_packets"]
        self._dropped_bytes = state["dropped_bytes"]
        self._enqueued_packets = state["enqueued_packets"]
