"""FIFO and round-robin single-interface schedulers.

These are the trivial baselines: FIFO ignores both kinds of preference;
packet-by-packet round robin provides equal *packet* rates (so it is
unfair for mixed packet sizes — the motivation for DRR).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..net.flow import Flow
from ..net.packet import Packet
from .base import SingleInterfaceScheduler


class FifoScheduler(SingleInterfaceScheduler):
    """Serve packets strictly in arrival order across all flows.

    Maintains a queue of flow references ordered by arrival of each
    packet, so interleavings match a shared drop-tail queue.
    """

    def __init__(self) -> None:
        super().__init__()
        self._arrival_order: Deque[str] = deque()
        # The flow object whose arrivals are followed, per id: a flow
        # re-added (quarantine resume, Π churn) keeps its one listener.
        self._following: Dict[str, Flow] = {}

    def _on_flow_added(self, flow: Flow) -> None:
        # Register future arrivals; pre-existing backlog is ordered by
        # flow registration, which is the best FIFO can reconstruct.
        for _ in range(len(flow.queue)):
            self._arrival_order.append(flow.flow_id)
        if self._following.get(flow.flow_id) is not flow:
            self._following[flow.flow_id] = flow
            flow.on_arrival(self._record_arrival)

    def _record_arrival(self, flow: Flow, packet: Packet) -> None:
        if self.has_flow(flow.flow_id):
            self._arrival_order.append(flow.flow_id)

    def next_packet(self) -> Optional[Packet]:
        while self._arrival_order:
            flow_id = self._arrival_order.popleft()
            if not self.has_flow(flow_id):
                continue
            flow = self._flows[flow_id]
            if flow.backlogged:
                return flow.pull()
        return None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        return {"arrival_order": list(self._arrival_order)}

    def _restore_state(self, state: Dict[str, object]) -> None:
        self._arrival_order = deque(state["arrival_order"])


class RoundRobinScheduler(SingleInterfaceScheduler):
    """One packet per backlogged flow per round (Nagle fair queueing)."""

    def __init__(self) -> None:
        super().__init__()
        self._ring: Deque[str] = deque()

    def _on_flow_added(self, flow: Flow) -> None:
        self._ring.append(flow.flow_id)

    def _on_flow_removed(self, flow: Flow) -> None:
        try:
            self._ring.remove(flow.flow_id)
        except ValueError:
            pass

    def next_packet(self) -> Optional[Packet]:
        for _ in range(len(self._ring)):
            flow_id = self._ring[0]
            self._ring.rotate(-1)
            flow = self._flows.get(flow_id)
            if flow is not None and flow.backlogged:
                return flow.pull()
        return None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        return {"ring": list(self._ring)}

    def _restore_state(self, state: Dict[str, object]) -> None:
        self._ring = deque(state["ring"])
