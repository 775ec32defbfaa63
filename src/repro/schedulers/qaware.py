"""QAware-style queue-aware interface steering.

Inspired by "QAware: A Cross-Layer Approach to MPTCP Scheduling"
(arXiv 1808.04390): instead of splitting flows statically or round-
robining, score each willing interface by its **current queue
occupancy and service rate** and steer the flow to the interface with
the minimum estimated completion time

    score(j) = (assigned_backlog_bytes(j) + flow_backlog_bytes) * 8
               / rate_bps(j)

i.e. "how long until this flow's queued bytes would leave through j if
it joined j's line now". The assignment is recomputed at every
empty→backlogged activation, so steering tracks live queue depths and
interface rates (the engine wires :meth:`observe_interface`) without
per-packet churn. Ties break by interface registration order.

Within one interface, assigned flows are served FIFO in assignment
order. ``select`` is work-conserving: when an interface's own line is
empty it steals the first willing backlogged flow assigned elsewhere —
under-utilized fast links drain their slower neighbours' lines rather
than idling.

Without observed interfaces all rates read 1.0, so the score reduces
to pure queue-depth balancing and the scheduler runs standalone in
tests and conformance harnesses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from ..errors import SchedulingError
from ..net.flow import Flow
from ..net.packet import Packet
from .base import MultiInterfaceScheduler


class QAwareScheduler(MultiInterfaceScheduler):
    """Steer each flow to its minimum-completion-time willing interface."""

    def __init__(self) -> None:
        super().__init__()
        # Current steering decision: flow_id -> interface_id.
        self._assignment: Dict[str, str] = {}
        # Per-interface service line, in assignment order.
        self._lines: Dict[str, "OrderedDict[str, None]"] = {}
        # Live interfaces for rates: wired by the engine through
        # observe_interface(); never snapshotted (topology is rebuilt
        # at restore time).
        self._rate_sources: Dict[str, object] = {}
        # Telemetry.
        self.decision_flows_examined: List[int] = []
        self.steers_total = 0
        self.steals_total = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def observe_interface(self, interface: object) -> None:
        """Engine hook: read live service rate from *interface*."""
        self._rate_sources[interface.interface_id] = interface

    def interface_rate_bps(self, interface_id: str) -> float:
        """The rate used in scoring (1.0 when unobserved)."""
        source = self._rate_sources.get(interface_id)
        if source is None:
            return 1.0
        return float(source.rate_bps)

    def queue_depth_bytes(self, interface_id: str) -> int:
        """Backlog bytes of flows currently assigned to *interface_id*."""
        line = self._lines.get(interface_id)
        if line is None:
            raise SchedulingError(f"unknown interface {interface_id!r}")
        flows = self._flows
        return sum(
            flows[flow_id].backlog_bytes for flow_id in line if flow_id in flows
        )

    def assignment(self) -> Dict[str, str]:
        """Current flow → interface steering (a copy)."""
        return dict(self._assignment)

    # ------------------------------------------------------------------
    # Topology / flow bookkeeping
    # ------------------------------------------------------------------
    def _on_interface_added(self, interface_id: str) -> None:
        self._lines[interface_id] = OrderedDict()
        # Existing backlogged flows stay where they are; the new
        # interface competes from the next activation on — and the
        # steal path can already drain into it meanwhile.

    def _on_flow_added(self, flow: Flow) -> None:
        if flow.backlogged:
            self._steer(flow)

    def _on_flow_removed(self, flow: Flow) -> None:
        self._unassign(flow.flow_id)

    def _on_backlogged(self, flow: Flow) -> None:
        self._steer(flow)

    def _unassign(self, flow_id: str) -> None:
        interface_id = self._assignment.pop(flow_id, None)
        if interface_id is not None:
            line = self._lines.get(interface_id)
            if line is not None:
                line.pop(flow_id, None)

    def _steer(self, flow: Flow) -> None:
        """(Re)assign *flow* to its minimum-completion-time interface."""
        willing = self.willing_interfaces(flow)
        if not willing:
            self._unassign(flow.flow_id)
            return
        backlog = flow.backlog_bytes
        best_id: Optional[str] = None
        best_score = float("inf")
        for interface_id in willing:
            depth = self.queue_depth_bytes(interface_id)
            line = self._lines[interface_id]
            if flow.flow_id in line:
                # Don't double-count the flow's own queued bytes.
                depth -= backlog
            score = (depth + backlog) * 8 / self.interface_rate_bps(interface_id)
            if score < best_score:
                best_score = score
                best_id = interface_id
        if self._assignment.get(flow.flow_id) != best_id:
            self._unassign(flow.flow_id)
            self._assignment[flow.flow_id] = best_id
            self._lines[best_id][flow.flow_id] = None
            self.steers_total += 1

    # ------------------------------------------------------------------
    # The scheduling decision
    # ------------------------------------------------------------------
    def select(self, interface_id: str) -> Optional[Packet]:
        line = self._lines.get(interface_id)
        if line is None:
            raise SchedulingError(f"unknown interface {interface_id!r}")
        examined = 0
        for flow_id in list(line):
            flow = self._flows.get(flow_id)
            if flow is None or not flow.backlogged:
                # Stale entry (flow gone or drained): drop it.
                self._unassign(flow_id)
                continue
            if not flow.willing_to_use(interface_id):
                # Live Π edit: this interface must stop serving the
                # flow; re-steer it among its new willing set.
                self._steer(flow)
                continue
            examined += 1
            self.decision_flows_examined.append(examined)
            return self._serve(flow)
        # Own line empty: steal the first willing backlogged flow
        # assigned to another interface (work conservation).
        for flow_id, assigned_to in list(self._assignment.items()):
            if assigned_to == interface_id:
                continue
            flow = self._flows.get(flow_id)
            if flow is None or not flow.backlogged:
                continue
            examined += 1
            if not flow.willing_to_use(interface_id):
                continue
            self._unassign(flow_id)
            self._assignment[flow_id] = interface_id
            line[flow_id] = None
            self.steals_total += 1
            self.decision_flows_examined.append(examined)
            return self._serve(flow)
        self.decision_flows_examined.append(examined)
        return None

    def _serve(self, flow: Flow) -> Packet:
        packet = flow.pull()
        if not flow.backlogged:
            self._unassign(flow.flow_id)
        return packet

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        return {
            "lines": {
                interface_id: list(line)
                for interface_id, line in self._lines.items()
            },
            "assignment": dict(self._assignment),
            "steers_total": self.steers_total,
            "steals_total": self.steals_total,
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        self._lines = {}
        for interface_id, flow_ids in state["lines"].items():
            line: "OrderedDict[str, None]" = OrderedDict()
            for flow_id in flow_ids:
                line[flow_id] = None
            self._lines[interface_id] = line
        self._assignment = dict(state["assignment"])
        self.steers_total = state["steers_total"]
        self.steals_total = state["steals_total"]
        self.decision_flows_examined = []
