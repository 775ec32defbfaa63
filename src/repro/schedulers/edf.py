"""EDF — earliest-deadline-first scheduling with admission control.

:class:`EdfScheduler` serves, on each free interface, the backlogged
willing flow whose head-of-line packet has the earliest deadline.
Packets without a deadline sort last (infinitely patient) and fall back
to global arrival order (``seqno``), so elastic traffic degrades to
FIFO striping and the scheduler stays work-conserving.

Admission control is modeled on sfctss's
``GreedyShortestDeadlineFirstScheduler``: a low and a high projected-load
threshold. A new flow declaring demand (``Flow.nominal_rate_bps``) is
**rejected** when admitting it would push projected load past the low
threshold; when the already-admitted load alone exceeds the high
threshold (capacity collapsed under the admitted set), the most
recently admitted declared flows are **shed** until load returns below
it. Elastic flows (no declared rate) count zero demand and are always
admitted — deadline scheduling then arbitrates whatever load they
bring. Projected load is measured against the total rate of the
currently-up interfaces the scheduler has observed (the engine wires
:meth:`observe_interface`); with no observed capacity the controller is
inert and admits everything, so the scheduler runs standalone in tests
and conformance harnesses.

The engine consumes verdicts through the optional ``review_admission``
hook and keeps rejected/shed flows parked outside the scheduler.

Like miDRR, activation is event-driven: per-interface active sets are
maintained by ``notify_backlogged``/``add_flow``/drain bookkeeping and
``select`` never rescans the flow table.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SchedulingError
from ..net.flow import Flow
from ..net.packet import Packet
from .base import MultiInterfaceScheduler

_INFINITY = float("inf")


@dataclass(frozen=True)
class AdmissionVerdict:
    """Outcome of one admission review.

    ``action`` is ``"admit"``, ``"reject"`` or ``"shed"`` (the candidate
    was admitted but existing flows had to be evicted to stay under the
    high threshold). ``shed`` lists the evicted flow ids, most recently
    admitted first.
    """

    flow_id: str
    admitted: bool
    action: str
    projected_load: float
    shed: Tuple[str, ...] = ()


class EdfScheduler(MultiInterfaceScheduler):
    """Earliest-deadline-first over willing flows, with low/high AC."""

    def __init__(
        self,
        admission_control_threshold_low: float = 0.8,
        admission_control_threshold_high: float = 1.1,
    ) -> None:
        super().__init__()
        if admission_control_threshold_low <= 0:
            raise ConfigurationError(
                "admission_control_threshold_low must be positive, "
                f"got {admission_control_threshold_low}"
            )
        if not admission_control_threshold_low < admission_control_threshold_high:
            raise ConfigurationError(
                "admission thresholds must satisfy low < high, got "
                f"low={admission_control_threshold_low} "
                f"high={admission_control_threshold_high}"
            )
        self._ac_low = admission_control_threshold_low
        self._ac_high = admission_control_threshold_high
        # Per-interface insertion-ordered sets of backlogged willing
        # flow ids (the EDF candidate pool; order only breaks exact
        # key ties, which (deadline, seqno) makes impossible — it is
        # kept deterministic for snapshot fidelity).
        self._active: Dict[str, "OrderedDict[str, None]"] = {}
        # Declared demand (bits/s) per admitted flow, in admission
        # order — shedding pops from the back (latest admitted first).
        self._declared: "OrderedDict[str, float]" = OrderedDict()
        # Live interfaces for capacity: wired by the engine through
        # observe_interface(); never snapshotted (topology is rebuilt
        # at restore time).
        self._capacity_sources: Dict[str, object] = {}
        # Telemetry (admission gauges; repro.obs samples these).
        self.admissions_total = 0
        self.admission_rejected_total = 0
        self.admission_shed_total = 0
        self.decision_flows_examined: List[int] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def admission_control_threshold_low(self) -> float:
        """Reject new declared-demand flows above this projected load."""
        return self._ac_low

    @property
    def admission_control_threshold_high(self) -> float:
        """Shed admitted flows when load alone exceeds this."""
        return self._ac_high

    def observe_interface(self, interface: object) -> None:
        """Engine hook: read live capacity from *interface* from now on."""
        self._capacity_sources[interface.interface_id] = interface

    def total_capacity_bps(self) -> Optional[float]:
        """Aggregate rate of observed, currently-up interfaces.

        ``None`` when no interface has been observed — admission
        control is then inert (standalone/test use).
        """
        if not self._capacity_sources:
            return None
        return sum(
            interface.rate_bps
            for interface in self._capacity_sources.values()
            if getattr(interface, "up", True)
        )

    def declared_load_bps(self) -> float:
        """Total declared demand of admitted flows (bits/s)."""
        return sum(self._declared.values())

    def projected_load(self) -> float:
        """Current declared load over capacity (0.0 when inert)."""
        capacity = self.total_capacity_bps()
        if not capacity:
            return 0.0
        return self.declared_load_bps() / capacity

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def review_admission(self, flow: Flow) -> AdmissionVerdict:
        """Score *flow* against the low/high thresholds.

        Pure decision: the engine applies the verdict (shedding via
        :meth:`remove_flow`, then :meth:`add_flow` on admit), so demand
        bookkeeping stays in the add/remove hooks.
        """
        capacity = self.total_capacity_bps()
        demand = flow.nominal_rate_bps or 0.0
        if not capacity:
            return AdmissionVerdict(
                flow_id=flow.flow_id,
                admitted=True,
                action="admit",
                projected_load=0.0,
            )
        shed: List[str] = []
        base = self.declared_load_bps()
        # High threshold: the admitted set alone no longer fits (the
        # capacity under it collapsed). Evict latest-admitted declared
        # flows until it does. No bookkeeping is touched here — the
        # engine evicts through remove_flow, which pops the demand.
        if base / capacity > self._ac_high:
            for victim, victim_demand in reversed(list(self._declared.items())):
                if base / capacity <= self._ac_high:
                    break
                shed.append(victim)
                base -= victim_demand
        projected = (base + demand) / capacity
        if demand > 0.0 and projected > self._ac_low:
            self.admission_rejected_total += 1
            self.admission_shed_total += len(shed)
            return AdmissionVerdict(
                flow_id=flow.flow_id,
                admitted=False,
                action="reject",
                projected_load=projected,
                shed=tuple(shed),
            )
        self.admissions_total += 1
        self.admission_shed_total += len(shed)
        return AdmissionVerdict(
            flow_id=flow.flow_id,
            admitted=True,
            action="shed" if shed else "admit",
            projected_load=projected,
            shed=tuple(shed),
        )

    # ------------------------------------------------------------------
    # Topology / flow bookkeeping
    # ------------------------------------------------------------------
    def _on_interface_added(self, interface_id: str) -> None:
        self._active[interface_id] = OrderedDict()
        for flow in self._flows.values():
            if flow.backlogged and flow.willing_to_use(interface_id):
                self._active[interface_id][flow.flow_id] = None

    def _on_flow_added(self, flow: Flow) -> None:
        if flow.nominal_rate_bps:
            self._declared[flow.flow_id] = float(flow.nominal_rate_bps)
        if flow.backlogged:
            self._activate(flow)

    def _on_flow_removed(self, flow: Flow) -> None:
        self._declared.pop(flow.flow_id, None)
        for active in self._active.values():
            active.pop(flow.flow_id, None)

    def _on_backlogged(self, flow: Flow) -> None:
        self._activate(flow)

    def _activate(self, flow: Flow) -> None:
        flow_id = flow.flow_id
        for interface_id in self.willing_interfaces(flow):
            active = self._active[interface_id]
            if flow_id not in active:
                active[flow_id] = None

    def _deactivate(self, flow_id: str) -> None:
        for active in self._active.values():
            active.pop(flow_id, None)

    # ------------------------------------------------------------------
    # The scheduling decision
    # ------------------------------------------------------------------
    def select(self, interface_id: str) -> Optional[Packet]:
        active = self._active.get(interface_id)
        if active is None:
            raise SchedulingError(f"unknown interface {interface_id!r}")
        best_flow: Optional[Flow] = None
        best_key: Tuple[float, int] = (_INFINITY, 0)
        examined = 0
        for flow_id in list(active):
            flow = self._flows.get(flow_id)
            if (
                flow is None
                or not flow.backlogged
                or not flow.willing_to_use(interface_id)
            ):
                # Stale entry (flow gone, drained elsewhere, or its Π
                # changed): drop without serving.
                del active[flow_id]
                continue
            examined += 1
            head = flow.queue.head()
            deadline = head.deadline if head.deadline is not None else _INFINITY
            key = (deadline, head.seqno)
            if best_flow is None or key < best_key:
                best_flow = flow
                best_key = key
        self.decision_flows_examined.append(examined)
        if best_flow is None:
            return None
        packet = best_flow.pull()
        if not best_flow.backlogged:
            self._deactivate(best_flow.flow_id)
        return packet

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        return {
            "config": {
                "ac_low": self._ac_low,
                "ac_high": self._ac_high,
            },
            "active": {
                interface_id: list(active)
                for interface_id, active in self._active.items()
            },
            "declared": [
                [flow_id, demand] for flow_id, demand in self._declared.items()
            ],
            "admissions_total": self.admissions_total,
            "admission_rejected_total": self.admission_rejected_total,
            "admission_shed_total": self.admission_shed_total,
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        config = state["config"]
        mine = {"ac_low": self._ac_low, "ac_high": self._ac_high}
        if config != mine:
            raise SchedulingError(
                f"snapshot EDF config {config!r} does not match {mine!r}"
            )
        self._active = {}
        for interface_id, flow_ids in state["active"].items():
            restored: "OrderedDict[str, None]" = OrderedDict()
            for flow_id in flow_ids:
                restored[flow_id] = None
            self._active[interface_id] = restored
        self._declared = OrderedDict(
            (flow_id, demand) for flow_id, demand in state["declared"]
        )
        self.admissions_total = state["admissions_total"]
        self.admission_rejected_total = state["admission_rejected_total"]
        self.admission_shed_total = state["admission_shed_total"]
        self.decision_flows_examined = []
