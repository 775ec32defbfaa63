"""Naive multi-interface baselines.

These reproduce the schedulers the paper shows are *insufficient*:

* :class:`PerInterfaceScheduler` — run an independent single-interface
  scheduler (WFQ or DRR) on every interface over the shared backlogs of
  all willing flows. This is "prior work": it meets interface
  preferences and is work-conserving, but fails rate preferences — in
  Figure 1(c) it gives flow *a* 1.5 Mb/s and flow *b* 0.5 Mb/s instead
  of the max-min fair (1, 1).
* :class:`StaticSplitScheduler` — pin each flow to exactly one willing
  interface (weighted-least-loaded at admission) and run DRR per
  interface. Simple, but wastes capacity and cannot aggregate
  bandwidth across interfaces.

Both schedulers derive inner-scheduler membership from Π, so a live
preference edit (``Flow.restrict_to``) must reach them: the follow-up
:meth:`~repro.schedulers.base.MultiInterfaceScheduler.notify_preferences_changed`
(which the engine makes from its own) re-syncs the flow's membership
at once. A flow restricted away from an interface leaves that inner
scheduler before the next decision (Π respect); a flow widened onto a
new interface joins it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from ..errors import SchedulingError
from ..net.flow import Flow
from ..net.packet import Packet
from .base import MultiInterfaceScheduler, SingleInterfaceScheduler
from .drr import DrrScheduler
from .wfq import WfqScheduler

#: Factory producing one fresh single-interface scheduler per interface.
SchedulerFactory = Callable[[], SingleInterfaceScheduler]


class PerInterfaceScheduler(MultiInterfaceScheduler):
    """Independent single-interface schedulers over shared backlogs."""

    def __init__(self, factory: SchedulerFactory) -> None:
        super().__init__()
        self._factory = factory
        self._inner: Dict[str, SingleInterfaceScheduler] = {}
        # Applied membership per flow: which inners currently hold it.
        self._member: Dict[str, Set[str]] = {}

    @classmethod
    def wfq(cls) -> "PerInterfaceScheduler":
        """The paper's per-interface WFQ baseline."""
        return cls(WfqScheduler)

    @classmethod
    def drr(cls, quantum_base: int = 1500) -> "PerInterfaceScheduler":
        """The paper's "naive DRR on each interface" baseline."""
        return cls(lambda: DrrScheduler(quantum_base=quantum_base))

    @classmethod
    def fifo(cls) -> "PerInterfaceScheduler":
        """Aggregate FIFO striping: no fairness machinery at all.

        Whichever interface frees up first takes the globally oldest
        eligible packet — the behaviour of naive packet striping (a
        pull-side join-shortest-queue). Π still holds (unwilling
        interfaces never see the flow), but heavy flows crowd out light
        ones entirely; the conformance battery shows what that costs.
        """
        from .fifo import FifoScheduler

        return cls(FifoScheduler)

    def _on_interface_added(self, interface_id: str) -> None:
        self._inner[interface_id] = self._factory()
        # Flows added before this interface appeared join it now.
        for flow in self._flows.values():
            if flow.willing_to_use(interface_id):
                self._inner[interface_id].add_flow(flow)
                self._member[flow.flow_id].add(interface_id)

    def _on_flow_added(self, flow: Flow) -> None:
        member: Set[str] = set()
        for interface_id in self.willing_interfaces(flow):
            self._inner[interface_id].add_flow(flow)
            member.add(interface_id)
        self._member[flow.flow_id] = member

    def _on_flow_removed(self, flow: Flow) -> None:
        for inner in self._inner.values():
            inner.remove_flow(flow.flow_id)
        self._member.pop(flow.flow_id, None)

    def _on_prefs_changed(self, flow: Flow) -> None:
        """Reconcile inner membership with the flow's current Π row."""
        willing = set(self.willing_interfaces(flow))
        member = self._member[flow.flow_id]
        for interface_id in member - willing:
            self._inner[interface_id].remove_flow(flow.flow_id)
        for interface_id in willing - member:
            inner = self._inner[interface_id]
            inner.add_flow(flow)
            if flow.backlogged:
                inner.notify_backlogged(flow)
        self._member[flow.flow_id] = willing

    def _on_backlogged(self, flow: Flow) -> None:
        for interface_id in self._member.get(flow.flow_id, ()):
            self._inner[interface_id].notify_backlogged(flow)

    def select(self, interface_id: str) -> Optional[Packet]:
        inner = self._inner.get(interface_id)
        if inner is None:
            raise SchedulingError(f"unknown interface {interface_id!r}")
        return inner.next_packet()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        return {
            "inner": {
                interface_id: inner.snapshot_state()
                for interface_id, inner in self._inner.items()
            }
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        for interface_id, snapshot in state["inner"].items():
            inner = self._inner.get(interface_id)
            if inner is None:
                raise SchedulingError(
                    f"snapshot references unknown interface {interface_id!r}"
                )
            inner.restore_state(snapshot, self._flows)
        self._member = {
            flow_id: {
                interface_id
                for interface_id, inner in self._inner.items()
                if inner.has_flow(flow_id)
            }
            for flow_id in self._flows
        }


class StaticSplitScheduler(MultiInterfaceScheduler):
    """Pin each flow to one willing interface; DRR per interface.

    Assignment picks the willing interface with the smallest total
    pinned weight (ties broken by registration order), a reasonable
    admission-time heuristic a mobile OS might use.

    Pin-once contract: assignment happens **at admission only**. An
    interface registered after a flow was admitted is never considered
    for that flow retroactively — it starts at zero pinned weight and
    therefore wins the next admission (asserted in
    :meth:`_on_interface_added`); this wasted-capacity behaviour is
    exactly what the conformance battery shows static splitting costs.
    The single exception is a live preference edit that removes the
    pinned interface from the flow's Π row: serving on would violate Π,
    so the flow is re-pinned among its new willing set as if it were a
    fresh admission.
    """

    def __init__(self, quantum_base: int = 1500) -> None:
        super().__init__()
        self._quantum_base = quantum_base
        self._inner: Dict[str, DrrScheduler] = {}
        self._pinned_weight: Dict[str, float] = {}
        self._assignment: Dict[str, str] = {}
        # The weight each flow was pinned with: unpinning releases
        # exactly that, whatever φ edits came since.
        self._pinned_with: Dict[str, float] = {}

    @property
    def assignment(self) -> Dict[str, str]:
        """Current flow → interface pinning."""
        return dict(self._assignment)

    def _on_interface_added(self, interface_id: str) -> None:
        self._inner[interface_id] = DrrScheduler(quantum_base=self._quantum_base)
        # Pin-once: existing flows keep their assignment. The new
        # interface joins the admission pool at zero pinned weight, so
        # it is the least-loaded candidate for the *next* admission.
        assert interface_id not in self._pinned_weight
        self._pinned_weight[interface_id] = 0.0

    def _pin(self, flow: Flow) -> None:
        willing = self.willing_interfaces(flow)
        target = min(willing, key=lambda j: self._pinned_weight[j])
        self._assignment[flow.flow_id] = target
        self._pinned_with[flow.flow_id] = flow.weight
        self._pinned_weight[target] += flow.weight
        self._inner[target].add_flow(flow)
        if flow.backlogged:
            self._inner[target].notify_backlogged(flow)

    def _unpin(self, flow: Flow) -> None:
        target = self._assignment.pop(flow.flow_id, None)
        if target is not None:
            self._pinned_weight[target] -= self._pinned_with.pop(flow.flow_id)
            self._inner[target].remove_flow(flow.flow_id)

    def _on_flow_added(self, flow: Flow) -> None:
        self._pin(flow)

    def _on_flow_removed(self, flow: Flow) -> None:
        self._unpin(flow)

    def _on_prefs_changed(self, flow: Flow) -> None:
        """Re-pin only when the pinned interface left the flow's Π row."""
        target = self._assignment.get(flow.flow_id)
        if target is not None and flow.willing_to_use(target):
            return
        self._unpin(flow)
        self._pin(flow)

    def _on_backlogged(self, flow: Flow) -> None:
        target = self._assignment.get(flow.flow_id)
        if target is not None:
            self._inner[target].notify_backlogged(flow)

    def select(self, interface_id: str) -> Optional[Packet]:
        inner = self._inner.get(interface_id)
        if inner is None:
            raise SchedulingError(f"unknown interface {interface_id!r}")
        return inner.next_packet()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        return {
            "pinned_weight": dict(self._pinned_weight),
            "assignment": dict(self._assignment),
            "pinned_with": dict(self._pinned_with),
            "inner": {
                interface_id: inner.snapshot_state()
                for interface_id, inner in self._inner.items()
            },
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        self._pinned_weight = dict(state["pinned_weight"])
        self._assignment = dict(state["assignment"])
        self._pinned_with = dict(state["pinned_with"])
        for interface_id, snapshot in state["inner"].items():
            inner = self._inner.get(interface_id)
            if inner is None:
                raise SchedulingError(
                    f"snapshot references unknown interface {interface_id!r}"
                )
            inner.restore_state(snapshot, self._flows)
