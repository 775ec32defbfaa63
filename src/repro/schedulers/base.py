"""Scheduler interfaces.

Two levels exist:

* :class:`SingleInterfaceScheduler` — the classical problem: one output
  link, many flows, answer "which packet next?". DRR, WFQ, RR and FIFO
  implement this.
* :class:`MultiInterfaceScheduler` — the paper's problem: several
  output links, a preference matrix Π and weights φ. miDRR and the
  per-interface baselines implement this. The engine calls
  :meth:`MultiInterfaceScheduler.select` whenever an interface is free.

Both levels operate on shared :class:`~repro.net.flow.Flow` objects;
packets are taken from the flow's queue with :meth:`Flow.pull` so that
traffic sources can refill backlogs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from ..errors import CheckpointError, SchedulingError
from ..net.flow import Flow
from ..net.packet import Packet


class SingleInterfaceScheduler(ABC):
    """Chooses the next packet for one output link."""

    def __init__(self) -> None:
        self._flows: Dict[str, Flow] = {}

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        """Start scheduling *flow*. Idempotent for the same object."""
        existing = self._flows.get(flow.flow_id)
        if existing is flow:
            return
        if existing is not None:
            raise SchedulingError(
                f"a different Flow object with id {flow.flow_id!r} is registered"
            )
        self._flows[flow.flow_id] = flow
        self._on_flow_added(flow)

    def remove_flow(self, flow_id: str) -> None:
        """Stop scheduling *flow_id* (flow ended or policy changed)."""
        flow = self._flows.pop(flow_id, None)
        if flow is not None:
            self._on_flow_removed(flow)

    def flows(self) -> List[Flow]:
        """Registered flows in registration order."""
        return list(self._flows.values())

    def has_flow(self, flow_id: str) -> bool:
        """Whether *flow_id* is registered."""
        return flow_id in self._flows

    def notify_backlogged(self, flow: Flow) -> None:
        """Tell the scheduler *flow* just went from empty to backlogged."""
        if flow.flow_id in self._flows:
            self._on_backlogged(flow)

    # Subclass hooks ----------------------------------------------------
    def _on_flow_added(self, flow: Flow) -> None:
        """Per-scheduler bookkeeping for a new flow."""

    def _on_flow_removed(self, flow: Flow) -> None:
        """Per-scheduler bookkeeping for a departed flow."""

    def _on_backlogged(self, flow: Flow) -> None:
        """Per-scheduler bookkeeping for an empty→backlogged transition."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Serialize this scheduler's mutable state to a JSON-safe dict.

        The snapshot never holds object references — flows appear as
        ids, to be resolved by :meth:`restore_state` against the flow
        table of the run being restored into.
        """
        return {
            "kind": type(self).__name__,
            "flow_order": list(self._flows),
            "state": self._snapshot_state(),
        }

    def restore_state(
        self, snapshot: Dict[str, object], flows: Dict[str, Flow]
    ) -> None:
        """Overwrite this scheduler's mutable state from *snapshot*.

        The scheduler must already be wired the way the snapshotted one
        was at build time (flows added through :meth:`add_flow`, so any
        listener registration has happened); this replaces membership
        and per-flow bookkeeping wholesale.
        """
        kind = snapshot.get("kind")
        if kind != type(self).__name__:
            raise CheckpointError(
                f"snapshot is for scheduler kind {kind!r}, "
                f"not {type(self).__name__!r}"
            )
        self._flows = {}
        for flow_id in snapshot["flow_order"]:
            flow = flows.get(flow_id)
            if flow is None:
                raise CheckpointError(
                    f"snapshot references unknown flow {flow_id!r}"
                )
            self._flows[flow_id] = flow
        self._restore_state(snapshot["state"])

    # Subclass hooks ----------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        """Per-scheduler mutable state as a JSON-safe dict."""
        return {}

    def _restore_state(self, state: Dict[str, object]) -> None:
        """Overwrite per-scheduler state from :meth:`_snapshot_state`."""

    # ------------------------------------------------------------------
    # The scheduling decision
    # ------------------------------------------------------------------
    @abstractmethod
    def next_packet(self) -> Optional[Packet]:
        """Return the next packet to transmit, or ``None`` to idle.

        Must be work-conserving: only return ``None`` when no
        registered flow is backlogged.
        """


class MultiInterfaceScheduler(ABC):
    """Chooses the next packet for each of several output links."""

    def __init__(self) -> None:
        self._flows: Dict[str, Flow] = {}
        self._interface_ids: List[str] = []
        # Willing-interface index: flow_id -> ((prefs_version,
        # topology_version), willing tuple in registration order).
        # Validated lazily so a direct Flow.restrict_to() — with no
        # notification — can never serve a stale set.
        self._topology_version = 0
        self._willing_cache: Dict[str, Tuple[Tuple[int, int], Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register_interface(self, interface_id: str) -> None:
        """Declare an output link. Must precede ``select`` for it."""
        if interface_id in self._interface_ids:
            raise SchedulingError(f"interface {interface_id!r} already registered")
        self._interface_ids.append(interface_id)
        self._topology_version += 1
        self._on_interface_added(interface_id)

    def interface_ids(self) -> List[str]:
        """Registered interfaces, in registration order."""
        return list(self._interface_ids)

    def willing_interfaces(self, flow: Flow) -> Tuple[str, ...]:
        """The interfaces *flow* is willing to use, in registration order.

        This is the precomputed ``Π_i`` row every hot-path loop iterates
        instead of testing ``willing_to_use`` against each registered
        interface. The tuple is cached per flow and revalidated against
        ``Flow.prefs_version`` and the scheduler's topology version, so
        preference edits and late interface registration invalidate it
        without any explicit notification.
        """
        version = (flow.prefs_version, self._topology_version)
        cached = self._willing_cache.get(flow.flow_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        willing = tuple(
            interface_id
            for interface_id in self._interface_ids
            if flow.willing_to_use(interface_id)
        )
        self._willing_cache[flow.flow_id] = (version, willing)
        return willing

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        """Start scheduling *flow* on its willing interfaces."""
        existing = self._flows.get(flow.flow_id)
        if existing is flow:
            return
        if existing is not None:
            raise SchedulingError(
                f"a different Flow object with id {flow.flow_id!r} is registered"
            )
        if not self.willing_interfaces(flow):
            del self._willing_cache[flow.flow_id]
            raise SchedulingError(
                f"flow {flow.flow_id!r} is unwilling to use every registered "
                "interface; it could never be served"
            )
        self._flows[flow.flow_id] = flow
        self._on_flow_added(flow)

    def remove_flow(self, flow_id: str) -> None:
        """Stop scheduling *flow_id*."""
        flow = self._flows.pop(flow_id, None)
        if flow is not None:
            self._willing_cache.pop(flow_id, None)
            self._on_flow_removed(flow)

    def flows(self) -> List[Flow]:
        """Registered flows in registration order."""
        return list(self._flows.values())

    def has_flow(self, flow_id: str) -> bool:
        """Whether *flow_id* is registered."""
        return flow_id in self._flows

    def notify_backlogged(self, flow: Flow) -> None:
        """Tell the scheduler *flow* just went from empty to backlogged.

        This call is the activation contract, not a hint: schedulers
        keep event-driven active sets and do **not** rescan the flow
        table per decision, so a registered flow that re-backlogs
        without this notification stays invisible to ``select`` until
        the next add/notify touches it. The engine emits it on every
        empty→backlogged arrival; direct users (benchmarks, tests) must
        do the same after offering packets to a drained flow.
        """
        if flow.flow_id in self._flows:
            self._on_backlogged(flow)

    # Subclass hooks ----------------------------------------------------
    def _on_interface_added(self, interface_id: str) -> None:
        """Per-scheduler bookkeeping for a new interface."""

    def _on_flow_added(self, flow: Flow) -> None:
        """Per-scheduler bookkeeping for a new flow."""

    def _on_flow_removed(self, flow: Flow) -> None:
        """Per-scheduler bookkeeping for a departed flow."""

    def _on_backlogged(self, flow: Flow) -> None:
        """Per-scheduler bookkeeping for an empty→backlogged transition."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Serialize this scheduler's mutable state to a JSON-safe dict.

        Flows are recorded by id and resolved at restore time; the
        willing-interface cache is deliberately absent (it is a pure
        cache, rebuilt lazily from ``prefs_version``/topology).
        """
        return {
            "kind": type(self).__name__,
            "interfaces": list(self._interface_ids),
            "flow_order": list(self._flows),
            "state": self._snapshot_state(),
        }

    def restore_state(
        self, snapshot: Dict[str, object], flows: Dict[str, Flow]
    ) -> None:
        """Overwrite this scheduler's mutable state from *snapshot*.

        The scheduler must already have the snapshot's interfaces
        registered (in the same order) — restore rebuilds run state,
        not topology.
        """
        kind = snapshot.get("kind")
        if kind != type(self).__name__:
            raise CheckpointError(
                f"snapshot is for scheduler kind {kind!r}, "
                f"not {type(self).__name__!r}"
            )
        if list(snapshot["interfaces"]) != self._interface_ids:
            raise CheckpointError(
                f"snapshot interfaces {snapshot['interfaces']!r} do not "
                f"match registered interfaces {self._interface_ids!r}"
            )
        self._flows = {}
        for flow_id in snapshot["flow_order"]:
            flow = flows.get(flow_id)
            if flow is None:
                raise CheckpointError(
                    f"snapshot references unknown flow {flow_id!r}"
                )
            self._flows[flow_id] = flow
        self._willing_cache.clear()
        self._restore_state(snapshot["state"])

    # Subclass hooks ----------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        """Per-scheduler mutable state as a JSON-safe dict."""
        return {}

    def _restore_state(self, state: Dict[str, object]) -> None:
        """Overwrite per-scheduler state from :meth:`_snapshot_state`."""

    # ------------------------------------------------------------------
    # The scheduling decision
    # ------------------------------------------------------------------
    @abstractmethod
    def select(self, interface_id: str) -> Optional[Packet]:
        """Pick the next packet for *interface_id*, or ``None`` to idle.

        Must respect Π (never return a packet of an unwilling flow) and
        be work-conserving per interface.
        """
