"""The scheduling engine.

:class:`SchedulingEngine` plays the role of the paper's Linux kernel
bridge (Figure 3): it owns the set of interfaces and flows, binds a
:class:`~repro.schedulers.base.MultiInterfaceScheduler` to the
interfaces' "I am free, which packet?" callbacks, wakes idle interfaces
when traffic arrives, accounts transmitted packets to their flows, and
retires flows whose transfers complete.

The engine is scheduler-agnostic: miDRR and every baseline run under
the identical harness, so measured differences are attributable to the
algorithm alone.

Graceful degradation (chaos runs, ``docs/fault_model.md``): when every
interface in a flow's Π-set goes down, the flow is **quarantined** —
removed from the scheduler so it accrues no deficit and burns no
scheduler cycles, while its backlog and identity are retained. The
moment any willing interface comes back the flow is resumed with fresh
DRR state (zero deficit, clear service flags) and the recovered
interface is kicked, so reconvergence to the weighted max-min share
starts immediately.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple

from ..errors import CheckpointError, ConfigurationError, SchedulingError
from ..net.flow import Flow
from ..net.interface import Interface
from ..net.packet import Packet
from ..net.sink import DRAIN_CHUNK, SAMPLE_WIDTH, StatsCollector
from ..schedulers.base import MultiInterfaceScheduler
from ..sim.simulator import Simulator


class ExhaustibleSource(Protocol):
    """Anything with an ``exhausted`` flag (e.g. ``BulkSource``)."""

    @property
    def exhausted(self) -> bool:  # pragma: no cover - protocol
        ...


class SchedulingEngine:
    """Wires flows, interfaces and a multi-interface scheduler together."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: MultiInterfaceScheduler,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self._sim = sim
        self._scheduler = scheduler
        self._interfaces: Dict[str, Interface] = {}
        self._flows: Dict[str, Flow] = {}
        self._sources: Dict[str, ExhaustibleSource] = {}
        self._quarantined: Dict[str, Flow] = {}
        # Flows turned away (or evicted) by the scheduler's admission
        # controller. Like quarantine they stay registered — identity
        # and backlog retained — but are never offered to the scheduler.
        self._shed: Dict[str, Flow] = {}
        self.admission_rejected_total = 0
        self.admission_shed_total = 0
        # Deadline-miss accounting: every transmitted packet carrying a
        # deadline is scored against the clock at send completion.
        self.deadline_packets_total = 0
        self.deadline_misses_total = 0
        self.deadline_misses_by_flow: Dict[str, int] = {}
        self._deadline_listeners: List[
            Callable[[Flow, Packet, float], None]
        ] = []
        # Willing-interface index: flow_id -> willing Interface objects
        # in registration order. Mirrors the scheduler-side index so
        # every hot kick / quarantine check walks |Π_i| interfaces
        # instead of all of them. A row is dropped on every Π edit
        # (notify_preferences_changed) and the whole index on every
        # add_interface.
        self._willing_cache: Dict[str, Tuple[Interface, ...]] = {}
        self._completion_listeners: List[Callable[[Flow], None]] = []
        self._quarantine_listeners: List[Callable[[Flow, bool], None]] = []
        #: The regime journal: append-only, time-ordered
        #: ``(time, kind, subject, value)`` entries, in JSON-native
        #: values, written at each chokepoint that can edit the weighted
        #: max-min instance. Kinds: ``"capacity"`` (interface rate while
        #: up, 0 while down), ``"flow"`` (``(weight, sorted Π row or
        #: None, shed)``) and ``"remove"``. Quarantine is no kind of its
        #: own: the fluid model already sees it as zero capacity.
        #: Readers (the fairness auditor) keep a cursor into it and diff
        #: each entry against what they hold, so one that changes
        #: nothing (a rate step while down) is harmless.
        self.regimes: List[Tuple[float, str, str, object]] = []
        # Optional select() wrapper installed by the telemetry layer
        # (decision-latency sampling). None keeps the supply path at a
        # single attribute check, so uninstrumented runs pay nothing.
        self._decision_probe: Optional[
            Callable[[Interface], Optional[Packet]]
        ] = None
        self._probe_stride = 1
        self._probe_countdown = 1
        self.stats = stats if stats is not None else StatsCollector(sim)
        # The sent handler records each service sample by extending the
        # collector's flat pending log by its five fields, without a
        # Python-level call, and drains that log into the collector's
        # columns every DRAIN_CHUNK samples.
        self._pending = self.stats.pending
        self._log_sample = self._pending.extend

    @property
    def scheduler(self) -> MultiInterfaceScheduler:
        """The bound scheduler (for telemetry such as Figure 9 counts)."""
        return self._scheduler

    @property
    def sim(self) -> Simulator:
        """The simulator this engine schedules on (telemetry access)."""
        return self._sim

    @property
    def interfaces(self) -> Dict[str, Interface]:
        """Registered interfaces by id."""
        return dict(self._interfaces)

    @property
    def flows(self) -> Dict[str, Flow]:
        """Currently active flows by id (includes quarantined flows)."""
        return dict(self._flows)

    @property
    def quarantined_flows(self) -> Dict[str, Flow]:
        """Flows currently parked because their whole Π-set is down."""
        return dict(self._quarantined)

    @property
    def num_flows(self) -> int:
        """Active flow count — O(1), unlike ``len(engine.flows)``,
        which copies the table (telemetry reads this every snapshot)."""
        return len(self._flows)

    @property
    def num_quarantined(self) -> int:
        """Quarantined flow count — O(1) (see :attr:`num_flows`)."""
        return len(self._quarantined)

    @property
    def shed_flows(self) -> Dict[str, Flow]:
        """Flows currently excluded by admission control."""
        return dict(self._shed)

    @property
    def num_shed(self) -> int:
        """Admission-excluded flow count — O(1) (see :attr:`num_flows`)."""
        return len(self._shed)

    def iter_flows(self) -> Iterable[Flow]:
        """A live, copy-free view of the active flows.

        For read-only traversal (telemetry sampling); do not add or
        remove flows while iterating.
        """
        return self._flows.values()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_interface(self, interface: Interface) -> None:
        """Register an output interface and bind the scheduler to it."""
        if interface.interface_id in self._interfaces:
            raise ConfigurationError(
                f"interface {interface.interface_id!r} already registered"
            )
        self._interfaces[interface.interface_id] = interface
        # Distinct per-interface event priority for the transmission
        # chain: simultaneous completions on different interfaces
        # resolve by registration order — a property of the scenario,
        # not of event-creation history. Events outside the chain keep
        # priority 0 and fire first at a tied instant.
        interface.tx_priority = len(self._interfaces)
        self._willing_cache.clear()
        self._scheduler.register_interface(interface.interface_id)
        interface.attach_source(self._supply_packet)
        interface.on_sent(self._packet_sent)
        interface.on_consumed(self._packet_consumed)
        interface.on_state_change(self._interface_state_changed)
        interface.on_rate_change(self._journal_capacity)
        self._journal_capacity(interface)
        # Capacity-aware schedulers (EDF admission control, QAware
        # steering) read live interface rates through this optional
        # hook; schedulers without it stay capacity-blind.
        observe = getattr(self._scheduler, "observe_interface", None)
        if observe is not None:
            observe(interface)
        # Quarantined flows whose Π row names the new interface have a
        # path again.
        if interface.up:
            self._resume_willing(interface)

    def add_flow(self, flow: Flow, source: Optional[object] = None) -> None:
        """Register a flow; *source* (if any) drives auto-completion.

        When *source* exposes ``exhausted`` and the flow's backlog
        drains with the source exhausted, the flow is marked completed
        and removed from the scheduler — reproducing the paper's
        "flow a completed after 66 s" dynamics.

        A flow added while its entire Π-set is down goes straight into
        quarantine instead of the scheduler.
        """
        if flow.flow_id in self._flows:
            raise ConfigurationError(f"flow {flow.flow_id!r} already registered")
        # Refused before any state changes: the flow's listeners, once
        # hooked, could not be taken back.
        if not any(map(flow.willing_to_use, self._interfaces)):
            raise SchedulingError(
                f"flow {flow.flow_id!r} is unwilling to use every registered "
                "interface; it could never be served"
            )
        self._flows[flow.flow_id] = flow
        if source is not None and hasattr(source, "exhausted"):
            # Open-loop sources (CBR, Poisson, on/off, trace) never run
            # dry, so their flows never auto-complete.
            self._sources[flow.flow_id] = source
        flow.on_backlogged(self._flow_backlogged)
        flow.on_drop(self._packet_dropped)
        # Journaled before the quarantine/admission branches: the fluid
        # instance holds every flow the engine knows about, parked ones
        # at rate 0 included.
        self._journal_flow(flow)
        if not self._any_willing_interface_up(flow):
            # The whole Π-set is dark right now: park the flow instead
            # of handing the scheduler a flow it can never serve.
            self._enter_quarantine(flow)
            return
        review = getattr(self._scheduler, "review_admission", None)
        if review is not None:
            verdict = review(flow)
            for shed_id in getattr(verdict, "shed", ()):
                self._apply_shed(shed_id)
            if not verdict.admitted:
                self._shed[flow.flow_id] = flow
                self.admission_rejected_total += 1
                self._journal_flow(flow)
                return
        self._scheduler.add_flow(flow)
        if flow.backlogged:
            self._scheduler.notify_backlogged(flow)
            self._kick_willing(flow)

    def remove_flow(self, flow_id: str) -> None:
        """Deregister a flow (policy change or completion)."""
        flow = self._flows.pop(flow_id, None)
        self._sources.pop(flow_id, None)
        self._quarantined.pop(flow_id, None)
        was_shed = self._shed.pop(flow_id, None) is not None
        self._willing_cache.pop(flow_id, None)
        if flow is not None and not was_shed:
            self._scheduler.remove_flow(flow_id)
        if flow is not None:
            self.regimes.append((self._sim.now, "remove", flow_id, None))

    def on_flow_completed(self, listener: Callable[[Flow], None]) -> None:
        """Register a callback fired when a flow's transfer finishes."""
        self._completion_listeners.append(listener)

    def on_quarantine_change(self, listener: Callable[[Flow, bool], None]) -> None:
        """Register ``listener(flow, quarantined)`` for degradation events.

        Fired with ``True`` when a flow enters quarantine (its whole
        Π-set went down) and ``False`` when it resumes.
        """
        self._quarantine_listeners.append(listener)

    def on_deadline_miss(
        self, listener: Callable[[Flow, Packet, float], None]
    ) -> None:
        """Register ``listener(flow, packet, lateness)`` for SLO misses.

        Fired from send-completion accounting whenever a packet with a
        deadline finishes transmission after it; ``lateness`` is the
        overshoot in seconds. The obs layer feeds its p99 miss-latency
        sketch from here.
        """
        self._deadline_listeners.append(listener)

    def clear_listeners(self) -> None:
        """Drop every callback registered on the engine and the
        decision probe (see :meth:`Flow.clear_listeners
        <repro.net.flow.Flow.clear_listeners>`)."""
        self._decision_probe = None
        for listeners in (
            self._completion_listeners,
            self._quarantine_listeners,
            self._deadline_listeners,
        ):
            listeners.clear()

    def _apply_shed(self, flow_id: str) -> None:
        """Evict an admitted flow on the scheduler's shed verdict."""
        flow = self._flows.get(flow_id)
        if flow is None or flow_id in self._shed:
            return
        if flow_id in self._quarantined:
            # Quarantined flows are already out of the scheduler; shed
            # status supersedes quarantine so they stay excluded even
            # when their Π-set comes back.
            self._quarantined.pop(flow_id, None)
        else:
            self._scheduler.remove_flow(flow_id)
        self._shed[flow_id] = flow
        self.admission_shed_total += 1
        self._journal_flow(flow)

    def _journal_flow(self, flow: Flow) -> None:
        row = flow.allowed_interfaces
        row = sorted(row) if row is not None else None
        value = (flow.weight, row, flow.flow_id in self._shed)
        self.regimes.append((self._sim.now, "flow", flow.flow_id, value))

    def _journal_capacity(self, interface: Interface, *_: object) -> None:
        capacity = interface.rate_bps if interface.up else 0.0
        entry = (self._sim.now, "capacity", interface.interface_id, capacity)
        self.regimes.append(entry)

    # ------------------------------------------------------------------
    # Graceful degradation under interface churn
    # ------------------------------------------------------------------
    def _willing_interfaces(self, flow: Flow) -> Tuple[Interface, ...]:
        """Cached ``Π_i`` row as Interface objects (registration order)."""
        willing = self._willing_cache.get(flow.flow_id)
        if willing is None:
            willing = self._willing_cache[flow.flow_id] = tuple(
                interface
                for interface in self._interfaces.values()
                if flow.willing_to_use(interface.interface_id)
            )
        return willing

    def _any_willing_interface_up(self, flow: Flow) -> bool:
        return any(interface.up for interface in self._willing_interfaces(flow))

    def _enter_quarantine(self, flow: Flow) -> None:
        if flow.flow_id in self._quarantined:
            return
        self._quarantined[flow.flow_id] = flow
        # Out of the scheduler: no deficit accrual, no flag churn, no
        # wasted skip scans while the flow cannot possibly be served.
        self._scheduler.remove_flow(flow.flow_id)
        for listener in self._quarantine_listeners:
            listener(flow, True)

    def _resume_from_quarantine(self, flow: Flow) -> None:
        if self._quarantined.pop(flow.flow_id, None) is None:
            return
        # Re-adding yields fresh DRR state: zero deficits, clear flags
        # ("service flags for new flows are initiated at zero", Table 1).
        self._scheduler.add_flow(flow)
        if flow.backlogged:
            self._scheduler.notify_backlogged(flow)
            self._kick_willing(flow)
        for listener in self._quarantine_listeners:
            listener(flow, False)

    def _resume_willing(self, interface: Interface) -> None:
        """Resume every quarantined flow willing to use *interface*."""
        for flow in list(self._quarantined.values()):
            if flow.willing_to_use(interface.interface_id):
                self._resume_from_quarantine(flow)

    def notify_preferences_changed(self, flow_id: str) -> None:
        """Re-evaluate a flow after a live Π/φ edit (preference churn).

        Every φ/Π edit of a registered flow must pass through here: a
        write to :class:`~repro.net.flow.Flow` has no listener of its
        own, and this is the one path that refreshes what is derived
        from Π (the engine's and the scheduler's willing-interface
        rows, the scheduler's per-interface membership) and where the
        edit enters the regime journal. Quarantines the flow if its new
        Π-set is entirely down, resumes it if the edit re-opened a
        path, and otherwise wakes the interfaces that just became
        usable.
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            return
        self._journal_flow(flow)
        self._willing_cache.pop(flow_id, None)
        if flow_id in self._shed:
            return
        alive = self._any_willing_interface_up(flow)
        if flow_id in self._quarantined:
            if alive:
                self._resume_from_quarantine(flow)
            return
        if not alive:
            self._enter_quarantine(flow)
            return
        # Only a flow the scheduler keeps needs its Π-derived state
        # refreshed: a quarantined or shed one is rebuilt afresh when
        # it is added back.
        self._scheduler.notify_preferences_changed(flow)
        self._scheduler.notify_backlogged(flow)
        self._kick_willing(flow)

    def _interface_state_changed(self, interface: Interface, is_up: bool) -> None:
        self._journal_capacity(interface)
        if is_up:
            self._resume_willing(interface)
            return
        for flow in list(self._flows.values()):
            if flow.flow_id in self._quarantined or flow.flow_id in self._shed:
                continue
            if not self._any_willing_interface_up(flow):
                self._enter_quarantine(flow)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def set_decision_probe(
        self,
        probe: Optional[Callable[[Interface], Optional[Packet]]],
        every: int = 1,
    ) -> None:
        """Install (or clear, with ``None``) a ``select()`` wrapper.

        Every ``every``-th decision is routed through the probe: it
        receives the asking interface and must return the scheduler's
        decision — typically by calling
        ``engine.scheduler.select(interface.interface_id)`` itself,
        timing or counting around it. Off-cycle decisions go straight
        to the scheduler and pay only an integer countdown, so a
        sampling probe adds no Python frame to the common case.
        ``repro.obs`` uses this for sampled decision-latency
        measurement; the probe must not change *which* packet is
        selected.
        """
        if probe is not None and every <= 0:
            raise ConfigurationError(
                f"probe stride must be positive, got {every}"
            )
        self._decision_probe = probe
        self._probe_stride = every
        self._probe_countdown = every

    def _supply_packet(self, interface: Interface) -> Optional[Packet]:
        if self._decision_probe is not None:
            self._probe_countdown -= 1
            if self._probe_countdown <= 0:
                self._probe_countdown = self._probe_stride
                return self._decision_probe(interface)
        return self._scheduler.select(interface.interface_id)

    def _flow_backlogged(self, flow: Flow) -> None:
        # Only the empty → backlogged transition wakes anyone; the flow
        # fires this listener for no other arrival, so an
        # always-backlogged flow's refills make no call here.
        flow_id = flow.flow_id
        if flow_id not in self._flows:
            return
        if flow_id in self._shed:
            # Excluded by admission control: the backlog accrues (and
            # may drop) but the scheduler never hears about it.
            return
        if flow_id in self._quarantined:
            # Parked: keep the backlog but wake nobody — every willing
            # interface is down anyway.
            return
        # Tell the scheduler, then wake any idle interface this flow is
        # willing to use. The kick is deferred to the current instant to
        # break the refill → arrival → kick → pull → refill recursion.
        self._scheduler.notify_backlogged(flow)
        self._sim.call_now(self._kick_willing, flow)

    def _packet_dropped(self, flow: Flow, packet: Packet) -> None:
        if flow.flow_id in self._flows:
            self.stats.record_drop(flow.flow_id, packet.size_bytes)

    def _kick_willing(self, flow: Flow) -> None:
        # Only up, idle interfaces: kick() no-ops on a down or busy
        # interface anyway, so filtering here is behaviour-preserving
        # and saves the call.
        for interface in self._willing_interfaces(flow):
            if interface.up and not interface.busy:
                interface.kick()

    def _packet_sent(self, interface: Interface, packet: Packet) -> None:
        """The per-packet subscriber: account one delivered packet.

        In order: the flow's service counters, deadline scoring and the
        completion test, then the stats sample. Completion listeners
        thus see the stats as they stood before this packet. The
        completion test reads the backlog first, so an always-backlogged
        flow never asks its source whether it is exhausted. Packets of
        flows no longer registered (completed or removed with a packet
        in flight) still get their sample.
        """
        now = self._sim._now
        flow_id = packet.flow_id
        size = packet.size_bytes
        flow = self._flows.get(flow_id)
        if flow is not None:
            flow.bytes_sent += size
            flow.packets_sent += 1
            deadline = packet.deadline
            if deadline is not None:
                self.deadline_packets_total += 1
                if now > deadline:
                    self.deadline_misses_total += 1
                    misses = self.deadline_misses_by_flow
                    misses[flow_id] = misses.get(flow_id, 0) + 1
                    lateness = now - deadline
                    for listener in self._deadline_listeners:
                        listener(flow, packet, lateness)
            if not flow.queue.packets and flow.completed_at is None:
                self._complete_if_exhausted(flow)
        # The tuple is freed as soon as the list has copied its fields:
        # nothing allocated here outlives the packet.
        self._log_sample(
            (now, flow_id, interface.interface_id, size, now - packet.created_at)
        )
        if len(self._pending) >= DRAIN_CHUNK * SAMPLE_WIDTH:
            self.stats.drain()

    def _packet_consumed(self, interface: Interface, packet: Packet) -> None:
        """An egress filter ate a finished transmission: no service is
        accounted, but it may have been the transfer's last packet."""
        flow = self._flows.get(packet.flow_id)
        if (
            flow is not None
            and not flow.queue.packets
            and flow.completed_at is None
        ):
            self._complete_if_exhausted(flow)

    def _complete_if_exhausted(self, flow: Flow) -> None:
        source = self._sources.get(flow.flow_id)
        if source is not None and source.exhausted:
            self._complete_flow(flow)

    def _complete_flow(self, flow: Flow) -> None:
        flow.completed_at = self._sim.now
        # Resolve the Π-set before remove_flow() drops the cache entry.
        willing = self._willing_interfaces(flow)
        self.remove_flow(flow.flow_id)
        for listener in self._completion_listeners:
            listener(flow)
        # Freed capacity should be taken up immediately (paper property
        # 4, "use new capacity"); interfaces that were serving this flow
        # will pull new work when their in-flight packet completes, but
        # idle ones must be kicked now. Only the flow's own up
        # interfaces can have freed capacity — a down or unwilling
        # interface gains nothing from this completion, and a busy one
        # pulls when its packet completes.
        for interface in willing:
            if interface.up and not interface.busy:
                interface.kick()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Engine membership, quarantine, scheduler and stats state, and
        the regime journal.

        Flows appear as ids only; their own mutable state is
        snapshotted per flow by the checkpoint layer. Interfaces are
        likewise snapshotted separately — the engine records run
        membership, not substrate state.
        """
        return {
            "flow_order": list(self._flows),
            "quarantined": list(self._quarantined),
            "shed": list(self._shed),
            "admission": {
                "rejected_total": self.admission_rejected_total,
                "shed_total": self.admission_shed_total,
            },
            "deadline": {
                "packets_total": self.deadline_packets_total,
                "misses_total": self.deadline_misses_total,
                "misses_by_flow": dict(self.deadline_misses_by_flow),
            },
            "scheduler": self._scheduler.snapshot_state(),
            "stats": self.stats.snapshot_state(),
            "regimes": list(self.regimes),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite membership and cascaded state from a snapshot.

        The engine must already be wired the way the snapshotted one
        was at build time: same interfaces, and every flow the snapshot
        references added through :meth:`add_flow` (so arrival/drop
        listeners exist). Flows that completed before the checkpoint
        simply drop out of the membership tables here.
        """
        available = dict(self._flows)
        restored: Dict[str, Flow] = {}
        for flow_id in state["flow_order"]:
            flow = available.get(flow_id)
            if flow is None:
                raise CheckpointError(
                    f"snapshot references flow {flow_id!r} unknown to this engine"
                )
            restored[flow_id] = flow
        self._flows = restored
        self._sources = {
            flow_id: source
            for flow_id, source in self._sources.items()
            if flow_id in restored
        }
        self._quarantined = {
            flow_id: restored[flow_id] for flow_id in state["quarantined"]
        }
        self._shed = {
            flow_id: restored[flow_id] for flow_id in state.get("shed", [])
        }
        admission = state.get("admission", {})
        self.admission_rejected_total = admission.get("rejected_total", 0)
        self.admission_shed_total = admission.get("shed_total", 0)
        deadline = state.get("deadline", {})
        self.deadline_packets_total = deadline.get("packets_total", 0)
        self.deadline_misses_total = deadline.get("misses_total", 0)
        self.deadline_misses_by_flow = dict(deadline.get("misses_by_flow", {}))
        # Refilled in place: readers (the fairness auditor's replay)
        # hold the list itself.
        self.regimes[:] = [tuple(entry) for entry in state["regimes"]]
        self._willing_cache.clear()
        self._scheduler.restore_state(state["scheduler"], restored)
        self.stats.restore_state(state["stats"])

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick every interface once to begin service."""
        for interface in self._interfaces.values():
            interface.kick()
