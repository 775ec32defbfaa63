"""Reference model of miDRR: per-interface tables keyed by flow id.

This is the scheduler as it stood before the slot layout of
:mod:`repro.schedulers.midrr`: each interface keeps its round as an
insertion-ordered map flow id -> :class:`Flow`, and its service flags
and deficit counters as dicts keyed by flow id (one dict shared by every
interface with ``deficit_scope="flow"``). It is kept only as the oracle
of ``tests/test_sched_midrr_differential.py``, which drives it and
:class:`~repro.schedulers.midrr.MiDrrScheduler` through the same
operations and requires identical decisions and bookkeeping. It is not
part of the package and must not be optimised: its value is that it is
the plain, dict-per-concept reading of the algorithm.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import CheckpointError, ConfigurationError, SchedulingError
from repro.net.flow import Flow
from repro.net.packet import Packet
from repro.schedulers.base import MultiInterfaceScheduler
from repro.schedulers.drr import DEFAULT_QUANTUM
from repro.schedulers.midrr import (
    COUNTER_CAP,
    DEFICIT_SCOPES,
    EXCLUSION_MODES,
    FLAG_MODES,
)


class _InterfaceState:
    """Per-interface miDRR state: round, cursor, flags and deficits."""

    __slots__ = ("active", "current", "turn_open", "flags", "deficit")

    def __init__(self, deficit: Dict[str, float]) -> None:
        # Insertion-ordered map of the backlogged willing flows, flow
        # id -> Flow; the front is the round-robin cursor.
        self.active: "OrderedDict[str, Flow]" = OrderedDict()
        # Flow whose service turn is in progress, if any.
        self.current: Optional[str] = None
        # True while `current` still has granted deficit to spend.
        self.turn_open: bool = False
        # Service flags SF_ij of this interface j, keyed by flow id.
        # With exclusion="flag" values are 0/1 (the paper's boolean);
        # with "counter" they saturate at COUNTER_CAP.
        self.flags: Dict[str, int] = {}
        # Deficit counters DC_ij, keyed by flow id. Shared by every
        # interface with deficit_scope="flow".
        self.deficit = deficit


class ReferenceMiDrrScheduler(MultiInterfaceScheduler):
    """miDRR over flow-id-keyed tables: the differential-test oracle."""

    def __init__(
        self,
        quantum_base: int = DEFAULT_QUANTUM,
        flag_on: str = "turn",
        deficit_scope: str = "flow_interface",
        exclusion: str = "flag",
    ) -> None:
        super().__init__()
        if quantum_base <= 0:
            raise ConfigurationError(
                f"quantum_base must be positive, got {quantum_base}"
            )
        if flag_on not in FLAG_MODES:
            raise ConfigurationError(
                f"flag_on must be one of {FLAG_MODES}, got {flag_on!r}"
            )
        if deficit_scope not in DEFICIT_SCOPES:
            raise ConfigurationError(
                f"deficit_scope must be one of {DEFICIT_SCOPES}, got {deficit_scope!r}"
            )
        if exclusion not in EXCLUSION_MODES:
            raise ConfigurationError(
                f"exclusion must be one of {EXCLUSION_MODES}, got {exclusion!r}"
            )
        self._quantum_base = quantum_base
        self._flag_on = flag_on
        self._deficit_scope = deficit_scope
        self._exclusion = exclusion
        self._states: Dict[str, _InterfaceState] = {}
        # The one deficit dict every interface shares with
        # deficit_scope="flow"; None with per-interface counters.
        self._shared_deficit: Optional[Dict[str, float]] = (
            {} if deficit_scope == "flow" else None
        )
        # Telemetry: per-decision flow-consideration counts (Figure 9).
        # Each select() appends exactly one entry: the number of flow
        # considerations the decision performed — every cursor advance
        # in MIDRR-CHECK-NEXT plus, when the decision resumes a service
        # turn carried over from the previous decision, one for the
        # resumed flow. A decision that serves straight from a resumed
        # turn therefore records 1; an idle interface records 0.
        self.decision_flows_examined: List[int] = []
        # Telemetry: service turns granted per flow (Lemmas 5/6 tests).
        self.turns_taken: Dict[str, int] = {}
        # Telemetry: rule-1 flag sets and rule-2 flag clears (skip
        # consumptions). Plain integers so the hot path pays one
        # increment; repro.obs samples them into registry gauges.
        self.flags_set_total = 0
        self.flags_cleared_total = 0
        # Live count of nonzero service flags (pending_flags()); kept
        # in step at every flag transition and flow removal.
        self._pending_flags_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def quantum_base(self) -> int:
        """Base quantum in bytes; ``Q_i = quantum_base × φ_i``."""
        return self._quantum_base

    def quantum(self, flow: Flow) -> float:
        """``Q_i`` for *flow*."""
        return self._quantum_base * flow.weight

    @property
    def exclusion(self) -> str:
        """The exclusion mechanism: ``"flag"`` (paper) or ``"counter"``."""
        return self._exclusion

    def service_flag(self, flow_id: str, interface_id: str) -> bool:
        """Current ``SF_ij`` as a boolean (False when unset/unknown)."""
        return bool(self.skip_credit(flow_id, interface_id))

    def skip_credit(self, flow_id: str, interface_id: str) -> int:
        """Pending skips for ``exclusion="counter"`` (0/1 for "flag")."""
        state = self._states.get(interface_id)
        return state.flags.get(flow_id, 0) if state is not None else 0

    def flag_items(self) -> Iterator[Tuple[Tuple[str, str], int]]:
        """Every service-flag entry as ``((flow_id, interface_id), value)``.

        Interfaces in registration order, then flows in the order their
        key was created. Entries are live keys only (a zero value is a
        cleared flag of a registered flow).
        """
        for interface_id, state in self._states.items():
            for flow_id, value in state.flags.items():
                yield (flow_id, interface_id), value

    def deficit_items(self) -> Iterator[Tuple[Tuple[str, Optional[str]], float]]:
        """Every deficit counter as ``((flow_id, interface_id), value)``.

        With ``deficit_scope="flow"`` the counters are per flow and
        *interface_id* is ``None``. Same order as :meth:`flag_items`.
        """
        if self._shared_deficit is not None:
            for flow_id, value in self._shared_deficit.items():
                yield (flow_id, None), value
            return
        for interface_id, state in self._states.items():
            for flow_id, value in state.deficit.items():
                yield (flow_id, interface_id), value

    def deficit(self, flow_id: str, interface_id: Optional[str] = None) -> float:
        """Current deficit counter for *flow_id*.

        With ``deficit_scope="flow_interface"``, passing an
        *interface_id* returns that interface's counter; omitting it
        returns the sum across interfaces (total granted, unspent
        service for the flow) — one lookup per interface, since a
        counter granted before a Π narrowing may sit at an interface
        the flow no longer uses.
        """
        if self._shared_deficit is not None:
            return self._shared_deficit.get(flow_id, 0.0)
        if interface_id is None:
            return sum(
                state.deficit.get(flow_id, 0.0) for state in self._states.values()
            )
        state = self._states.get(interface_id)
        return state.deficit.get(flow_id, 0.0) if state is not None else 0.0

    def deficit_backlog(self) -> float:
        """Total granted, unspent deficit across all live counters.

        The aggregate "how much service is owed" level the telemetry
        layer samples; bounded by ``Q_max × flows × interfaces`` when
        the deficit-reset invariant holds (the health checker's claim).
        """
        return sum(value for _, value in self.deficit_items())

    def pending_flags(self) -> int:
        """Number of (flow, interface) pairs with a pending skip.

        Maintained incrementally at flag set/clear/removal so telemetry
        can read it every snapshot without scanning the flag table.
        """
        return self._pending_flags_count

    # ------------------------------------------------------------------
    # Topology / flow bookkeeping
    # ------------------------------------------------------------------
    def _new_state(self) -> _InterfaceState:
        shared = self._shared_deficit
        return _InterfaceState(shared if shared is not None else {})

    def _on_interface_added(self, interface_id: str) -> None:
        state = self._states[interface_id] = self._new_state()
        for flow in self._flows.values():
            if flow.willing_to_use(interface_id) and flow.backlogged:
                state.active[flow.flow_id] = flow

    def _on_flow_added(self, flow: Flow) -> None:
        flow_id = flow.flow_id
        self.turns_taken.setdefault(flow_id, 0)
        # "Service flags for new flows are initiated at zero" (Table 1).
        # Only willing interfaces get a key: a flag at an unwilling
        # interface is never set by rule 1 nor read by rule 2, and the
        # getters default a missing key to zero.
        for interface_id in self.willing_interfaces(flow):
            flags = self._states[interface_id].flags
            if flags.get(flow_id, 0):
                self._pending_flags_count -= 1
            flags[flow_id] = 0
        if flow.backlogged:
            self._activate(flow)

    def _on_flow_removed(self, flow: Flow) -> None:
        flow_id = flow.flow_id
        for state in self._states.values():
            state.active.pop(flow_id, None)
            if state.current == flow_id:
                state.current = None
                state.turn_open = False
            if state.flags.pop(flow_id, 0):
                self._pending_flags_count -= 1
            state.deficit.pop(flow_id, None)

    def _on_backlogged(self, flow: Flow) -> None:
        self._activate(flow)

    def _activate(self, flow: Flow) -> None:
        """Join the round at every willing interface — O(|Π_i|)."""
        flow_id = flow.flow_id
        states = self._states
        for interface_id in self.willing_interfaces(flow):
            active = states[interface_id].active
            if flow_id not in active:
                active[flow_id] = flow

    def _deactivate(self, flow_id: str) -> None:
        """Flow drained: reset deficits, drop from every active map.

        Algorithm 3.1 resets ``DC_i`` when the backlog empties; with
        per-interface counters that means every interface's counter for
        the flow — all interfaces, not just currently-willing ones, so
        a preference narrowing after the quantum was granted cannot
        strand a counter. Resetting is implemented by popping the key —
        a missing counter reads as zero everywhere — so the deficit
        dicts stay sized by the *currently backlogged* flows rather
        than accumulating a key per flow ever served (state leak).
        """
        for state in self._states.values():
            state.deficit.pop(flow_id, None)
            state.active.pop(flow_id, None)
            if state.current == flow_id:
                state.current = None
                state.turn_open = False

    # ------------------------------------------------------------------
    # Flag maintenance (the paper's two rules)
    # ------------------------------------------------------------------
    def _mark_served(self, flow: Flow, serving_interface: str) -> None:
        """Rule 1: set ``SF_ij`` at every other willing interface.

        With ``exclusion="flag"`` this is the paper's boolean set; with
        ``"counter"`` each remote service earns one future skip, up to
        :data:`COUNTER_CAP`. Runs once per service turn (or per packet
        with ``flag_on="packet"``), so it iterates the flow's cached
        willing list — O(|Π_i|) — rather than every interface.
        """
        flow_id = flow.flow_id
        states = self._states
        raised = 0  # flags that go from clear to pending
        if self._exclusion == "counter":
            for interface_id in self.willing_interfaces(flow):
                if interface_id != serving_interface:
                    flags = states[interface_id].flags
                    previous = flags.get(flow_id, 0)
                    if not previous:
                        raised += 1
                    flags[flow_id] = min(COUNTER_CAP, previous + 1)
                    self.flags_set_total += 1
        else:
            for interface_id in self.willing_interfaces(flow):
                if interface_id != serving_interface:
                    flags = states[interface_id].flags
                    if not flags.get(flow_id, 0):
                        flags[flow_id] = 1
                        raised += 1
            self.flags_set_total += raised
        self._pending_flags_count += raised

    # ------------------------------------------------------------------
    # Algorithm 3.1 with Algorithm 3.2 spliced in
    # ------------------------------------------------------------------
    def select(self, interface_id: str) -> Optional[Packet]:
        state = self._states.get(interface_id)
        if state is None:
            raise SchedulingError(f"unknown interface {interface_id!r}")
        record = self.decision_flows_examined.append
        active = state.active
        if not active:
            record(0)
            return None

        flows_get = self._flows.get
        flags = state.flags
        deficits = state.deficit
        counter = self._exclusion == "counter"
        flag_per_packet = self._flag_on == "packet"
        # With boolean flags at most one full rotation can consist
        # purely of skips, so a cursor scan is bounded by
        # 2 × len(active); counters saturate at COUNTER_CAP, bounding
        # the scan likewise.
        skip_budget = COUNTER_CAP + 2 if counter else 2

        examined = 0
        flow: Optional[Flow] = None
        if state.turn_open:
            # A decision that resumes a service turn carried over from
            # the previous decision considers that flow first — count
            # it, whether or not it turns out to be servable.
            examined = 1
            flow_id = state.current
            flow = flows_get(flow_id) if flow_id else None
            backlog = flow.queue.packets if flow is not None else None
            if not backlog:
                # Drained between decisions (e.g. another interface
                # consumed the backlog): close the turn.
                if flow is not None:
                    self._deactivate(flow_id)
                flow = None
            else:
                allowed = flow.allowed_interfaces
                if allowed is not None and interface_id not in allowed:
                    # Live preference change (Π edited mid-run): this
                    # interface must stop serving the flow immediately.
                    active.pop(flow_id, None)
                    flow = None
            if flow is None:
                state.current = None
                state.turn_open = False
                if not active:
                    record(examined)
                    return None

        # Outer loop: service turns. Each iteration either transmits a
        # packet or closes a turn; deficits grow monotonically across
        # rotations so the loop terminates.
        while True:
            if flow is None:
                # Algorithm 3.2 (MIDRR-CHECK-NEXT): advance the cursor
                # past flagged flows, clearing (or decrementing) each
                # flag skipped over (rule 2). Skips are tallied locally
                # and folded into the counters once per scan.
                pop_front = active.popitem
                cleared = 0  # rule-2 skips consumed
                unflagged = 0  # flags that reached zero
                for _ in range(skip_budget * len(active) + 1):
                    if not active:
                        break
                    flow_id, candidate = pop_front(False)
                    backlog = candidate.queue.packets
                    if flows_get(flow_id) is not candidate or not backlog:
                        # Stale entry (flow gone or drained): drop it
                        # without re-appending.
                        continue
                    allowed = candidate.allowed_interfaces
                    if allowed is not None and interface_id not in allowed:
                        continue  # stale: its Π changed
                    active[flow_id] = candidate  # back of the round
                    examined += 1
                    pending = flags.get(flow_id, 0)
                    if not pending:
                        flow = candidate
                        break
                    # Rule 2: consume one skip without granting quantum.
                    cleared += 1
                    if counter and pending > 1:
                        flags[flow_id] = pending - 1
                    else:
                        flags[flow_id] = 0
                        unflagged += 1
                if cleared:
                    self.flags_cleared_total += cleared
                    self._pending_flags_count -= unflagged
                if flow is None:
                    record(examined)
                    return None
                state.current = flow_id
                state.turn_open = True
                deficits[flow_id] = deficits.get(flow_id, 0.0) + self.quantum(flow)
                turns = self.turns_taken
                turns[flow_id] = turns.get(flow_id, 0) + 1
                if not flag_per_packet:
                    self._mark_served(flow, interface_id)

            # `backlog` is the served flow's deque, bound when it was
            # considered; the deque is never rebound, so it stays live.
            head_size = backlog[0].size_bytes
            if head_size <= deficits.get(flow_id, 0.0):
                deficits[flow_id] -= head_size
                packet = flow.pull()
                if flag_per_packet:
                    self._mark_served(flow, interface_id)
                if not backlog:
                    self._deactivate(flow_id)
                record(examined)
                return packet

            # Quantum spent: the turn ends, deficit carries over.
            state.current = None
            state.turn_open = False
            flow = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        # decision_flows_examined is deliberately absent: it is
        # unbounded per-decision telemetry (Figure 9) and restarts
        # empty after a restore. Flag and deficit lists follow
        # flag_items()/deficit_items() order, which restore rebuilds,
        # so snapshot -> restore -> snapshot is a fixpoint.
        return {
            "config": {
                "quantum_base": self._quantum_base,
                "flag_on": self._flag_on,
                "deficit_scope": self._deficit_scope,
                "exclusion": self._exclusion,
            },
            "interfaces": {
                interface_id: {
                    "active": list(state.active),
                    "current": state.current,
                    "turn_open": state.turn_open,
                }
                for interface_id, state in self._states.items()
            },
            "service_flags": [
                [flow_id, interface_id, value]
                for (flow_id, interface_id), value in self.flag_items()
            ],
            "deficit": [
                [flow_id, interface_id, value]
                for (flow_id, interface_id), value in self.deficit_items()
            ],
            "turns_taken": dict(self.turns_taken),
            "flags_set_total": self.flags_set_total,
            "flags_cleared_total": self.flags_cleared_total,
            "pending_flags_count": self._pending_flags_count,
        }

    def _restore_state(self, state: Dict[str, object]) -> None:
        config = state["config"]
        mine = {
            "quantum_base": self._quantum_base,
            "flag_on": self._flag_on,
            "deficit_scope": self._deficit_scope,
            "exclusion": self._exclusion,
        }
        if config != mine:
            raise SchedulingError(
                f"snapshot miDRR config {config!r} does not match {mine!r}"
            )
        if self._shared_deficit is not None:
            self._shared_deficit = {}
        self._states = {}
        for interface_id, iface_state in state["interfaces"].items():
            restored = self._new_state()
            for flow_id in iface_state["active"]:
                flow = self._flows.get(flow_id)
                if flow is None:
                    raise CheckpointError(
                        f"snapshot round of {interface_id!r} references "
                        f"unknown flow {flow_id!r}"
                    )
                restored.active[flow_id] = flow
            restored.current = iface_state["current"]
            restored.turn_open = bool(iface_state["turn_open"])
            self._states[interface_id] = restored
        for flow_id, interface_id, value in state["service_flags"]:
            self._states[interface_id].flags[flow_id] = value
        for flow_id, interface_id, value in state["deficit"]:
            if interface_id is None:
                self._shared_deficit[flow_id] = value
            else:
                self._states[interface_id].deficit[flow_id] = value
        self.decision_flows_examined = []
        self.turns_taken = dict(state["turns_taken"])
        self.flags_set_total = state["flags_set_total"]
        self.flags_cleared_total = state["flags_cleared_total"]
        self._pending_flags_count = state["pending_flags_count"]
