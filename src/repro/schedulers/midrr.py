"""miDRR — multiple-interface Deficit Round Robin (the paper, §3).

Each interface runs classic DRR over the backlogged flows willing to
use it (``F_j ∩ B``), with one addition: a boolean **service flag**
``SF_ij`` per (flow, interface). The two flag rules (paper §3.1):

1. When interface *k* serves flow *i*, it sets ``SF_ij = 1 ∀ j ≠ k``.
2. When interface *j* considers flow *i* and finds ``SF_ij = 1``, it
   clears the flag and skips the flow *without granting quantum*
   (Algorithm 3.2, MIDRR-CHECK-NEXT).

The flag tells interface *j* "flow *i* was served elsewhere since you
last considered it", i.e. its rate is already at least your round rate,
so serving it would push the allocation away from max-min fairness.
This one bit per (flow, interface) is the paper's entire coordination
mechanism, replacing any exchange of measured rates.

Implementation notes
--------------------
* ``flag_on`` selects when rule 1 fires: ``"turn"`` (at the start of a
  service turn, as in the Algorithm 3.2 pseudocode — the default) or
  ``"packet"`` (on every transmitted packet, as a literal reading of
  the prose). Both converge to the max-min allocation; the ablation
  bench A1/A2 compares them.
* ``deficit_scope`` selects whether the deficit counter is kept per
  (flow, interface) (``"flow_interface"`` — the default) or shared per
  flow (``"flow"``). The paper's symbol table writes a single ``DC_i``,
  but its prose says *"each interface implementing DRR independently"*,
  which implies per-interface counters — and the shared reading is in
  fact unsound: when a flow is served by two interfaces at once, the
  second interface keeps refilling the shared pool, the first
  interface's service turn never closes, and every other flow at that
  interface starves (a concrete instance is pinned in
  ``tests/test_sched_midrr_properties.py`` and measured in ablation
  bench A1). We therefore default to the independent reading.
* Work conservation: the skip loop clears flags as it passes, so within
  one decision a second visit to the same flow finds the flag clear —
  an interface never idles while any willing flow is backlogged.
* Activation is **event-driven**: the per-interface active lists are
  maintained exclusively by ``notify_backlogged`` / ``add_flow`` /
  drain bookkeeping, and ``select`` never rescans the flow table. A
  decision therefore costs O(flows actually considered), independent
  of the total flow count; activating a flow costs O(|Π_i|) via the
  base class's cached :meth:`~MultiInterfaceScheduler.willing_interfaces`
  index. Callers that bypass the engine must honour the
  ``notify_backlogged`` contract (see its docstring).
* ``decision_flows_examined`` records, per decision, how many flows the
  interface had to consider before finding one to serve. Figure 9's
  "extra search time" is exactly this quantity.

A known limitation of the published 1-bit mechanism (found by this
reproduction's property tests, see DESIGN.md §"Deviation found"): when
one flow's cluster spans several interfaces — the flow must aggregate
them all — and a *faster* flow is also willing to use those interfaces,
the skip loop cannot distinguish "flagged by my same-cluster sibling
interface" from "flagged because the flow is served by a faster
cluster". After a full wrap clears every flag, the round-robin cursor
can hand a turn to the faster flow, leaking it capacity that exact
max-min fairness assigns to the aggregating flow (e.g. measured 1.33
vs 2.0 Mb/s on a 4-interface instance). All of the paper's own
scenarios are reproduced exactly; the leak needs the adversarial
topology above. ``exclusion="counter"`` generalizes the flag to a
saturating skip counter (still O(1) state per (flow, interface)):
each remote service turn earns one future skip, so a flow served by a
much faster cluster accumulates skips faster than the round-robin can
drain them and stays excluded. The counter variant restores exact
max-min on every instance our property tests generate while remaining
bit-identical to the paper's algorithm on its published scenarios.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SchedulingError
from ..net.flow import Flow
from ..net.packet import Packet
from .base import MultiInterfaceScheduler
from .drr import DEFAULT_QUANTUM

#: Valid values for the ``flag_on`` knob.
FLAG_MODES = ("turn", "packet")

#: Valid values for the ``deficit_scope`` knob.
DEFICIT_SCOPES = ("flow", "flow_interface")

#: Valid values for the ``exclusion`` knob.
EXCLUSION_MODES = ("flag", "counter")

#: Saturation cap for ``exclusion="counter"``; bounds both the state
#: (6 bits) and the skip-loop wrap count.
COUNTER_CAP = 64


class _InterfaceState:
    """Per-interface DRR state: active round list and cursor."""

    __slots__ = ("active", "current", "turn_open")

    def __init__(self) -> None:
        # Insertion-ordered set of backlogged willing flow ids.
        self.active: "OrderedDict[str, None]" = OrderedDict()
        # Flow whose service turn is in progress, if any.
        self.current: Optional[str] = None
        # True while `current` still has granted deficit to spend.
        self.turn_open: bool = False


class MiDrrScheduler(MultiInterfaceScheduler):
    """The paper's miDRR scheduler (Table 1, Algorithms 3.1 + 3.2)."""

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
        # Service flags SF_ij, keyed (flow_id, interface_id). With
        # exclusion="flag" values are 0/1 (the paper's boolean); with
        # "counter" they saturate at COUNTER_CAP.
        self._service_flags: Dict[Tuple[str, str], int] = {}
        # Deficit counters; key is flow_id ("flow" scope) or
        # (flow_id, interface_id) ("flow_interface" scope). Both this
        # dict and _service_flags hold entries only for live keys:
        # drained flows are popped by _deactivate, removed flows by
        # _on_flow_removed (the health layer asserts this).
        self._deficit: Dict[object, float] = {}
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
        return bool(self._service_flags.get((flow_id, interface_id), 0))

    def skip_credit(self, flow_id: str, interface_id: str) -> int:
        """Pending skips for ``exclusion="counter"`` (0/1 for "flag")."""
        return self._service_flags.get((flow_id, interface_id), 0)

    def deficit(self, flow_id: str, interface_id: Optional[str] = None) -> float:
        """Current deficit counter for *flow_id*.

        With ``deficit_scope="flow_interface"``, passing an
        *interface_id* returns that interface's counter; omitting it
        returns the sum across interfaces (total granted, unspent
        service for the flow).
        """
        if self._deficit_scope == "flow":
            return self._deficit.get(flow_id, 0.0)
        if interface_id is None:
            return sum(
                value
                for key, value in self._deficit.items()
                if isinstance(key, tuple) and key[0] == flow_id
            )
        return self._deficit.get((flow_id, interface_id), 0.0)

    def deficit_backlog(self) -> float:
        """Total granted, unspent deficit across all live counters.

        The aggregate "how much service is owed" level the telemetry
        layer samples; bounded by ``Q_max × flows × interfaces`` when
        the deficit-reset invariant holds (the health checker's claim).
        """
        return sum(self._deficit.values())

    def pending_flags(self) -> int:
        """Number of (flow, interface) pairs with a pending skip.

        Maintained incrementally at flag set/clear/removal so telemetry
        can read it every snapshot without scanning the flag table.
        """
        return self._pending_flags_count

    def _deficit_key(self, flow_id: str, interface_id: str) -> object:
        if self._deficit_scope == "flow":
            return flow_id
        return (flow_id, interface_id)

    # ------------------------------------------------------------------
    # Topology / flow bookkeeping
    # ------------------------------------------------------------------
    def _on_interface_added(self, interface_id: str) -> None:
        self._states[interface_id] = _InterfaceState()
        for flow in self._flows.values():
            if flow.willing_to_use(interface_id) and flow.backlogged:
                self._states[interface_id].active[flow.flow_id] = None

    def _on_flow_added(self, flow: Flow) -> None:
        self.turns_taken.setdefault(flow.flow_id, 0)
        # "Service flags for new flows are initiated at zero" (Table 1).
        # Only willing interfaces get a key: a flag at an unwilling
        # interface is never set by rule 1 nor read by rule 2, and the
        # getters default a missing key to zero.
        for interface_id in self.willing_interfaces(flow):
            key = (flow.flow_id, interface_id)
            if self._service_flags.get(key, 0):
                self._pending_flags_count -= 1
            self._service_flags[key] = 0
        if flow.backlogged:
            self._activate(flow)

    def _on_flow_removed(self, flow: Flow) -> None:
        for interface_id, state in self._states.items():
            state.active.pop(flow.flow_id, None)
            if state.current == flow.flow_id:
                state.current = None
                state.turn_open = False
            if self._service_flags.pop((flow.flow_id, interface_id), 0):
                self._pending_flags_count -= 1
            self._deficit.pop((flow.flow_id, interface_id), None)
        self._deficit.pop(flow.flow_id, None)

    def _on_backlogged(self, flow: Flow) -> None:
        self._activate(flow)

    def _activate(self, flow: Flow) -> None:
        """Join the round at every willing interface — O(|Π_i|)."""
        flow_id = flow.flow_id
        states = self._states
        for interface_id in self.willing_interfaces(flow):
            active = states[interface_id].active
            if flow_id not in active:
                active[flow_id] = None

    def _deactivate(self, flow_id: str, interface_id: str) -> None:
        """Flow drained: reset deficits, drop from every active list.

        Algorithm 3.1 resets ``DC_i`` when the backlog empties; with
        per-interface counters that means every interface's counter for
        the flow. Resetting is implemented by popping the key — a
        missing counter reads as zero everywhere — so the deficit dict
        stays sized by the *currently backlogged* flows rather than
        accumulating a key per flow ever served (state leak).
        """
        if self._deficit_scope == "flow":
            self._deficit.pop(flow_id, None)
        else:
            # All interfaces, not just currently-willing ones: a
            # preference narrowing after the quantum was granted must
            # not strand the counter.
            for other_interface in self._interface_ids:
                self._deficit.pop((flow_id, other_interface), None)
        for state in self._states.values():
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
        flags = self._service_flags
        if self._exclusion == "flag":
            for interface_id in self.willing_interfaces(flow):
                if interface_id != serving_interface:
                    key = (flow_id, interface_id)
                    if not flags.get(key, 0):
                        self.flags_set_total += 1
                        self._pending_flags_count += 1
                    flags[key] = 1
        else:
            for interface_id in self.willing_interfaces(flow):
                if interface_id != serving_interface:
                    key = (flow_id, interface_id)
                    previous = flags.get(key, 0)
                    if not previous:
                        self._pending_flags_count += 1
                    flags[key] = min(COUNTER_CAP, previous + 1)
                    self.flags_set_total += 1

    # ------------------------------------------------------------------
    # Algorithm 3.1 with Algorithm 3.2 spliced in
    # ------------------------------------------------------------------
    def select(self, interface_id: str) -> Optional[Packet]:
        state = self._states.get(interface_id)
        if state is None:
            raise SchedulingError(f"unknown interface {interface_id!r}")

        if not state.active:
            self.decision_flows_examined.append(0)
            return None

        # A decision that resumes a service turn carried over from the
        # previous decision considers that flow first — count it. (The
        # pre-fix code only credited this consideration when the
        # resumed flow was served immediately, so a decision that found
        # it drained and moved on under-counted by one.)
        examined = 1 if state.turn_open else 0
        deficits = self._deficit
        # Outer loop: service turns. Each iteration either transmits a
        # packet or closes a turn; deficits grow monotonically across
        # rotations so the loop terminates.
        while True:
            if not state.turn_open:
                flow_id, scanned = self._check_next(interface_id, state)
                examined += scanned
                if flow_id is None:
                    self.decision_flows_examined.append(examined)
                    return None
                state.current = flow_id
                state.turn_open = True
                flow = self._flows[flow_id]
                key = self._deficit_key(flow_id, interface_id)
                deficits[key] = deficits.get(key, 0.0) + self.quantum(flow)
                self.turns_taken[flow_id] = self.turns_taken.get(flow_id, 0) + 1
                if self._flag_on == "turn":
                    self._mark_served(flow, interface_id)

            flow = self._flows.get(state.current) if state.current else None
            if flow is None or not flow.backlogged:
                # Drained between decisions (e.g. another interface
                # consumed the backlog): close the turn.
                if flow is not None:
                    self._deactivate(flow.flow_id, interface_id)
                state.current = None
                state.turn_open = False
                if not state.active:
                    self.decision_flows_examined.append(examined)
                    return None
                continue
            if not flow.willing_to_use(interface_id):
                # Live preference change (Π edited mid-run): this
                # interface must stop serving the flow immediately.
                state.active.pop(flow.flow_id, None)
                state.current = None
                state.turn_open = False
                if not state.active:
                    self.decision_flows_examined.append(examined)
                    return None
                continue

            key = self._deficit_key(flow.flow_id, interface_id)
            head_size = flow.queue.head_size()
            assert head_size is not None
            if head_size <= deficits.get(key, 0.0):
                deficits[key] -= head_size
                packet = flow.pull()
                if self._flag_on == "packet":
                    self._mark_served(flow, interface_id)
                if not flow.backlogged:
                    self._deactivate(flow.flow_id, interface_id)
                self.decision_flows_examined.append(examined)
                return packet

            # Quantum spent: the turn ends, deficit carries over.
            state.current = None
            state.turn_open = False

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        # decision_flows_examined is deliberately absent: it is
        # unbounded per-decision telemetry (Figure 9) and restarts
        # empty after a restore.
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
                for (flow_id, interface_id), value in self._service_flags.items()
            ],
            "deficit": [
                [key, None, value] if isinstance(key, str) else [key[0], key[1], value]
                for key, value in self._deficit.items()
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
        self._states = {}
        for interface_id, iface_state in state["interfaces"].items():
            restored = _InterfaceState()
            for flow_id in iface_state["active"]:
                restored.active[flow_id] = None
            restored.current = iface_state["current"]
            restored.turn_open = bool(iface_state["turn_open"])
            self._states[interface_id] = restored
        self._service_flags = {
            (flow_id, interface_id): value
            for flow_id, interface_id, value in state["service_flags"]
        }
        self._deficit = {}
        for flow_id, interface_id, value in state["deficit"]:
            key = flow_id if interface_id is None else (flow_id, interface_id)
            self._deficit[key] = value
        self.decision_flows_examined = []
        self.turns_taken = dict(state["turns_taken"])
        self.flags_set_total = state["flags_set_total"]
        self.flags_cleared_total = state["flags_cleared_total"]
        self._pending_flags_count = state["pending_flags_count"]

    def _check_next(
        self, interface_id: str, state: _InterfaceState
    ) -> Tuple[Optional[str], int]:
        """Algorithm 3.2: advance the cursor past flagged flows.

        Returns ``(flow_id, flows_examined)``. Clears (or decrements)
        each flag it skips over (rule 2). With boolean flags at most one
        full rotation can consist purely of skips, so the scan is
        bounded by ``2 × len(active)``; counters saturate at
        :data:`COUNTER_CAP`, bounding the scan likewise.
        """
        examined = 0
        rotations = 0
        per_flow_budget = 2 if self._exclusion == "flag" else COUNTER_CAP + 2
        limit = per_flow_budget * len(state.active) + 1
        while state.active and rotations < limit:
            flow_id, _ = state.active.popitem(last=False)
            flow = self._flows.get(flow_id)
            if (
                flow is None
                or not flow.backlogged
                or not flow.willing_to_use(interface_id)
            ):
                # Stale entry (flow gone, drained, or its Π changed):
                # drop it without re-appending.
                rotations += 1
                continue
            state.active[flow_id] = None  # back of the round
            examined += 1
            rotations += 1
            flag_key = (flow_id, interface_id)
            pending = self._service_flags.get(flag_key, 0)
            if pending:
                # Rule 2: consume one skip without granting quantum.
                remaining = 0 if self._exclusion == "flag" else pending - 1
                self._service_flags[flag_key] = remaining
                if not remaining:
                    self._pending_flags_count -= 1
                self.flags_cleared_total += 1
                continue
            return flow_id, examined
        return None, examined
