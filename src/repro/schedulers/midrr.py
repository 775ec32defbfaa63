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
* State layout: one record, a *slot*, per (flow, interface). A slot
  holds the :class:`Flow`, its service flag ``SF_ij``, its deficit
  counter ``DC_ij`` and its round membership. A flow's record keeps
  its slots in interface registration order (one per interface it
  has been willing to use) and the tuple of its *willing* slots (the
  ``Π_i`` row), revalidated against ``Flow.prefs_version`` and reset
  when an interface registers, like
  :meth:`~MultiInterfaceScheduler.willing_interfaces`. Each slot
  spends the deficit of its *account*: the slot itself, or, with
  ``deficit_scope="flow"``, one account that all the flow's slots
  share, so the two scopes run the same code. Nothing refers back from
  a slot to its record or interface, so the layout holds no reference
  cycle and a dropped scheduler is freed at once. A flag or counter that
  has no entry reads ``None``: flags get one at ``add_flow`` (at the
  willing interfaces) or when rule 1 first sets them; deficits get
  one at a turn grant and lose it when the flow drains
  (``_deactivate``). Removing a flow drops its slots (the health
  layer checks the entries through :meth:`MiDrrScheduler.flag_items`
  and :meth:`MiDrrScheduler.deficit_items`).
* Each interface's round is a ``deque`` of slots with lazy
  invalidation. Leaving the round (drained, removed, or found Π-stale
  by the cursor) clears the slot's ``in_round`` and, if its entry is
  still queued, counts that entry as ``dead``; a re-activation appends
  a new entry at the back. A slot's dead entries always sit ahead of
  its live one, so the cursor drops an entry while its slot still has
  dead ones. An activation compacts a round that has gathered more
  dead entries than live ones. ``live`` counts the round's members.
* ``select`` is one loop — Algorithm 3.1 with MIDRR-CHECK-NEXT spliced
  in — and is the per-packet hot path. Each entry considered costs a
  ``popleft`` and the dead-entry test, the stale-entry
  tests (the backlog deque's truthiness, Π by set membership), an
  ``append`` and one flag read: no dict lookup and no Python-level
  call. The open turn keeps its slot, so a resumed turn needs no
  lookup either. Granting a turn inlines ``Q_i = quantum_base × φ_i``
  and rule 1, which walks the flow's willing slots; only a
  revalidation of that tuple, a drain and an unknown interface leave
  the function. On ``perfbench``'s ``bulk-f1000-i8`` cell (2-vCPU
  host, best of five) a packet costs 7.0 µs with this ``select`` and
  4.8 µs when the same decisions are replayed by a ``select`` that only
  pulls the chosen flow's head; with per-interface dicts it cost 10.2
  against 5.4 µs. The per-packet call budget cell of
  ``tests/test_perf_bench.py`` reads 14.0 Python-level calls per
  packet (15.5 with the dicts).
* Work conservation: the skip loop clears flags as it passes, so within
  one decision a second visit to the same flow finds the flag clear —
  an interface never idles while any willing flow is backlogged. The
  scan ends: every entry it pops is dropped, or re-appended and either
  served or skipped with its flag decreased, and nothing raises a flag
  during a scan.
* Activation is **event-driven**: the rounds are maintained
  exclusively by ``notify_backlogged`` / ``add_flow`` / drain
  bookkeeping, and ``select`` never rescans the flow table. A
  decision therefore costs O(flows actually considered), independent
  of the total flow count; activating a flow costs O(|Π_i|) over its
  willing slots. Callers that bypass the engine must honour the
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

from collections import deque
from operator import attrgetter
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..errors import CheckpointError, ConfigurationError, SchedulingError
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

#: A round is compacted once its dead entries outnumber the live ones
#: by this many, so an interface that never selects (a down link) does
#: not keep one dead entry per activation.
DEAD_ENTRY_SLACK = 32

_interface_index = attrgetter("index")


class _InterfaceState:
    """Per-interface miDRR state: the round and the open turn."""

    __slots__ = ("index", "round", "live", "turn")

    def __init__(self, index: int) -> None:
        # Registration position: orders each flow's slots.
        self.index = index
        # Round-robin entries, front = cursor (see the module notes).
        self.round: "Deque[_Slot]" = deque()
        # Members of the round: the slots whose `in_round` is set.
        self.live = 0
        # Slot whose service turn is in progress (granted deficit left).
        self.turn: Optional[_Slot] = None

    def enter(self, slot: "_Slot") -> None:
        """Append *slot*, which is not in the round, at the back."""
        slot.in_round = True
        self.round.append(slot)
        self.live += 1

    def members(self) -> "List[_Slot]":
        """The round's members, front first (dead entries skipped)."""
        ahead: "Dict[_Slot, int]" = {}
        members = []
        for slot in self.round:
            dead = ahead.get(slot, slot.dead)
            if dead:
                ahead[slot] = dead - 1
            else:
                members.append(slot)
        return members

    def compact(self) -> None:
        """Drop the dead entries, keeping the members in order."""
        members = self.members()
        for slot in self.round:
            slot.dead = 0
        self.round.clear()
        self.round.extend(members)


class _Account:
    """The one deficit counter ``DC_i`` of a flow with deficit_scope="flow"."""

    __slots__ = ("deficit",)

    def __init__(self) -> None:
        # None while no quantum is outstanding.
        self.deficit: Optional[float] = None


class _FlowSlots:
    """A registered flow's slots and its cached willing slots."""

    __slots__ = ("flow", "slots", "willing", "version", "account")

    def __init__(self, flow: Flow, account: Optional[_Account]) -> None:
        self.flow = flow
        # Every slot of the flow, in interface registration order: one
        # per interface it has been willing to use. The same tuple as
        # `willing` while those are all still willing.
        self.slots: "Tuple[_Slot, ...]" = ()
        # The slots of the willing interfaces (the Π_i row), valid
        # while `version` equals the flow's prefs_version; -1 forces a
        # rebuild (new record, new interface, restore).
        self.willing: "Tuple[_Slot, ...]" = ()
        self.version = -1
        # The flow's shared account with deficit_scope="flow", else None.
        self.account = account


class _Slot:
    """miDRR state of one (flow, interface) pair."""

    __slots__ = ("flow", "index", "flag", "deficit", "account", "in_round", "dead")

    def __init__(self, entry: _FlowSlots, index: int) -> None:
        self.flow = entry.flow
        # The interface's registration position.
        self.index = index
        # SF_ij: 0/1 with exclusion="flag" (the paper's boolean), a
        # skip count saturating at COUNTER_CAP with "counter"; None
        # while the pair has no flag entry.
        self.flag: Optional[int] = None
        # DC_ij with deficit_scope="flow_interface"; None while no
        # quantum is outstanding.
        self.deficit: Optional[float] = None
        # The deficit this slot spends: None for its own, or the flow's
        # shared account. (No slot refers back to its interface, its
        # record or itself, so a dropped scheduler is freed by
        # reference counting alone, without waiting for the cycle
        # collector.)
        self.account = entry.account
        # Whether the slot is a member of its interface's round, and
        # how many of its entries in the round's deque are dead.
        self.in_round = False
        self.dead = 0


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
        # The same states by registration position (a slot's index).
        self._by_index: List[_InterfaceState] = []
        # Slot records of the registered flows, by flow id, in
        # registration order.
        self._entries: Dict[str, _FlowSlots] = {}
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

    def _slot(self, flow_id: str, interface_id: str) -> Optional[_Slot]:
        entry = self._entries.get(flow_id)
        state = self._states.get(interface_id)
        if entry is not None and state is not None:
            for slot in entry.slots:
                if slot.index == state.index:
                    return slot
        return None

    def service_flag(self, flow_id: str, interface_id: str) -> bool:
        """Current ``SF_ij`` as a boolean (False when unset/unknown)."""
        return bool(self.skip_credit(flow_id, interface_id))

    def skip_credit(self, flow_id: str, interface_id: str) -> int:
        """Pending skips for ``exclusion="counter"`` (0/1 for "flag")."""
        slot = self._slot(flow_id, interface_id)
        return (slot.flag or 0) if slot is not None else 0

    def flag_items(self) -> Iterator[Tuple[Tuple[str, str], int]]:
        """Every service-flag entry as ``((flow_id, interface_id), value)``.

        Flows in registration order, then interfaces in registration
        order. Entries only (a zero value is a cleared flag of a
        registered flow).
        """
        interface_ids = self._interface_ids
        for flow_id, entry in self._entries.items():
            for slot in entry.slots:
                if slot.flag is not None:
                    yield (flow_id, interface_ids[slot.index]), slot.flag

    def deficit_items(self) -> Iterator[Tuple[Tuple[str, Optional[str]], float]]:
        """Every deficit counter as ``((flow_id, interface_id), value)``.

        With ``deficit_scope="flow"`` the counters are per flow and
        *interface_id* is ``None``. Same order as :meth:`flag_items`.
        """
        if self._deficit_scope == "flow":
            for flow_id, entry in self._entries.items():
                if entry.account.deficit is not None:
                    yield (flow_id, None), entry.account.deficit
            return
        interface_ids = self._interface_ids
        for flow_id, entry in self._entries.items():
            for slot in entry.slots:
                if slot.deficit is not None:
                    yield (flow_id, interface_ids[slot.index]), slot.deficit

    def deficit(self, flow_id: str, interface_id: Optional[str] = None) -> float:
        """Current deficit counter for *flow_id*.

        With ``deficit_scope="flow_interface"``, passing an
        *interface_id* returns that interface's counter; omitting it
        returns the sum across interfaces (total granted, unspent
        service for the flow) — every slot, since a counter granted
        before a Π narrowing may sit at an interface the flow no
        longer uses.
        """
        entry = self._entries.get(flow_id)
        if entry is None:
            return 0.0
        if self._deficit_scope == "flow":
            deficit = entry.account.deficit
            return deficit if deficit is not None else 0.0
        if interface_id is None:
            return sum(
                (
                    slot.deficit
                    for slot in entry.slots
                    if slot.deficit is not None
                ),
                0.0,
            )
        slot = self._slot(flow_id, interface_id)
        if slot is None or slot.deficit is None:
            return 0.0
        return slot.deficit

    def deficit_backlog(self) -> float:
        """Total granted, unspent deficit across all live counters.

        The aggregate "how much service is owed" level the telemetry
        layer samples; bounded by ``Q_max × flows × interfaces`` when
        the deficit-reset invariant holds (the health checker's claim).
        Adds the counters in :meth:`deficit_items` order, so it equals
        summing that generator exactly, but from one list built by a
        comprehension: the interpreter's specialised slot reads make
        that about twice as fast as a generator or a ``map`` over
        ``attrgetter`` (185 against 480 and 400 µs on 4,581 counters).
        """
        entries = self._entries.values()
        if self._deficit_scope == "flow":
            return sum(
                [
                    deficit
                    for entry in entries
                    if (deficit := entry.account.deficit) is not None
                ]
            )
        return sum(
            [
                deficit
                for entry in entries
                for slot in entry.slots
                if (deficit := slot.deficit) is not None
            ]
        )

    def pending_flags(self) -> int:
        """Number of (flow, interface) pairs with a pending skip.

        Maintained incrementally at flag set/clear/removal so telemetry
        can read it every snapshot without scanning the flag table.
        """
        return self._pending_flags_count

    def round_size(self, interface_id: str) -> int:
        """Flows in *interface_id*'s round.

        Backlogged willing flows, plus any whose Π no longer includes
        the interface and that the cursor has not reached yet.
        """
        return self._states[interface_id].live

    def open_turns(self) -> Dict[str, str]:
        """``{interface_id: flow_id}`` for every service turn in progress."""
        return {
            interface_id: state.turn.flow.flow_id
            for interface_id, state in self._states.items()
            if state.turn is not None
        }

    # ------------------------------------------------------------------
    # Topology / flow bookkeeping
    # ------------------------------------------------------------------
    def _new_entry(self, flow: Flow) -> _FlowSlots:
        shared = self._deficit_scope == "flow"
        return _FlowSlots(flow, _Account() if shared else None)

    def _slot_at(self, entry: _FlowSlots, state: _InterfaceState) -> _Slot:
        """The flow's slot at *state*'s interface, created if missing."""
        for slot in entry.slots:
            if slot.index == state.index:
                return slot
        slot = _Slot(entry, state.index)
        entry.slots = tuple(sorted(entry.slots + (slot,), key=_interface_index))
        return slot

    def _willing_slots(self, entry: _FlowSlots) -> Tuple[_Slot, ...]:
        """The flow's slots at its willing interfaces, in registration order.

        Rebuilt from :meth:`willing_interfaces` when the cached tuple
        is stale, creating the slots of newly willing interfaces.
        """
        flow = entry.flow
        if entry.version != flow.prefs_version:
            states = self._states
            willing = tuple(
                self._slot_at(entry, states[interface_id])
                for interface_id in self.willing_interfaces(flow)
            )
            if willing == entry.slots:
                entry.slots = willing  # one tuple, not two equal ones
            entry.willing = willing
            entry.version = flow.prefs_version
        return entry.willing

    def _on_interface_added(self, interface_id: str) -> None:
        state = self._states[interface_id] = _InterfaceState(len(self._by_index))
        self._by_index.append(state)
        for entry in self._entries.values():
            entry.version = -1
            flow = entry.flow
            if flow.willing_to_use(interface_id) and flow.backlogged:
                state.enter(self._slot_at(entry, state))

    def _on_flow_added(self, flow: Flow) -> None:
        flow_id = flow.flow_id
        self.turns_taken.setdefault(flow_id, 0)
        entry = self._entries[flow_id] = self._new_entry(flow)
        # "Service flags for new flows are initiated at zero" (Table 1).
        # Only willing interfaces get an entry: a flag at an unwilling
        # interface is never set by rule 1 nor read by rule 2, and the
        # getters read a missing entry as zero.
        for slot in self._willing_slots(entry):
            slot.flag = 0
        if flow.backlogged:
            self._activate(flow)

    def _on_flow_removed(self, flow: Flow) -> None:
        entry = self._entries.pop(flow.flow_id)
        for slot in entry.slots:
            state = self._by_index[slot.index]
            if slot.in_round:
                slot.in_round = False
                slot.dead += 1
                state.live -= 1
            if state.turn is slot:
                state.turn = None
            if slot.flag:
                self._pending_flags_count -= 1
            # A dead entry is dropped without being read, so the slot
            # need not keep the flow alive until the cursor reaches it.
            slot.flow = None

    def _activate(self, flow: Flow) -> None:
        """Join the round at every willing interface — O(|Π_i|)."""
        entry = self._entries[flow.flow_id]
        willing = (
            entry.willing
            if entry.version == flow.prefs_version
            else self._willing_slots(entry)
        )
        by_index = self._by_index
        for slot in willing:
            if not slot.in_round:
                # _InterfaceState.enter inlined: this runs per
                # empty -> backlogged arrival at each willing interface.
                slot.in_round = True
                state = by_index[slot.index]
                round_ = state.round
                round_.append(slot)
                state.live += 1
                if len(round_) > 2 * state.live + DEAD_ENTRY_SLACK:
                    state.compact()

    # The engine's empty -> backlogged notification, without a hop.
    _on_backlogged = _activate

    def _deactivate(self, entry: _FlowSlots) -> None:
        """Flow drained: reset deficits, leave every round.

        Algorithm 3.1 resets ``DC_i`` when the backlog empties; with
        per-interface counters that means every interface's counter for
        the flow — all slots, not just currently-willing ones, so a
        preference narrowing after the quantum was granted cannot
        strand a counter. Resetting drops the entry (``None`` reads as
        zero everywhere), so the deficit entries stay sized by the
        *currently backlogged* flows.
        """
        if entry.account is not None:
            entry.account.deficit = None
        by_index = self._by_index
        for slot in entry.slots:
            slot.deficit = None
            state = by_index[slot.index]
            if slot.in_round:
                slot.in_round = False
                slot.dead += 1
                state.live -= 1
            if state.turn is slot:
                state.turn = None

    # ------------------------------------------------------------------
    # Algorithm 3.1 with Algorithm 3.2 spliced in
    # ------------------------------------------------------------------
    def select(self, interface_id: str) -> Optional[Packet]:
        state = self._states.get(interface_id)
        if state is None:
            raise SchedulingError(f"unknown interface {interface_id!r}")
        record = self.decision_flows_examined.append
        if not state.live:
            record(0)
            return None

        examined = 0
        slot = state.turn
        if slot is not None:
            # A decision that resumes a service turn carried over from
            # the previous decision considers that flow first — count
            # it, whether or not it turns out to be servable.
            examined = 1
            flow = slot.flow
            backlog = flow.queue.packets
            account = slot.account or slot
            if not backlog:
                # Drained between decisions (e.g. another interface
                # consumed the backlog): close the turn.
                self._deactivate(self._entries[flow.flow_id])
                slot = None
            else:
                allowed = flow.allowed_interfaces
                if allowed is not None and interface_id not in allowed:
                    # Live preference change (Π edited mid-run): this
                    # interface must stop serving the flow immediately.
                    if slot.in_round:
                        slot.in_round = False
                        slot.dead += 1
                        state.live -= 1
                    slot = None
            if slot is None:
                state.turn = None
                if not state.live:
                    record(examined)
                    return None

        round_ = state.round
        popleft = round_.popleft
        append = round_.append
        counter = self._exclusion == "counter"
        flag_per_packet = self._flag_on == "packet"
        # Outer loop: service turns. Each iteration either transmits a
        # packet or closes a turn; deficits grow monotonically across
        # rotations so the loop terminates.
        while True:
            granted = slot is None
            if granted:
                # Algorithm 3.2 (MIDRR-CHECK-NEXT): advance the cursor
                # past flagged flows, clearing (or decrementing) each
                # flag skipped over (rule 2). Drops, skips and cleared
                # flags are tallied locally and folded in once per scan.
                dropped = 0  # members found stale
                cleared = 0  # rule-2 skips consumed
                unflagged = 0  # flags that reached zero
                while round_:
                    candidate = popleft()
                    if candidate.dead:
                        # Left behind when the flow left the round; any
                        # live entry of the slot is further back.
                        candidate.dead -= 1
                        continue
                    flow = candidate.flow
                    backlog = flow.queue.packets
                    if not backlog:
                        # Stale: drained without the scheduler seeing it.
                        candidate.in_round = False
                        dropped += 1
                        continue
                    allowed = flow.allowed_interfaces
                    if allowed is not None and interface_id not in allowed:
                        candidate.in_round = False  # stale: its Π changed
                        dropped += 1
                        continue
                    append(candidate)  # back of the round
                    examined += 1
                    pending = candidate.flag
                    if not pending:
                        slot = candidate
                        break
                    # Rule 2: consume one skip without granting quantum.
                    cleared += 1
                    if counter and pending > 1:
                        candidate.flag = pending - 1
                    else:
                        candidate.flag = 0
                        unflagged += 1
                if dropped:
                    state.live -= dropped
                if cleared:
                    self.flags_cleared_total += cleared
                    self._pending_flags_count -= unflagged
                if slot is None:
                    record(examined)
                    return None
                state.turn = slot
                account = slot.account or slot  # None: the slot's own
                deficit = account.deficit
                quantum = self._quantum_base * flow.weight
                account.deficit = quantum if deficit is None else deficit + quantum
                turns = self.turns_taken
                flow_id = flow.flow_id
                turns[flow_id] = turns.get(flow_id, 0) + 1

            # `backlog` is the served flow's deque, bound when it was
            # considered; the deque is never rebound, so it stays live.
            head_size = backlog[0].size_bytes
            deficit = account.deficit
            serve = head_size <= deficit
            if serve if flag_per_packet else granted:
                # Rule 1, once per service turn (or per packet): set
                # SF_ij at every other willing interface. With
                # exclusion="counter" each remote service earns one
                # future skip, up to COUNTER_CAP. Per packet it runs
                # just before the pull; nothing the pull runs (source
                # refills, arrival notifications) reads flags.
                entry = self._entries[flow.flow_id]
                peers = (
                    entry.willing
                    if entry.version == flow.prefs_version
                    else self._willing_slots(entry)
                )
                raised = 0  # flags that go from clear to pending
                if counter:
                    for peer in peers:
                        if peer is not slot:
                            previous = peer.flag or 0
                            if not previous:
                                raised += 1
                            peer.flag = min(COUNTER_CAP, previous + 1)
                            self.flags_set_total += 1
                else:
                    for peer in peers:
                        if peer is not slot and not peer.flag:
                            peer.flag = 1
                            raised += 1
                    self.flags_set_total += raised
                self._pending_flags_count += raised
            if serve:
                account.deficit = deficit - head_size
                packet = flow.pull()
                if not backlog:
                    self._deactivate(self._entries[flow.flow_id])
                record(examined)
                return packet

            # Quantum spent: the turn ends, deficit carries over.
            state.turn = None
            slot = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> Dict[str, object]:
        # decision_flows_examined is deliberately absent: it is
        # unbounded per-decision telemetry (Figure 9) and restarts
        # empty after a restore. Flag and deficit lists follow
        # flag_items()/deficit_items() order (flows, then interfaces,
        # in registration order), which restore rebuilds, so
        # snapshot -> restore -> snapshot is a fixpoint.
        return {
            "config": {
                "quantum_base": self._quantum_base,
                "flag_on": self._flag_on,
                "deficit_scope": self._deficit_scope,
                "exclusion": self._exclusion,
            },
            "interfaces": {
                interface_id: {
                    "active": [slot.flow.flow_id for slot in state.members()],
                    "current": (
                        state.turn.flow.flow_id if state.turn is not None else None
                    ),
                    "turn_open": state.turn is not None,
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
        self._by_index = [
            _InterfaceState(index) for index in range(len(self._interface_ids))
        ]
        self._states = dict(zip(self._interface_ids, self._by_index))
        self._entries = {
            flow_id: self._new_entry(flow) for flow_id, flow in self._flows.items()
        }

        def slot_of(flow_id: str, interface_id: str, where: str) -> _Slot:
            entry = self._entries.get(flow_id)
            if entry is None:
                raise CheckpointError(
                    f"snapshot {where} references unknown flow {flow_id!r}"
                )
            interface = self._states.get(interface_id)
            if interface is None:
                raise CheckpointError(
                    f"snapshot {where} references unknown interface "
                    f"{interface_id!r}"
                )
            return self._slot_at(entry, interface)

        for interface_id, iface_state in state["interfaces"].items():
            where = f"round of {interface_id!r}"
            for flow_id in iface_state["active"]:
                self._states[interface_id].enter(slot_of(flow_id, interface_id, where))
            if iface_state["turn_open"] and iface_state["current"] is not None:
                self._states[interface_id].turn = slot_of(
                    iface_state["current"], interface_id, where
                )
        for flow_id, interface_id, value in state["service_flags"]:
            slot_of(flow_id, interface_id, "service flags").flag = value
        for flow_id, interface_id, value in state["deficit"]:
            if interface_id is None:
                entry = self._entries.get(flow_id)
                if entry is None:
                    raise CheckpointError(
                        f"snapshot deficits reference unknown flow {flow_id!r}"
                    )
                entry.account.deficit = value
            else:
                slot_of(flow_id, interface_id, "deficits").deficit = value
        self.decision_flows_examined = []
        self.turns_taken = dict(state["turns_taken"])
        self.flags_set_total = state["flags_set_total"]
        self.flags_cleared_total = state["flags_cleared_total"]
        self._pending_flags_count = state["pending_flags_count"]
