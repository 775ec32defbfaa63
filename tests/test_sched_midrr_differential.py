"""miDRR's slot layout against the flow-id-keyed reference model.

A hypothesis state machine drives :class:`MiDrrScheduler` and
:class:`~tests.midrr_reference.ReferenceMiDrrScheduler` (the same
algorithm over per-interface dicts) through the same operations, each
on its own copies of the flows: flows join, leave and come back as new
:class:`Flow` objects under the same id, packets arrive, preferences
change directly through :meth:`Flow.restrict_to` (with or without the
engine's follow-up notification), backlogs drain behind the
scheduler's back, interfaces register late, and both schedulers are
snapshotted and restored mid-sequence. After every step the two must
agree on the packet chosen, the flows examined and every piece of
bookkeeping the scheduler exposes. Each of the eight option
combinations runs as its own test.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from tests.midrr_reference import ReferenceMiDrrScheduler

from repro.net.flow import Flow
from repro.net.packet import Packet
from repro.schedulers.midrr import (
    DEFICIT_SCOPES,
    EXCLUSION_MODES,
    FLAG_MODES,
    MiDrrScheduler,
)

CONFIGS = [
    {"flag_on": flag_on, "deficit_scope": scope, "exclusion": exclusion}
    for flag_on, scope, exclusion in itertools.product(
        FLAG_MODES, DEFICIT_SCOPES, EXCLUSION_MODES
    )
]

#: Small enough that a 0.5-weight flow's quantum (500 B) is below the
#: largest packet, so some turns are granted without serving.
QUANTUM = 1000
MAX_INTERFACES = 4

flow_ids = st.sampled_from(["f0", "f1", "f2", "f3", "f4"])
weights = st.sampled_from([0.5, 1.0, 1.5, 2.0])
rows = st.sets(st.integers(0, MAX_INTERFACES - 1), min_size=1)
sizes = st.sampled_from([300, 700, 1000, 1500])
interface_indexes = st.integers(0, MAX_INTERFACES - 1)


class MiDrrDifferential(RuleBasedStateMachine):
    """Both schedulers, step for step; index 0 is the subject."""

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.classes = (MiDrrScheduler, ReferenceMiDrrScheduler)
        self.seqno = itertools.count()

    def new_scheduler(self, scheduler_class):
        scheduler = scheduler_class(quantum_base=QUANTUM, **self.config)
        for interface_id in self.interface_ids:
            scheduler.register_interface(interface_id)
        return scheduler

    @initialize(interfaces=st.integers(1, 3))
    def build(self, interfaces):
        self.interface_ids = [f"if{j}" for j in range(interfaces)]
        self.schedulers = [self.new_scheduler(cls) for cls in self.classes]
        # Registered flows of each side, by id.
        self.flows = [{}, {}]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def row(self, indexes):
        """*indexes* as registered interface ids (never empty)."""
        row = {self.interface_ids[j] for j in indexes if j < len(self.interface_ids)}
        return row or {self.interface_ids[0]}

    def both(self):
        return zip(self.schedulers, self.flows)

    def add(self, flow_id, weight, row, backlog):
        seqnos = [next(self.seqno) for _ in backlog]
        for scheduler, flows in self.both():
            flow = Flow(flow_id, weight=weight, allowed_interfaces=row)
            for size, seqno in zip(backlog, seqnos):
                flow.offer(Packet(flow_id=flow_id, size_bytes=size, seqno=seqno))
            scheduler.add_flow(flow)
            flows[flow_id] = flow

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @rule(
        flow_id=flow_ids,
        weight=weights,
        indexes=rows,
        backlog=st.lists(sizes, max_size=3),
    )
    def add_flow(self, flow_id, weight, indexes, backlog):
        if flow_id not in self.flows[0]:
            self.add(flow_id, weight, self.row(indexes), backlog)

    @rule(flow_id=flow_ids)
    def remove_flow(self, flow_id):
        for scheduler, flows in self.both():
            scheduler.remove_flow(flow_id)
            flows.pop(flow_id, None)

    @rule(
        flow_id=flow_ids,
        weight=weights,
        indexes=rows,
        backlog=st.lists(sizes, max_size=3),
    )
    def readd_as_new_flow(self, flow_id, weight, indexes, backlog):
        if flow_id in self.flows[0]:
            self.remove_flow(flow_id)
            self.add(flow_id, weight, self.row(indexes), backlog)

    @rule(flow_id=flow_ids, size=sizes)
    def offer(self, flow_id, size):
        if flow_id not in self.flows[0]:
            return
        seqno = next(self.seqno)
        for scheduler, flows in self.both():
            flow = flows[flow_id]
            was_empty = not flow.backlogged
            flow.offer(Packet(flow_id=flow_id, size_bytes=size, seqno=seqno))
            if was_empty:
                scheduler.notify_backlogged(flow)

    @rule(flow_id=flow_ids, indexes=rows, notify=st.booleans())
    def restrict(self, flow_id, indexes, notify):
        """A direct Π edit; *notify* adds the engine's follow-up
        (``notify_preferences_changed`` re-notifies the flow whether or
        not it is backlogged)."""
        if flow_id not in self.flows[0]:
            return
        row = self.row(indexes)
        for scheduler, flows in self.both():
            flows[flow_id].restrict_to(row)
            if notify:
                scheduler.notify_backlogged(flows[flow_id])

    @rule(flow_id=flow_ids, count=st.integers(1, 3))
    def drain_by_pull(self, flow_id, count):
        """Pull packets past the scheduler, as another consumer would."""
        if flow_id not in self.flows[0]:
            return
        for _, flows in self.both():
            flow = flows[flow_id]
            for _ in range(count):
                if flow.backlogged:
                    flow.pull()

    @rule(index=interface_indexes)
    def select(self, index):
        interface_id = self.interface_ids[index % len(self.interface_ids)]
        chosen = []
        for scheduler in self.schedulers:
            packet = scheduler.select(interface_id)
            chosen.append(
                None
                if packet is None
                else (packet.flow_id, packet.size_bytes, packet.seqno)
            )
        assert chosen[0] == chosen[1]

    @rule()
    def register_interface(self):
        if len(self.interface_ids) < MAX_INTERFACES:
            interface_id = f"if{len(self.interface_ids)}"
            self.interface_ids.append(interface_id)
            for scheduler in self.schedulers:
                scheduler.register_interface(interface_id)

    @rule(swap=st.booleans())
    def snapshot_restore(self, swap):
        """Restore both sides through JSON; with *swap*, each side from
        the other's snapshot, so the two layouts read each other's
        checkpoints."""
        snapshots = [
            json.loads(json.dumps(scheduler.snapshot_state()))
            for scheduler in self.schedulers
        ]
        if swap:
            snapshots.reverse()
        restored = []
        for scheduler_class, snapshot, flows in zip(
            self.classes, snapshots, self.flows
        ):
            scheduler = self.new_scheduler(scheduler_class)
            snapshot = dict(snapshot, kind=scheduler_class.__name__)
            scheduler.restore_state(snapshot, flows)
            if not swap:
                assert scheduler.snapshot_state() == snapshot
            restored.append(scheduler)
        self.schedulers = restored

    # ------------------------------------------------------------------
    # After every step
    # ------------------------------------------------------------------
    @invariant()
    def same_bookkeeping(self):
        subject, reference = self.schedulers
        assert dict(subject.flag_items()) == dict(reference.flag_items())
        assert dict(subject.deficit_items()) == dict(reference.deficit_items())
        assert subject.pending_flags() == reference.pending_flags()
        assert subject.decision_flows_examined == reference.decision_flows_examined
        assert subject.turns_taken == reference.turns_taken
        assert subject.flags_set_total == reference.flags_set_total
        assert subject.flags_cleared_total == reference.flags_cleared_total
        assert subject.open_turns() == {
            interface_id: state.current
            for interface_id, state in reference._states.items()
            if state.turn_open
        }
        for interface_id in self.interface_ids:
            assert subject.round_size(interface_id) == len(
                reference._states[interface_id].active
            )
        assert subject.deficit_backlog() == sum(
            value for _, value in subject.deficit_items()
        )


@pytest.mark.parametrize(
    "config",
    CONFIGS,
    ids=["-".join(config.values()) for config in CONFIGS],
)
def test_slots_match_reference(config):
    run_state_machine_as_test(
        lambda: MiDrrDifferential(config),
        settings=settings(max_examples=25, stateful_step_count=40, deadline=None),
    )
