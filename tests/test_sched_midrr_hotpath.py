"""Regression tests for the event-driven miDRR hot path.

Covers the three bugfixes that rode along with the rescan removal —
the turn-spanning telemetry miscount, the deficit/flag state leaks,
and the over-broad completion kicks — plus a hypothesis equivalence
test showing event-driven activation reproduces the old per-decision
flow-table rescan decision-for-decision.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import make_flow
from tests.midrr_reference import ReferenceMiDrrScheduler

from repro.core.engine import SchedulingEngine
from repro.errors import CheckpointError
from repro.health.invariants import MiDrrInvariantChecker
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.packet import Packet
from repro.schedulers.midrr import DEAD_ENTRY_SLACK, MiDrrScheduler


def flow_keys(items, flow_id):
    """``(flow_id, interface_id)`` keys of *items* belonging to *flow_id*.

    *items* is ``scheduler.flag_items()`` or ``scheduler.deficit_items()``.
    """
    return [key for key, _ in items if key[0] == flow_id]


class TestTelemetrySemantics:
    """``decision_flows_examined`` counts once per flow considered."""

    def test_serve_from_resumed_turn_records_one(self):
        scheduler = MiDrrScheduler(quantum_base=4500)
        scheduler.register_interface("if0")
        scheduler.add_flow(make_flow("a", backlog_packets=2))
        assert scheduler.select("if0").flow_id == "a"
        assert scheduler.decision_flows_examined[-1] == 1
        # The turn stayed open (3000 B of deficit left); the next
        # decision resumes it and serves without a cursor scan.
        assert scheduler.select("if0").flow_id == "a"
        assert scheduler.decision_flows_examined[-1] == 1

    def test_turn_spanning_decision_counts_resumed_flow(self):
        scheduler = MiDrrScheduler(quantum_base=4500)
        scheduler.register_interface("if0")
        a = make_flow("a", backlog_packets=3)
        b = make_flow("b", backlog_packets=1)
        scheduler.add_flow(a)
        scheduler.add_flow(b)
        assert scheduler.select("if0").flow_id == "a"
        # Drain a's remaining backlog behind the scheduler's back; its
        # service turn is still open.
        while a.backlogged:
            a.pull()
        # The next decision considers the resumed (now drained) flow a,
        # closes its turn, then scans to b: two flows considered. The
        # pre-fix counter forgot the resumed flow and reported 1.
        assert scheduler.select("if0").flow_id == "b"
        assert scheduler.decision_flows_examined[-1] == 2

    def test_idle_interface_records_zero(self):
        scheduler = MiDrrScheduler()
        scheduler.register_interface("if0")
        scheduler.add_flow(make_flow("a"))
        assert scheduler.select("if0") is None
        assert scheduler.decision_flows_examined[-1] == 0


class TestStateLeaks:
    """Drain and removal must pop state keys, not zero them."""

    def test_drain_pops_deficit_keys(self):
        scheduler = MiDrrScheduler()
        scheduler.register_interface("if0")
        scheduler.register_interface("if1")
        flow = make_flow("a", backlog_packets=1)
        scheduler.add_flow(flow)
        assert scheduler.select("if0").flow_id == "a"
        assert not flow.backlogged
        # Pre-fix, _deactivate wrote a 0.0 entry per interface —
        # including interfaces that never granted the flow a quantum —
        # so the dict grew by one key per (flow ever served, interface).
        assert flow_keys(scheduler.deficit_items(), "a") == []
        # Introspection still reads the popped counters as zero.
        assert scheduler.deficit("a") == 0.0

    def test_drain_pops_flow_scoped_deficit(self):
        scheduler = MiDrrScheduler(deficit_scope="flow")
        scheduler.register_interface("if0")
        flow = make_flow("a", backlog_packets=1)
        scheduler.add_flow(flow)
        assert scheduler.select("if0").flow_id == "a"
        assert flow_keys(scheduler.deficit_items(), "a") == []

    def test_remove_flow_pops_flags_and_deficits(self):
        scheduler = MiDrrScheduler()
        scheduler.register_interface("if0")
        scheduler.register_interface("if1")
        flow = make_flow("a", backlog_packets=5)
        scheduler.add_flow(flow)
        scheduler.add_flow(make_flow("b", backlog_packets=5))
        assert scheduler.select("if0").flow_id == "a"
        scheduler.remove_flow("a")
        assert flow_keys(scheduler.flag_items(), "a") == []
        assert flow_keys(scheduler.deficit_items(), "a") == []
        assert MiDrrInvariantChecker(scheduler).check() == []

    def test_flags_initialized_for_willing_interfaces_only(self):
        scheduler = MiDrrScheduler()
        scheduler.register_interface("if0")
        scheduler.register_interface("if1")
        scheduler.add_flow(make_flow("a", interfaces=("if0",)))
        assert flow_keys(scheduler.flag_items(), "a") == [("a", "if0")]

    def test_checker_reports_injected_stale_key(self):
        scheduler = MiDrrScheduler()
        scheduler.register_interface("if0")
        # Bookkeeping for a flow the base class never registered: a
        # flag entry (zero, from add) and a deficit entry.
        scheduler._on_flow_added(Flow("ghost"))
        scheduler._slot("ghost", "if0").deficit = 0.0
        violations = MiDrrInvariantChecker(scheduler).check()
        assert sum("stale" in violation for violation in violations) == 2


class TestStateLayout:
    """One slot per (flow, interface), read through the accessors."""

    INTERFACES = ("if0", "if1", "if2")
    ROWS = {"a": None, "b": ("if0", "if1"), "c": ("if1", "if2"), "d": ("if2",)}

    def build(self, **knobs):
        scheduler = MiDrrScheduler(**knobs)
        for interface_id in self.INTERFACES:
            scheduler.register_interface(interface_id)
        flows = {}
        for index, (flow_id, row) in enumerate(self.ROWS.items()):
            flows[flow_id] = make_flow(
                flow_id, weight=1.0 + index % 2, interfaces=row, backlog_packets=20
            )
            scheduler.add_flow(flows[flow_id])
        for step in range(25):
            scheduler.select(self.INTERFACES[step % len(self.INTERFACES)])
        return scheduler, flows

    def restored(self, snapshot, flows, **knobs):
        scheduler = MiDrrScheduler(**knobs)
        for interface_id in self.INTERFACES:
            scheduler.register_interface(interface_id)
        scheduler.restore_state(snapshot, flows)
        return scheduler

    def test_flow_scope_shares_one_deficit_account(self):
        scheduler = MiDrrScheduler(deficit_scope="flow")
        scheduler.register_interface("if0")
        scheduler.register_interface("if1")
        scheduler.add_flow(make_flow("a", backlog_packets=3))
        assert scheduler.select("if0").flow_id == "a"
        account = scheduler._slot("a", "if0").account
        assert account is scheduler._slot("a", "if1").account
        assert list(scheduler.deficit_items()) == [(("a", None), 0.0)]

    def test_total_deficit_reads_interfaces_left_by_narrowing(self):
        scheduler = MiDrrScheduler(quantum_base=3000)
        scheduler.register_interface("if0")
        scheduler.register_interface("if1")
        flow = make_flow("a", backlog_packets=3)
        scheduler.add_flow(flow)
        assert scheduler.select("if0").flow_id == "a"
        flow.restrict_to({"if1"})
        # The counter granted at if0 survives until the flow drains.
        assert scheduler.deficit("a", "if0") == 1500.0
        assert scheduler.deficit("a") == 1500.0

    def test_resumed_turn_leaves_round_when_pi_narrows(self):
        scheduler = MiDrrScheduler(quantum_base=1000)
        scheduler.register_interface("if0")
        scheduler.register_interface("if1")
        a = make_flow("a", weight=2.0, backlog_packets=3, packet_size=700)
        b = make_flow("b", interfaces=("if0",), backlog_packets=3, packet_size=700)
        scheduler.add_flow(a)
        scheduler.add_flow(b)
        assert scheduler.select("if0").flow_id == "a"
        assert scheduler.open_turns() == {"if0": "a"}
        assert scheduler.round_size("if0") == 2
        a.restrict_to({"if1"})
        # The resumed turn is closed and a leaves if0's round at once.
        assert scheduler.select("if0").flow_id == "b"
        assert scheduler.open_turns() == {"if0": "b"}
        assert scheduler.round_size("if0") == 1

    @pytest.mark.parametrize("deficit_scope", ["flow_interface", "flow"])
    def test_deficit_backlog_is_the_generator_sum(self, deficit_scope):
        """The one-pass sum adds the counters in deficit_items() order,
        so it equals the generator sum bit for bit, even with weights
        whose quanta do not add exactly in binary."""
        scheduler = MiDrrScheduler(quantum_base=1000, deficit_scope=deficit_scope)
        for interface_id in ("if0", "if1", "if2"):
            scheduler.register_interface(interface_id)
        for index, weight in enumerate((0.1, 0.3, 1 / 3, 0.7, 2.9)):
            scheduler.add_flow(
                make_flow(
                    f"f{index}",
                    weight=weight,
                    backlog_packets=20,
                    packet_size=100 + 37 * index,
                )
            )
        counters = 0
        for step in range(40):
            scheduler.select(("if0", "if1", "if2")[step % 3])
            total = sum(value for _, value in scheduler.deficit_items())
            assert scheduler.deficit_backlog() == total
            assert type(scheduler.deficit_backlog()) is type(total)
            counters = max(counters, len(list(scheduler.deficit_items())))
        assert counters >= 3

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"flag_on": "packet"}, {"deficit_scope": "flow"}, {"exclusion": "counter"}],
        ids=["default", "packet-flags", "flow-deficit", "counter"],
    )
    def test_snapshot_restore_fixpoint(self, knobs):
        scheduler, flows = self.build(**knobs)
        assert any(value for _, value in scheduler.flag_items())
        snapshot = json.loads(json.dumps(scheduler.snapshot_state()))
        restored = self.restored(snapshot, flows, **knobs)
        assert restored.snapshot_state() == snapshot
        assert list(restored.flag_items()) == list(scheduler.flag_items())
        assert list(restored.deficit_items()) == list(scheduler.deficit_items())
        # The restored slots hold the registered Flow objects.
        for flow_id, flow in flows.items():
            for interface_id in self.INTERFACES:
                slot = restored._slot(flow_id, interface_id)
                assert slot is None or slot.flow is flow

    def test_restore_rejects_unknown_flow_in_round(self):
        scheduler, flows = self.build()
        snapshot = json.loads(json.dumps(scheduler.snapshot_state()))
        snapshot["state"]["interfaces"]["if0"]["active"].append("ghost")
        with pytest.raises(CheckpointError):
            self.restored(snapshot, flows)


class TestRoundCompaction:
    """Dead round entries stay bounded at an interface that never selects."""

    def churn(self, scheduler, cycles):
        """Flow ``w`` joins and drains *cycles* times, served by if0 only."""
        w = scheduler.flows()[-1]
        for _ in range(cycles):
            w.offer(Packet(flow_id="w", size_bytes=1500))
            scheduler.notify_backlogged(w)
            while w.backlogged:
                assert scheduler.select("if0") is not None

    def build(self, scheduler_class):
        scheduler = scheduler_class()
        scheduler.register_interface("if0")
        scheduler.register_interface("if1")
        for flow_id in ("x", "y", "z"):
            scheduler.add_flow(
                make_flow(flow_id, interfaces=("if1",), backlog_packets=2)
            )
        scheduler.add_flow(make_flow("w"))
        return scheduler

    def test_unselected_interface_round_stays_bounded(self):
        scheduler = self.build(MiDrrScheduler)
        self.churn(scheduler, 500)
        state = scheduler._states["if1"]
        assert scheduler.round_size("if1") == 3
        assert len(state.round) <= 2 * state.live + DEAD_ENTRY_SLACK + 1

    @pytest.mark.parametrize("cycles", [DEAD_ENTRY_SLACK + 10, 100])
    def test_compaction_keeps_round_order(self, cycles):
        served = []
        for scheduler_class in (MiDrrScheduler, ReferenceMiDrrScheduler):
            scheduler = self.build(scheduler_class)
            self.churn(scheduler, cycles)
            served.append(
                [scheduler.select("if1").flow_id for _ in range(6)]
            )
        assert served[0] == served[1] == ["x", "y", "z", "x", "y", "z"]


class TestActivationContract:
    """select() never rescans; notify_backlogged is the wake-up path."""

    def test_rebacklogged_flow_needs_notification(self):
        scheduler = MiDrrScheduler()
        scheduler.register_interface("if0")
        flow = make_flow("a", backlog_packets=1)
        scheduler.add_flow(flow)
        assert scheduler.select("if0").flow_id == "a"
        flow.offer(Packet(flow_id="a", size_bytes=1500))
        # Without the notification the flow stays out of the round —
        # the per-decision flow-table rescan that used to paper over a
        # missing notify is gone (see notify_backlogged's docstring).
        assert scheduler.select("if0") is None
        scheduler.notify_backlogged(flow)
        assert scheduler.select("if0").flow_id == "a"


class TestWillingIndex:
    """The cached Π_i row self-heals on preference/topology changes."""

    def test_direct_restrict_to_invalidates(self):
        scheduler = MiDrrScheduler()
        scheduler.register_interface("if0")
        scheduler.register_interface("if1")
        flow = make_flow("a")
        scheduler.add_flow(flow)
        assert scheduler.willing_interfaces(flow) == ("if0", "if1")
        flow.restrict_to({"if1"})  # no notification on purpose
        assert scheduler.willing_interfaces(flow) == ("if1",)

    def test_late_interface_registration_invalidates(self):
        scheduler = MiDrrScheduler()
        scheduler.register_interface("if0")
        flow = make_flow("a")
        scheduler.add_flow(flow)
        assert scheduler.willing_interfaces(flow) == ("if0",)
        scheduler.register_interface("if1")
        assert scheduler.willing_interfaces(flow) == ("if0", "if1")


class CountingInterface(Interface):
    """An interface that counts kick() calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kick_calls = 0

    def kick(self):
        self.kick_calls += 1
        super().kick()


class TestKickScope:
    """Engine kicks reach only up, willing interfaces."""

    def build(self, sim):
        engine = SchedulingEngine(sim, MiDrrScheduler())
        interfaces = {}
        for interface_id in ("if0", "if1", "if2"):
            interface = CountingInterface(sim, interface_id, 12_000)
            engine.add_interface(interface)
            interfaces[interface_id] = interface
        return engine, interfaces

    def test_completion_kicks_only_up_willing(self, sim):
        engine, interfaces = self.build(sim)
        interfaces["if2"].bring_down()
        flow = make_flow("a", interfaces=("if0", "if2"))
        engine.add_flow(flow)
        for interface in interfaces.values():
            interface.kick_calls = 0
        engine._complete_flow(flow)
        assert interfaces["if0"].kick_calls == 1
        assert interfaces["if1"].kick_calls == 0  # unwilling
        assert interfaces["if2"].kick_calls == 0  # down

    def test_preference_change_kicks_only_up_willing(self, sim):
        engine, interfaces = self.build(sim)
        interfaces["if2"].bring_down()
        flow = make_flow("a", interfaces=("if0",), backlog_packets=1)
        engine.add_flow(flow)
        flow.restrict_to({"if1", "if2"})
        for interface in interfaces.values():
            interface.kick_calls = 0
        engine.notify_preferences_changed("a")
        assert interfaces["if0"].kick_calls == 0  # no longer willing
        assert interfaces["if1"].kick_calls == 1
        assert interfaces["if2"].kick_calls == 0  # down


class RescanMiDrrScheduler(ReferenceMiDrrScheduler):
    """Reference model: the per-decision flow-table rescan, on the
    flow-id-keyed reference layout."""

    def select(self, interface_id):
        state = self._states.get(interface_id)
        if state is not None:
            for flow in self._flows.values():
                if (
                    flow.backlogged
                    and flow.willing_to_use(interface_id)
                    and flow.flow_id not in state.active
                ):
                    state.active[flow.flow_id] = flow
        return super().select(interface_id)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_event_driven_activation_matches_rescan(data):
    """Notified activation ≡ per-decision rescan, decision for decision.

    Random topology, Π, weights and an interleaved offer/select op
    sequence; both schedulers receive identical notifications (the
    engine's contract). The served sequences and the per-decision
    telemetry must agree exactly.
    """
    num_interfaces = data.draw(st.integers(1, 3), label="interfaces")
    interface_ids = [f"if{j}" for j in range(num_interfaces)]
    flow_specs = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 2.0]),
                st.sets(st.sampled_from(interface_ids), min_size=1),
            ),
            min_size=1,
            max_size=5,
        ),
        label="flows",
    )
    ops = data.draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("offer"),
                    st.integers(0, len(flow_specs) - 1),
                    st.sampled_from([500, 1000, 1500]),
                ),
                st.tuples(st.just("select"), st.integers(0, num_interfaces - 1)),
            ),
            max_size=60,
        ),
        label="ops",
    )

    def build(scheduler_class):
        scheduler = scheduler_class(quantum_base=1500)
        for interface_id in interface_ids:
            scheduler.register_interface(interface_id)
        flows = []
        for index, (weight, willing) in enumerate(flow_specs):
            flow = Flow(
                f"flow{index}", weight=weight, allowed_interfaces=sorted(willing)
            )
            scheduler.add_flow(flow)
            flows.append(flow)
        return scheduler, flows

    subject, subject_flows = build(MiDrrScheduler)
    reference, reference_flows = build(RescanMiDrrScheduler)

    subject_trace = []
    reference_trace = []
    for op in ops:
        if op[0] == "offer":
            _, index, size = op
            for scheduler, flows in (
                (subject, subject_flows),
                (reference, reference_flows),
            ):
                flow = flows[index]
                was_empty = not flow.backlogged
                flow.offer(Packet(flow_id=flow.flow_id, size_bytes=size))
                if was_empty:
                    scheduler.notify_backlogged(flow)
        else:
            interface_id = interface_ids[op[1]]
            for scheduler, trace in (
                (subject, subject_trace),
                (reference, reference_trace),
            ):
                packet = scheduler.select(interface_id)
                trace.append(
                    None
                    if packet is None
                    else (interface_id, packet.flow_id, packet.size_bytes)
                )
    assert subject_trace == reference_trace
    assert (
        subject.decision_flows_examined == reference.decision_flows_examined
    )
