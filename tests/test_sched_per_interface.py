"""Unit tests for the naive multi-interface baselines."""

import pytest

from tests.helpers import make_flow

from repro.errors import SchedulingError
from repro.schedulers.per_interface import PerInterfaceScheduler, StaticSplitScheduler


def multi_drain(scheduler, interface_ids, count):
    """Round-robin the interfaces, collecting (interface, packet)."""
    served = []
    idle = 0
    while len(served) < count and idle < len(interface_ids):
        for interface_id in interface_ids:
            packet = scheduler.select(interface_id)
            if packet is None:
                idle += 1
            else:
                idle = 0
                served.append((interface_id, packet))
            if len(served) >= count:
                break
    return served


class TestPerInterfaceScheduler:
    def test_respects_interface_preferences(self):
        scheduler = PerInterfaceScheduler.drr()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(make_flow("pinned", interfaces=["if2"], backlog_packets=50))
        scheduler.add_flow(make_flow("free", backlog_packets=50))
        served = multi_drain(scheduler, ["if1", "if2"], 40)
        for interface_id, packet in served:
            if packet.flow_id == "pinned":
                assert interface_id == "if2"

    def test_unknown_interface_raises(self):
        scheduler = PerInterfaceScheduler.wfq()
        with pytest.raises(SchedulingError):
            scheduler.select("nope")

    def test_unwilling_flow_everywhere_rejected(self):
        scheduler = PerInterfaceScheduler.wfq()
        scheduler.register_interface("if1")
        with pytest.raises(SchedulingError):
            scheduler.add_flow(make_flow("x", interfaces=["if9"]))

    def test_flow_added_before_interface(self):
        scheduler = PerInterfaceScheduler.drr()
        scheduler.register_interface("if1")
        scheduler.add_flow(make_flow("a", backlog_packets=10))
        scheduler.register_interface("if2")
        # Flow joins the new interface too.
        assert scheduler.select("if2") is not None

    def test_remove_flow_everywhere(self):
        scheduler = PerInterfaceScheduler.drr()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(make_flow("a", backlog_packets=10))
        scheduler.remove_flow("a")
        assert scheduler.select("if1") is None
        assert scheduler.select("if2") is None

    def test_figure_1c_unfair_allocation(self):
        # The motivating failure: flow a hoards interface 1 plus half of
        # interface 2 → 3:1 byte split instead of 1:1.
        scheduler = PerInterfaceScheduler.drr()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(make_flow("a", backlog_packets=2000))
        scheduler.add_flow(make_flow("b", interfaces=["if2"], backlog_packets=2000))
        served = multi_drain(scheduler, ["if1", "if2"], 400)
        a_bytes = sum(p.size_bytes for _, p in served if p.flow_id == "a")
        b_bytes = sum(p.size_bytes for _, p in served if p.flow_id == "b")
        assert a_bytes / (a_bytes + b_bytes) == pytest.approx(0.75, abs=0.05)


class TestStaticSplitScheduler:
    def test_each_flow_pinned_to_one_interface(self):
        scheduler = StaticSplitScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        for index in range(4):
            scheduler.add_flow(make_flow(f"f{index}", backlog_packets=20))
        assignment = scheduler.assignment
        assert set(assignment.values()) <= {"if1", "if2"}
        served = multi_drain(scheduler, ["if1", "if2"], 40)
        for interface_id, packet in served:
            assert assignment[packet.flow_id] == interface_id

    def test_balances_by_weight(self):
        scheduler = StaticSplitScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(make_flow("heavy", weight=3.0, backlog_packets=5))
        scheduler.add_flow(make_flow("light1", weight=1.0, backlog_packets=5))
        scheduler.add_flow(make_flow("light2", weight=1.0, backlog_packets=5))
        assignment = scheduler.assignment
        # heavy lands on if1, both lights on if2 (weight 3 vs 2).
        assert assignment["heavy"] == "if1"
        assert assignment["light1"] == "if2"
        assert assignment["light2"] == "if2"

    def test_respects_interface_preferences(self):
        scheduler = StaticSplitScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(make_flow("pinned", interfaces=["if2"], backlog_packets=5))
        assert scheduler.assignment["pinned"] == "if2"

    def test_removal_releases_weight(self):
        scheduler = StaticSplitScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(make_flow("a", weight=5.0, backlog_packets=5))
        scheduler.remove_flow("a")
        scheduler.add_flow(make_flow("b", weight=1.0, backlog_packets=5))
        # With a's weight released, b goes to if1 again (least loaded).
        assert scheduler.assignment["b"] == "if1"

    def test_removal_releases_the_weight_pinned_with(self):
        # A φ edit after pinning must not make removal release a
        # different weight than was pinned.
        scheduler = StaticSplitScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        flow = make_flow("a", weight=1.0, backlog_packets=5)
        scheduler.add_flow(flow)
        flow.weight = 3.0
        scheduler.notify_preferences_changed(flow)
        scheduler.remove_flow("a")
        assert scheduler._pinned_weight == {"if1": 0.0, "if2": 0.0}

    def test_unknown_interface_raises(self):
        scheduler = StaticSplitScheduler()
        with pytest.raises(SchedulingError):
            scheduler.select("nope")


class TestPreferenceChurn:
    """Regression (ISSUE 9): inner membership used to be computed once
    at admission and never revisited, so a live ``restrict_to`` left
    the flow being served by interfaces its new Π row forbids."""

    def test_per_interface_restriction_stops_service(self):
        scheduler = PerInterfaceScheduler.drr()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        flow = make_flow("m", backlog_packets=50)
        scheduler.add_flow(flow)
        assert scheduler.select("if1") is not None
        flow.restrict_to({"if2"})
        scheduler.notify_preferences_changed(flow)
        # Π violation before the fix: if1 kept serving from its stale
        # inner membership.
        assert scheduler.select("if1") is None
        assert scheduler.select("if2").flow_id == "m"

    def test_per_interface_widening_starts_service(self):
        scheduler = PerInterfaceScheduler.wfq()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        flow = make_flow("m", interfaces=["if1"], backlog_packets=50)
        scheduler.add_flow(flow)
        assert scheduler.select("if2") is None
        flow.restrict_to({"if1", "if2"})
        scheduler.notify_preferences_changed(flow)
        # The newly-willing interface picks the flow up without a
        # remove/re-add cycle.
        assert scheduler.select("if2").flow_id == "m"

    def test_per_interface_churn_survives_snapshot(self):
        import json

        def build():
            scheduler = PerInterfaceScheduler.drr()
            scheduler.register_interface("if1")
            scheduler.register_interface("if2")
            return scheduler

        source = build()
        flow = make_flow("m", backlog_packets=50)
        source.add_flow(flow)
        flow.restrict_to({"if2"})
        source.notify_preferences_changed(flow)
        snapshot = json.loads(json.dumps(source.snapshot_state()))

        target = build()
        restored_flow = make_flow("m", backlog_packets=50)
        restored_flow.restrict_to({"if2"})
        target.add_flow(restored_flow)
        target.restore_state(snapshot, {"m": restored_flow})
        assert target.select("if1") is None
        assert target.select("if2").flow_id == "m"

    def test_static_split_repins_on_pi_eviction(self):
        scheduler = StaticSplitScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        flow = make_flow("m", backlog_packets=50)
        scheduler.add_flow(flow)
        assert scheduler.assignment["m"] == "if1"
        flow.restrict_to({"if2"})
        scheduler.notify_preferences_changed(flow)
        # Serving on if1 would violate Π: the flow is re-pinned.
        assert scheduler.select("if1") is None
        assert scheduler.select("if2").flow_id == "m"
        assert scheduler.assignment["m"] == "if2"

    def test_static_split_keeps_pin_when_still_willing(self):
        scheduler = StaticSplitScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        flow = make_flow("m", backlog_packets=50)
        scheduler.add_flow(flow)
        pinned = scheduler.assignment["m"]
        # A Π edit that keeps the pinned interface does NOT re-pin:
        # static splitting is assignment-stable by contract.
        flow.restrict_to({"if1", "if2"})
        scheduler.notify_preferences_changed(flow)
        scheduler.select("if1")
        scheduler.select("if2")
        assert scheduler.assignment["m"] == pinned


class TestStaticSplitPinOnce:
    """ISSUE 9 satellite: the pin-once contract for late interfaces is
    documented and asserted, not silently wrong."""

    def test_late_interface_keeps_existing_pins(self):
        scheduler = StaticSplitScheduler()
        scheduler.register_interface("if1")
        scheduler.add_flow(make_flow("a", backlog_packets=10))
        scheduler.add_flow(make_flow("b", backlog_packets=10))
        before = scheduler.assignment
        scheduler.register_interface("if2")
        # Existing flows are never reassigned retroactively...
        assert scheduler.assignment == before
        assert scheduler.select("if2") is None
        # ...but the empty newcomer wins the next admission.
        scheduler.add_flow(make_flow("c", weight=0.5, backlog_packets=10))
        assert scheduler.assignment["c"] == "if2"
        assert scheduler.select("if2").flow_id == "c"


class TestAggregateFifo:
    def test_pi_still_respected(self):
        scheduler = PerInterfaceScheduler.fifo()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(make_flow("pinned", interfaces=["if2"], backlog_packets=20))
        scheduler.add_flow(make_flow("free", backlog_packets=20))
        served = multi_drain(scheduler, ["if1", "if2"], 30)
        for interface_id, packet in served:
            if packet.flow_id == "pinned":
                assert interface_id == "if2"

    def test_no_fairness_heavy_flow_dominates(self):
        # FIFO striping serves in arrival order: a flow that enqueues a
        # large burst first hogs both interfaces.
        scheduler = PerInterfaceScheduler.fifo()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(make_flow("burst", backlog_packets=100))
        scheduler.add_flow(make_flow("light", backlog_packets=100))
        served = multi_drain(scheduler, ["if1", "if2"], 40)
        first_40 = [packet.flow_id for _, packet in served]
        # All early service goes to whichever flow enqueued first.
        assert first_40.count("burst") == 40

    def test_resumed_flow_records_each_arrival_once(self):
        # Quarantine resume re-adds the flow to the scheduler; the FIFO
        # must keep following its arrivals through one listener, not one
        # per resume.
        from repro.core.engine import SchedulingEngine
        from repro.net.flow import Flow
        from repro.net.interface import Interface
        from repro.net.packet import Packet
        from repro.sim.simulator import Simulator

        sim = Simulator()
        scheduler = PerInterfaceScheduler.fifo()
        engine = SchedulingEngine(sim, scheduler)
        interface = Interface(sim, "if1", 1_000_000.0)
        engine.add_interface(interface)
        flow = Flow("a")
        engine.add_flow(flow)
        for _ in range(3):
            interface.bring_down()
            interface.bring_up()
        flow.offer(Packet(flow_id="a", size_bytes=1000))
        assert list(scheduler._inner["if1"]._arrival_order) == ["a"]

    def test_resumed_flow_drops_its_old_arrival_entries(self):
        # Quarantine removes the flow and the resume seeds one entry
        # per queued packet, so the entries from before must go.
        from repro.core.engine import SchedulingEngine
        from repro.net.interface import Interface
        from repro.sim.simulator import Simulator

        sim = Simulator()
        scheduler = PerInterfaceScheduler.fifo()
        engine = SchedulingEngine(sim, scheduler)
        interface = Interface(sim, "if1", 1_000_000.0)
        engine.add_interface(interface)
        flow = make_flow("c", backlog_packets=2)
        engine.add_flow(flow)
        engine.start()  # one packet goes out, one stays queued
        interface.bring_down()
        interface.bring_up()
        assert len(flow.queue) == 1
        assert list(scheduler._inner["if1"]._arrival_order) == ["c"]

    def test_conformance_flags_rate_failure(self):
        from repro.fairness.conformance import run_conformance

        report = run_conformance(PerInterfaceScheduler.fifo, label="fifo stripe")
        failures = {result.name for result in report.failures()}
        assert "rate preferences" in failures
        assert "interface preferences" not in failures
