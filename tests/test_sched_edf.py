"""Unit and integration tests for the EDF scheduler + admission control."""

import pytest

from tests.helpers import make_flow

from repro.core.engine import SchedulingEngine
from repro.errors import ConfigurationError, SchedulingError
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.packet import Packet
from repro.schedulers.edf import AdmissionVerdict, EdfScheduler
from repro.sim.simulator import Simulator


class FakeInterface:
    """Just enough interface for capacity observation."""

    def __init__(self, interface_id, rate_bps, up=True):
        self.interface_id = interface_id
        self.rate_bps = rate_bps
        self.up = up


def deadline_flow(flow_id, deadlines, interfaces=None, nominal_rate_bps=None):
    """A flow pre-backlogged with one packet per deadline entry."""
    flow = Flow(
        flow_id,
        allowed_interfaces=interfaces,
        nominal_rate_bps=nominal_rate_bps,
    )
    for deadline in deadlines:
        flow.offer(Packet(flow_id=flow_id, size_bytes=1000, deadline=deadline))
    return flow


class TestDeadlineOrdering:
    def test_earliest_deadline_served_first(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        scheduler.add_flow(deadline_flow("late", [9.0, 9.5]))
        scheduler.add_flow(deadline_flow("soon", [1.0, 1.5]))
        scheduler.add_flow(deadline_flow("mid", [4.0]))
        order = [scheduler.select("if1").flow_id for _ in range(5)]
        assert order == ["soon", "soon", "mid", "late", "late"]

    def test_elastic_packets_sort_last_by_seqno(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        elastic_first = make_flow("e1", backlog_packets=1)
        scheduler.add_flow(elastic_first)
        scheduler.add_flow(deadline_flow("dl", [2.0]))
        elastic_second = make_flow("e2", backlog_packets=1)
        scheduler.add_flow(elastic_second)
        order = [scheduler.select("if1").flow_id for _ in range(3)]
        # Deadline beats both elastic packets; elastic falls back to
        # global arrival (seqno) order.
        assert order == ["dl", "e1", "e2"]

    def test_respects_interface_preferences(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(deadline_flow("pinned", [0.1] * 5, interfaces=["if2"]))
        assert scheduler.select("if1") is None
        assert scheduler.select("if2").flow_id == "pinned"

    def test_work_conserving_after_preferred_drains(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        scheduler.add_flow(make_flow("only", backlog_packets=2))
        assert scheduler.select("if1") is not None
        assert scheduler.select("if1") is not None
        assert scheduler.select("if1") is None

    def test_unknown_interface_raises(self):
        scheduler = EdfScheduler()
        with pytest.raises(SchedulingError):
            scheduler.select("nope")

    def test_live_pi_edit_respected(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        flow = deadline_flow("m", [1.0, 2.0, 3.0])
        scheduler.add_flow(flow)
        assert scheduler.select("if1").flow_id == "m"
        flow.restrict_to({"if2"})
        # The active entry on if1 is stale now: never served there.
        assert scheduler.select("if1") is None
        assert scheduler.select("if2").flow_id == "m"


class TestAdmissionControl:
    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            EdfScheduler(admission_control_threshold_low=0.0)
        with pytest.raises(ConfigurationError):
            EdfScheduler(
                admission_control_threshold_low=1.2,
                admission_control_threshold_high=1.1,
            )

    def test_inert_without_observed_capacity(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        verdict = scheduler.review_admission(
            Flow("greedy", nominal_rate_bps=1e12)
        )
        assert verdict.admitted
        assert verdict.action == "admit"
        assert scheduler.projected_load() == 0.0

    def test_rejects_past_low_threshold(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        scheduler.observe_interface(FakeInterface("if1", 1_000_000.0))
        scheduler.add_flow(Flow("first", nominal_rate_bps=500_000.0))
        assert scheduler.projected_load() == pytest.approx(0.5)
        verdict = scheduler.review_admission(
            Flow("second", nominal_rate_bps=500_000.0)
        )
        assert isinstance(verdict, AdmissionVerdict)
        assert not verdict.admitted
        assert verdict.action == "reject"
        assert verdict.projected_load == pytest.approx(1.0)
        assert scheduler.admission_rejected_total == 1

    def test_elastic_flows_always_admitted(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        scheduler.observe_interface(FakeInterface("if1", 1_000_000.0))
        scheduler.add_flow(Flow("declared", nominal_rate_bps=900_000.0))
        verdict = scheduler.review_admission(Flow("elastic"))
        assert verdict.admitted

    def test_sheds_latest_admitted_when_capacity_collapses(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        link = FakeInterface("if1", 2_000_000.0)
        scheduler.observe_interface(link)
        scheduler.add_flow(Flow("old", nominal_rate_bps=500_000.0))
        scheduler.add_flow(Flow("young", nominal_rate_bps=500_000.0))
        # Capacity collapses under the admitted set: load 1e6/5e5 = 2.0.
        link.rate_bps = 500_000.0
        verdict = scheduler.review_admission(Flow("next"))
        assert verdict.shed == ("young",)
        assert verdict.admitted  # elastic candidate itself still fits
        assert verdict.action == "shed"
        # Pure verdict: nothing was evicted yet (the engine does that).
        assert scheduler.declared_load_bps() == pytest.approx(1_000_000.0)

    def test_down_interfaces_carry_no_capacity(self):
        scheduler = EdfScheduler()
        scheduler.observe_interface(FakeInterface("if1", 1_000_000.0, up=False))
        scheduler.observe_interface(FakeInterface("if2", 250_000.0))
        assert scheduler.total_capacity_bps() == pytest.approx(250_000.0)


class TestEngineIntegration:
    def build(self, rate_bps=1_000_000.0):
        sim = Simulator()
        scheduler = EdfScheduler()
        engine = SchedulingEngine(sim, scheduler)
        engine.add_interface(Interface(sim, "if1", rate_bps))
        return sim, scheduler, engine

    def test_engine_wires_capacity_observation(self):
        _, scheduler, _ = self.build()
        assert scheduler.total_capacity_bps() == pytest.approx(1_000_000.0)

    def test_rejected_flow_parked_outside_scheduler(self):
        _, scheduler, engine = self.build()
        engine.add_flow(Flow("a", nominal_rate_bps=700_000.0))
        engine.add_flow(Flow("b", nominal_rate_bps=700_000.0))
        assert engine.num_shed == 1
        assert engine.admission_rejected_total == 1
        assert "b" in engine.shed_flows
        assert not scheduler.has_flow("b")
        # Removal of a parked flow must not touch the scheduler.
        engine.remove_flow("b")
        assert engine.num_shed == 0

    def test_shed_applies_through_engine(self):
        sim, scheduler, engine = self.build(rate_bps=2_000_000.0)
        engine.add_flow(Flow("old", nominal_rate_bps=500_000.0))
        engine.add_flow(Flow("young", nominal_rate_bps=500_000.0))
        engine.interfaces["if1"].set_rate(500_000.0)
        engine.add_flow(Flow("elastic"))
        assert engine.regimes[-1][1:] == ("flow", "young", (1.0, None, True))
        assert "young" in engine.shed_flows
        assert not scheduler.has_flow("young")
        assert engine.admission_shed_total == 1
        assert scheduler.declared_load_bps() == pytest.approx(500_000.0)

    def test_deadline_miss_accounting(self):
        sim = Simulator()
        scheduler = EdfScheduler()
        engine = SchedulingEngine(sim, scheduler)
        engine.add_interface(Interface(sim, "if1", 8_000.0))  # 1 s/kB
        flow = Flow("slow", deadline_budget=0.5)
        engine.add_flow(flow)
        for _ in range(3):
            flow.offer(Packet(flow_id="slow", size_bytes=1000))
        misses = []
        engine.on_deadline_miss(
            lambda f, packet, lateness: misses.append((f.flow_id, lateness))
        )
        engine.start()
        sim.run(until=10.0)
        # 1 s per packet against a 0.5 s budget: packets 1-3 all finish
        # late (1.0, 2.0, 3.0 s vs deadlines 0.5, 0.5, 0.5).
        assert engine.deadline_packets_total == 3
        assert engine.deadline_misses_total == 3
        assert engine.deadline_misses_by_flow == {"slow": 3}
        assert len(misses) == 3
        assert all(lateness > 0 for _, lateness in misses)

    def test_snapshot_restores_admission_and_deadline_state(self):
        import json

        sim, scheduler, engine = self.build()
        engine.add_flow(Flow("a", nominal_rate_bps=700_000.0))
        engine.add_flow(Flow("b", nominal_rate_bps=700_000.0))  # rejected
        state = json.loads(json.dumps(engine.snapshot_state()))

        sim2 = Simulator()
        scheduler2 = EdfScheduler()
        engine2 = SchedulingEngine(sim2, scheduler2)
        engine2.add_interface(Interface(sim2, "if1", 1_000_000.0))
        engine2.add_flow(Flow("a", nominal_rate_bps=700_000.0))
        engine2.add_flow(Flow("b", nominal_rate_bps=700_000.0))
        engine2.restore_state(state)
        assert engine2.admission_rejected_total == 1
        assert "b" in engine2.shed_flows
        assert not scheduler2.has_flow("b")


class TestCheckpointing:
    def build_scheduler(self):
        scheduler = EdfScheduler()
        scheduler.register_interface("if1")
        scheduler.register_interface("if2")
        scheduler.add_flow(deadline_flow("x", [1.0, 2.0], nominal_rate_bps=1e5))
        scheduler.add_flow(deadline_flow("y", [1.5], interfaces=["if2"]))
        return scheduler

    def test_snapshot_round_trip_is_fixpoint(self):
        import json

        source = self.build_scheduler()
        source.select("if1")
        first = json.loads(json.dumps(source.snapshot_state()))

        target = self.build_scheduler()
        target.select("if1")
        target.restore_state(first, target._flows)
        second = json.loads(json.dumps(target.snapshot_state()))
        assert first == second

    def test_restore_rejects_mismatched_thresholds(self):
        source = self.build_scheduler()
        snapshot = source.snapshot_state()
        other = EdfScheduler(
            admission_control_threshold_low=0.5,
            admission_control_threshold_high=0.9,
        )
        other.register_interface("if1")
        other.register_interface("if2")
        flows = {
            "x": deadline_flow("x", [1.0], nominal_rate_bps=1e5),
            "y": deadline_flow("y", [1.5], interfaces=["if2"]),
        }
        for flow in flows.values():
            other.add_flow(flow)
        with pytest.raises(SchedulingError):
            other.restore_state(snapshot, flows)


class TestConformance:
    """ISSUE 9 acceptance: EDF passes Π-respect and work conservation."""

    def test_interface_preferences_and_work_conservation(self):
        from repro.fairness.conformance import (
            check_interface_preferences,
            check_work_conservation,
        )

        pi = check_interface_preferences(EdfScheduler)
        assert pi.passed, pi.detail
        wc = check_work_conservation(EdfScheduler)
        assert wc.passed, wc.detail
