"""Unit tests for the queue-aware steering scheduler."""

import pytest

from tests.helpers import make_flow

from repro.errors import SchedulingError
from repro.schedulers.qaware import QAwareScheduler


class FakeInterface:
    def __init__(self, interface_id, rate_bps):
        self.interface_id = interface_id
        self.rate_bps = rate_bps


def build(rates=None):
    """A scheduler over if1/if2, optionally with observed rates."""
    scheduler = QAwareScheduler()
    scheduler.register_interface("if1")
    scheduler.register_interface("if2")
    for interface_id, rate in (rates or {}).items():
        scheduler.observe_interface(FakeInterface(interface_id, rate))
    return scheduler


class TestSteering:
    def test_steers_to_faster_interface(self):
        scheduler = build(rates={"if1": 1e6, "if2": 4e6})
        scheduler.add_flow(make_flow("f", backlog_packets=10))
        assert scheduler.assignment() == {"f": "if2"}
        assert scheduler.steers_total == 1

    def test_unobserved_rates_balance_by_depth(self):
        scheduler = build()
        scheduler.add_flow(make_flow("a", backlog_packets=10))
        scheduler.add_flow(make_flow("b", backlog_packets=2))
        assignment = scheduler.assignment()
        # a took the first line; b avoids a's 15 kB of queued bytes.
        assert assignment["a"] != assignment["b"]

    def test_queue_depth_counts_assigned_backlogs(self):
        scheduler = build()
        scheduler.add_flow(make_flow("a", backlog_packets=4, packet_size=1000))
        target = scheduler.assignment()["a"]
        assert scheduler.queue_depth_bytes(target) == 4000

    def test_reactivation_resteers_to_live_depths(self):
        scheduler = build(rates={"if1": 1e6, "if2": 1e6})
        heavy = make_flow("heavy", backlog_packets=50)
        scheduler.add_flow(heavy)
        light = make_flow("light", backlog_packets=1)
        scheduler.add_flow(light)
        first = scheduler.assignment()["light"]
        assert first != scheduler.assignment()["heavy"]
        # Drain light, then re-backlog it: steering re-scores against
        # whatever the queues look like *now*.
        assert scheduler.select(first).flow_id == "light"
        light.offer(make_flow("light", backlog_packets=1).queue.head())
        scheduler.notify_backlogged(light)
        assert scheduler.assignment()["light"] != scheduler.assignment()["heavy"]

    def test_unknown_interface_raises(self):
        scheduler = QAwareScheduler()
        with pytest.raises(SchedulingError):
            scheduler.select("nope")
        with pytest.raises(SchedulingError):
            scheduler.queue_depth_bytes("nope")


class TestServiceAndStealing:
    def test_serves_own_line_fifo(self):
        scheduler = build(rates={"if1": 1e6, "if2": 1e6})
        scheduler.add_flow(make_flow("a", interfaces=["if1"], backlog_packets=2))
        scheduler.add_flow(make_flow("b", interfaces=["if1"], backlog_packets=2))
        order = [scheduler.select("if1").flow_id for _ in range(4)]
        assert order == ["a", "a", "b", "b"]

    def test_idle_interface_steals_willing_flow(self):
        scheduler = build(rates={"if1": 1e6, "if2": 1e6})
        scheduler.add_flow(make_flow("f", backlog_packets=4))
        owner = scheduler.assignment()["f"]
        other = "if2" if owner == "if1" else "if1"
        packet = scheduler.select(other)
        assert packet is not None and packet.flow_id == "f"
        assert scheduler.steals_total == 1
        assert scheduler.assignment()["f"] == other

    def test_steal_respects_pi(self):
        scheduler = build(rates={"if1": 1e6, "if2": 1e6})
        scheduler.add_flow(
            make_flow("pinned", interfaces=["if1"], backlog_packets=4)
        )
        assert scheduler.select("if2") is None
        assert scheduler.steals_total == 0

    def test_live_pi_edit_resteers(self):
        scheduler = build(rates={"if1": 1e6, "if2": 1e6})
        flow = make_flow("m", backlog_packets=4)
        scheduler.add_flow(flow)
        owner = scheduler.assignment()["m"]
        flow.restrict_to({"if2" if owner == "if1" else "if1"})
        scheduler.notify_preferences_changed(flow)
        # The old owner must not serve it; the select re-steers it.
        assert scheduler.select(owner) is None
        new_owner = scheduler.assignment()["m"]
        assert new_owner != owner
        assert scheduler.select(new_owner).flow_id == "m"

    def test_drained_flow_leaves_its_line(self):
        scheduler = build()
        scheduler.add_flow(make_flow("f", backlog_packets=1))
        owner = scheduler.assignment()["f"]
        assert scheduler.select(owner) is not None
        assert "f" not in scheduler.assignment()
        assert scheduler.select(owner) is None


class TestCheckpointing:
    def build_populated(self):
        scheduler = build(rates={"if1": 1e6, "if2": 2e6})
        scheduler.add_flow(make_flow("a", backlog_packets=3))
        scheduler.add_flow(make_flow("b", interfaces=["if1"], backlog_packets=3))
        return scheduler

    def test_snapshot_round_trip_is_fixpoint(self):
        import json

        source = self.build_populated()
        source.select("if1")
        first = json.loads(json.dumps(source.snapshot_state()))

        target = self.build_populated()
        target.select("if1")
        target.restore_state(first, dict(target._flows))
        second = json.loads(json.dumps(target.snapshot_state()))
        assert first == second

    def test_restore_preserves_assignment(self):
        source = self.build_populated()
        snapshot = source.snapshot_state()
        target = self.build_populated()
        target.restore_state(snapshot, dict(target._flows))
        assert target.assignment() == source.assignment()
        assert target.steers_total == source.steers_total


class TestConformance:
    """ISSUE 9 acceptance: QAware passes Π-respect and work conservation."""

    def test_interface_preferences_and_work_conservation(self):
        from repro.fairness.conformance import (
            check_interface_preferences,
            check_work_conservation,
        )

        pi = check_interface_preferences(QAwareScheduler)
        assert pi.passed, pi.detail
        wc = check_work_conservation(QAwareScheduler)
        assert wc.passed, wc.detail
