"""Chaos regression tests: determinism, invariants, graceful degradation.

The seeded scenario tests carry the ``chaos`` marker (deselect with
``-m 'not chaos'``); the quarantine-resume rig below them is a plain
deterministic unit test of the engine's degradation layer.
"""

import pytest

from repro.core.engine import SchedulingEngine
from repro.errors import FaultError, SchedulingError
from repro.fairness.waterfill import weighted_maxmin
from repro.faults.chaos import CHAOS_BULK_FLOWS, ChaosRun, run_chaos
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.sources import BulkSource
from repro.schedulers.midrr import MiDrrScheduler
from repro.sim.simulator import Simulator
from repro.units import mbps


@pytest.fixture(scope="module")
def seed7_pair():
    """The same 60 s chaos scenario executed twice."""
    return run_chaos(seed=7, duration=60.0), run_chaos(seed=7, duration=60.0)


@pytest.mark.chaos
class TestDeterminism:
    def test_same_seed_identical_fault_timeline(self, seed7_pair):
        first, second = seed7_pair
        assert first.fault_signature() == second.fault_signature()
        assert first.timeline.render_lines() == second.timeline.render_lines()
        assert len(first.timeline) > 0

    def test_same_seed_identical_stats(self, seed7_pair):
        first, second = seed7_pair
        assert first.stats_signature() == second.stats_signature()
        assert first.bytes_by_flow == second.bytes_by_flow
        assert first.drops_by_flow == second.drops_by_flow
        assert first.packets_lost == second.packets_lost
        assert first.packets_corrupted == second.packets_corrupted

    def test_different_seeds_diverge(self):
        first = run_chaos(seed=3, duration=20.0)
        second = run_chaos(seed=4, duration=20.0)
        assert first.fault_signature() != second.fault_signature()


@pytest.mark.chaos
class TestChaosHealth:
    def test_flapping_actually_happened(self, seed7_pair):
        report, _ = seed7_pair
        assert sum(report.interface_down_counts.values()) > 0
        assert report.timeline.of_kind("if_down")

    def test_zero_invariant_violations_over_60s(self, seed7_pair):
        report, _ = seed7_pair
        assert report.duration >= 60.0
        assert report.invariant_violations == []

    def test_no_watchdog_alerts(self, seed7_pair):
        report, _ = seed7_pair
        assert report.alerts == []

    def test_quarantine_spells_open_and_close(self, seed7_pair):
        report, _ = seed7_pair
        # Flapping parks the single-interface flows: `pinned` (wifi) and
        # the wire flow (cell) — never the multi-homed bulk flows.
        parked = {spell.flow_id for spell in report.quarantine_spells}
        assert "pinned" in parked
        assert parked <= {"pinned", "wire"}
        for spell in report.quarantine_spells:
            assert spell.end is not None  # all closed by the fault window
            assert spell.duration >= 0.0

    def test_every_corruption_is_detected(self, seed7_pair):
        report, _ = seed7_pair
        assert report.packets_corrupted > 0
        assert report.corruptions_detected == report.packets_corrupted

    def test_bounded_wire_queue_dropped_under_outage(self, seed7_pair):
        report, _ = seed7_pair
        assert report.drops_by_flow.get("wire", 0) > 0

    def test_recovery_within_ten_percent_of_maxmin(self, seed7_pair):
        report, _ = seed7_pair
        for flow_id in CHAOS_BULK_FLOWS:
            ratio = report.recovery_ratio(flow_id)
            assert ratio is not None
            assert 0.9 <= ratio <= 1.1, f"{flow_id} recovered at ratio {ratio}"

    def test_report_renders(self, seed7_pair):
        report, _ = seed7_pair
        text = report.to_text()
        assert "chaos run: seed=7" in text
        assert "fault signature:" in text
        assert "stats signature:" in text
        assert "recovery" in text


@pytest.mark.chaos
class TestChaosSmoke:
    def test_fast_seeded_smoke(self):
        report = run_chaos(seed=3, duration=20.0)
        assert report.invariant_violations == []
        assert report.alerts == []
        assert len(report.timeline) > 0
        assert report.bytes_by_flow["video"] > 0

    def test_short_duration_rejected(self):
        with pytest.raises(FaultError):
            run_chaos(seed=0, duration=5.0)

    def test_sliced_run_matches_unsliced(self):
        """start() + sim.run in slices + finish() reports what run() does
        (the auditor-overhead bench advances runs this way)."""
        whole = ChaosRun(seed=3, duration=20.0).run()
        sliced = ChaosRun(seed=3, duration=20.0)
        sliced.start()
        for until in (0.3, 7.0, 12.5, 20.0):
            sliced.sim.run(until=until)
        report = sliced.finish()
        assert report.stats_signature() == whole.stats_signature()
        assert report.fault_signature() == whole.fault_signature()
        assert report.alerts == whole.alerts


OUTAGE_START = 10.0
OUTAGE_END = 15.0
DURATION = 30.0


@pytest.fixture(scope="module")
def outage_rig():
    """A pinned flow loses its only interface for five seconds."""
    sim = Simulator()
    scheduler = MiDrrScheduler()
    engine = SchedulingEngine(sim, scheduler)
    engine.add_interface(Interface(sim, "wifi", mbps(8)))
    engine.add_interface(Interface(sim, "lte", mbps(5)))
    pinned = Flow("pinned", allowed_interfaces=("wifi",))
    bulk = Flow("bulk")
    BulkSource(sim, pinned)
    BulkSource(sim, bulk)
    engine.add_flow(pinned)
    engine.add_flow(bulk)

    events = []
    engine.on_quarantine_change(
        lambda flow, quarantined: events.append((sim.now, flow.flow_id, quarantined))
    )
    probes = {}

    def probe_during():
        probes["during"] = (
            "pinned" in engine.quarantined_flows,
            scheduler.has_flow("pinned"),
        )

    sim.schedule(OUTAGE_START, engine.interfaces["wifi"].bring_down)
    sim.schedule(OUTAGE_END, engine.interfaces["wifi"].bring_up)
    sim.schedule(12.0, probe_during)
    engine.start()
    sim.run(until=DURATION)
    return engine, events, probes


class TestQuarantineResume:
    def test_whole_pi_set_down_triggers_quarantine(self, outage_rig):
        engine, events, probes = outage_rig
        quarantined, registered = probes["during"]
        assert quarantined and not registered
        assert [(e[1], e[2]) for e in events] == [("pinned", True), ("pinned", False)]
        assert events[0][0] == pytest.approx(OUTAGE_START)
        assert events[1][0] == pytest.approx(OUTAGE_END)

    def test_parked_flow_receives_nothing(self, outage_rig):
        engine, _, _ = outage_rig
        assert engine.stats.rate_in_window("pinned", OUTAGE_START + 0.5, OUTAGE_END) == 0.0
        # The unconstrained flow keeps flowing on the survivor.
        assert engine.stats.rate_in_window("bulk", OUTAGE_START + 0.5, OUTAGE_END) > 0

    def test_pi_respected_throughout(self, outage_rig):
        engine, _, _ = outage_rig
        matrix = engine.stats.service_matrix()
        assert matrix.get(("pinned", "wifi"), 0) > 0
        assert ("pinned", "lte") not in matrix

    def test_resume_restores_weighted_maxmin(self, outage_rig):
        engine, _, _ = outage_rig
        reference = weighted_maxmin(
            {"pinned": (1.0, ["wifi"]), "bulk": (1.0, None)},
            {"wifi": mbps(8), "lte": mbps(5)},
        )
        for flow_id in ("pinned", "bulk"):
            target = float(reference.rate(flow_id))
            measured = engine.stats.rate_in_window(flow_id, OUTAGE_END + 2.0, DURATION)
            assert abs(measured - target) / target < 0.10

    def test_flow_stays_listed_while_quarantined(self, outage_rig):
        engine, _, _ = outage_rig
        # After recovery both flows are active and nothing is parked.
        assert set(engine.flows) == {"pinned", "bulk"}
        assert engine.quarantined_flows == {}


class TestQuarantineEdgeCases:
    def test_add_flow_straight_into_quarantine(self, sim):
        engine = SchedulingEngine(sim, MiDrrScheduler())
        engine.add_interface(Interface(sim, "wifi", mbps(8)))
        engine.interfaces["wifi"].bring_down()
        pinned = Flow("pinned", allowed_interfaces=("wifi",))
        engine.add_flow(pinned)
        assert "pinned" in engine.quarantined_flows
        assert not engine.scheduler.has_flow("pinned")
        engine.interfaces["wifi"].bring_up()
        assert engine.quarantined_flows == {}
        assert engine.scheduler.has_flow("pinned")

    def test_unknown_interface_still_rejected(self, sim):
        engine = SchedulingEngine(sim, MiDrrScheduler())
        engine.add_interface(Interface(sim, "wifi", mbps(8)))
        ghost = Flow("ghost", allowed_interfaces=("zzz",))
        with pytest.raises(SchedulingError):
            engine.add_flow(ghost)
