"""Unit tests for the watchdog and the miDRR invariant checker."""

import pytest

from repro.core.engine import SchedulingEngine
from repro.errors import WatchdogError
from repro.health.invariants import MiDrrInvariantChecker
from repro.health.watchdog import (
    ALERT_FLOW_STARVATION,
    ALERT_INTERFACE_STALL,
    ALERT_INVARIANT_VIOLATION,
    Watchdog,
)
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.sources import BulkSource, CbrSource
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.midrr import MiDrrScheduler
from repro.units import mbps


def build_rig(sim, interfaces=1):
    """An engine with a continuously backlogged any-interface flow."""
    scheduler = MiDrrScheduler()
    engine = SchedulingEngine(sim, scheduler)
    for index in range(interfaces):
        engine.add_interface(Interface(sim, f"if{index + 1}", mbps(1)))
    flow = Flow("a")
    BulkSource(sim, flow)
    engine.add_flow(flow)
    return engine, scheduler, flow


class TestWatchdogConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 0},
            {"period": -1},
            {"starvation_timeout": 0},
            {"stall_timeout": -2},
        ],
    )
    def test_invalid_config_rejected(self, sim, kwargs):
        engine, _, _ = build_rig(sim)
        with pytest.raises(WatchdogError):
            Watchdog(sim, engine, **kwargs)

    def test_start_stop(self, sim):
        engine, _, _ = build_rig(sim)
        watchdog = Watchdog(sim, engine, period=0.5)
        assert not watchdog.running
        watchdog.start()
        assert watchdog.running
        engine.start()
        sim.run(until=2.0)
        watchdog.stop()
        assert not watchdog.running
        ticks_at_stop = watchdog.ticks
        sim.run(until=4.0)
        assert watchdog.ticks == ticks_at_stop


class TestStarvationAndStall:
    def _starved_rig(self, sim, **watchdog_kwargs):
        """Backlogged flow the scheduler lost track of: the canonical
        starvation *and* work-conservation breach."""
        engine, scheduler, flow = build_rig(sim)
        scheduler.remove_flow("a")  # simulate a lost registration
        kwargs = dict(period=0.5, starvation_timeout=2.0, stall_timeout=2.0)
        kwargs.update(watchdog_kwargs)
        watchdog = Watchdog(sim, engine, **kwargs)
        watchdog.start()
        engine.start()
        return engine, watchdog

    def test_starvation_alert_raised(self, sim):
        _, watchdog = self._starved_rig(sim)
        sim.run(until=6.0)
        alerts = watchdog.alerts_of(ALERT_FLOW_STARVATION)
        assert alerts
        assert alerts[0].subject == "a"
        assert alerts[0].time >= 2.0  # not before the timeout
        assert "no service" in alerts[0].detail

    def test_interface_stall_alert_raised(self, sim):
        _, watchdog = self._starved_rig(sim)
        sim.run(until=6.0)
        alerts = watchdog.alerts_of(ALERT_INTERFACE_STALL)
        assert alerts
        assert alerts[0].subject == "if1"

    def test_repeat_alerts_are_rate_limited(self, sim):
        _, watchdog = self._starved_rig(sim)
        sim.run(until=10.0)
        # One starvation alert per starvation_timeout, not per tick.
        assert len(watchdog.alerts_of(ALERT_FLOW_STARVATION)) <= 5

    def test_on_alert_listener_sees_everything(self, sim):
        _, watchdog = self._starved_rig(sim)
        seen = []
        watchdog.on_alert(seen.append)
        sim.run(until=6.0)
        assert seen == watchdog.alerts

    def test_strict_mode_escalates(self, sim):
        self._starved_rig(sim, strict=True)
        with pytest.raises(WatchdogError):
            sim.run(until=6.0)

    def test_healthy_run_is_silent(self, sim):
        engine, scheduler, _ = build_rig(sim, interfaces=2)
        checker = MiDrrInvariantChecker(scheduler, engine=engine)
        watchdog = Watchdog(sim, engine, period=0.5, invariant_checker=checker)
        watchdog.start()
        engine.start()
        sim.run(until=10.0)
        assert watchdog.alerts == []
        assert watchdog.ticks >= 15
        assert checker.checks_run == watchdog.ticks
        assert checker.violations == []

    def test_quarantined_flow_is_exempt(self, sim):
        engine, _, _ = build_rig(sim, interfaces=2)
        pinned = Flow("p", allowed_interfaces=("if1",))
        BulkSource(sim, pinned)
        engine.add_flow(pinned)
        watchdog = Watchdog(
            sim, engine, period=0.5, starvation_timeout=2.0, stall_timeout=2.0
        )
        sim.schedule(1.0, engine.interfaces["if1"].bring_down)
        watchdog.start()
        engine.start()
        sim.run(until=8.0)
        assert "p" in engine.quarantined_flows
        # Parked by design: never reported starved, and the downed
        # interface is never reported stalled.
        assert watchdog.alerts == []

    def test_admission_shed_flow_is_exempt(self, sim):
        # 0.9 Mb/s declared on a lone 1 Mb/s link is over EDF's 0.8
        # admission threshold: the flow is rejected but stays backlogged.
        engine = SchedulingEngine(sim, EdfScheduler())
        engine.add_interface(Interface(sim, "if1", mbps(1)))
        flow = Flow("cbr", nominal_rate_bps=900_000.0)
        CbrSource(sim, flow, rate_bps=900_000.0)
        engine.add_flow(flow)
        watchdog = Watchdog(sim, engine)
        watchdog.start()
        engine.start()
        sim.run(until=10.0)
        assert "cbr" in engine.shed_flows and flow.backlogged
        # Neither the flow nor the link it may not use is reported.
        assert watchdog.alerts == []

    def test_departed_flows_are_forgotten(self, sim):
        engine = SchedulingEngine(sim, MiDrrScheduler())
        for name in ("if1", "if2"):
            engine.add_interface(Interface(sim, name, mbps(1)))
        for index in range(50):
            flow = Flow(f"f{index}")
            source = BulkSource(sim, flow, total_bytes=30_000)
            sim.schedule(0.2 * index, engine.add_flow, flow, source)
        watchdog = Watchdog(sim, engine, period=0.5)
        watchdog.start()
        engine.start()
        sim.run(until=20.0)
        assert engine.flows == {}
        assert watchdog.ticks == 40
        assert watchdog.snapshot_state()["flow_samples"] == {}

    def test_repeats_collapse_into_escalating_series(self, sim):
        _, watchdog = self._starved_rig(sim)
        sim.run(until=10.0)
        alerts = watchdog.alerts_of(ALERT_FLOW_STARVATION)
        # Escalating gaps: first at the timeout (~2 s), then the gap
        # doubles — ~4 s, ~8 s. Three emissions in 10 s, not sixteen.
        assert len(alerts) == 3
        assert alerts[0].time == pytest.approx(2.0, abs=0.5)
        assert alerts[1].time == pytest.approx(4.0, abs=0.5)
        assert alerts[2].time == pytest.approx(8.0, abs=0.5)
        # Ticks that fell inside a gap were counted, not lost.
        assert watchdog.alerts_suppressed > 0
        assert "repeats suppressed" in alerts[1].detail

    def test_alert_reports_growing_outage_length(self, sim):
        _, watchdog = self._starved_rig(sim)
        sim.run(until=10.0)
        alerts = watchdog.alerts_of(ALERT_FLOW_STARVATION)
        outages = [
            float(alert.detail.split("for ")[1].split("s")[0])
            for alert in alerts
        ]
        # The starvation clock keeps running across emissions — each
        # alert reports the true outage length, not the gap since the
        # previous alert.
        assert outages == sorted(outages)
        assert outages[-1] > outages[0]

    def test_gap_is_capped(self, sim):
        _, watchdog = self._starved_rig(sim, max_alert_gap=2.0)
        sim.run(until=10.0)
        alerts = watchdog.alerts_of(ALERT_FLOW_STARVATION)
        # Capped at 2 s the series never escalates past one alert per
        # two seconds: emissions at ~2, 4, 6, 8.
        assert len(alerts) == 4

    def test_series_resets_on_progress(self, sim):
        engine, watchdog = self._starved_rig(sim)
        sim.run(until=5.0)
        first_phase = len(watchdog.alerts_of(ALERT_FLOW_STARVATION))
        assert first_phase >= 1
        # Service resumes: re-register the flow, let it drain a while.
        engine.scheduler.add_flow(engine.flows["a"])
        sim.run(until=7.0)
        # Then starve it again — the escalation series must restart
        # from the base gap, emitting promptly rather than waiting out
        # the previously escalated gap.
        engine.scheduler.remove_flow("a")
        sim.run(until=12.0)
        assert len(watchdog.alerts_of(ALERT_FLOW_STARVATION)) > first_phase

    def test_snapshot_restore_round_trip(self, sim):
        import json

        _, watchdog = self._starved_rig(sim)
        sim.run(until=6.0)
        state = json.loads(json.dumps(watchdog.snapshot_state()))
        restored = Watchdog(sim, watchdog._engine)
        restored.restore_state(state)
        assert restored.ticks == watchdog.ticks
        assert restored.alerts == watchdog.alerts
        assert restored.alerts_suppressed == watchdog.alerts_suppressed
        assert restored.snapshot_state() == watchdog.snapshot_state()

    def test_invariant_violations_become_alerts(self, sim):
        engine, scheduler, _ = build_rig(sim)
        checker = MiDrrInvariantChecker(scheduler, engine=engine)
        watchdog = Watchdog(sim, engine, period=0.5, invariant_checker=checker)
        watchdog.start()
        engine.start()
        sim.run(until=1.0)
        # State of a flow that was never registered: no live scheduling
        # touches it, so it survives until the tick.
        scheduler._on_flow_added(Flow("ghost"))
        scheduler._slot("ghost", "if1").deficit = -5.0
        sim.run(until=1.6)
        alerts = watchdog.alerts_of(ALERT_INVARIANT_VIOLATION)
        assert alerts
        assert "negative deficit" in alerts[0].detail


class TestInvariantChecker:
    def test_healthy_state_is_clean(self, sim):
        engine, scheduler, _ = build_rig(sim, interfaces=2)
        engine.start()
        sim.run(until=2.0)
        checker = MiDrrInvariantChecker(scheduler, engine=engine)
        assert checker.check() == []
        assert checker.checks_run == 1
        assert checker.violations == []

    def test_negative_deficit_flagged(self, sim):
        engine, scheduler, _ = build_rig(sim)
        engine.start()
        sim.run(until=1.0)
        scheduler._slot("a", "if1").deficit = -5.0
        violations = MiDrrInvariantChecker(scheduler).check()
        assert any("negative deficit" in v for v in violations)

    def test_service_flag_out_of_range_flagged(self, sim):
        engine, scheduler, _ = build_rig(sim)
        engine.start()
        sim.run(until=1.0)
        scheduler._slot("a", "if1").flag = 7
        violations = MiDrrInvariantChecker(scheduler).check()
        assert any("service flag" in v for v in violations)

    def test_drained_flow_holding_deficit_flagged(self, sim):
        engine, scheduler, _ = build_rig(sim)
        idle = Flow("idle")  # no source: never backlogged
        engine.add_flow(idle)
        scheduler._slot("idle", "if1").deficit = 10.0
        violations = MiDrrInvariantChecker(scheduler).check()
        assert any("drained flow 'idle'" in v for v in violations)

    def test_quarantined_flow_still_registered_flagged(self, sim):
        engine, scheduler, _ = build_rig(sim, interfaces=2)
        pinned = Flow("p", allowed_interfaces=("if1",))
        engine.add_flow(pinned)
        engine.interfaces["if1"].bring_down()
        assert "p" in engine.quarantined_flows
        assert not scheduler.has_flow("p")
        scheduler.add_flow(pinned)  # break the degradation contract by hand
        checker = MiDrrInvariantChecker(scheduler, engine=engine)
        violations = checker.check()
        assert any("quarantined flow 'p'" in v for v in violations)
        assert checker.violations == violations
