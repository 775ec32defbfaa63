"""Failure injection and churn: the paper's property 4 under stress.

"If we add an interface, we should use it to increase capacity for all
flows willing to use it. When a flow ends, other flows sharing its set
of interfaces should benefit from the freed up capacity." — plus the
failure directions the paper does not spell out: interfaces dying,
capacity collapsing, preferences changing mid-run.
"""

import pytest

from tests.helpers import make_flow

from repro.core.engine import SchedulingEngine
from repro.core.runner import run_scenario
from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.sources import BulkSource
from repro.schedulers.midrr import MiDrrScheduler
from repro.units import mbps


def engine_with(sim, rates):
    engine = SchedulingEngine(sim, MiDrrScheduler())
    for index, rate in enumerate(rates, start=1):
        engine.add_interface(Interface(sim, f"if{index}", rate))
    return engine


class TestNewCapacity:
    def test_interface_added_mid_run_is_used(self, sim):
        """Property 4: a hotplugged interface raises willing flows."""
        engine = engine_with(sim, [mbps(1)])
        flow = Flow("a")
        BulkSource(sim, flow)
        engine.add_flow(flow)
        engine.start()
        sim.run(until=10.0)
        before = engine.stats.rate_in_window("a", 2, 10)

        new_interface = Interface(sim, "hotplug", mbps(2))
        engine.add_interface(new_interface)
        new_interface.kick()
        sim.run(until=20.0)
        after = engine.stats.rate_in_window("a", 12, 20)
        assert before == pytest.approx(mbps(1), rel=0.05)
        assert after == pytest.approx(mbps(3), rel=0.05)

    def test_added_interface_ignored_by_unwilling_flow(self, sim):
        engine = engine_with(sim, [mbps(1)])
        flow = Flow("pinned", allowed_interfaces=["if1"])
        BulkSource(sim, flow)
        engine.add_flow(flow)
        engine.start()
        new_interface = Interface(sim, "hotplug", mbps(2))
        engine.add_interface(new_interface)
        new_interface.kick()
        sim.run(until=10.0)
        assert engine.stats.interface_bytes("hotplug") == 0
        assert engine.stats.rate_in_window("pinned", 2, 10) == pytest.approx(
            mbps(1), rel=0.05
        )

    def test_rate_increase_absorbed(self):
        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(1)),),
            flows=(FlowSpec("a"), FlowSpec("b")),
            duration=20.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        # static; now via capacity steps:
        from repro.net.interface import CapacityStep

        stepped = Scenario(
            interfaces=(
                InterfaceSpec(
                    "if1", mbps(1), capacity_steps=(CapacityStep(10.0, mbps(4)),)
                ),
            ),
            flows=(FlowSpec("a"), FlowSpec("b")),
            duration=20.0,
        )
        stepped_result = run_scenario(stepped, MiDrrScheduler)
        for flow_id in ("a", "b"):
            assert stepped_result.rate(flow_id, 12, 20) == pytest.approx(
                mbps(2), rel=0.05
            )


class TestInterfaceFailure:
    def test_interface_down_shifts_load(self, sim):
        """An interface dying mid-run must not strand a flexible flow."""
        engine = engine_with(sim, [mbps(1), mbps(1)])
        flow = Flow("a")
        BulkSource(sim, flow)
        engine.add_flow(flow)
        engine.start()
        interfaces = engine.interfaces
        sim.schedule(10.0, interfaces["if1"].bring_down)
        sim.run(until=20.0)
        before = engine.stats.rate_in_window("a", 2, 10)
        after = engine.stats.rate_in_window("a", 12, 20)
        assert before == pytest.approx(mbps(2), rel=0.05)
        assert after == pytest.approx(mbps(1), rel=0.05)

    def test_pinned_flow_stalls_when_its_interface_dies(self, sim):
        """A flow unwilling to use the survivor gets nothing — by design."""
        engine = engine_with(sim, [mbps(1), mbps(1)])
        pinned = Flow("pinned", allowed_interfaces=["if1"])
        flexible = Flow("flexible")
        BulkSource(sim, pinned)
        BulkSource(sim, flexible)
        engine.add_flow(pinned)
        engine.add_flow(flexible)
        engine.start()
        sim.schedule(10.0, engine.interfaces["if1"].bring_down)
        sim.run(until=20.0)
        assert engine.stats.service_in_window("pinned", 12, 20) == 0
        # The survivor's capacity all goes to the flexible flow.
        assert engine.stats.rate_in_window("flexible", 12, 20) == pytest.approx(
            mbps(1), rel=0.05
        )

    def test_interface_recovery(self, sim):
        engine = engine_with(sim, [mbps(1), mbps(1)])
        flow = Flow("a")
        BulkSource(sim, flow)
        engine.add_flow(flow)
        engine.start()
        sim.schedule(5.0, engine.interfaces["if2"].bring_down)
        sim.schedule(10.0, engine.interfaces["if2"].bring_up)
        sim.run(until=20.0)
        down_rate = engine.stats.rate_in_window("a", 6, 10)
        recovered = engine.stats.rate_in_window("a", 12, 20)
        assert down_rate == pytest.approx(mbps(1), rel=0.08)
        assert recovered == pytest.approx(mbps(2), rel=0.05)


class TestLivePreferenceChanges:
    def test_restricting_preferences_mid_run(self, sim):
        """User flips "WiFi only" mid-download: Π changes live."""
        engine = engine_with(sim, [mbps(1), mbps(1)])
        flow = Flow("a")
        BulkSource(sim, flow)
        engine.add_flow(flow)
        engine.start()

        def wifi_only():
            flow.restrict_to({"if1"})
            engine.notify_preferences_changed("a")

        sim.schedule(10.0, wifi_only)
        sim.run(until=20.0)
        # After the change, if2 must not serve flow a...
        late_if2 = engine.stats.service_in_window("a", 11, 20, interface_id="if2")
        # ...allowing one in-flight packet at the boundary.
        assert late_if2 <= 1500
        assert engine.stats.rate_in_window("a", 12, 20) == pytest.approx(
            mbps(1), rel=0.05
        )

    def test_flow_removed_mid_run_frees_capacity(self, sim):
        engine = engine_with(sim, [mbps(2)])
        first = Flow("first")
        second = Flow("second")
        BulkSource(sim, first)
        BulkSource(sim, second)
        engine.add_flow(first)
        engine.add_flow(second)
        engine.start()
        sim.schedule(10.0, engine.remove_flow, "first")
        sim.run(until=20.0)
        assert engine.stats.rate_in_window("second", 2, 10) == pytest.approx(
            mbps(1), rel=0.05
        )
        assert engine.stats.rate_in_window("second", 12, 20) == pytest.approx(
            mbps(2), rel=0.05
        )

    def test_weight_change_takes_effect(self, sim):
        """Rate preference edited mid-run (φ is read per turn)."""
        engine = engine_with(sim, [mbps(2)])
        first = Flow("first", weight=1.0)
        second = Flow("second", weight=1.0)
        BulkSource(sim, first)
        BulkSource(sim, second)
        engine.add_flow(first)
        engine.add_flow(second)
        engine.start()

        def boost():
            first.weight = 3.0

        sim.schedule(10.0, boost)
        sim.run(until=20.0)
        early_ratio = engine.stats.service_in_window(
            "first", 2, 10
        ) / engine.stats.service_in_window("second", 2, 10)
        late_ratio = engine.stats.service_in_window(
            "first", 12, 20
        ) / engine.stats.service_in_window("second", 12, 20)
        assert early_ratio == pytest.approx(1.0, rel=0.1)
        assert late_ratio == pytest.approx(3.0, rel=0.1)


class TestChurnStress:
    def test_many_flows_arriving_and_leaving(self):
        """A dozen staggered finite flows: always work-conserving."""
        flows = tuple(
            FlowSpec(
                f"f{index}",
                start_time=float(index),
                traffic=__import__(
                    "repro.core.scenario", fromlist=["TrafficSpec"]
                ).TrafficSpec("bulk", total_bytes=500_000),
            )
            for index in range(12)
        )
        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(2)), InterfaceSpec("if2", mbps(2))),
            flows=flows,
            duration=40.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        # Every flow completed (12 × 0.5 MB = 48 Mbit over 4 Mb/s = 12 s).
        assert len(result.completions) == 12
        # Total service equals total offered bytes.
        total = sum(
            result.stats.bytes_sent(spec.flow_id) for spec in flows
        )
        assert total == 12 * 500_000

    def test_interleaved_churn_never_wastes_capacity(self):
        """While any flow is backlogged, interfaces stay busy."""
        from repro.core.scenario import TrafficSpec

        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(2)),),
            flows=(
                FlowSpec("infinite"),
                FlowSpec(
                    "burst1",
                    start_time=3.0,
                    traffic=TrafficSpec("bulk", total_bytes=250_000),
                ),
                FlowSpec(
                    "burst2",
                    start_time=6.0,
                    traffic=TrafficSpec("bulk", total_bytes=250_000),
                ),
            ),
            duration=20.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        total_bytes = sum(
            result.stats.bytes_sent(f) for f in ("infinite", "burst1", "burst2")
        )
        # Link ran at 100 %: 2 Mb/s × 20 s = 5 MB.
        assert total_bytes == pytest.approx(mbps(2) * 20 / 8, rel=0.01)
