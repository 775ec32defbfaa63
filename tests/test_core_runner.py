"""Integration tests for the scenario runner."""

import gc
import weakref
from fractions import Fraction

import pytest

from repro.core.runner import ScenarioRun, run_scenario
from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from repro.fairness.fluid import FluidSimulator
from repro.net.interface import CapacityStep
from repro.schedulers.midrr import MiDrrScheduler
from repro.schedulers.per_interface import PerInterfaceScheduler
from repro.units import mbps


def fig1c_scenario(duration=20.0):
    return Scenario(
        name="fig1c",
        interfaces=(InterfaceSpec("if1", mbps(1)), InterfaceSpec("if2", mbps(1))),
        flows=(FlowSpec("a"), FlowSpec("b", interfaces=("if2",))),
        duration=duration,
    )


class TestBasicRuns:
    def test_midrr_rates(self):
        result = run_scenario(fig1c_scenario(), MiDrrScheduler)
        rates = result.rates(2.0, 20.0)
        assert rates["a"] == pytest.approx(mbps(1), rel=0.02)
        assert rates["b"] == pytest.approx(mbps(1), rel=0.02)

    def test_baseline_rates_differ(self):
        result = run_scenario(fig1c_scenario(), PerInterfaceScheduler.wfq)
        rates = result.rates(2.0, 20.0)
        assert rates["a"] == pytest.approx(mbps(1.5), rel=0.05)
        assert rates["b"] == pytest.approx(mbps(0.5), rel=0.05)

    def test_determinism(self):
        first = run_scenario(fig1c_scenario(), MiDrrScheduler)
        second = run_scenario(fig1c_scenario(), MiDrrScheduler)
        assert first.stats.bytes_sent("a") == second.stats.bytes_sent("a")
        assert first.stats.bytes_sent("b") == second.stats.bytes_sent("b")

    def test_timeseries_shape(self):
        result = run_scenario(fig1c_scenario(), MiDrrScheduler)
        series = result.timeseries("a", bin_width=1.0)
        assert len(series) == 20
        # Steady bins sit near 1 Mb/s.
        steady = [rate for time, rate in series if time > 2.0]
        assert min(steady) > mbps(0.9)


class TestDynamicScenarios:
    def test_delayed_flow_start(self):
        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(1)),),
            flows=(
                FlowSpec("early"),
                FlowSpec("late", start_time=10.0),
            ),
            duration=20.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        # Before t=10 early has it all; after, they split.
        assert result.rate("early", 2, 10) == pytest.approx(mbps(1), rel=0.03)
        assert result.rate("early", 11, 20) == pytest.approx(mbps(0.5), rel=0.05)
        assert result.rate("late", 11, 20) == pytest.approx(mbps(0.5), rel=0.05)

    def test_finite_transfer_completion_recorded(self):
        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(1)),),
            flows=(
                FlowSpec(
                    "a",
                    traffic=TrafficSpec("bulk", total_bytes=int(mbps(1) * 5 / 8)),
                ),
                FlowSpec("b"),
            ),
            duration=20.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        # a: 5 Mbit at a fair 0.5 Mb/s → completes at ~10 s.
        assert result.completions["a"] == pytest.approx(10.0, rel=0.05)
        assert result.rate("b", 12, 20) == pytest.approx(mbps(1), rel=0.03)

    def test_capacity_step_changes_rates(self):
        scenario = Scenario(
            interfaces=(
                InterfaceSpec(
                    "if1", mbps(1), capacity_steps=(CapacityStep(10.0, mbps(2)),)
                ),
            ),
            flows=(FlowSpec("a"),),
            duration=20.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        assert result.rate("a", 2, 9) == pytest.approx(mbps(1), rel=0.05)
        assert result.rate("a", 12, 20) == pytest.approx(mbps(2), rel=0.05)

    def test_phases_reflect_arrivals_and_completions(self):
        """The run's regime journal, replayed as the fluid reference,
        starts b at its arrival and ends a at its completion."""
        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(1)),),
            flows=(
                FlowSpec(
                    "a",
                    traffic=TrafficSpec("bulk", total_bytes=int(mbps(1) * 4 / 8)),
                ),
                FlowSpec("b", start_time=2.0),
            ),
            duration=20.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        done = result.completions["a"]
        fluid = FluidSimulator(result.engine.regimes)
        assert set(fluid.run(0.0, 2.0)) == {"a"}
        assert set(fluid.run(2.0, done)) == {"a", "b"}
        assert set(fluid.run(done, 20.0)) == {"b"}
        assert fluid.run(done, 20.0)["b"] == Fraction(mbps(1)) * (
            Fraction(20) - Fraction(done)
        )

    def test_fluid_reference_of_a_steady_run(self):
        result = run_scenario(fig1c_scenario(duration=5.0), MiDrrScheduler)
        service = FluidSimulator(result.engine.regimes).run(0.0, 5.0)
        assert service == {"a": mbps(1) * 5, "b": mbps(1) * 5}

    def test_stochastic_traffic_kinds_run(self):
        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(2)),),
            flows=(
                FlowSpec("p", traffic=TrafficSpec("poisson", rate_bps=mbps(0.5))),
                FlowSpec(
                    "o",
                    traffic=TrafficSpec(
                        "onoff", rate_bps=mbps(1), mean_on=0.5, mean_off=0.5
                    ),
                ),
                FlowSpec("c", traffic=TrafficSpec("cbr", rate_bps=mbps(0.3))),
            ),
            duration=10.0,
            seed=3,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        for flow_id in ("p", "o", "c"):
            assert result.stats.bytes_sent(flow_id) > 0

    def test_seed_changes_stochastic_runs(self):
        def run(seed):
            scenario = Scenario(
                interfaces=(InterfaceSpec("if1", mbps(2)),),
                flows=(
                    FlowSpec("p", traffic=TrafficSpec("poisson", rate_bps=mbps(0.5))),
                ),
                duration=10.0,
                seed=seed,
            )
            return run_scenario(scenario, MiDrrScheduler).stats.bytes_sent("p")

        assert run(1) != run(2)
        assert run(1) == run(1)


class TestClose:
    def scenario(self):
        # A completed bulk transfer, one still running, one not yet
        # started and a capacity step still pending at the horizon.
        return Scenario(
            interfaces=(
                InterfaceSpec("if1", mbps(1), capacity_steps=(CapacityStep(30.0, mbps(2)),)),
                InterfaceSpec("if2", mbps(1)),
            ),
            flows=(
                FlowSpec("done", traffic=TrafficSpec("bulk", total_bytes=30_000)),
                FlowSpec("b", interfaces=("if2",)),
                FlowSpec("late", start_time=20.0),
            ),
            duration=10.0,
        )

    def test_measurements_stay_readable(self):
        run = ScenarioRun(self.scenario(), MiDrrScheduler)
        run.run_to_completion()
        before = (
            run.engine.stats.snapshot_state(),
            dict(run.completions),
            run.sim.now,
            run.sim.events_processed,
        )
        assert run.sim.pending_events > 0
        run.close()
        assert run.sim.pending_events == 0
        assert (
            run.engine.stats.snapshot_state(),
            dict(run.completions),
            run.sim.now,
            run.sim.events_processed,
        ) == before
        assert "done" in run.completions

    def test_freed_without_the_cycle_collector(self):
        run = ScenarioRun(self.scenario(), MiDrrScheduler)
        run.run_to_completion()
        # Simulator and Flow take no weak references (their slots
        # leave none); the collection below covers them.
        refs = [
            weakref.ref(obj)
            for obj in (
                run,
                run.engine,
                run.engine.stats,
                *run.sources.values(),
                *run.engine.interfaces.values(),
            )
        ]
        gc.collect()
        gc.disable()
        try:
            run.close()
            del run
            alive = [ref for ref in refs if ref() is not None]
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert alive == []
        assert unreachable == 0

        # run_scenario closes its run: dropping the result frees it all.
        result = run_scenario(self.scenario(), MiDrrScheduler)
        refs = [weakref.ref(result.engine), weakref.ref(result.stats)]
        gc.collect()
        gc.disable()
        try:
            del result
            alive = [ref for ref in refs if ref() is not None]
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert alive == []
        assert unreachable == 0
