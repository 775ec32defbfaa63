"""Crash-equivalence: kill/restore/replay must be byte-identical.

The harness (``repro.faults.crashes.run_crash_equivalence``) kills a
run at injected event indices, restores from the checkpoint taken at
the kill point (round-tripped through the real JSON envelope), replays
to the horizon and compares the scheduling-decision trace against an
uninterrupted run. These tests assert equivalence on the paper
workloads — Figure 1, Figure 6, a Figure 7-style stochastic mix — and
on a planned-fault chaos seed.
"""

import dataclasses

import pytest

from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from repro.experiments import fig1, fig6
from repro.faults.crashes import (
    CrashInjector,
    SimulatedCrash,
    run_crash_equivalence,
)
from repro.faults.plan import FaultPlan, PlannedFault
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.midrr import MiDrrScheduler
from repro.schedulers.per_interface import PerInterfaceScheduler
from repro.schedulers.qaware import QAwareScheduler
from repro.units import mbps

KILL_POINTS = (150, 1200, 3500)


def fig7_workload():
    """A Figure 7-style stochastic mix: poisson and on/off flows."""
    return Scenario(
        name="fig7-workload",
        interfaces=(
            InterfaceSpec("wifi", mbps(4)),
            InterfaceSpec("lte", mbps(2)),
        ),
        flows=(
            FlowSpec(
                "web",
                traffic=TrafficSpec("poisson", rate_bps=mbps(1.5)),
            ),
            FlowSpec(
                "sync",
                weight=2.0,
                interfaces=("wifi",),
                traffic=TrafficSpec(
                    "onoff", rate_bps=mbps(3), mean_on=0.5, mean_off=0.8
                ),
            ),
            FlowSpec(
                "stream",
                start_time=1.5,
                traffic=TrafficSpec("cbr", rate_bps=mbps(0.8)),
            ),
        ),
        duration=8.0,
        seed=11,
    )


def assert_equivalent(report):
    assert report.total_decisions > 0
    for result in report.results:
        assert result.equivalent, (
            f"kill at event #{result.kill_index} diverged at decision "
            f"{result.first_divergence} "
            f"(prefix={result.decisions_at_kill}, "
            f"suffix={result.decisions_after_restore})"
        )


@pytest.mark.recovery
class TestPaperWorkloads:
    def test_fig1_equivalence(self):
        scenario = fig1.ALL_SCENARIOS["fig1a"]()
        report = run_crash_equivalence(scenario, MiDrrScheduler, KILL_POINTS)
        assert_equivalent(report)

    def test_fig6_equivalence(self):
        # The full 100 s run is tier-2 territory; the first phase holds
        # all the dynamics (finite transfers, shared if2) and keeps the
        # test fast.
        scenario = dataclasses.replace(fig6.scenario(), duration=12.0)
        report = run_crash_equivalence(scenario, MiDrrScheduler, KILL_POINTS)
        assert_equivalent(report)

    def test_fig7_workload_equivalence(self):
        report = run_crash_equivalence(fig7_workload(), MiDrrScheduler, KILL_POINTS)
        assert_equivalent(report)

    def test_equivalence_under_baseline_scheduler(self):
        # The protocol is scheduler-agnostic: a per-interface baseline
        # checkpoints and replays identically too.
        report = run_crash_equivalence(
            fig7_workload(), PerInterfaceScheduler.wfq, (200, 2500)
        )
        assert_equivalent(report)


@pytest.mark.recovery
@pytest.mark.chaos
class TestChaosSeedEquivalence:
    def test_planned_faults_equivalence(self):
        scenario = fig7_workload()
        plan = FaultPlan(
            [
                PlannedFault(
                    "churn", "*", 0.0, 6.0, params={"period": 1.5}
                ),
                PlannedFault(
                    "flap",
                    "lte",
                    0.5,
                    6.5,
                    params={"mean_up": 1.2, "mean_down": 0.4},
                ),
                PlannedFault(
                    "loss", "wifi", 1.0, params={"probability": 0.03}
                ),
                PlannedFault(
                    "collapse",
                    "wifi",
                    2.0,
                    5.0,
                    params={"collapse_factor": 0.2},
                ),
            ]
        )
        plan.validate(scenario)
        report = run_crash_equivalence(
            scenario, MiDrrScheduler, KILL_POINTS, extras=plan.apply
        )
        assert_equivalent(report)


def deadline_workload():
    """The fig7 mix with per-packet deadlines on the latency flows.

    Deadline-carrying traffic exercises the EDF candidate scan and the
    engine's miss accounting across the kill/restore boundary.
    """
    scenario = fig7_workload()
    flows = tuple(
        dataclasses.replace(
            spec,
            traffic=dataclasses.replace(
                spec.traffic,
                deadline={"web": 0.25, "stream": 0.1}.get(spec.flow_id),
            ),
        )
        for spec in scenario.flows
    )
    return dataclasses.replace(scenario, flows=flows, name="deadline-workload")


@pytest.mark.recovery
class TestDeadlineFamilyEquivalence:
    """EDF and QAware hold crash equivalence too."""

    @pytest.mark.parametrize(
        "factory",
        [EdfScheduler, QAwareScheduler],
        ids=["edf", "qaware"],
    )
    def test_family_equivalence(self, factory):
        report = run_crash_equivalence(deadline_workload(), factory, (200, 2500))
        assert_equivalent(report)

    @pytest.mark.parametrize(
        "factory",
        [EdfScheduler, QAwareScheduler],
        ids=["edf", "qaware"],
    )
    def test_family_checkpoint_fixpoint(self, factory):
        """restore(checkpoint()) is a fixpoint for the new schedulers."""
        import json

        from repro.recovery import RecoverableScenarioRun
        from repro.recovery.checkpoint import canonical_state_json

        run = RecoverableScenarioRun(deadline_workload(), factory)
        for _ in range(900):
            if run.finished or not run.step():
                break
        first = json.loads(json.dumps(run.checkpoint()))
        restored = RecoverableScenarioRun.restore(first, factory)
        second = json.loads(json.dumps(restored.checkpoint()))
        assert canonical_state_json(first) == canonical_state_json(second)


@pytest.mark.recovery
class TestKillRestoreSmoke:
    """The tier-1 smoke: one injected kill, restore, identical outcome."""

    def test_kill_restore_smoke(self):
        import json

        from repro.recovery import (
            RecoverableScenarioRun,
            unwrap_state,
            wrap_state,
        )

        scenario = fig7_workload()
        reference = RecoverableScenarioRun(scenario, MiDrrScheduler)
        reference.run_to_completion()

        injector = CrashInjector(at_events=[800])
        run = RecoverableScenarioRun(scenario, MiDrrScheduler)
        with pytest.raises(SimulatedCrash):
            while not run.finished and run.step():
                injector.check(run.sim)
        state = unwrap_state(
            json.loads(json.dumps(wrap_state(run.checkpoint())))
        )
        restored = RecoverableScenarioRun.restore(state, MiDrrScheduler)
        restored.run_to_completion()
        stitched = list(run.trace.entries) + list(restored.trace.entries)
        assert stitched == list(reference.trace.entries)
        for spec in scenario.flows:
            assert restored.engine.stats.bytes_sent(
                spec.flow_id
            ) == reference.engine.stats.bytes_sent(spec.flow_id)
