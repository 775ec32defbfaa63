"""Inline fairness auditor: alert dedup, tracking, drift, determinism."""

import json
from fractions import Fraction

import pytest

from repro.core.engine import SchedulingEngine
from repro.core.runner import run_scenario
from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from repro.errors import WatchdogError
from repro.fairness.fluid import FluidSimulator
from repro.faults.chaos import ChaosRun
from repro.health import (
    ALERT_FAIRNESS_DRIFT,
    Alert,
    AlertDeduper,
    FairnessAuditor,
)
from repro.net.flow import Flow
from repro.net.interface import CapacityStep, Interface
from repro.recovery import RecoverableScenarioRun
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.midrr import MiDrrScheduler
from repro.schedulers.per_interface import PerInterfaceScheduler
from repro.sim.simulator import Simulator
from repro.units import mbps


def steady_scenario(duration=8.0, seed=5):
    """Two always-backlogged flows over two stable interfaces."""
    return Scenario(
        name="audit-steady",
        interfaces=(
            InterfaceSpec("wifi", mbps(4)),
            InterfaceSpec("cell", mbps(1)),
        ),
        flows=(
            FlowSpec("bulk", traffic=TrafficSpec("bulk")),
            FlowSpec(
                "pinned",
                weight=2.0,
                interfaces=("cell",),
                traffic=TrafficSpec("bulk"),
            ),
        ),
        duration=duration,
        seed=seed,
    )


def skewed_scenario(duration=12.0, seed=5):
    """One interface, φ = 1 vs 9: a weight-blind scheduler must drift."""
    return Scenario(
        name="audit-skewed",
        interfaces=(InterfaceSpec("if1", mbps(2)),),
        flows=(
            FlowSpec("light", weight=1.0, traffic=TrafficSpec("bulk")),
            FlowSpec("heavy", weight=9.0, traffic=TrafficSpec("bulk")),
        ),
        duration=duration,
        seed=seed,
    )


def audited_run(
    scenario,
    scheduler_factory=MiDrrScheduler,
    **auditor_kwargs,
):
    box = {}

    def attach(sim, engine):
        auditor = FairnessAuditor(sim, engine, period=0.5, **auditor_kwargs)
        auditor.start()
        box["auditor"] = auditor

    result = run_scenario(scenario, scheduler_factory, on_engine=attach)
    return result, box["auditor"]


class TestAlertDeduper:
    def test_first_occurrence_emits_verbatim(self):
        deduper = AlertDeduper(max_gap=60.0)
        assert deduper.admit("kind", "s", "detail", base_gap=2.0, now=0.0) == (
            "detail"
        )

    def test_repeats_inside_the_gap_are_suppressed_and_counted(self):
        deduper = AlertDeduper(max_gap=60.0)
        deduper.admit("kind", "s", "d", base_gap=2.0, now=0.0)
        assert deduper.admit("kind", "s", "d", base_gap=2.0, now=0.5) is None
        assert deduper.admit("kind", "s", "d", base_gap=2.0, now=1.9) is None
        assert deduper.suppressed_total == 2
        assert deduper.admit("kind", "s", "d", base_gap=2.0, now=2.0) == (
            "d (2 repeats suppressed)"
        )

    def test_gap_escalates_and_caps(self):
        deduper = AlertDeduper(max_gap=5.0)
        now, emitted = 0.0, []
        for _ in range(6):
            if deduper.admit("kind", "s", "d", base_gap=2.0, now=now) is not None:
                emitted.append(now)
            now += 1.0
        # Emits at 0, then after gaps 2, 4 (5 capped would be next).
        assert emitted == [0.0, 2.0]
        assert deduper.admit("kind", "s", "d", base_gap=2.0, now=6.0) is not None
        # Gap is now capped at 5, not 8.
        assert deduper.admit("kind", "s", "d", base_gap=2.0, now=10.9) is None
        assert deduper.admit("kind", "s", "d", base_gap=2.0, now=11.0) is not None

    def test_clear_resets_the_series(self):
        deduper = AlertDeduper(max_gap=60.0)
        deduper.admit("kind", "s", "d", base_gap=2.0, now=0.0)
        deduper.clear("kind", "s")
        # Recovered and re-broke: emits immediately again.
        assert deduper.admit("kind", "s", "d", base_gap=2.0, now=0.5) == "d"

    def test_series_are_independent_per_subject(self):
        deduper = AlertDeduper(max_gap=60.0)
        deduper.admit("kind", "a", "d", base_gap=2.0, now=0.0)
        assert deduper.admit("kind", "b", "d", base_gap=2.0, now=0.5) == "d"

    def test_snapshot_restore_roundtrip(self):
        deduper = AlertDeduper(max_gap=60.0)
        deduper.admit("kind", "s", "d", base_gap=2.0, now=0.0)
        deduper.admit("kind", "s", "d", base_gap=2.0, now=0.5)
        rows = json.loads(json.dumps(deduper.snapshot_series()))
        restored = AlertDeduper(max_gap=60.0)
        restored.restore_series(rows)
        # Still inside the original gap; the suppression state carried.
        assert restored.admit("kind", "s", "d", base_gap=2.0, now=1.0) is None
        assert restored.admit("kind", "s", "d", base_gap=2.0, now=2.0) == (
            "d (2 repeats suppressed)"
        )

    def test_alert_renders(self):
        alert = Alert(time=1.5, kind="fairness_drift", subject="f", detail="x")
        assert "fairness_drift" in str(alert)
        assert "f" in str(alert)


@pytest.mark.audit
class TestAuditorSmoke:
    """Tier-1 smoke: the auditor tracks a healthy run without noise."""

    def test_steady_midrr_run_audits_clean(self):
        result, auditor = audited_run(steady_scenario())
        assert auditor.ticks > 0
        assert auditor.audits_total > 0
        assert auditor.alerts == []
        # The live fluid optimum for the steady instance is exact.
        assert float(auditor.solver.rate("bulk")) == pytest.approx(mbps(4))
        assert float(auditor.solver.rate("pinned")) == pytest.approx(mbps(1))
        # A healthy miDRR tracks it well inside the drift allowance.
        assert auditor.drift_peak < 1.0

    def test_validation(self):
        scenario = steady_scenario(duration=1.0)

        def attach_bad(sim, engine):
            FairnessAuditor(sim, engine, period=0.0)

        with pytest.raises(WatchdogError):
            run_scenario(scenario, MiDrrScheduler, on_engine=attach_bad)

    def test_quiescence_gating_skips_early_windows(self):
        # Shorter than the window: every tick catches up, none audits.
        result, auditor = audited_run(steady_scenario(duration=1.5))
        assert auditor.ticks > 0
        assert auditor.audits_total == 0


@pytest.mark.audit
class TestDriftDetection:
    def test_weight_blind_scheduler_trips_the_alert(self):
        result, auditor = audited_run(
            skewed_scenario(), scheduler_factory=PerInterfaceScheduler.fifo
        )
        assert auditor.audits_total > 0
        assert auditor.alerts, "fifo vs 9:1 weights must register as drift"
        assert {alert.kind for alert in auditor.alerts} == {
            ALERT_FAIRNESS_DRIFT
        }
        assert {alert.subject for alert in auditor.alerts} <= {
            "light",
            "heavy",
        }
        assert auditor.drift_peak > 1.0

    def test_midrr_stays_clean_on_the_same_workload(self):
        result, auditor = audited_run(skewed_scenario())
        assert auditor.audits_total > 0
        assert auditor.alerts == []

    def test_strict_mode_raises(self):
        with pytest.raises(WatchdogError, match="fairness_drift"):
            audited_run(
                skewed_scenario(),
                scheduler_factory=PerInterfaceScheduler.fifo,
                strict=True,
            )

    def test_repeated_drift_is_deduplicated(self):
        result, auditor = audited_run(
            skewed_scenario(duration=20.0),
            scheduler_factory=PerInterfaceScheduler.fifo,
        )
        # Persistent unfairness: a handful of escalating alerts, not
        # one per audit tick.
        assert 0 < len(auditor.alerts) < auditor.audits_total * 2
        assert auditor.alerts_suppressed > 0


@pytest.mark.audit
class TestReadOnlyDeterminism:
    def test_chaos_signatures_identical_with_and_without_auditor(self):
        bare = ChaosRun(seed=5, duration=20.0).run()
        audited_chaos = ChaosRun(seed=5, duration=20.0, with_auditor=True)
        audited = audited_chaos.run()
        assert audited.fault_signature() == bare.fault_signature()
        assert audited.stats_signature() == bare.stats_signature()
        assert audited_chaos.auditor.ticks > 0

    def test_fairness_snapshot_deterministic_across_runs(self):
        scenario = steady_scenario()
        _, first = audited_run(scenario)
        _, second = audited_run(scenario)
        assert first.snapshot_state()["audits_total"] > 0
        assert second.snapshot_state() == first.snapshot_state()


def reweight(engine, flow_id, weight):
    engine.flows[flow_id].weight = weight
    engine.notify_preferences_changed(flow_id)


def restrict(engine, flow_id, row):
    engine.flows[flow_id].restrict_to(row)
    engine.notify_preferences_changed(flow_id)


def collapse(engine):
    # Capacity falls under the admitted demand (1 Mb/s on 0.5 Mb/s): the
    # next arrival makes EDF admission control shed "young".
    for interface in engine.interfaces.values():
        interface.set_rate(250_000.0)


def wifi(engine):
    return engine.interfaces["wifi"]


#: name -> (edit at 0.5 s or None, edit at 1.3 s, check on the solver,
#: expected last_change_at). Every change must reach the solver stamped
#: with its own event time, not the time of the tick that read it.
CHOKEPOINTS = {
    "phi": (
        None,
        lambda engine: reweight(engine, "old", 3.0),
        lambda solver: solver.weight_of("old") == 3,
        1.3,
    ),
    "pi": (
        None,
        lambda engine: restrict(engine, "old", {"cell"}),
        lambda solver: solver.row_of("old") == {"cell"},
        1.3,
    ),
    "late-interface": (
        # Willing to use no registered interface yet: quarantined by the
        # engine, masked by the auditor until "sat" registers.
        lambda engine: restrict(engine, "old", {"sat"}),
        lambda engine: engine.add_interface(
            Interface(engine.sim, "sat", 500_000.0)
        ),
        lambda solver: solver.capacity("sat") == 500_000
        and solver.row_of("old") == {"sat"},
        1.3,
    ),
    "rate-while-up": (
        None,
        lambda engine: wifi(engine).set_rate(2_000_000.0),
        lambda solver: solver.capacity("wifi") == 2_000_000,
        1.3,
    ),
    "rate-while-down": (
        lambda engine: wifi(engine).bring_down(),
        lambda engine: wifi(engine).set_rate(2_000_000.0),
        lambda solver: solver.capacity("wifi") == 0,
        0.5,
    ),
    "bring-down": (
        None,
        lambda engine: wifi(engine).bring_down(),
        lambda solver: solver.capacity("wifi") == 0,
        1.3,
    ),
    "bring-up": (
        lambda engine: wifi(engine).bring_down(),
        lambda engine: wifi(engine).bring_up(),
        lambda solver: solver.capacity("wifi") == 1_000_000,
        1.3,
    ),
    "admission-rejection": (
        None,
        lambda engine: engine.add_flow(
            Flow("greedy", nominal_rate_bps=1_500_000.0)
        ),
        lambda solver: not solver.has_flow("greedy"),
        1.3,
    ),
    "shed": (
        collapse,
        lambda engine: engine.add_flow(Flow("elastic")),
        lambda solver: solver.has_flow("elastic")
        and not solver.has_flow("young"),
        1.3,
    ),
    "remove": (
        None,
        lambda engine: engine.remove_flow("old"),
        lambda solver: not solver.has_flow("old"),
        1.3,
    ),
}


@pytest.mark.audit
class TestRegimeJournal:
    @pytest.mark.parametrize("case", sorted(CHOKEPOINTS))
    def test_each_chokepoint_reaches_the_solver_at_its_own_time(self, case):
        prepare, edit, check, change_at = CHOKEPOINTS[case]
        sim = Simulator()
        # EDF, so admission verdicts (rejection, shedding) take part.
        engine = SchedulingEngine(sim, EdfScheduler())
        engine.add_interface(Interface(sim, "wifi", 1_000_000.0))
        engine.add_interface(Interface(sim, "cell", 1_000_000.0))
        engine.add_flow(Flow("old", nominal_rate_bps=500_000.0))
        engine.add_flow(Flow("young", nominal_rate_bps=500_000.0))
        auditor = FairnessAuditor(sim, engine, period=1.0)
        auditor.start()
        engine.start()
        if prepare is not None:
            sim.schedule(0.5, prepare, engine)
        sim.schedule(1.3, edit, engine)
        # Past the tick at 2.0, which must not restamp the change.
        sim.run(until=2.5)
        assert check(auditor.solver)
        state = auditor.snapshot_state()
        assert state["last_change_at"] == change_at
        assert state["cursor"] == len(engine.regimes)
        # Shed flows leave the instance but stay known, at rate 0.
        assert set(state["masked"]) == set(engine.shed_flows)

    def test_construction_replays_the_journal(self):
        _, late = audited_run(steady_scenario(duration=2.0))
        sim, engine = late._sim, late._engine
        fresh = FairnessAuditor(sim, engine, period=0.5)
        assert fresh.snapshot_state()["cursor"] == len(engine.regimes)
        assert fresh.solver.allocation.rates == late.solver.allocation.rates
        # The replayed past is setup, not churn.
        assert fresh.solver.deltas_total == 0
        assert fresh.snapshot_state()["last_change_at"] == sim.now

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_audits_match_the_fluid_replay(self, seed):
        """At every audit the auditor's live optimum is exactly the
        fluid reference's mean rate over the trailing window."""
        run = ChaosRun(seed=seed, duration=30.0, with_auditor=True)
        auditor, sim = run.auditor, run.sim
        run.start()
        audits = 0
        while sim.queue.peek_time() is not None and sim.queue.peek_time() <= 30.0:
            sim.step()
            if auditor.audits_total == audits:
                continue
            audits = auditor.audits_total
            start, end = sim.now - auditor.window, sim.now
            service = FluidSimulator(run.engine.regimes).run(start, end)
            span = Fraction(end) - Fraction(start)
            rates = {flow_id: bits / span for flow_id, bits in service.items()}
            assert rates == auditor.solver.allocation.rates, end
        assert audits > 0


def auditor_extras(run):
    auditor = FairnessAuditor(run.sim, run.engine, period=0.5)
    auditor.start()
    run.attach("health:auditor", auditor)


@pytest.mark.audit
@pytest.mark.recovery
class TestCheckpointRestore:
    def test_auditor_checkpoints_and_resumes(self):
        scenario = steady_scenario(duration=6.0)
        reference = RecoverableScenarioRun(
            scenario, MiDrrScheduler, extras=auditor_extras
        )
        reference.run_to_completion()
        ref_auditor = reference._components["health:auditor"]
        assert ref_auditor.ticks > 0
        assert ref_auditor.audits_total > 0

        ref_state = ref_auditor.snapshot_state()

        # Checkpoint once 400 steps in, before anything has read the
        # optimum (stale cache), and once right after the first audit
        # read it (fresh cache: the restore rebuilds it uncounted).
        for fresh in (False, True):
            run = RecoverableScenarioRun(
                scenario, MiDrrScheduler, extras=auditor_extras
            )
            live = run._components["health:auditor"]
            steps = 0
            while not run.finished and (
                live.audits_total == 0 if fresh else steps < 400
            ):
                if not run.step():
                    break
                steps += 1
            state = json.loads(json.dumps(run.checkpoint()))
            solver_state = state["components"]["health:auditor"]["solver"]
            assert solver_state["solved"] is fresh
            prefix = list(run.trace.entries)

            restored = RecoverableScenarioRun.restore(
                state, MiDrrScheduler, extras=auditor_extras
            )
            restored.run_to_completion()
            assert prefix + list(restored.trace.entries) == list(
                reference.trace.entries
            )
            auditor = restored._components["health:auditor"]
            assert auditor.ticks == ref_auditor.ticks
            assert auditor.audits_total == ref_auditor.audits_total
            assert auditor.drift_last == ref_auditor.drift_last
            assert auditor.drift_peak == ref_auditor.drift_peak
            # Whole state, solver counters included.
            assert auditor.snapshot_state() == ref_state
            assert (
                auditor.solver.allocation.rates
                == ref_auditor.solver.allocation.rates
            )

    def test_auditor_follows_journal_entries_after_restore(self):
        """A completion, a late arrival and a capacity step all land in
        the journal after the checkpoint: the restored auditor must see
        each of them, like the uninterrupted run's."""
        scenario = Scenario(
            name="audit-journal-after-checkpoint",
            interfaces=(
                InterfaceSpec(
                    "if1", mbps(1), capacity_steps=(CapacityStep(5.0, mbps(4)),)
                ),
                InterfaceSpec("if2", mbps(1)),
            ),
            flows=(
                FlowSpec("a", traffic=TrafficSpec("bulk")),
                FlowSpec(
                    "b",
                    interfaces=("if2",),
                    traffic=TrafficSpec("bulk", total_bytes=int(mbps(1) * 3 / 8)),
                ),
                FlowSpec("c", start_time=4.0, traffic=TrafficSpec("bulk")),
            ),
            duration=10.0,
        )
        reference = RecoverableScenarioRun(
            scenario, MiDrrScheduler, extras=auditor_extras
        )
        reference.run_to_completion()
        ref_auditor = reference._components["health:auditor"]
        ref_state = ref_auditor.snapshot_state()

        run = RecoverableScenarioRun(scenario, MiDrrScheduler, extras=auditor_extras)
        while not run.finished and run.sim.now < 2.0:
            run.step()
        state = json.loads(json.dumps(run.checkpoint()))
        checkpoint_entries = len(run.engine.regimes)
        restored = RecoverableScenarioRun.restore(
            state, MiDrrScheduler, extras=auditor_extras
        )
        restored.run_to_completion()
        kinds = {kind for _, kind, _, _ in restored.engine.regimes[checkpoint_entries:]}
        assert kinds == {"remove", "flow", "capacity"}
        auditor = restored._components["health:auditor"]
        assert auditor.snapshot_state() == ref_state
        assert sorted(auditor.solver.flow_ids) == ["a", "c"]
        assert auditor.solver.allocation.rates == ref_auditor.solver.allocation.rates
