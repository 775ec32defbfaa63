"""Checkpoint envelope, round-trip fixpoint and resume properties."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
)
from repro.recovery import (
    CHECKPOINT_SCHEMA_VERSION,
    RecoverableScenarioRun,
    load_checkpoint,
    save_checkpoint,
    unwrap_state,
    wrap_state,
)
from repro.recovery.checkpoint import canonical_state_json
from repro.schedulers.midrr import MiDrrScheduler
from repro.units import mbps


def small_scenario(seed=3):
    return Scenario(
        name="recovery-small",
        interfaces=(InterfaceSpec("if1", mbps(1)), InterfaceSpec("if2", mbps(2))),
        flows=(
            FlowSpec("a"),
            FlowSpec(
                "b",
                interfaces=("if2",),
                traffic=TrafficSpec("poisson", rate_bps=mbps(0.5)),
            ),
            FlowSpec(
                "c", weight=2.0, traffic=TrafficSpec("bulk", total_bytes=200_000)
            ),
        ),
        duration=6.0,
        seed=seed,
    )


def run_for(scenario, events):
    run = RecoverableScenarioRun(scenario, MiDrrScheduler)
    for _ in range(events):
        if run.finished or not run.step():
            break
    return run


class TestEnvelope:
    def test_wrap_unwrap_round_trip(self):
        state = {"clock": {"now": 1.5}, "flows": {"a": [1, 2, 3]}}
        assert unwrap_state(wrap_state(state)) == state

    def test_envelope_survives_json(self):
        state = {"numbers": [1, 2.5, None, True], "nested": {"x": "y"}}
        document = json.loads(json.dumps(wrap_state(state)))
        assert unwrap_state(document) == state

    def test_version_mismatch_is_typed(self):
        document = wrap_state({"x": 1})
        document["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        with pytest.raises(CheckpointVersionError):
            unwrap_state(document)

    def test_version_checked_before_checksum(self):
        # A version-skewed file reports the skew even when also damaged.
        document = wrap_state({"x": 1})
        document["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        document["checksum"] = "not-a-checksum"
        with pytest.raises(CheckpointVersionError):
            unwrap_state(document)

    def test_tampered_state_is_corrupt(self):
        document = wrap_state({"x": 1})
        document["state"]["x"] = 2
        with pytest.raises(CheckpointCorruptError):
            unwrap_state(document)

    def test_tampered_checksum_is_corrupt(self):
        document = wrap_state({"x": 1})
        document["checksum"] = "0" * 64
        with pytest.raises(CheckpointCorruptError):
            unwrap_state(document)

    @pytest.mark.parametrize(
        "document",
        [
            None,
            [],
            {},
            {"schema_version": CHECKPOINT_SCHEMA_VERSION, "state": {}},
            {
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "checksum": "x",
                "state": "not-a-dict",
            },
        ],
    )
    def test_structural_damage_is_corrupt(self, document):
        with pytest.raises(CheckpointCorruptError):
            unwrap_state(document)

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        state = {"a": [1, 2], "b": {"c": None}}
        save_checkpoint(path, state)
        assert load_checkpoint(path) == state

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(str(path))

    def test_load_rejects_bitflip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, {"deficit": 1500})
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace("1500", "1501"))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(str(path))

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers(-1_000_000, 1_000_000)
                | st.text(max_size=12),
                lambda inner: st.lists(inner, max_size=4)
                | st.dictionaries(st.text(min_size=1, max_size=6), inner, max_size=4),
                max_leaves=12,
            ),
            max_size=6,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_wrap_unwrap_fixpoint_property(self, state):
        document = json.loads(json.dumps(wrap_state(state)))
        recovered = unwrap_state(document)
        assert recovered == json.loads(json.dumps(state))
        # And re-wrapping the recovered state reproduces the checksum.
        assert wrap_state(recovered)["checksum"] == document["checksum"]


class TestRestoreFixpoint:
    @pytest.mark.parametrize("events", [0, 1, 37, 250, 900])
    def test_restore_checkpoint_fixpoint(self, events):
        run = run_for(small_scenario(), events)
        first = json.loads(json.dumps(run.checkpoint()))
        restored = RecoverableScenarioRun.restore(first, MiDrrScheduler)
        second = json.loads(json.dumps(restored.checkpoint()))
        assert canonical_state_json(first) == canonical_state_json(second)

    @given(st.integers(min_value=0, max_value=600))
    @settings(deadline=None, max_examples=15)
    def test_restore_checkpoint_fixpoint_property(self, events):
        run = run_for(small_scenario(), events)
        first = json.loads(json.dumps(run.checkpoint()))
        restored = RecoverableScenarioRun.restore(first, MiDrrScheduler)
        second = json.loads(json.dumps(restored.checkpoint()))
        assert canonical_state_json(first) == canonical_state_json(second)

    def test_restore_rejects_wrong_scheduler_kind(self):
        from repro.schedulers.per_interface import PerInterfaceScheduler

        run = run_for(small_scenario(), 50)
        state = json.loads(json.dumps(run.checkpoint()))
        with pytest.raises(CheckpointError):
            RecoverableScenarioRun.restore(state, PerInterfaceScheduler.wfq)

    def test_restore_rejects_missing_keys(self):
        run = run_for(small_scenario(), 50)
        state = json.loads(json.dumps(run.checkpoint()))
        del state["streams"]
        with pytest.raises(CheckpointError):
            RecoverableScenarioRun.restore(state, MiDrrScheduler)

    def test_restore_rejects_engine_flow_missing_from_scenario(self):
        run = run_for(small_scenario(), 50)
        state = json.loads(json.dumps(run.checkpoint()))
        state["engine"]["flow_order"].append("ghost")
        with pytest.raises(CheckpointError, match="'ghost'"):
            RecoverableScenarioRun.restore(state, MiDrrScheduler)


def reference_trace(scenario):
    reference = RecoverableScenarioRun(scenario, MiDrrScheduler)
    reference.run_to_completion()
    return list(reference.trace.entries)


class TestResumeReproducesTrace:
    @given(st.integers(min_value=0, max_value=1200))
    @settings(deadline=None, max_examples=12)
    def test_resume_at_arbitrary_event_index(self, kill_index):
        scenario = small_scenario()
        if not hasattr(type(self), "_reference"):
            type(self)._reference = reference_trace(scenario)
        reference = type(self)._reference

        run = run_for(scenario, kill_index)
        state = json.loads(json.dumps(run.checkpoint()))
        prefix = list(run.trace.entries)
        restored = RecoverableScenarioRun.restore(state, MiDrrScheduler)
        restored.run_to_completion()
        suffix = list(restored.trace.entries)
        assert prefix == reference[: len(prefix)]
        assert suffix == reference[len(prefix) :]


def watchdog_extras(run):
    from repro.health import Watchdog

    watchdog = Watchdog(run.sim, run.engine)
    watchdog.start()
    run.attach("health:watchdog", watchdog)


class TestPeriodicExtras:
    """Components that schedule through an internal PeriodicProcess
    (the watchdog) must checkpoint: ``attach`` registers the delegated
    process so its pending tick event serializes."""

    def test_watchdog_extras_checkpoint_and_resume(self):
        scenario = small_scenario()
        reference = RecoverableScenarioRun(
            scenario, MiDrrScheduler, extras=watchdog_extras
        )
        reference.run_to_completion()
        ref_wd = reference._components["health:watchdog"]
        assert ref_wd.ticks > 0

        run = RecoverableScenarioRun(
            scenario, MiDrrScheduler, extras=watchdog_extras
        )
        for _ in range(400):
            if run.finished or not run.step():
                break
        # The pending watchdog tick must serialize, not raise.
        state = json.loads(json.dumps(run.checkpoint()))
        prefix = list(run.trace.entries)

        restored = RecoverableScenarioRun.restore(
            state, MiDrrScheduler, extras=watchdog_extras
        )
        restored.run_to_completion()
        assert prefix + list(restored.trace.entries) == list(
            reference.trace.entries
        )
        wd = restored._components["health:watchdog"]
        assert wd.ticks == ref_wd.ticks
        assert len(wd.alerts) == len(ref_wd.alerts)


class TestScoresLikeRunScenario:
    """The checkpointable run is built as :func:`~repro.core.runner.run_scenario`
    builds its run: each flow declares its deadline budget and nominal
    rate, and joins the engine at its ``start_time``."""

    def test_deadline_scoring_matches_run_scenario(self):
        from repro.core.runner import run_scenario

        cbr = TrafficSpec("cbr", rate_bps=mbps(1.5), deadline=0.02)
        scenario = Scenario(
            interfaces=(InterfaceSpec("a", mbps(2)), InterfaceSpec("b", mbps(1))),
            flows=(
                FlowSpec("x", traffic=cbr),
                FlowSpec("y", traffic=cbr),
                FlowSpec("z", start_time=1.0),
            ),
            duration=5.0,
        )
        reference = run_scenario(scenario, MiDrrScheduler)
        run = RecoverableScenarioRun(scenario, MiDrrScheduler)
        run.run_to_completion()
        assert reference.engine.deadline_packets_total == 915
        assert reference.engine.deadline_misses_total == 661
        assert run.engine.deadline_packets_total == 915
        assert run.engine.deadline_misses_total == 661
        for flow_id in ("x", "y", "z"):
            assert run.engine.stats.bytes_sent(flow_id) == reference.stats.bytes_sent(
                flow_id
            )

    def test_late_flow_admitted_at_its_start_time(self):
        # y (1.5 Mb/s) would not fit link a's 1 Mb/s at t=0, but starts
        # at t=2, after a has stepped to 4 Mb/s: EDF admission control
        # must review it then, not at build time.
        from repro.core.runner import run_scenario
        from repro.net.interface import CapacityStep
        from repro.schedulers.edf import EdfScheduler

        scenario = Scenario(
            interfaces=(
                InterfaceSpec(
                    "a", mbps(1), capacity_steps=(CapacityStep(1.0, mbps(4)),)
                ),
            ),
            flows=(
                FlowSpec("x", traffic=TrafficSpec("cbr", rate_bps=mbps(0.5))),
                FlowSpec(
                    "y",
                    start_time=2.0,
                    traffic=TrafficSpec("cbr", rate_bps=mbps(1.5)),
                ),
            ),
            duration=5.0,
        )
        expected = {"x": 313_500, "y": 562_500}
        reference = run_scenario(scenario, EdfScheduler)
        run = RecoverableScenarioRun(scenario, EdfScheduler)
        run.run_to_completion()
        for engine in (reference.engine, run.engine):
            assert engine.admission_rejected_total == 0
            assert {
                flow_id: engine.stats.bytes_sent(flow_id) for flow_id in expected
            } == expected

        # A checkpoint taken before y joins carries its pending add_flow
        # event; the restored run admits y at t=2 as the original does.
        early = RecoverableScenarioRun(scenario, EdfScheduler)
        while early.sim.queue.peek_time() <= 1.5:
            early.step()
        state = json.loads(json.dumps(early.checkpoint()))
        prefix = list(early.trace.entries)
        restored = RecoverableScenarioRun.restore(state, EdfScheduler)
        restored.run_to_completion()
        assert prefix + list(restored.trace.entries) == list(run.trace.entries)
        assert restored.engine.stats.bytes_sent("y") == expected["y"]
