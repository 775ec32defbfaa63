"""Checkpoint and restore for a scenario run.

:class:`RecoverableScenarioRun` is a :class:`~repro.core.runner.ScenarioRun`
(the builder :func:`~repro.core.runner.run_scenario` uses, so both
make the same decisions) that also registers every object whose bound
methods can appear in the event queue in a
:class:`~repro.recovery.codec.CheckpointContext` under a stable name.
That makes the pending event queue serializable, including the
``engine.add_flow`` events of flows that start later. A restore
rebuilds the run, re-adds the flows that had joined the engine by the
snapshot, and then only overwrites state — it never re-creates
closures.

The run also records the **decision trace**: one ``(interface_id,
flow_id | None, size_bytes)`` entry per scheduler decision, captured
through the engine's decision-probe hook. The crash-equivalence
harness (:mod:`repro.faults.crashes`) asserts this trace is
byte-identical between an uninterrupted run and a kill/restore/replay
run — the paper's determinism requirement carried through a crash.
Plain :func:`~repro.core.runner.run_scenario` runs install no probe.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.engine import SchedulingEngine
from ..core.runner import ScenarioRun, SchedulerFactory
from ..core.scenario import Scenario
from ..errors import CheckpointError
from ..net.interface import Interface
from ..net.packet import Packet, packet_seq_state, restore_packet_seq
from ..sim.process import PeriodicProcess
from .codec import CheckpointContext, decode_events, encode_events

#: One recorded decision: (interface_id, selected flow or None, bytes).
DecisionEntry = Tuple[str, Optional[str], int]


class DecisionTraceRecorder:
    """Capture every scheduler decision through the engine probe.

    Installed with ``engine.set_decision_probe(recorder, every=1)`` so
    no decision bypasses it. The probe contract requires returning the
    scheduler's own answer unchanged; recording is side-effect-free
    with respect to scheduling.
    """

    def __init__(self, engine: SchedulingEngine) -> None:
        self._engine = engine
        self.entries: List[DecisionEntry] = []

    def __call__(self, interface: Interface) -> Optional[Packet]:
        packet = self._engine.scheduler.select(interface.interface_id)
        if packet is None:
            self.entries.append((interface.interface_id, None, 0))
        else:
            self.entries.append(
                (interface.interface_id, packet.flow_id, packet.size_bytes)
            )
        return packet


class RecoverableScenarioRun(ScenarioRun):
    """One checkpointable scenario run.

    Built by :class:`~repro.core.runner.ScenarioRun`; drive it with
    :meth:`step` / :meth:`run_to_completion`, snapshot it with
    :meth:`checkpoint`, and rebuild an equivalent process from a
    snapshot with :meth:`restore`. *extras*, if given, is called with
    the run before the first kick, after the run's own objects are
    registered for checkpointing.
    """

    def __init__(
        self,
        scenario: Scenario,
        scheduler_factory: SchedulerFactory,
        extras: Optional[Callable[["RecoverableScenarioRun"], None]] = None,
    ) -> None:
        self.context = CheckpointContext()
        #: Decisions made before the snapshot this run was restored
        #: from (0 for a fresh run). ``decisions_made`` is absolute.
        self.decisions_at_restore = 0
        self._components: Dict[str, Any] = {}

        super().__init__(
            scenario, scheduler_factory, prepare=lambda run: run._wire(extras)
        )

    def _wire(
        self, extras: Optional[Callable[["RecoverableScenarioRun"], None]]
    ) -> None:
        """Register the built objects, install the decision trace and
        run *extras*: the ``prepare`` step, before the first kick."""
        self.context.register("engine", self.engine)
        for interface_id, interface in self.engine.interfaces.items():
            self.context.register(f"iface:{interface_id}", interface)
        for flow_id, flow in self.flows.items():
            self.context.register(f"flow:{flow_id}", flow)
            self.context.register(f"src:{flow_id}", self.sources[flow_id])
        self.trace = DecisionTraceRecorder(self.engine)
        self.engine.set_decision_probe(self.trace, every=1)
        if extras is not None:
            extras(self)

    def attach(self, name: str, component: Any) -> Any:
        """Register an extra component (e.g. a fault process).

        The component joins the checkpoint context (so its bound-method
        events are serializable) and, when it offers
        ``snapshot_state``/``restore_state``, participates in
        checkpoints. Must be called from the ``extras`` builder so the
        original and every restored process attach identically.
        """
        self.context.register(name, component)
        # Components that delegate their scheduling to a PeriodicProcess
        # (the watchdog, snapshot exporters) own no pending events
        # themselves — the process does. Register it under a derived
        # name so those tick events serialize too.
        process = getattr(component, "_process", None)
        if isinstance(process, PeriodicProcess):
            self.context.register(f"{name}:process", process)
        self._components[name] = component
        return component

    @property
    def decisions_made(self) -> int:
        """Total scheduler decisions since the *original* run started."""
        return self.decisions_at_restore + len(self.trace.entries)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the complete run state as a JSON-safe dict.

        Pair with :func:`repro.recovery.checkpoint.wrap_state` /
        :func:`~repro.recovery.checkpoint.save_checkpoint` for the
        versioned, checksummed on-disk form.
        """
        return {
            "scenario": self.scenario.to_dict(),
            "clock": {
                "now": self.sim.now,
                "events_processed": self.sim.events_processed,
            },
            "packet_seq": packet_seq_state(),
            "streams": self.streams.snapshot_state(),
            "engine": self.engine.snapshot_state(),
            "interfaces": {
                interface_id: interface.snapshot_state()
                for interface_id, interface in self.engine.interfaces.items()
            },
            "flows": {
                flow_id: flow.snapshot_state()
                for flow_id, flow in self.flows.items()
            },
            "sources": {
                flow_id: source.snapshot_state()
                for flow_id, source in self.sources.items()
            },
            "completions": dict(self.completions),
            "components": {
                name: component.snapshot_state()
                for name, component in self._components.items()
                if hasattr(component, "snapshot_state")
            },
            "decisions_made": self.decisions_made,
            "queue": encode_events(self.sim.queue, self.context),
        }

    @classmethod
    def restore(
        cls,
        state: Dict[str, Any],
        scheduler_factory: SchedulerFactory,
        extras: Optional[Callable[["RecoverableScenarioRun"], None]] = None,
    ) -> "RecoverableScenarioRun":
        """Rebuild a run from a :meth:`checkpoint` snapshot.

        The scenario is reconstructed from the snapshot itself, the
        whole object graph is rebuilt through ``__init__`` (which
        establishes every listener), flows that had joined the engine
        after t = 0 rejoin it, and then every piece of mutable state —
        clock, RNG streams, flow queues, scheduler deficits, interface
        counters, pending events — is overwritten from the snapshot.
        Construction-time events and RNG draws are discarded wholesale
        when the snapshotted queue and stream states land.
        """
        try:
            scenario = Scenario.from_dict(state["scenario"])
            run = cls(scenario, scheduler_factory, extras=extras)
            # Rejoin before any state lands: add_flow kicks a backlogged
            # flow's interfaces, which would pop restored packets.
            joined = run.engine.flows
            for flow_id in state["engine"]["flow_order"]:
                if flow_id in joined:
                    continue
                flow = run.flows.get(flow_id)
                if flow is None:
                    raise CheckpointError(
                        f"snapshot's engine has flow {flow_id!r} missing "
                        "from the rebuilt scenario"
                    )
                run.engine.add_flow(flow, source=run.sources[flow_id])
            restore_packet_seq(state["packet_seq"])
            run.streams.restore_state(state["streams"])
            run.sim.restore_clock(
                state["clock"]["now"], state["clock"]["events_processed"]
            )
            for flow_id, flow_state in state["flows"].items():
                flow = run.flows.get(flow_id)
                if flow is None:
                    raise CheckpointError(
                        f"snapshot has state for flow {flow_id!r} missing "
                        "from the rebuilt scenario"
                    )
                flow.restore_state(flow_state)
            run.engine.restore_state(state["engine"])
            interfaces = run.engine.interfaces
            for interface_id, interface_state in state["interfaces"].items():
                interface = interfaces.get(interface_id)
                if interface is None:
                    raise CheckpointError(
                        f"snapshot has state for interface {interface_id!r} "
                        "missing from the rebuilt scenario"
                    )
                interface.restore_state(interface_state)
            for flow_id, source_state in state["sources"].items():
                source = run.sources.get(flow_id)
                if source is None:
                    raise CheckpointError(
                        f"snapshot has state for source {flow_id!r} missing "
                        "from the rebuilt scenario"
                    )
                source.restore_state(source_state)
            run.completions = dict(state["completions"])
            for name, component_state in state["components"].items():
                component = run._components.get(name)
                if component is None:
                    raise CheckpointError(
                        f"snapshot has state for component {name!r} not "
                        "attached by the extras builder"
                    )
                component.restore_state(component_state)
            decode_events(state["queue"], run.sim.queue, run.context)
            run.decisions_at_restore = int(state["decisions_made"])
            # Construction (engine.start) already recorded a handful of
            # empty-queue decisions; they belong to the build, not the
            # continuation, and are identical in every rebuild.
            run.trace.entries.clear()
            return run
        except KeyError as exc:
            raise CheckpointError(f"snapshot missing key {exc}") from exc
