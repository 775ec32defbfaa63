"""A scenario harness whose full state survives checkpoint/restore.

:class:`RecoverableScenarioRun` materializes a
:class:`~repro.core.scenario.Scenario` much like
:func:`~repro.core.runner.run_scenario`, with two deliberate
differences that make the run checkpointable:

* **Every flow is added to the engine at build time** (t = 0); only
  the *traffic source* honours ``start_time``. Listener wiring
  (arrival/drop hooks, source refill hooks) is therefore established
  at construction in both the original and the restored process, so a
  restore never has to re-create closures — it only overwrites state.
* Every object whose bound methods can appear in the event queue is
  registered in a :class:`~repro.recovery.codec.CheckpointContext`
  under a stable name, making the pending event queue serializable.

The run also records the **decision trace**: one ``(interface_id,
flow_id | None, size_bytes)`` entry per scheduler decision, captured
through the engine's decision-probe hook. The crash-equivalence
harness (:mod:`repro.faults.crashes`) asserts this trace is
byte-identical between an uninterrupted run and a kill/restore/replay
run — the paper's determinism requirement carried through a crash.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.engine import SchedulingEngine
from ..core.scenario import FlowSpec, Scenario
from ..errors import CheckpointError, ConfigurationError
from ..net.flow import Flow
from ..net.interface import Interface
from ..net.packet import Packet, packet_seq_state, restore_packet_seq
from ..net.sources import BulkSource, CbrSource, OnOffSource, PoissonSource
from ..schedulers.base import MultiInterfaceScheduler
from ..sim.process import PeriodicProcess
from ..sim.randomness import RandomStreams
from ..sim.simulator import Simulator
from .codec import CheckpointContext, decode_events, encode_events

#: Factory type: builds a fresh scheduler per (re)build.
SchedulerFactory = Callable[[], MultiInterfaceScheduler]

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


class RecoverableScenarioRun:
    """One checkpointable scenario run.

    Build it, drive it with :meth:`step` / :meth:`run_to_completion`,
    snapshot it with :meth:`checkpoint`, and rebuild an equivalent
    process from a snapshot with :meth:`restore`.
    """

    def __init__(
        self,
        scenario: Scenario,
        scheduler_factory: SchedulerFactory,
        extras: Optional[Callable[["RecoverableScenarioRun"], None]] = None,
    ) -> None:
        self.scenario = scenario
        self.sim = Simulator()
        self.streams = RandomStreams(scenario.seed)
        self.scheduler = scheduler_factory()
        self.engine = SchedulingEngine(self.sim, self.scheduler)
        self.context = CheckpointContext()
        self.completions: Dict[str, float] = {}
        self.trace = DecisionTraceRecorder(self.engine)
        #: Decisions made before the snapshot this run was restored
        #: from (0 for a fresh run). ``decisions_made`` is absolute.
        self.decisions_at_restore = 0
        self._flows: Dict[str, Flow] = {}
        self._sources: Dict[str, Any] = {}
        self._components: Dict[str, Any] = {}

        self.context.register("engine", self.engine)
        for interface_spec in scenario.interfaces:
            interface = Interface(
                self.sim, interface_spec.interface_id, interface_spec.rate_bps
            )
            interface.apply_capacity_schedule(interface_spec.capacity_steps)
            self.engine.add_interface(interface)
            self.context.register(f"iface:{interface.interface_id}", interface)

        self.engine.on_flow_completed(self._flow_completed)

        for flow_spec in scenario.flows:
            flow = Flow(
                flow_spec.flow_id,
                weight=flow_spec.weight,
                allowed_interfaces=flow_spec.interfaces,
                deadline_budget=flow_spec.traffic.deadline,
                nominal_rate_bps=flow_spec.traffic.rate_bps,
            )
            source = self._build_source(flow_spec, flow)
            self._flows[flow.flow_id] = flow
            self.context.register(f"flow:{flow.flow_id}", flow)
            self._sources[flow.flow_id] = source
            self.context.register(f"src:{flow.flow_id}", source)
            # Unlike run_scenario, the flow joins the engine immediately
            # even when its traffic starts later: an empty-queue flow is
            # never selected, and eager membership means the restored
            # process has identical listener wiring at build time.
            self.engine.add_flow(
                flow, source=source if hasattr(source, "exhausted") else None
            )

        self.engine.set_decision_probe(self.trace, every=1)
        self.engine.start()
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

    # ------------------------------------------------------------------
    # Build helpers
    # ------------------------------------------------------------------
    def _build_source(self, spec: FlowSpec, flow: Flow) -> Any:
        """Like :func:`~repro.core.runner.build_traffic`, but always
        returns the source object — the codec needs it registered."""
        traffic = spec.traffic
        if traffic.kind == "bulk":
            return BulkSource(
                self.sim,
                flow,
                packet_size=traffic.packet_size,
                total_bytes=traffic.total_bytes,
                start_time=spec.start_time,
            )
        if traffic.kind == "cbr":
            assert traffic.rate_bps is not None
            return CbrSource(
                self.sim,
                flow,
                rate_bps=traffic.rate_bps,
                packet_size=traffic.packet_size,
                start_time=spec.start_time,
            )
        if traffic.kind == "poisson":
            assert traffic.rate_bps is not None
            return PoissonSource(
                self.sim,
                flow,
                rate_pps=traffic.rate_bps / (traffic.packet_size * 8),
                rng=self.streams.stream(f"poisson:{spec.flow_id}"),
                packet_size=traffic.packet_size,
                start_time=spec.start_time,
            )
        if traffic.kind == "onoff":
            assert traffic.rate_bps is not None
            return OnOffSource(
                self.sim,
                flow,
                peak_rate_bps=traffic.rate_bps,
                mean_on=traffic.mean_on,
                mean_off=traffic.mean_off,
                rng=self.streams.stream(f"onoff:{spec.flow_id}"),
                packet_size=traffic.packet_size,
                start_time=spec.start_time,
            )
        raise ConfigurationError(f"unknown traffic kind {traffic.kind!r}")

    def _flow_completed(self, flow: Flow) -> None:
        self.completions[flow.flow_id] = self.sim.now

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    @property
    def decisions_made(self) -> int:
        """Total scheduler decisions since the *original* run started."""
        return self.decisions_at_restore + len(self.trace.entries)

    @property
    def finished(self) -> bool:
        """No pending event lies within the scenario horizon."""
        next_time = self.sim.queue.peek_time()
        return next_time is None or next_time > self.scenario.duration

    def step(self) -> bool:
        """Dispatch one event; ``False`` when the queue is empty."""
        return self.sim.step()

    def run_to_completion(self, max_events: Optional[int] = None) -> None:
        """Run every event within the scenario horizon, then set the
        clock to exactly ``scenario.duration``."""
        self.sim.run(until=self.scenario.duration, max_events=max_events)

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
                for flow_id, flow in self._flows.items()
            },
            "sources": {
                flow_id: source.snapshot_state()
                for flow_id, source in self._sources.items()
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
        establishes every listener), and then every piece of mutable
        state — clock, RNG streams, flow queues, scheduler deficits,
        interface counters, pending events — is overwritten from the
        snapshot. Construction-time events and RNG draws are discarded
        wholesale when the snapshotted queue and stream states land.
        """
        try:
            scenario = Scenario.from_dict(state["scenario"])
            run = cls(scenario, scheduler_factory, extras=extras)
            restore_packet_seq(state["packet_seq"])
            run.streams.restore_state(state["streams"])
            run.sim.restore_clock(
                state["clock"]["now"], state["clock"]["events_processed"]
            )
            for flow_id, flow_state in state["flows"].items():
                flow = run._flows.get(flow_id)
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
                source = run._sources.get(flow_id)
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
