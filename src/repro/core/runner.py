"""Experiment runner: scenario × scheduler → measurements.

:class:`ScenarioRun` materializes a :class:`~repro.core.scenario.Scenario`
against any :class:`~repro.schedulers.base.MultiInterfaceScheduler`;
it is the one builder, which the checkpointable run in
:mod:`repro.recovery.runner` extends. :func:`run_scenario` builds one,
runs it to completion and returns an :class:`ExperimentResult` with the
raw service samples plus the derived quantities the paper's figures
need: per-flow rate time series, windowed average rates and measured
rate clusters. The engine's regime journal stays on the result, the
input of the fluid max-min reference (:mod:`repro.fairness.fluid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..fairness.clusters import EmpiricalCluster, extract_clusters
from ..net.flow import Flow
from ..net.interface import Interface
from ..net.sink import StatsCollector
from ..net.sources import BulkSource, CbrSource, OnOffSource, PoissonSource
from ..prefs.preferences import PreferenceSet
from ..schedulers.base import MultiInterfaceScheduler
from ..sim.randomness import RandomStreams
from ..sim.simulator import Simulator
from .engine import SchedulingEngine
from .scenario import FlowSpec, Scenario

#: Factory type: builds a fresh scheduler per run.
SchedulerFactory = Callable[[], MultiInterfaceScheduler]

#: How a batch of independent runs is spread: ``"serial"`` runs them
#: one after another in this process, ``"process"`` on a pool of worker
#: processes. The fleet coordinator runs its shards (one
#: :func:`run_scenario` per device) on one of these.
EXECUTORS = ("serial", "process")

#: Packets a seeded bench cell transmits (sets its virtual duration).
#: Long enough that the run averages over sub-second host load swings
#: and that ``bench obs``'s fixed 20 snapshots cost well under 1%.
DEFAULT_TARGET_PACKETS = 24000


@dataclass
class ExperimentResult:
    """Everything measured during one scenario run."""

    scenario: Scenario
    stats: StatsCollector
    sim: Simulator
    engine: SchedulingEngine
    completions: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------
    def rate(self, flow_id: str, start: float, end: float) -> float:
        """Average rate (bits/s) of *flow_id* over ``(start, end]``."""
        return self.stats.rate_in_window(flow_id, start, end)

    def rates(self, start: float, end: float) -> Dict[str, float]:
        """Average rates of every scenario flow over ``(start, end]``."""
        return {
            spec.flow_id: self.rate(spec.flow_id, start, end)
            for spec in self.scenario.flows
        }

    def timeseries(
        self, flow_id: str, bin_width: float = 1.0
    ) -> List[Tuple[float, float]]:
        """Binned rate series for plotting (Figure 6/10 style)."""
        return self.stats.rate_timeseries(
            flow_id, bin_width, start=0.0, end=self.scenario.duration
        )

    # ------------------------------------------------------------------
    # Clusters (Figures 8 and 11)
    # ------------------------------------------------------------------
    def clusters(self, start: float, end: float) -> List[EmpiricalCluster]:
        """Measured rate clusters over ``(start, end]``."""
        matrix = self.stats.pair_service_in_window(start, end)
        return extract_clusters(
            matrix, self.scenario.weights(), window=end - start
        )


def build_traffic(
    sim: Simulator,
    spec: FlowSpec,
    flow: Flow,
    streams: RandomStreams,
) -> object:
    """Instantiate the traffic source described by *spec* and return it.

    The engine watches ``exhausted`` on sources that have it (bulk) and
    ignores the rest; a checkpoint snapshots every source.
    """
    traffic = spec.traffic
    if traffic.kind == "bulk":
        return BulkSource(
            sim,
            flow,
            packet_size=traffic.packet_size,
            total_bytes=traffic.total_bytes,
            start_time=spec.start_time,
        )
    if traffic.kind == "cbr":
        assert traffic.rate_bps is not None
        return CbrSource(
            sim,
            flow,
            rate_bps=traffic.rate_bps,
            packet_size=traffic.packet_size,
            start_time=spec.start_time,
        )
    if traffic.kind == "poisson":
        assert traffic.rate_bps is not None
        return PoissonSource(
            sim,
            flow,
            rate_pps=traffic.rate_bps / (traffic.packet_size * 8),
            rng=streams.stream(f"poisson:{spec.flow_id}"),
            packet_size=traffic.packet_size,
            start_time=spec.start_time,
        )
    if traffic.kind == "onoff":
        assert traffic.rate_bps is not None
        return OnOffSource(
            sim,
            flow,
            peak_rate_bps=traffic.rate_bps,
            mean_on=traffic.mean_on,
            mean_off=traffic.mean_off,
            rng=streams.stream(f"onoff:{spec.flow_id}"),
            packet_size=traffic.packet_size,
            start_time=spec.start_time,
        )
    raise ConfigurationError(f"unknown traffic kind {traffic.kind!r}")


class ScenarioRun:
    """One :class:`~repro.core.scenario.Scenario` wired to one scheduler.

    Construction builds the interfaces (with their capacity steps),
    registers the completion listener, then builds each flow and its
    traffic source. A flow joins the engine at its ``start_time``: at
    once when that is ≤ 0, otherwise through an ``engine.add_flow``
    event, so admission control reviews it against the capacity of
    that moment. *prepare*, if given, is called with the run after
    all of this but before the first kick — the place to attach
    instrumentation, watchdogs or fault processes. Drive the run with
    :meth:`step` or :meth:`run_to_completion`.
    """

    def __init__(
        self,
        scenario: Scenario,
        scheduler_factory: SchedulerFactory,
        prepare: Optional[Callable[["ScenarioRun"], None]] = None,
    ) -> None:
        self.scenario = scenario
        self.sim = sim = Simulator()
        self.streams = RandomStreams(scenario.seed)
        self.engine = engine = SchedulingEngine(sim, scheduler_factory())
        #: Completion time of each finished flow, by flow id.
        self.completions: Dict[str, float] = {}
        self.flows: Dict[str, Flow] = {}
        self.sources: Dict[str, object] = {}

        for interface_spec in scenario.interfaces:
            interface = Interface(
                sim, interface_spec.interface_id, interface_spec.rate_bps
            )
            interface.apply_capacity_schedule(interface_spec.capacity_steps)
            engine.add_interface(interface)

        engine.on_flow_completed(self._flow_completed)

        for flow_spec in scenario.flows:
            flow = Flow(
                flow_spec.flow_id,
                weight=flow_spec.weight,
                allowed_interfaces=flow_spec.interfaces,
                deadline_budget=flow_spec.traffic.deadline,
                nominal_rate_bps=flow_spec.traffic.rate_bps,
            )
            source = build_traffic(sim, flow_spec, flow, self.streams)
            self.flows[flow.flow_id] = flow
            self.sources[flow.flow_id] = source
            if flow_spec.start_time <= 0:
                engine.add_flow(flow, source=source)
            else:
                sim.schedule(flow_spec.start_time, engine.add_flow, flow, source)

        if prepare is not None:
            prepare(self)
        engine.start()

    def _flow_completed(self, flow: Flow) -> None:
        self.completions[flow.flow_id] = self.sim.now

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

    def close(self) -> None:
        """Unwire the run so that reference counting alone frees it.

        Pending events and registered listeners tie the simulator,
        engine, interfaces, flows and sources into reference cycles,
        which otherwise only the cycle collector frees. This drops
        them. What the run measured (``engine.stats``, ``flows``,
        ``completions``) stays readable, but the run cannot go on.
        """
        queue = self.sim.queue
        queue.restore([], queue.next_seq)
        engine = self.engine
        engine.clear_listeners()
        for interface in engine.interfaces.values():
            interface.clear_listeners()
        for flow in self.flows.values():
            flow.clear_listeners()


def run_scenario(
    scenario: Scenario,
    scheduler_factory: SchedulerFactory,
    max_events: Optional[int] = None,
    on_engine: Optional[Callable[[Simulator, SchedulingEngine], None]] = None,
) -> ExperimentResult:
    """Run *scenario* under a scheduler built by *scheduler_factory*.

    *on_engine*, if given, is called with ``(sim, engine)`` after the
    topology and flows are wired but before the first kick — the hook
    observability and health layers use to attach instrumentation or
    watchdogs to a scenario run without rebuilding the harness.

    The run is closed before this returns (see :meth:`ScenarioRun.close`),
    so reference counting alone frees it once the result is dropped; the
    result's stats, engine, clock and regime journal stay readable.
    """
    run = ScenarioRun(
        scenario,
        scheduler_factory,
        prepare=None if on_engine is None
        else lambda run: on_engine(run.sim, run.engine),
    )
    run.run_to_completion(max_events=max_events)
    run.close()
    return ExperimentResult(
        scenario=scenario,
        stats=run.engine.stats,
        sim=run.sim,
        engine=run.engine,
        completions=run.completions,
    )
