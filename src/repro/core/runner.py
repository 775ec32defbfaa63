"""Experiment runner: scenario × scheduler → measurements.

:func:`run_scenario` materializes a :class:`~repro.core.scenario.Scenario`
against any :class:`~repro.schedulers.base.MultiInterfaceScheduler`,
runs it to completion and returns an :class:`ExperimentResult` with the
raw service samples plus the derived quantities the paper's figures
need: per-flow rate time series, per-phase average rates, measured rate
clusters, and comparisons against the fluid max-min reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..fairness.clusters import EmpiricalCluster, extract_clusters
from ..fairness.waterfill import Allocation, weighted_maxmin
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

    # ------------------------------------------------------------------
    # Fluid reference
    # ------------------------------------------------------------------
    def reference_allocation(
        self,
        active_flows: Optional[Sequence[str]] = None,
        capacities: Optional[Mapping[str, float]] = None,
    ) -> Allocation:
        """The exact weighted max-min allocation for a flow subset.

        Defaults to all scenario flows and initial capacities; pass the
        set of flows alive in a phase to get per-phase references.
        """
        chosen = (
            set(active_flows)
            if active_flows is not None
            else {spec.flow_id for spec in self.scenario.flows}
        )
        flows = {
            spec.flow_id: (spec.weight, spec.interfaces)
            for spec in self.scenario.flows
            if spec.flow_id in chosen
        }
        caps = dict(capacities) if capacities is not None else self.scenario.capacities()
        return weighted_maxmin(flows, caps)

    def phases(self) -> List[Tuple[float, float, List[str]]]:
        """Time intervals delimited by flow starts/completions.

        Returns ``[(start, end, alive_flow_ids), ...]`` covering
        ``[0, duration]`` — the natural windows for checking per-phase
        allocations (the paper's Figure 6/8 phase structure).
        """
        marks = {0.0, self.scenario.duration}
        for spec in self.scenario.flows:
            marks.add(min(spec.start_time, self.scenario.duration))
        for when in self.completions.values():
            marks.add(min(when, self.scenario.duration))
        ordered = sorted(marks)
        phases: List[Tuple[float, float, List[str]]] = []
        for start, end in zip(ordered, ordered[1:]):
            if end - start <= 1e-12:
                continue
            alive = [
                spec.flow_id
                for spec in self.scenario.flows
                if spec.start_time <= start + 1e-12
                and self.completions.get(spec.flow_id, float("inf")) >= end - 1e-12
            ]
            phases.append((start, end, alive))
        return phases


def build_traffic(
    sim: Simulator,
    spec: FlowSpec,
    flow: Flow,
    streams: RandomStreams,
) -> Optional[object]:
    """Instantiate the traffic source described by *spec*.

    Returns the source object (so the engine can watch ``exhausted``)
    or ``None`` for source kinds without completion semantics.
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
        CbrSource(
            sim,
            flow,
            rate_bps=traffic.rate_bps,
            packet_size=traffic.packet_size,
            start_time=spec.start_time,
        )
        return None
    if traffic.kind == "poisson":
        assert traffic.rate_bps is not None
        rate_pps = traffic.rate_bps / (traffic.packet_size * 8)
        PoissonSource(
            sim,
            flow,
            rate_pps=rate_pps,
            rng=streams.stream(f"poisson:{spec.flow_id}"),
            packet_size=traffic.packet_size,
            start_time=spec.start_time,
        )
        return None
    if traffic.kind == "onoff":
        assert traffic.rate_bps is not None
        OnOffSource(
            sim,
            flow,
            peak_rate_bps=traffic.rate_bps,
            mean_on=traffic.mean_on,
            mean_off=traffic.mean_off,
            rng=streams.stream(f"onoff:{spec.flow_id}"),
            packet_size=traffic.packet_size,
            start_time=spec.start_time,
        )
        return None
    raise ConfigurationError(f"unknown traffic kind {traffic.kind!r}")


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
    """
    sim = Simulator()
    streams = RandomStreams(scenario.seed)
    scheduler = scheduler_factory()
    engine = SchedulingEngine(sim, scheduler)
    result = ExperimentResult(
        scenario=scenario, stats=engine.stats, sim=sim, engine=engine
    )

    for interface_spec in scenario.interfaces:
        interface = Interface(
            sim, interface_spec.interface_id, interface_spec.rate_bps
        )
        interface.apply_capacity_schedule(interface_spec.capacity_steps)
        engine.add_interface(interface)

    engine.on_flow_completed(
        lambda flow: result.completions.__setitem__(flow.flow_id, sim.now)
    )

    for flow_spec in scenario.flows:
        flow = Flow(
            flow_spec.flow_id,
            weight=flow_spec.weight,
            allowed_interfaces=flow_spec.interfaces,
            deadline_budget=flow_spec.traffic.deadline,
            nominal_rate_bps=flow_spec.traffic.rate_bps,
        )
        source = build_traffic(sim, flow_spec, flow, streams)
        if flow_spec.start_time <= 0:
            engine.add_flow(flow, source=source)
        else:
            sim.schedule(
                flow_spec.start_time, engine.add_flow, flow, source
            )

    if on_engine is not None:
        on_engine(sim, engine)
    engine.start()
    sim.run(until=scenario.duration, max_events=max_events)
    return result
