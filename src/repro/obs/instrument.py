"""Wire an engine (and friends) into a :class:`MetricsRegistry`.

The instrumentation style is deliberately *sampling-first*: the hot
path (arrival → activation → select → transmit) already maintains
plain integer counters on the components themselves (``Interface.
bytes_sent``, ``MiDrrScheduler.flags_set_total``, flow backlogs), so
almost every metric here is a callback gauge that reads those
counters only when a snapshot is taken. Zero listeners, zero dict
lookups, zero overhead between snapshots.

The two exceptions, both cheap and both off the per-packet path:

* **decision latency** — a wrapper installed via
  :meth:`~repro.core.engine.SchedulingEngine.set_decision_probe`
  times every ``sample_every``-th ``select()`` with
  ``time.perf_counter``; the other calls pay one integer decrement.
* **rare lifecycle events** — flow completions and quarantine
  transitions feed counters through the engine's existing listener
  hooks (these fire a handful of times per run, not per packet).

Distribution metrics (decision work, per-flow queue occupancy) are
ingested at snapshot time by :meth:`EngineInstrumentation.sample`,
which :class:`~repro.obs.snapshot.SnapshotProcess` calls as a
pre-sample hook.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from time import perf_counter
from typing import Callable, Optional

from ..core.engine import SchedulingEngine
from ..errors import ConfigurationError
from ..health.auditor import FairnessAuditor
from ..health.watchdog import Watchdog
from ..net.interface import Interface
from ..net.packet import Packet
from .metrics import MetricsRegistry

#: Default sampling stride for decision-latency timing: one timed
#: ``select()`` per this many decisions.
DECISION_LATENCY_SAMPLE_EVERY = 64

#: Bucket bounds for the decision-work histogram (flows examined per
#: decision; Figure 9's "extra search time" distribution).
DECISION_WORK_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128)

#: Bucket bounds (bytes) for the sampled per-flow occupancy histogram.
OCCUPANCY_BOUNDS = (0, 1_500, 15_000, 150_000, 1_500_000, 15_000_000)

#: Max flows whose occupancy is observed per snapshot. A rotating
#: cursor walks the flow table so successive snapshots cover different
#: flows; without the cap, sampling 1000+ flows per tick dominates the
#: telemetry cost and blows the <5% overhead budget.
OCCUPANCY_SAMPLE_MAX = 256


class EngineInstrumentation:
    """The registry wiring for one :class:`SchedulingEngine`.

    Create via :func:`instrument_engine`. Call :meth:`sample` (or let
    a :class:`~repro.obs.snapshot.SnapshotProcess` pre-sample hook
    call it) to ingest distribution telemetry; call :meth:`detach` to
    remove the decision probe.
    """

    def __init__(
        self,
        engine: SchedulingEngine,
        registry: MetricsRegistry,
        sample_every: int = DECISION_LATENCY_SAMPLE_EVERY,
    ) -> None:
        if sample_every <= 0:
            raise ConfigurationError(
                f"sample_every must be positive, got {sample_every}"
            )
        self.engine = engine
        self.registry = registry
        self._sample_every = sample_every
        self._examined_drained = 0
        self._occupancy_cursor = 0
        self._wire_engine()
        self._wire_interfaces()
        self._wire_scheduler()
        self._install_decision_probe()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _wire_engine(self) -> None:
        engine = self.engine
        registry = self.registry
        stats = engine.stats
        registry.gauge(
            "engine.flows",
            "Registered flows (includes quarantined)",
            fn=lambda: engine.num_flows,
        )
        registry.gauge(
            "engine.quarantined_flows",
            "Flows parked because their whole Π-set is down",
            fn=lambda: engine.num_quarantined,
        )
        # Plain (set-at-sample) gauges: summing the whole flow table
        # through a callback on every collect() is the single biggest
        # telemetry cost at F=1000, so sample() refreshes both in the
        # same pass that feeds the occupancy histogram.
        registry.gauge(
            "engine.backlogged_flows",
            "Flows with at least one queued packet (refreshed by sample())",
        )
        registry.gauge(
            "engine.backlog_bytes",
            "Total bytes queued across all flow backlogs "
            "(refreshed by sample())",
        )
        registry.gauge(
            "engine.packets_sent_total",
            "Packets delivered across all interfaces",
            fn=lambda: sum(
                interface.packets_sent
                for interface in engine.interfaces.values()
            ),
        )
        registry.gauge(
            "engine.bytes_sent_total",
            "Bytes delivered across all interfaces",
            fn=lambda: sum(
                interface.bytes_sent
                for interface in engine.interfaces.values()
            ),
        )
        registry.gauge(
            "engine.dropped_packets_total",
            "Packets discarded by flow backlogs (queue overflow)",
            fn=lambda: sum(stats.drops_by_flow().values()),
        )
        # Event-engine telemetry: dispatch count and queue depth.
        # Callback gauges over counters the hot path already maintains.
        sim = engine.sim
        registry.gauge(
            "sim.events_processed_total",
            "Events dispatched by the simulator",
            fn=lambda: sim.events_processed,
        )
        registry.gauge(
            "sim.queue.heap.pending",
            "Events still queued (including lazily-cancelled ones)",
            fn=lambda: sim.pending_events,
        )
        # Deadline-SLO and admission telemetry: counters the engine's
        # send-completion path already maintains, plus a miss-latency
        # sketch fed by the (rare) deadline-miss listener.
        registry.gauge(
            "engine.deadline_packets_total",
            "Transmitted packets that carried a deadline",
            fn=lambda: engine.deadline_packets_total,
        )
        registry.gauge(
            "engine.deadline_misses_total",
            "Deadline-carrying packets delivered late",
            fn=lambda: engine.deadline_misses_total,
        )
        registry.gauge(
            "engine.shed_flows",
            "Flows currently excluded by admission control",
            fn=lambda: engine.num_shed,
        )
        registry.gauge(
            "engine.admission_rejected_total",
            "Flows turned away at admission",
            fn=lambda: engine.admission_rejected_total,
        )
        registry.gauge(
            "engine.admission_shed_total",
            "Admitted flows evicted by a later admission review",
            fn=lambda: engine.admission_shed_total,
        )
        miss_sketch = registry.sketch(
            "engine.deadline_miss_lateness_seconds",
            "Lateness of deadline misses (p99 miss latency)",
        )
        engine.on_deadline_miss(
            lambda flow, packet, lateness: miss_sketch.observe(lateness)
        )
        completed = registry.counter(
            "engine.flows_completed_total", "Flow transfers finished"
        )
        engine.on_flow_completed(lambda flow: completed.inc())
        entered = registry.counter(
            "engine.quarantine_entered_total", "Flows parked (Π-set dark)"
        )
        resumed = registry.counter(
            "engine.quarantine_resumed_total", "Flows resumed from quarantine"
        )
        engine.on_quarantine_change(
            lambda flow, parked: (entered if parked else resumed).inc()
        )

    def _wire_interfaces(self) -> None:
        # Interfaces registered later are not auto-instrumented; call
        # instrument_engine after topology setup (the runner hook does).
        for interface_id, interface in self.engine.interfaces.items():
            self._wire_interface(interface_id, interface)

    def _wire_interface(self, interface_id: str, interface: Interface) -> None:
        registry = self.registry
        prefix = f"iface.{interface_id}"
        registry.gauge(
            f"{prefix}.utilization",
            "Fraction of elapsed time spent transmitting",
            fn=interface.utilization,
        )
        registry.gauge(
            f"{prefix}.bytes_sent_total",
            "Bytes transmitted",
            fn=lambda i=interface: i.bytes_sent,
        )
        registry.gauge(
            f"{prefix}.packets_sent_total",
            "Packets transmitted",
            fn=lambda i=interface: i.packets_sent,
        )
        registry.gauge(
            f"{prefix}.rate_bps",
            "Current line rate",
            fn=lambda i=interface: i.rate_bps,
        )
        registry.gauge(
            f"{prefix}.up",
            "1 while administratively up",
            fn=lambda i=interface: 1.0 if i.up else 0.0,
        )
        registry.gauge(
            f"{prefix}.down_time",
            "Cumulative seconds spent down",
            fn=lambda i=interface: i.down_time,
        )
        scheduler = self.engine.scheduler
        round_size = getattr(scheduler, "round_size", None)
        if round_size is not None and interface_id in scheduler.interface_ids():
            registry.gauge(
                f"{prefix}.active_flows",
                "Backlogged willing flows in this interface's round",
                fn=partial(round_size, interface_id),
            )

    def _wire_scheduler(self) -> None:
        registry = self.registry
        scheduler = self.engine.scheduler
        if hasattr(scheduler, "deficit_backlog"):
            registry.gauge(
                "sched.deficit_backlog",
                "Total granted, unspent deficit (bytes)",
                fn=scheduler.deficit_backlog,
            )
        if hasattr(scheduler, "pending_flags"):
            registry.gauge(
                "sched.pending_flags",
                "(flow, interface) pairs with a pending skip",
                fn=scheduler.pending_flags,
            )
        if hasattr(scheduler, "flags_set_total"):
            registry.gauge(
                "sched.flags_set_total",
                "Rule-1 service-flag sets",
                fn=lambda s=scheduler: s.flags_set_total,
            )
            registry.gauge(
                "sched.flags_cleared_total",
                "Rule-2 skip consumptions",
                fn=lambda s=scheduler: s.flags_cleared_total,
            )
        if hasattr(scheduler, "decision_flows_examined"):
            registry.gauge(
                "sched.decisions_total",
                "select() calls made",
                fn=lambda s=scheduler: len(s.decision_flows_examined),
            )
            registry.histogram(
                "sched.decision_work",
                DECISION_WORK_BOUNDS,
                "Flows examined per decision (drained at snapshots)",
            )
        if hasattr(scheduler, "turns_taken"):
            registry.gauge(
                "sched.turns_total",
                "Service turns granted",
                fn=lambda s=scheduler: sum(s.turns_taken.values()),
            )
        if hasattr(scheduler, "projected_load"):
            registry.gauge(
                "sched.admission_projected_load",
                "Declared load over observed capacity (EDF AC)",
                fn=scheduler.projected_load,
            )
            registry.gauge(
                "sched.admissions_total",
                "Flows admitted by the admission controller",
                fn=lambda s=scheduler: s.admissions_total,
            )
            registry.gauge(
                "sched.admission_rejected_total",
                "Flows rejected by the admission controller",
                fn=lambda s=scheduler: s.admission_rejected_total,
            )
            registry.gauge(
                "sched.admission_shed_total",
                "Shed verdicts issued by the admission controller",
                fn=lambda s=scheduler: s.admission_shed_total,
            )
        if hasattr(scheduler, "steers_total"):
            registry.gauge(
                "sched.steers_total",
                "Queue-aware steering decisions (QAware)",
                fn=lambda s=scheduler: s.steers_total,
            )
            registry.gauge(
                "sched.steals_total",
                "Work-conservation steals across interfaces (QAware)",
                fn=lambda s=scheduler: s.steals_total,
            )
        registry.histogram(
            "flows.occupancy_bytes",
            OCCUPANCY_BOUNDS,
            "Per-flow backlog bytes, sampled at each snapshot",
        )

    def _install_decision_probe(self) -> None:
        scheduler = self.engine.scheduler
        select = scheduler.select
        sketch = self.registry.sketch(
            "engine.decision_latency_seconds",
            "Wall-clock select() latency (sampled every "
            f"{self._sample_every} decisions)",
        )
        # The engine routes only every Nth decision here (the stride
        # lives on the supply path as a plain countdown), so this frame
        # exists solely for the decisions that are actually timed.
        def probe(interface: Interface) -> Optional[Packet]:
            started = perf_counter()
            packet = select(interface.interface_id)
            sketch.observe(perf_counter() - started)
            return packet

        self.engine.set_decision_probe(probe, every=self._sample_every)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sample(self, now: float) -> None:
        """Ingest distribution telemetry; a snapshot pre-sample hook."""
        scheduler = self.engine.scheduler
        examined = getattr(scheduler, "decision_flows_examined", None)
        if examined is not None:
            histogram = self.registry.get("sched.decision_work")
            drained = Counter(examined[self._examined_drained:])
            for value, count in drained.items():
                histogram.observe_many(value, count)
            self._examined_drained = len(examined)
        # One pass over the flow table feeds three metrics: the two
        # backlog aggregates (every flow) and the occupancy histogram
        # (a rotating window of at most OCCUPANCY_SAMPLE_MAX flows).
        # The list comprehension plus sum()/count() keeps the per-flow
        # work in C; at F=1000 this pass runs 20× per bench cell and a
        # Python-level loop here alone costs ~1% packets/s.
        occupancy = self.registry.get("flows.occupancy_bytes")
        queued_bytes = [
            flow.backlog_bytes for flow in self.engine.iter_flows()
        ]
        total = len(queued_bytes)
        self.registry.get("engine.backlogged_flows").set(
            total - queued_bytes.count(0)
        )
        self.registry.get("engine.backlog_bytes").set(sum(queued_bytes))
        if total:
            window = min(total, OCCUPANCY_SAMPLE_MAX)
            start = self._occupancy_cursor % total
            self._occupancy_cursor = start + window
            chosen = queued_bytes[start:start + window]
            if len(chosen) < window:
                chosen += queued_bytes[: window - len(chosen)]
            for value, count in Counter(chosen).items():
                occupancy.observe_many(value, count)

    def detach(self) -> None:
        """Remove the decision probe (gauges keep working)."""
        self.engine.set_decision_probe(None)


def instrument_engine(
    engine: SchedulingEngine,
    registry: Optional[MetricsRegistry] = None,
    sample_every: int = DECISION_LATENCY_SAMPLE_EVERY,
) -> EngineInstrumentation:
    """Instrument *engine* (and its scheduler/interfaces) into a registry.

    Call after topology setup so every interface is covered; returns
    the :class:`EngineInstrumentation` whose :meth:`~EngineInstrumentation.sample`
    method should run as a snapshot pre-sample hook.
    """
    return EngineInstrumentation(
        engine,
        registry if registry is not None else MetricsRegistry(),
        sample_every=sample_every,
    )


def instrument_watchdog(watchdog: Watchdog, registry: MetricsRegistry) -> None:
    """Expose a watchdog's health telemetry through *registry*."""
    registry.gauge(
        "health.ticks", "Watchdog sampling ticks", fn=lambda: watchdog.ticks
    )
    registry.gauge(
        "health.alerts_total",
        "Alerts raised (all kinds)",
        fn=lambda: len(watchdog.alerts),
    )
    total_by_kind = registry.counter(
        "health.alerts_raised_total", "Alerts raised since instrumentation"
    )

    def _count(alert) -> None:
        total_by_kind.inc()
        registry.counter(
            f"health.alerts.{alert.kind}_total", f"{alert.kind} alerts"
        ).inc()

    watchdog.on_alert(_count)


def instrument_auditor(auditor: FairnessAuditor, registry: MetricsRegistry) -> None:
    """Expose a fairness auditor's telemetry through *registry*.

    Gauges are callback-backed (sampled at snapshot time, like the
    engine gauges); per-alert counters increment as alerts fire.
    """
    registry.gauge(
        "fairness.audits_total",
        "Completed drift audits (quiescent-window ticks)",
        fn=lambda: auditor.audits_total,
    )
    registry.gauge(
        "fairness.drift_max",
        "Max normalized |measured - fluid optimum| at the last audit",
        fn=lambda: auditor.drift_last,
    )
    registry.gauge(
        "fairness.drift_peak",
        "Max normalized drift across the run",
        fn=lambda: auditor.drift_peak,
    )
    registry.gauge(
        "fairness.cluster_count",
        "Rate clusters in the live max-min allocation",
        fn=lambda: len(auditor.solver.allocation.clusters),
    )
    registry.gauge(
        "fairness.alerts_total",
        "Fairness-drift alerts raised",
        fn=lambda: len(auditor.alerts),
    )
    registry.gauge(
        "fairness.full_solves_total",
        "Exact max-min solves (one per read of a changed instance)",
        fn=lambda: auditor.solver.full_solves,
    )
    raised = registry.counter(
        "fairness.alerts_raised_total",
        "Fairness alerts raised since instrumentation",
    )
    auditor.on_alert(lambda alert: raised.inc())
