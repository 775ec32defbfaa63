"""Inline fairness-drift auditor: live fluid optimum vs measured rates.

The :class:`FairnessAuditor` keeps an exact weighted max-min reference
allocation *alive* alongside a running engine. It subscribes to the
engine's topology and preference events — flow add/remove, φ/Π churn
through :meth:`~repro.core.engine.SchedulingEngine
.notify_preferences_changed`, interface up/down transitions and
capacity steps — and feeds each as a delta into an
:class:`~repro.fairness.incremental.IncrementalMaxMinSolver`, which
solves the fluid optimum only when something reads it. On a periodic
stride it then compares each flow's *measured* service rate (from the
engine's :class:`~repro.net.sink.StatsCollector` over a trailing window)
against its fluid-optimal rate and raises a structured
``fairness_drift`` alert — through the same escalating-series
deduplication the watchdog uses — when the drift exceeds a bound
derived from the paper's service-lag guarantee.

Drift bound
-----------
Lemma 6 bounds a correct miDRR's service deviation from the fluid
optimum by ``Q' + 2·MaxSize`` bytes at any instant (``Q'`` = the
largest per-flow quantum). Over an averaging window ``W`` that lag is
worth at most ``8·(Q' + 2·MaxSize)/W`` bits/s of rate error, so the
auditor allows

    |measured − expected|  ≤  8·(Q' + 2·MaxSize)/W  +  margin·expected

where the relative ``margin`` term absorbs convergence transients and
WRR-style cross-traffic jitter. Anything beyond it is *drift*: the
packetized scheduler is no longer tracking the max-min allocation.

The auditor is strictly read-only with respect to scheduling: its
callbacks only edit the solver's instance and its tick is an ordinary
priority-0 periodic event, so enabling it cannot change a run's
packet-level decisions (chaos report hashes stay byte-identical).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..core.engine import SchedulingEngine
from ..errors import WatchdogError
from ..fairness.incremental import IncrementalMaxMinSolver
from ..fairness.metrics import service_lag_bound
from ..fairness.waterfill import _as_fraction
from ..net.flow import Flow
from ..net.interface import Interface
from ..schedulers.drr import DEFAULT_QUANTUM
from ..sim.process import PeriodicProcess
from ..sim.simulator import Simulator
from .alerts import Alert, AlertDeduper

#: Alert kind raised on measured-vs-fluid divergence.
ALERT_FAIRNESS_DRIFT = "fairness_drift"

#: Default MaxSize (bytes) for the drift bound: one Ethernet MTU.
DEFAULT_MAX_PACKET = 1500


class FairnessAuditor:
    """Tracks the live fluid optimum and alerts on fairness drift.

    Parameters
    ----------
    period:
        Tick stride in seconds (reconciliation + drift audit).
    window:
        Trailing measurement window in seconds; defaults to
        ``4 × period``. The audit is skipped while any topology or
        preference change is younger than the window — comparing a
        steady-state optimum against a window that straddles a regime
        change would be noise, not drift.
    quantum_bytes:
        The scheduler's base quantum for the Lemma-6 lag bound; by
        default read from the engine's scheduler (``quantum_base``),
        falling back to :data:`~repro.schedulers.drr.DEFAULT_QUANTUM`.
    max_packet_bytes:
        MaxSize for the lag bound.
    drift_margin:
        Relative slack on top of the lag-derived absolute slack.
    strict:
        Raise :class:`~repro.errors.WatchdogError` on the first drift
        alert (mirrors the watchdog's strict mode).
    """

    def __init__(
        self,
        sim: Simulator,
        engine: SchedulingEngine,
        period: float = 1.0,
        window: Optional[float] = None,
        quantum_bytes: Optional[int] = None,
        max_packet_bytes: int = DEFAULT_MAX_PACKET,
        drift_margin: float = 0.25,
        strict: bool = False,
        max_alert_gap: float = 60.0,
    ) -> None:
        if period <= 0:
            raise WatchdogError(f"period must be positive, got {period}")
        if window is None:
            window = 4.0 * period
        if window <= 0:
            raise WatchdogError(f"window must be positive, got {window}")
        if drift_margin < 0:
            raise WatchdogError(
                f"drift_margin must be >= 0, got {drift_margin}"
            )
        if max_alert_gap <= 0:
            raise WatchdogError(
                f"max_alert_gap must be positive, got {max_alert_gap}"
            )
        self._sim = sim
        self._engine = engine
        self._period = period
        self._window = window
        if quantum_bytes is None:
            quantum_bytes = getattr(
                engine.scheduler, "quantum_base", DEFAULT_QUANTUM
            )
        self._quantum_bytes = quantum_bytes
        self._max_packet_bytes = max_packet_bytes
        self._drift_margin = drift_margin
        self._strict = strict
        self._process = PeriodicProcess(sim, period, self._tick)
        self._deduper = AlertDeduper(max_alert_gap)
        self._listeners: List[Callable[[Alert], None]] = []
        self.alerts: List[Alert] = []
        self.ticks = 0
        #: Ticks that actually compared rates (quiescence reached).
        self.audits_total = 0
        #: Max normalized drift seen on the most recent audit.
        self.drift_last = 0.0
        #: Max normalized drift seen across the whole run.
        self.drift_peak = 0.0
        # Flows known to the engine but excluded from the fluid
        # instance — admission-shed, or willing to use no registered
        # interface. Their expected rate is exactly 0.
        self._masked: Set[str] = set()
        self._last_change_at = sim.now

        self.solver = IncrementalMaxMinSolver()
        self._bootstrap()
        engine.on_flow_added(self._flow_added)
        engine.on_flow_removed(self._flow_removed)
        engine.on_preferences_changed(self._prefs_changed)
        for interface in engine.interfaces.values():
            self._watch_interface(interface)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """``True`` between :meth:`start` and :meth:`stop`."""
        return self._process.running

    @property
    def alerts_suppressed(self) -> int:
        """Repeats swallowed by the escalating alert series."""
        return self._deduper.suppressed_total

    @property
    def window(self) -> float:
        """The trailing measurement window, seconds."""
        return self._window

    def start(self) -> None:
        """Begin auditing."""
        self._process.start()

    def stop(self) -> None:
        """Stop auditing."""
        self._process.stop()

    def on_alert(self, listener: Callable[[Alert], None]) -> None:
        """Register a callback fired with each raised alert."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Topology tracking (event-driven, reconciled every tick)
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Load the engine's current instance into the solver."""
        for interface in self._engine.interfaces.values():
            self.solver.set_capacity(
                interface.interface_id, self._capacity_of(interface)
            )
        for flow in self._engine.flows.values():
            self._sync_flow(flow)
        # Bootstrap deltas are setup, not live churn.
        self.solver.deltas_total = 0

    def _watch_interface(self, interface: Interface) -> None:
        interface.on_state_change(self._interface_state_changed)
        interface.on_rate_change(self._interface_rate_changed)

    @staticmethod
    def _capacity_of(interface: Interface) -> float:
        """The interface's capacity as the fluid model sees it."""
        return interface.rate_bps if interface.up else 0.0

    def _note_change(self) -> None:
        self._last_change_at = self._sim.now

    def _flow_added(self, flow: Flow) -> None:
        self._sync_flow(flow)

    def _flow_removed(self, flow: Flow) -> None:
        if self.solver.has_flow(flow.flow_id):
            self.solver.remove_flow(flow.flow_id)
            self._note_change()
        if flow.flow_id in self._masked:
            self._masked.discard(flow.flow_id)
            self._note_change()
        self._deduper.clear(ALERT_FAIRNESS_DRIFT, flow.flow_id)

    def _prefs_changed(self, flow: Flow) -> None:
        self._sync_flow(flow)

    def _interface_state_changed(self, interface: Interface, is_up: bool) -> None:
        self._sync_interface(interface)

    def _interface_rate_changed(self, interface: Interface, rate: float) -> None:
        self._sync_interface(interface)

    def _sync_interface(self, interface: Interface) -> None:
        capacity = _as_fraction(self._capacity_of(interface))
        if (
            self.solver.has_interface(interface.interface_id)
            and self.solver.capacity(interface.interface_id) == capacity
        ):
            return
        self.solver.set_capacity(interface.interface_id, capacity)
        self._note_change()

    def _sync_flow(self, flow: Flow) -> None:
        """Mirror one engine flow into the solver (or mask it)."""
        flow_id = flow.flow_id
        row = flow.allowed_interfaces
        # Judge servability against the *solver's* interface set: it can
        # briefly lag the engine's (interfaces registered after attach
        # surface at the next reconcile tick), and the solver rejects
        # rows it cannot resolve.
        known = set(self.solver.interface_ids)
        servable = bool(known) and (row is None or bool(row & known))
        shed = flow_id in self._engine.shed_flows
        if shed or not servable:
            if self.solver.has_flow(flow_id):
                self.solver.remove_flow(flow_id)
                self._note_change()
            if flow_id not in self._masked:
                self._masked.add(flow_id)
                self._note_change()
            return
        if flow_id in self._masked:
            self._masked.discard(flow_id)
            self._note_change()
        if not self.solver.has_flow(flow_id):
            self.solver.add_flow(flow_id, flow.weight, row)
            self._note_change()
            return
        if self.solver.weight_of(flow_id) != _as_fraction(flow.weight):
            self.solver.set_weight(flow_id, flow.weight)
            self._note_change()
        if self.solver.row_of(flow_id) != row:
            self.solver.restrict_flow(flow_id, row)
            self._note_change()

    def _reconcile(self) -> None:
        """Safety net for edits that bypass the event hooks.

        Direct ``flow.weight`` writes without
        ``notify_preferences_changed``, interfaces registered after
        attach, and admission shedding all surface here at the latest.
        """
        engine_flows = self._engine.flows
        for interface in self._engine.interfaces.values():
            if not self.solver.has_interface(interface.interface_id):
                self._watch_interface(interface)
            self._sync_interface(interface)
        for flow in engine_flows.values():
            self._sync_flow(flow)
        for flow_id in list(self.solver.flow_ids):
            if flow_id not in engine_flows:
                self.solver.remove_flow(flow_id)
                self._note_change()
        self._masked &= set(engine_flows)

    # ------------------------------------------------------------------
    # Drift audit
    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        self.ticks += 1
        self._reconcile()
        if now < self._window or now - self._last_change_at < self._window:
            # The window straddles a topology/preference change (or the
            # start of time): the fluid optimum was not in force for the
            # whole window, so a comparison would be noise.
            return
        self.audits_total += 1
        allocation = self.solver.allocation
        stats = self._engine.stats
        weights = [flow.weight for flow in self._engine.iter_flows()]
        max_quantum = self._quantum_bytes * max(weights, default=1.0)
        lag_bytes = service_lag_bound(max_quantum, self._max_packet_bytes)
        slack_bps = 8.0 * lag_bytes / self._window
        drift_max = 0.0
        for flow_id, flow in self._engine.flows.items():
            expected = float(allocation.rates.get(flow_id, 0))
            measured = stats.rate_in_window(flow_id, now - self._window, now)
            if not flow.backlogged and measured < expected:
                # An idle flow under-consumes by choice; that is not
                # the scheduler's unfairness.
                self._deduper.clear(ALERT_FAIRNESS_DRIFT, flow_id)
                continue
            drift = abs(measured - expected)
            normalized = drift / max(expected, slack_bps)
            drift_max = max(drift_max, normalized)
            if drift > slack_bps + self._drift_margin * expected:
                self._raise_deduplicated(
                    ALERT_FAIRNESS_DRIFT,
                    flow_id,
                    f"measured {measured / 1e6:.3f} Mb/s vs fluid optimum "
                    f"{expected / 1e6:.3f} Mb/s over {self._window:g}s "
                    f"(drift {normalized:.3f}x allowance "
                    f"{(slack_bps + self._drift_margin * expected) / 1e6:.3f} Mb/s)",
                    base_gap=self._window,
                    now=now,
                )
            else:
                self._deduper.clear(ALERT_FAIRNESS_DRIFT, flow_id)
        self.drift_last = drift_max
        self.drift_peak = max(self.drift_peak, drift_max)

    def _raise_deduplicated(
        self, kind: str, subject: str, detail: str, base_gap: float, now: float
    ) -> None:
        admitted = self._deduper.admit(kind, subject, detail, base_gap, now)
        if admitted is None:
            return
        alert = Alert(time=now, kind=kind, subject=subject, detail=admitted)
        self.alerts.append(alert)
        for listener in self._listeners:
            listener(alert)
        if self._strict:
            raise WatchdogError(str(alert))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Solver instance, alert history and audit counters, JSON-safe.

        The pending tick event itself is restored by the event-queue
        codec (which re-arms the periodic process).
        """
        return {
            "ticks": self.ticks,
            "audits_total": self.audits_total,
            "drift_last": self.drift_last,
            "drift_peak": self.drift_peak,
            "last_change_at": self._last_change_at,
            "masked": sorted(self._masked),
            "alerts_suppressed": self.alerts_suppressed,
            "alerts": [
                [alert.time, alert.kind, alert.subject, alert.detail]
                for alert in self.alerts
            ],
            "series": self._deduper.snapshot_series(),
            "solver": self.solver.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.ticks = state["ticks"]
        self.audits_total = state["audits_total"]
        self.drift_last = state["drift_last"]
        self.drift_peak = state["drift_peak"]
        self._last_change_at = state["last_change_at"]
        self._masked = set(state["masked"])
        self._deduper.suppressed_total = state["alerts_suppressed"]
        self.alerts = [
            Alert(time=time, kind=kind, subject=subject, detail=detail)
            for time, kind, subject, detail in state["alerts"]
        ]
        self._deduper.restore_series(state["series"])
        self.solver.restore_state(state["solver"])
