"""Inline fairness-drift auditor: live fluid optimum vs measured rates.

The :class:`FairnessAuditor` keeps an exact weighted max-min reference
allocation *alive* alongside a running engine. The engine records every
edit of that instance once, in its regime journal
(:attr:`~repro.core.engine.SchedulingEngine.regimes`): flow add/remove,
admission shedding, interface capacity steps and up/down transitions,
and φ/Π edits, which must pass through
:meth:`~repro.core.engine.SchedulingEngine.notify_preferences_changed`.
The auditor replays the journal from a cursor, at each tick and on each
read of :attr:`FairnessAuditor.solver`, feeding every entry as a delta
into an :class:`~repro.fairness.incremental.IncrementalMaxMinSolver`,
which solves the fluid optimum only when something reads it. On a periodic
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

The auditor is strictly read-only with respect to scheduling: it
registers no listener, only reads the journal and edits its own solver,
and its tick is an ordinary priority-0 periodic event, so enabling it
cannot change a run's packet-level decisions (chaos report hashes stay
byte-identical).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Set

from ..core.engine import SchedulingEngine
from ..errors import WatchdogError
from ..fairness.incremental import IncrementalMaxMinSolver
from ..fairness.metrics import service_lag_bound
from ..fairness.waterfill import _as_fraction
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

    The instance is whatever the engine's regime journal says up to the
    auditor's cursor: construction replays the journal from its start,
    and each tick (and each read of :attr:`solver`) applies the entries
    appended since. An entry that changes the instance restarts the
    quiescence clock at the entry's own time.

    Parameters
    ----------
    period:
        Tick stride in seconds (journal catch-up + drift audit).
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
        self._solver = IncrementalMaxMinSolver()
        self._cursor = 0
        self._catch_up()
        # Replaying the journal's past is setup, not live churn.
        self._solver.deltas_total = 0
        self._last_change_at = sim.now

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
    # Regime journal
    # ------------------------------------------------------------------
    @property
    def solver(self) -> IncrementalMaxMinSolver:
        """The live fluid instance, caught up with the engine's journal."""
        self._catch_up()
        return self._solver

    def _catch_up(self) -> None:
        """Apply the journal entries appended since the last call."""
        regimes = self._engine.regimes
        while self._cursor < len(regimes):
            time, kind, subject, value = regimes[self._cursor]
            self._cursor += 1
            if self._apply(kind, subject, value):
                self._last_change_at = time

    def _apply(self, kind: str, subject: str, value: Any) -> bool:
        """Edit the solver by one journal entry; ``True`` if it changed."""
        solver = self._solver
        if kind == "capacity":
            capacity = _as_fraction(value)
            new = not solver.has_interface(subject)
            if not new and solver.capacity(subject) == capacity:
                return False
            solver.set_capacity(subject, capacity)
            if new and self._masked:
                # A new interface may make masked flows servable: replay
                # each one's latest entry.
                past = self._engine.regimes[: self._cursor]
                latest = {name: flow for _, k, name, flow in past if k == "flow"}
                for flow_id in sorted(self._masked):
                    self._apply("flow", flow_id, latest[flow_id])
            return True
        # A masked flow is never in the solver, and vice versa.
        was_masked = subject in self._masked
        self._masked.discard(subject)
        in_solver = solver.has_flow(subject)
        if kind == "remove":
            if in_solver:
                solver.remove_flow(subject)
            self._deduper.clear(ALERT_FAIRNESS_DRIFT, subject)
            return was_masked or in_solver
        weight, row, shed = value
        row = frozenset(row) if row is not None else None
        # Servability is judged against the solver's interface set,
        # which rejects rows it cannot resolve.
        known = set(solver.interface_ids)
        if shed or not known or (row is not None and not row & known):
            self._masked.add(subject)
            if in_solver:
                solver.remove_flow(subject)
            return in_solver or not was_masked
        if not in_solver:
            solver.add_flow(subject, weight, row)
            return True
        changed = False
        if solver.weight_of(subject) != _as_fraction(weight):
            solver.set_weight(subject, weight)
            changed = True
        if solver.row_of(subject) != row:
            solver.restrict_flow(subject, row)
            changed = True
        return changed

    # ------------------------------------------------------------------
    # Drift audit
    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        self.ticks += 1
        self._catch_up()
        if now < self._window or now - self._last_change_at < self._window:
            # The window straddles a topology/preference change (or the
            # start of time): the fluid optimum was not in force for the
            # whole window, so a comparison would be noise.
            return
        self.audits_total += 1
        allocation = self._solver.allocation
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
        """Solver instance, journal cursor, alert history and audit
        counters, JSON-safe.

        A pure read: the journal is not caught up, so the snapshot
        pairs the solver with the cursor it reflects. The pending tick
        event itself is restored by the event-queue codec (which
        re-arms the periodic process).
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
            "solver": self._solver.snapshot_state(),
            "cursor": self._cursor,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.ticks = state["ticks"]
        self.audits_total = state["audits_total"]
        self.drift_last = state["drift_last"]
        self.drift_peak = state["drift_peak"]
        self._last_change_at = state["last_change_at"]
        self._cursor = state["cursor"]
        self._masked = set(state["masked"])
        self._deduper.suppressed_total = state["alerts_suppressed"]
        self.alerts = [
            Alert(time=time, kind=kind, subject=subject, detail=detail)
            for time, kind, subject, detail in state["alerts"]
        ]
        self._deduper.restore_series(state["series"])
        self._solver.restore_state(state["solver"])
