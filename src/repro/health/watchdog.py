"""The engine watchdog: periodic health sampling with structured alerts.

A :class:`Watchdog` rides the simulator's event heap as a
:class:`~repro.sim.process.PeriodicProcess` and, every ``period``
seconds, compares the engine's service counters against its last
sample. Two pathologies are detected:

* **flow starvation** — a backlogged flow with at least one willing,
  up interface that has received no service for ``starvation_timeout``
  seconds. Quarantined and admission-shed flows are exempt: they
  *cannot* be served, and the degradation layer or admission control
  already accounts for them. A flow that has left the engine is
  forgotten at the next tick, sample and alert series alike.
* **interface stall** — an up, idle interface that transmitted nothing
  for ``stall_timeout`` seconds while some backlogged flow that is
  neither quarantined nor shed was willing to use it (a
  work-conservation breach).

An optional :class:`~repro.health.invariants.MiDrrInvariantChecker` is
run on every tick, converting invariant breaks into alerts. In
``strict`` mode any alert raises :class:`~repro.errors.WatchdogError`
immediately, which stops a chaos run dead at the first inconsistency —
the mode the deterministic-replay tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.engine import SchedulingEngine
from ..errors import WatchdogError
from ..sim.process import PeriodicProcess
from ..sim.simulator import Simulator
from .alerts import Alert, AlertDeduper
from .invariants import MiDrrInvariantChecker

#: Alert kinds.
ALERT_FLOW_STARVATION = "flow_starvation"
ALERT_INTERFACE_STALL = "interface_stall"
ALERT_INVARIANT_VIOLATION = "invariant_violation"


@dataclass
class _FlowSample:
    bytes_sent: int = 0
    last_progress: float = 0.0


@dataclass
class _InterfaceSample:
    bytes_sent: int = 0
    last_progress: float = 0.0


class Watchdog:
    """Samples an engine periodically and raises structured alerts."""

    def __init__(
        self,
        sim: Simulator,
        engine: SchedulingEngine,
        period: float = 0.5,
        starvation_timeout: float = 2.0,
        stall_timeout: float = 2.0,
        invariant_checker: Optional[MiDrrInvariantChecker] = None,
        strict: bool = False,
        max_alert_gap: float = 60.0,
    ) -> None:
        if period <= 0:
            raise WatchdogError(f"period must be positive, got {period}")
        if starvation_timeout <= 0 or stall_timeout <= 0:
            raise WatchdogError("timeouts must be positive")
        if max_alert_gap <= 0:
            raise WatchdogError(f"max_alert_gap must be positive, got {max_alert_gap}")
        self._sim = sim
        self._engine = engine
        self._period = period
        self._starvation_timeout = starvation_timeout
        self._stall_timeout = stall_timeout
        self._checker = invariant_checker
        self._strict = strict
        self._process = PeriodicProcess(sim, period, self._tick)
        self._flow_samples: Dict[str, _FlowSample] = {}
        self._interface_samples: Dict[str, _InterfaceSample] = {}
        self._deduper = AlertDeduper(max_alert_gap)
        self._listeners: List[Callable[[Alert], None]] = []
        self.alerts: List[Alert] = []
        self.ticks = 0

    @property
    def alerts_suppressed(self) -> int:
        """Repeats swallowed by the escalating alert series."""
        return self._deduper.suppressed_total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """``True`` between :meth:`start` and :meth:`stop`."""
        return self._process.running

    def start(self) -> None:
        """Begin sampling."""
        self._process.start()

    def stop(self) -> None:
        """Stop sampling."""
        self._process.stop()

    def on_alert(self, listener: Callable[[Alert], None]) -> None:
        """Register a callback fired with each raised alert."""
        self._listeners.append(listener)

    def alerts_of(self, kind: str) -> List[Alert]:
        """All raised alerts of the given *kind*."""
        return [alert for alert in self.alerts if alert.kind == kind]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _raise(self, kind: str, subject: str, detail: str) -> None:
        alert = Alert(time=self._sim.now, kind=kind, subject=subject, detail=detail)
        self.alerts.append(alert)
        for listener in self._listeners:
            listener(alert)
        if self._strict:
            raise WatchdogError(str(alert))

    def _raise_deduplicated(
        self, kind: str, subject: str, detail: str, base_gap: float, now: float
    ) -> None:
        """Emit one alert of an escalating series, or count it suppressed.

        The first occurrence emits immediately; subsequent occurrences
        for the same ``(kind, subject)`` emit only when the series'
        gap has elapsed, with the gap doubling per emission up to
        ``max_alert_gap``. Suppressed repeats are counted and reported
        in the next emitted alert's detail.
        """
        admitted = self._deduper.admit(kind, subject, detail, base_gap, now)
        if admitted is not None:
            self._raise(kind, subject, admitted)

    def _clear_series(self, kind: str, subject: str) -> None:
        """Forget escalation state once the subject made progress."""
        self._deduper.clear(kind, subject)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Samples, escalation series and alert history, JSON-safe.

        The pending tick event itself is restored by the event-queue
        codec (which re-arms the periodic process).
        """
        return {
            "ticks": self.ticks,
            "alerts_suppressed": self.alerts_suppressed,
            "alerts": [
                [alert.time, alert.kind, alert.subject, alert.detail]
                for alert in self.alerts
            ],
            "flow_samples": {
                flow_id: [sample.bytes_sent, sample.last_progress]
                for flow_id, sample in self._flow_samples.items()
            },
            "interface_samples": {
                interface_id: [sample.bytes_sent, sample.last_progress]
                for interface_id, sample in self._interface_samples.items()
            },
            "series": self._deduper.snapshot_series(),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.ticks = state["ticks"]
        self._deduper.suppressed_total = state["alerts_suppressed"]
        self.alerts = [
            Alert(time=time, kind=kind, subject=subject, detail=detail)
            for time, kind, subject, detail in state["alerts"]
        ]
        self._flow_samples = {
            flow_id: _FlowSample(bytes_sent=sent, last_progress=progress)
            for flow_id, (sent, progress) in state["flow_samples"].items()
        }
        self._interface_samples = {
            interface_id: _InterfaceSample(bytes_sent=sent, last_progress=progress)
            for interface_id, (sent, progress) in state["interface_samples"].items()
        }
        self._deduper.restore_series(state["series"])

    def _tick(self, now: float) -> None:
        self.ticks += 1
        self._check_flows(now)
        self._check_interfaces(now)
        if self._checker is not None:
            for violation in self._checker.check():
                self._raise(ALERT_INVARIANT_VIOLATION, "scheduler", violation)

    def _check_flows(self, now: float) -> None:
        engine = self._engine
        flows = engine.flows
        samples = self._flow_samples
        for flow_id in [flow_id for flow_id in samples if flow_id not in flows]:
            del samples[flow_id]
            self._clear_series(ALERT_FLOW_STARVATION, flow_id)
        exempt = engine.quarantined_flows.keys() | engine.shed_flows.keys()
        interfaces = engine.interfaces
        for flow_id, flow in flows.items():
            sample = samples.get(flow_id)
            if sample is None:
                sample = _FlowSample(last_progress=now)
                samples[flow_id] = sample
            sent = engine.stats.bytes_sent(flow_id)
            if sent != sample.bytes_sent or not flow.backlogged:
                sample.bytes_sent = sent
                sample.last_progress = now
                self._clear_series(ALERT_FLOW_STARVATION, flow_id)
                continue
            if flow_id in exempt:
                # Cannot be served by design; the degradation layer or
                # admission control owns it.
                sample.last_progress = now
                self._clear_series(ALERT_FLOW_STARVATION, flow_id)
                continue
            willing_up = any(
                interface.up
                for interface in interfaces.values()
                if flow.willing_to_use(interface.interface_id)
            )
            if not willing_up:
                sample.last_progress = now
                self._clear_series(ALERT_FLOW_STARVATION, flow_id)
                continue
            starved_for = now - sample.last_progress
            if starved_for >= self._starvation_timeout:
                # last_progress is NOT reset: the starvation clock keeps
                # running so each emitted alert reports the true outage
                # length, while the escalating series caps the volume.
                self._raise_deduplicated(
                    ALERT_FLOW_STARVATION,
                    flow_id,
                    f"backlogged with willing up interfaces, no service "
                    f"for {starved_for:.3f}s",
                    base_gap=self._starvation_timeout,
                    now=now,
                )

    def _check_interfaces(self, now: float) -> None:
        engine = self._engine
        flows = engine.flows
        exempt = engine.quarantined_flows.keys() | engine.shed_flows.keys()
        for interface_id, interface in engine.interfaces.items():
            sample = self._interface_samples.get(interface_id)
            if sample is None:
                sample = _InterfaceSample(last_progress=now)
                self._interface_samples[interface_id] = sample
            if interface.bytes_sent != sample.bytes_sent or interface.busy:
                sample.bytes_sent = interface.bytes_sent
                sample.last_progress = now
                self._clear_series(ALERT_INTERFACE_STALL, interface_id)
                continue
            if not interface.up:
                sample.last_progress = now
                self._clear_series(ALERT_INTERFACE_STALL, interface_id)
                continue
            offered = any(
                flow.backlogged and flow.willing_to_use(interface_id)
                for flow_id, flow in flows.items()
                if flow_id not in exempt
            )
            if not offered:
                sample.last_progress = now
                self._clear_series(ALERT_INTERFACE_STALL, interface_id)
                continue
            stalled_for = now - sample.last_progress
            if stalled_for >= self._stall_timeout:
                self._raise_deduplicated(
                    ALERT_INTERFACE_STALL,
                    interface_id,
                    f"up and idle with offered backlog, no transmission "
                    f"for {stalled_for:.3f}s",
                    base_gap=self._stall_timeout,
                    now=now,
                )
