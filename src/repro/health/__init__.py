"""Runtime health monitoring: watchdog sampling and invariant checks.

The :class:`Watchdog` periodically samples a
:class:`~repro.core.engine.SchedulingEngine` and raises structured
:class:`Alert` records for flow starvation and interface stalls; the
:class:`FairnessAuditor` tracks the exact fluid max-min optimum
and alerts when measured rates drift from it; the
:class:`MiDrrInvariantChecker` validates the scheduler's internal state
(deficit counters, service flags, turn bookkeeping) during chaos runs.
Both periodic monitors share the escalating-series alert
deduplication in :mod:`repro.health.alerts`.
"""

from .._lazy import lazy_exports

__all__ = [
    "ALERT_FAIRNESS_DRIFT",
    "ALERT_FLOW_STARVATION",
    "ALERT_INTERFACE_STALL",
    "ALERT_INVARIANT_VIOLATION",
    "Alert",
    "AlertDeduper",
    "FairnessAuditor",
    "MiDrrInvariantChecker",
    "Watchdog",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".alerts": ("Alert", "AlertDeduper"),
    ".auditor": ("ALERT_FAIRNESS_DRIFT", "FairnessAuditor"),
    ".invariants": ("MiDrrInvariantChecker",),
    ".watchdog": (
        "ALERT_FLOW_STARVATION",
        "ALERT_INTERFACE_STALL",
        "ALERT_INVARIANT_VIOLATION",
        "Watchdog",
    ),
})
