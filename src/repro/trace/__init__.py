"""Smartphone workload model, concurrency analysis, fleet workloads."""

from .._lazy import lazy_exports

#: Workload kinds understood by
#: :func:`~repro.trace.fleet_workloads.build_device_scenario`.
WORKLOAD_KINDS = ("smartphone", "bulk")

__all__ = [
    "AppProfile",
    "ConcurrencyStats",
    "DEFAULT_APPS",
    "DeviceTraceConfig",
    "DeviceWorkload",
    "FlowInterval",
    "SmartphoneTraceGenerator",
    "WEEK_SECONDS",
    "WORKLOAD_KINDS",
    "build_device_scenario",
    "concurrency_stats",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".concurrency": ("ConcurrencyStats", "concurrency_stats"),
    ".fleet_workloads": ("DeviceWorkload", "build_device_scenario"),
    ".smartphone": (
        "DEFAULT_APPS",
        "WEEK_SECONDS",
        "AppProfile",
        "DeviceTraceConfig",
        "FlowInterval",
        "SmartphoneTraceGenerator",
    ),
})
