"""Core: the engine binding schedulers to interfaces, declarative
scenarios, and the experiment runner."""

from .._lazy import lazy_exports

__all__ = [
    "ExperimentResult",
    "FlowSpec",
    "MobileDevice",
    "InterfaceSpec",
    "Scenario",
    "ScenarioRun",
    "SchedulingEngine",
    "TRAFFIC_KINDS",
    "TrafficSpec",
    "build_traffic",
    "run_scenario",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".device": ("MobileDevice",),
    ".engine": ("SchedulingEngine",),
    ".runner": ("ExperimentResult", "ScenarioRun", "build_traffic", "run_scenario"),
    ".scenario": (
        "TRAFFIC_KINDS",
        "FlowSpec",
        "InterfaceSpec",
        "Scenario",
        "TrafficSpec",
    ),
})
