"""repro — a reproduction of "Scheduling Packets over Multiple
Interfaces while Respecting User Preferences" (Yap et al., CoNEXT 2013).

The package implements the paper's miDRR scheduler together with every
substrate its evaluation needs: a discrete-event network simulator,
classic fair-queueing baselines, an exact weighted max-min reference
solver with rate-cluster extraction, a virtual-interface bridge with
real header rewriting, an HTTP/1.1 byte-range scheduling proxy, and a
smartphone flow-concurrency workload model.

Quickstart::

    from repro import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
    from repro import MiDrrScheduler, run_scenario
    from repro.units import mbps

    scenario = Scenario(
        interfaces=(
            InterfaceSpec("if1", mbps(1)),
            InterfaceSpec("if2", mbps(1)),
        ),
        flows=(
            FlowSpec("a"),                       # willing to use any interface
            FlowSpec("b", interfaces=("if2",)),  # pinned to if2
        ),
        duration=30.0,
    )
    result = run_scenario(scenario, MiDrrScheduler)
    print(result.rates(5, 30))   # ~1 Mb/s each (the paper's Figure 1(c))
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Alert",
    "Allocation",
    "AnyInterface",
    "CapacityCollapse",
    "CapacityStep",
    "ChaosReport",
    "ChecksumVerifier",
    "ConfigurationError",
    "DevicePolicy",
    "DrrScheduler",
    "Except",
    "ExperimentResult",
    "FairnessError",
    "FaultError",
    "FaultEvent",
    "FaultTimeline",
    "Flow",
    "FlowSpec",
    "GilbertElliottFlapper",
    "HeaderError",
    "HttpError",
    "Interface",
    "InterfaceSpec",
    "MetricsRegistry",
    "MiDrrInvariantChecker",
    "MiDrrScheduler",
    "MobileDevice",
    "Only",
    "Packet",
    "PacketCorruptionInjector",
    "PacketLossInjector",
    "PerInterfaceScheduler",
    "Prefer",
    "PreferenceChurner",
    "PreferenceError",
    "PreferenceSet",
    "ReproError",
    "Scenario",
    "SchedulingEngine",
    "SchedulingError",
    "SimulationError",
    "Simulator",
    "SnapshotProcess",
    "StaticSplitScheduler",
    "TrafficSpec",
    "Watchdog",
    "WatchdogError",
    "WfqScheduler",
    "build_default_chaos",
    "instrument_engine",
    "instrument_watchdog",
    "run_chaos",
    "run_conformance",
    "run_scenario",
    "weighted_maxmin",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core.device": ("MobileDevice",),
    ".core.runner": ("ExperimentResult", "run_scenario"),
    ".core.scenario": ("FlowSpec", "InterfaceSpec", "Scenario", "TrafficSpec"),
    ".core.engine": ("SchedulingEngine",),
    ".fairness.conformance": ("run_conformance",),
    ".errors": (
        "ConfigurationError",
        "FairnessError",
        "FaultError",
        "HeaderError",
        "HttpError",
        "PreferenceError",
        "ReproError",
        "SchedulingError",
        "SimulationError",
        "WatchdogError",
    ),
    ".fairness.waterfill": ("Allocation", "weighted_maxmin"),
    ".faults.chaos": ("ChaosReport", "build_default_chaos", "run_chaos"),
    ".faults.processes": (
        "CapacityCollapse",
        "ChecksumVerifier",
        "GilbertElliottFlapper",
        "PacketCorruptionInjector",
        "PacketLossInjector",
        "PreferenceChurner",
    ),
    ".faults.timeline": ("FaultEvent", "FaultTimeline"),
    ".health.invariants": ("MiDrrInvariantChecker",),
    ".health.watchdog": ("Alert", "Watchdog"),
    ".net.flow": ("Flow",),
    ".obs": (
        "MetricsRegistry",
        "SnapshotProcess",
        "instrument_engine",
        "instrument_watchdog",
    ),
    ".net.interface": ("CapacityStep", "Interface"),
    ".net.packet": ("Packet",),
    ".prefs.policy": (
        "AnyInterface",
        "DevicePolicy",
        "Except",
        "Only",
        "Prefer",
    ),
    ".prefs.preferences": ("PreferenceSet",),
    ".schedulers.drr": ("DrrScheduler",),
    ".schedulers.midrr": ("MiDrrScheduler",),
    ".schedulers.per_interface": (
        "PerInterfaceScheduler",
        "StaticSplitScheduler",
    ),
    ".schedulers.wfq": ("WfqScheduler",),
    ".sim.simulator": ("Simulator",),
})
