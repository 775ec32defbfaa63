"""Deterministic, seed-driven fault injection.

Every fault process schedules its transitions on the simulator's event
heap and draws from a named :class:`~repro.sim.randomness.RandomStreams`
stream, so a chaos run is exactly as reproducible as any other
experiment: same seed, same fault timeline, same byte counts.

Fault taxonomy (see ``docs/fault_model.md``):

* :class:`GilbertElliottFlapper` — bursty interface up/down churn;
* :class:`CapacityCollapse` — capacity collapse followed by a staged
  recovery ramp;
* :class:`PacketLossInjector` — per-interface Bernoulli packet loss;
* :class:`PacketCorruptionInjector` — per-interface byte corruption,
  caught downstream by :class:`ChecksumVerifier` using the real
  :mod:`repro.net.headers` checksums;
* :class:`PreferenceChurner` — mid-run weight / Π churn.

Two additions for the recovery subsystem: :class:`FaultPlan` declares
fault windows as validated-up-front data that materializes into
checkpointable run extras, and :class:`CrashInjector` simulates the
death of the *host process* at injected points (polled from outside
the event heap) for the crash-equivalence harness
:func:`run_crash_equivalence`.
"""

from .._lazy import lazy_exports

__all__ = [
    "PLAN_KINDS",
    "CapacityCollapse",
    "ChaosReport",
    "ChecksumVerifier",
    "CrashInjector",
    "EquivalenceReport",
    "FaultEvent",
    "FaultPlan",
    "FaultTimeline",
    "GilbertElliottFlapper",
    "KillPointResult",
    "PacketCorruptionInjector",
    "PacketLossInjector",
    "PlannedFault",
    "PreferenceChurner",
    "SimulatedCrash",
    "build_default_chaos",
    "run_chaos",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".chaos": ("ChaosReport", "build_default_chaos", "run_chaos"),
    ".crashes": (
        "CrashInjector",
        "EquivalenceReport",
        "KillPointResult",
        "SimulatedCrash",
        "run_crash_equivalence",
    ),
    ".plan": ("PLAN_KINDS", "FaultPlan", "PlannedFault"),
    ".processes": (
        "CapacityCollapse",
        "ChecksumVerifier",
        "GilbertElliottFlapper",
        "PacketCorruptionInjector",
        "PacketLossInjector",
        "PreferenceChurner",
    ),
    ".timeline": ("FaultEvent", "FaultTimeline"),
})
