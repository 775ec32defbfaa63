"""Crash-safe checkpoint/restore for simulation runs.

The recovery subsystem makes a run's complete state — virtual clock,
pending event queue, RNG streams, scheduler deficits and service flags,
flow queues, interface up/down state and measurement sinks — into a
versioned, checksummed document that can be written to disk and
restored into a freshly built process such that the continuation is
*byte-identical* to the uninterrupted run (same scheduling decisions,
same measurements, same tie-breaks).

Layers, bottom up:

* :mod:`repro.recovery.checkpoint` — the on-disk envelope: schema
  version, SHA-256 checksum over a canonical JSON rendering, typed
  errors for corruption and version skew.
* :mod:`repro.recovery.codec` — serializing the live event queue:
  every pending callback is a bound method of a *registered* object,
  recorded as ``(owner name, method name, encoded args)`` and re-bound
  against the rebuilt object graph on restore.
* :mod:`repro.recovery.runner` — :class:`RecoverableScenarioRun`, a
  scenario harness whose full state round-trips through
  ``checkpoint()`` / ``restore()`` and which records the decision
  trace used by the crash-equivalence tests.
* :mod:`repro.recovery.supervisor` — :class:`RecoverySupervisor`,
  which drives a run in checkpointed segments, restores after injected
  crashes with capped exponential backoff, and trips a crash-loop
  circuit breaker when restarts stop making progress.
"""

from .._lazy import lazy_exports

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointContext",
    "DecisionTraceRecorder",
    "RecoverableScenarioRun",
    "RecoverySupervisor",
    "compute_checksum",
    "decode_events",
    "encode_events",
    "load_checkpoint",
    "save_checkpoint",
    "unwrap_state",
    "wrap_state",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".checkpoint": (
        "CHECKPOINT_SCHEMA_VERSION",
        "compute_checksum",
        "load_checkpoint",
        "save_checkpoint",
        "unwrap_state",
        "wrap_state",
    ),
    ".codec": ("CheckpointContext", "decode_events", "encode_events"),
    ".runner": ("DecisionTraceRecorder", "RecoverableScenarioRun"),
    ".supervisor": ("RecoverySupervisor",),
})
