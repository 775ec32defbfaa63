"""Fleet-scale sharded simulation: many devices, many processes.

The fleet subsystem is the step from "one process simulates one
device" to population-scale claims: :func:`run_fleet` shards N
independent devices (each its own engine + miDRR scheduler driven by a
:class:`~repro.trace.fleet_workloads.DeviceWorkload`) across worker
processes, merges the mergeable telemetry each shard streams back, and
emits one fleet report with population percentiles, utilization and
fairness proxies. See ``docs/architecture.md`` for the
coordinator/worker lifecycle and the determinism contract.
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_MAX_SHARDS",
    "DELAY_SKETCH",
    "EXECUTORS",
    "FLEET_REPORT_SCHEMA_VERSION",
    "PAYLOAD_SCHEMA_VERSION",
    "REPORT_HASH_FIELDS",
    "Shard",
    "ShardPlan",
    "compute_report_hash",
    "decode_shard",
    "default_shard_count",
    "device_ids",
    "device_seed",
    "encode_shard",
    "interface_bytes_metric",
    "interface_packets_metric",
    "plan_shards",
    "read_shard_jsonl",
    "run_device",
    "run_fleet",
    "run_shard",
    "trace_fingerprint",
    "validate_shard",
    "write_shard_jsonl",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".codec": (
        "PAYLOAD_SCHEMA_VERSION",
        "decode_shard",
        "encode_shard",
        "read_shard_jsonl",
        "validate_shard",
        "write_shard_jsonl",
    ),
    ".coordinator": (
        "EXECUTORS",
        "FLEET_REPORT_SCHEMA_VERSION",
        "REPORT_HASH_FIELDS",
        "compute_report_hash",
        "run_fleet",
    ),
    ".device": (
        "DELAY_SKETCH",
        "interface_bytes_metric",
        "interface_packets_metric",
        "run_device",
        "trace_fingerprint",
    ),
    ".plan": (
        "DEFAULT_MAX_SHARDS",
        "Shard",
        "ShardPlan",
        "default_shard_count",
        "device_ids",
        "device_seed",
        "plan_shards",
    ),
    ".worker": ("run_shard",),
})
