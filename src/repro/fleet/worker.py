"""Worker entrypoint: simulate one shard of the fleet.

:func:`run_shard` is a module-level function taking one JSON-safe task
dict, so it pickles cleanly into a :class:`ProcessPoolExecutor` and
runs identically under the serial in-process executor — the serial
path is not a mock, it is the same code the pool executes, which is
what lets the determinism tests compare the two byte-for-byte.

The worker folds its devices' registries into one shard registry as it
goes (devices in shard order), so the payload that travels back to the
coordinator is compact: one registry state plus one small summary per
device, regardless of how much traffic the shard simulated.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from ..trace.fleet_workloads import DeviceWorkload
from .codec import PAYLOAD_SCHEMA_VERSION
from .device import run_device
from .plan import device_seed

#: Required keys of a shard task dict (built by the coordinator).
_TASK_KEYS = ("shard_id", "device_ids", "fleet_seed", "workload")


def run_shard(task: Dict[str, object]) -> Dict[str, object]:
    """Simulate every device in one shard; return the shard payload."""
    missing = [key for key in _TASK_KEYS if key not in task]
    if missing:
        raise ConfigurationError(f"shard task missing keys {missing}")
    workload = DeviceWorkload.from_dict(dict(task["workload"]))
    fleet_seed = task["fleet_seed"]

    started = perf_counter()
    registry = MetricsRegistry()
    summaries: List[Dict[str, object]] = []
    for device_id in task["device_ids"]:
        payload = run_device(device_id, device_seed(fleet_seed, device_id), workload)
        registry.merge_state(payload.pop("registry"))
        summaries.append(payload)
    return {
        "schema_version": PAYLOAD_SCHEMA_VERSION,
        "shard_id": task["shard_id"],
        "devices": summaries,
        "registry": registry.snapshot_state(),
        "wall_seconds": perf_counter() - started,
    }
