"""Fleet coordinator: shard, dispatch, merge, report.

:func:`run_fleet` is the top of the fleet pipeline:

1. **Plan** — split N devices into contiguous shards whose count
   depends only on N (see :mod:`repro.fleet.plan` for why that makes
   the merged report workers-invariant), deriving every device's seed
   from ``(fleet_seed, device_id)``.
2. **Dispatch** — run shards on the serial in-process executor or a
   ``ProcessPoolExecutor`` (fork context when available). Workers
   stream compact payloads back as they finish.
3. **Merge** — fold shard registries into one fleet registry **in
   shard-id order** (float merge order must not depend on completion
   order), chain-hash the per-device trace fingerprints in canonical
   device order, and derive fleet-level percentiles, utilization and
   the Jain fairness proxy from the merged state.
4. **Report** — one JSON document, plus an optional per-shard JSONL
   stream. ``report_hash`` covers exactly the deterministic subset
   (config, totals, percentiles, merged registry, device chain) and
   excludes wall-clock and executor/worker facts, so equal hashes
   across ``--workers 1`` / ``--workers 4`` / serial-vs-process is the
   determinism guarantee — and a test pins it.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional

from ..core.runner import EXECUTORS
from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry, QuantileSketch
from ..trace.fleet_workloads import DeviceWorkload
from .codec import validate_shard, write_shard_jsonl
from .device import (
    BYTES_TOTAL,
    DELAY_SKETCH,
    DEVICES_TOTAL,
    DROPS_TOTAL,
    EVENTS_TOTAL,
    FAIRNESS_FLOWS,
    FAIRNESS_SUM_RATE,
    FAIRNESS_SUM_RATE_SQ,
    FLOWS_COMPLETED_TOTAL,
    FLOWS_TOTAL,
    PACKETS_TOTAL,
    interface_bytes_metric,
    interface_packets_metric,
)
from .plan import ShardPlan, plan_shards
from .worker import run_shard

#: Version of the fleet report document.
FLEET_REPORT_SCHEMA_VERSION = 2

#: Fields of the report covered by ``report_hash`` — the deterministic
#: subset. ``run`` (wall clock, workers, executor) is deliberately
#: excluded: two runs of the same fleet config must hash equal no
#: matter how the work was spread.
REPORT_HASH_FIELDS = (
    "schema_version",
    "fleet",
    "totals",
    "delay",
    "interfaces",
    "fairness",
    "device_chain_sha256",
    "registry",
)


def compute_report_hash(report: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of the deterministic subset."""
    subset = {key: report[key] for key in REPORT_HASH_FIELDS}
    canonical = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _counter_value(registry: MetricsRegistry, name: str) -> float:
    return registry.counter(name).value


def _run_serial(
    tasks: List[Dict[str, object]],
    progress: Optional[Callable[[int, int], None]],
) -> List[Dict[str, object]]:
    payloads = []
    for done, task in enumerate(tasks, start=1):
        payloads.append(run_shard(task))
        if progress is not None:
            progress(done, len(tasks))
    return payloads


def _run_pool(
    tasks: List[Dict[str, object]],
    workers: int,
    progress: Optional[Callable[[int, int], None]],
) -> List[Dict[str, object]]:
    # Imported here: only this executor pays for loading the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        context = None
    by_shard: Dict[int, Dict[str, object]] = {}
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = {pool.submit(run_shard, task): task["shard_id"] for task in tasks}
        done = 0
        for future in as_completed(futures):
            payload = future.result()
            by_shard[payload["shard_id"]] = payload
            done += 1
            if progress is not None:
                progress(done, len(tasks))
    # Completion order is nondeterministic; merge order must not be.
    return [by_shard[task["shard_id"]] for task in tasks]


def run_fleet(
    devices: int,
    workload: Optional[DeviceWorkload] = None,
    fleet_seed: int = 0,
    workers: int = 1,
    shards: int = 0,
    executor: str = "process",
    report_path: Optional[str] = None,
    shard_log_path: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Dict[str, object]:
    """Simulate a fleet of *devices* devices; return the fleet report.

    ``shards=0`` selects the automatic, workers-independent shard
    count. ``executor="serial"`` runs every shard in-process (workers
    is ignored) — the debugging and test path; ``"process"`` uses a
    pool of *workers* OS processes.
    """
    if workload is None:
        workload = DeviceWorkload()
    if executor not in EXECUTORS:
        raise ConfigurationError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be ≥ 1, got {workers}")
    plan: ShardPlan = plan_shards(devices, shards)
    tasks = [
        {
            "shard_id": shard.shard_id,
            "device_ids": list(shard.device_ids),
            "fleet_seed": fleet_seed,
            "workload": workload.to_dict(),
        }
        for shard in plan.shards
    ]

    started = perf_counter()
    if executor == "serial":
        payloads = _run_serial(tasks, progress)
    else:
        payloads = _run_pool(tasks, workers, progress)
    wall_seconds = perf_counter() - started

    fleet_registry = MetricsRegistry()
    summaries: Dict[str, Dict[str, object]] = {}
    for payload in payloads:  # already in shard-id order
        validate_shard(payload)
        fleet_registry.merge_state(payload["registry"])
        for summary in payload["devices"]:
            summaries[summary["device_id"]] = summary

    # Chain hash over per-device trace fingerprints in canonical
    # (plan) order: one hex digest that commits to every packet of
    # every device, cheap enough to diff across runs.
    chain = hashlib.sha256()
    for device_id in plan.device_order():
        if device_id not in summaries:
            raise ConfigurationError(
                f"shard payloads missing device {device_id!r}"
            )
        chain.update(summaries[device_id]["trace_sha256"].encode("ascii"))
    device_chain = chain.hexdigest()

    totals = {
        "packets": int(_counter_value(fleet_registry, PACKETS_TOTAL)),
        "bytes": int(_counter_value(fleet_registry, BYTES_TOTAL)),
        "events": int(_counter_value(fleet_registry, EVENTS_TOTAL)),
        "drops": int(_counter_value(fleet_registry, DROPS_TOTAL)),
        "flows": int(_counter_value(fleet_registry, FLOWS_TOTAL)),
        "flows_completed": int(
            _counter_value(fleet_registry, FLOWS_COMPLETED_TOTAL)
        ),
        "devices": int(_counter_value(fleet_registry, DEVICES_TOTAL)),
    }

    delay: Dict[str, object] = {"count": 0, "p50": None, "p95": None, "p99": None}
    if DELAY_SKETCH in fleet_registry:
        sketch = fleet_registry.get(DELAY_SKETCH)
        assert isinstance(sketch, QuantileSketch)
        if sketch.count:
            delay = {
                "count": sketch.count,
                "p50": sketch.quantile(0.5),
                "p95": sketch.quantile(0.95),
                "p99": sketch.quantile(0.99),
            }

    interfaces: Dict[str, Dict[str, object]] = {}
    for index in range(workload.num_interfaces):
        interface_id = f"if{index}"
        bytes_name = interface_bytes_metric(interface_id)
        packets_name = interface_packets_metric(interface_id)
        interface_bytes = (
            int(_counter_value(fleet_registry, bytes_name))
            if bytes_name in fleet_registry
            else 0
        )
        rate_bps = workload.interface_rate_bps / (index + 1)
        capacity_bits = rate_bps * workload.duration * devices
        interfaces[interface_id] = {
            "bytes": interface_bytes,
            "packets": (
                int(_counter_value(fleet_registry, packets_name))
                if packets_name in fleet_registry
                else 0
            ),
            "utilization": interface_bytes * 8 / capacity_bits,
        }

    fairness: Dict[str, object] = {"jain_index": None, "flows": 0}
    if FAIRNESS_FLOWS in fleet_registry:
        n = _counter_value(fleet_registry, FAIRNESS_FLOWS)
        sum_rate = _counter_value(fleet_registry, FAIRNESS_SUM_RATE)
        sum_rate_sq = _counter_value(fleet_registry, FAIRNESS_SUM_RATE_SQ)
        if n > 0 and sum_rate_sq > 0:
            fairness = {
                "jain_index": (sum_rate * sum_rate) / (n * sum_rate_sq),
                "flows": int(n),
            }
        else:
            fairness = {"jain_index": None, "flows": int(n)}

    report: Dict[str, object] = {
        "schema_version": FLEET_REPORT_SCHEMA_VERSION,
        "fleet": {
            "devices": devices,
            "fleet_seed": fleet_seed,
            "workload": workload.to_dict(),
        },
        "run": {
            "executor": executor,
            "workers": workers if executor == "process" else 1,
            "shards": len(plan.shards),
            "wall_seconds": wall_seconds,
            "packets_per_sec": totals["packets"] / wall_seconds
            if wall_seconds > 0
            else 0.0,
            "devices_per_sec": devices / wall_seconds if wall_seconds > 0 else 0.0,
        },
        "totals": totals,
        "delay": delay,
        "interfaces": interfaces,
        "fairness": fairness,
        "device_chain_sha256": device_chain,
        "registry": fleet_registry.snapshot_state(),
    }
    report["report_hash"] = compute_report_hash(report)

    if shard_log_path is not None:
        write_shard_jsonl(shard_log_path, payloads)
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return report
