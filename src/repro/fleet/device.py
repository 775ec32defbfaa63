"""Simulate one fleet device and summarize it as a mergeable payload.

:func:`run_device` is the unit of work the whole fleet decomposes
into: build the device's scenario from the shared workload spec, run
it under miDRR, and distil the result into

* a compact JSON-safe **summary** (packets, bytes, events, drops, flow
  counts, and a ``trace_sha256`` fingerprint of the full service
  trace), and
* a per-device :class:`~repro.obs.metrics.MetricsRegistry` **state**
  holding the mergeable telemetry — counters, the delay
  :class:`~repro.obs.metrics.QuantileSketch`, per-interface service,
  and the Jain-index accumulators (Σx, Σx², n) — which shard workers
  fold together with ``MetricsRegistry.merge_state`` and ship to the
  coordinator.

Everything here runs on the virtual clock: no wall-clock value enters
the payload, so the same ``(device_id, seed, workload)`` tuple
produces a byte-identical payload on every run and every machine.
That is the property the fleet's standalone-replay test pins.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from typing import Callable, Dict, Optional

from ..core.runner import ScenarioRun
from ..obs.metrics import MetricsRegistry
from ..schedulers.base import MultiInterfaceScheduler
from ..schedulers.midrr import MiDrrScheduler
from ..trace.fleet_workloads import DeviceWorkload, build_device_scenario

#: Metric names the fleet pipeline aggregates. Shared between devices,
#: shards and the coordinator so merge lands on the same registry keys.
DELAY_SKETCH = "fleet.delay_seconds"
DEVICES_TOTAL = "fleet.devices_total"
PACKETS_TOTAL = "fleet.packets_total"
BYTES_TOTAL = "fleet.bytes_total"
EVENTS_TOTAL = "fleet.events_total"
DROPS_TOTAL = "fleet.drops_total"
FLOWS_TOTAL = "fleet.flows_total"
FLOWS_COMPLETED_TOTAL = "fleet.flows_completed_total"
FAIRNESS_SUM_RATE = "fleet.fairness.sum_rate"
FAIRNESS_SUM_RATE_SQ = "fleet.fairness.sum_rate_sq"
FAIRNESS_FLOWS = "fleet.fairness.flows"


#: Samples :func:`trace_fingerprint` encodes at a time.
FINGERPRINT_CHUNK = 4096


def interface_bytes_metric(interface_id: str) -> str:
    """Registry name for one interface's fleet-wide byte counter."""
    return f"fleet.interface.{interface_id}.bytes_total"


def interface_packets_metric(interface_id: str) -> str:
    """Registry name for one interface's fleet-wide packet counter."""
    return f"fleet.interface.{interface_id}.packets_total"


def trace_fingerprint(samples) -> str:
    """SHA-256 over the canonical JSON of the full service trace.

    *samples* is an iterable of ``(time, flow_id, interface_id,
    size_bytes, delay)`` rows, such as
    :class:`~repro.net.sink.ServiceSample` tuples or the rows of a
    collector log's columns; each contributes ``[time, flow_id,
    interface_id, size_bytes, delay]`` (a tuple, named or not, encodes
    as a JSON array in field order). The samples are encoded
    :data:`FINGERPRINT_CHUNK` at a time and hashed as one JSON array,
    so no more than one chunk of them is held at once. JSON float
    formatting is the shortest-round-trip repr, identical across
    platforms for IEEE doubles, so equal traces — and only equal
    traces — produce equal fingerprints.
    """
    samples = iter(samples)
    digest = hashlib.sha256(b"[")
    separator = b""
    chunk = list(islice(samples, FINGERPRINT_CHUNK))
    while chunk:
        text = json.dumps(chunk, check_circular=False, separators=(",", ":"))
        digest.update(separator + text[1:-1].encode("utf-8"))
        separator = b","
        chunk = list(islice(samples, FINGERPRINT_CHUNK))
    digest.update(b"]")
    return digest.hexdigest()


def run_device(
    device_id: str,
    seed: int,
    workload: DeviceWorkload,
    scheduler_factory: Optional[Callable[[], MultiInterfaceScheduler]] = None,
) -> Dict[str, object]:
    """Simulate one device; return its summary + registry payload."""
    scenario = build_device_scenario(workload, device_id, seed)
    run = ScenarioRun(
        scenario,
        scheduler_factory if scheduler_factory is not None else MiDrrScheduler,
    )
    run.run_to_completion()
    # Freed by reference counting when this call returns: a fleet
    # worker runs device after device.
    run.close()
    stats = run.engine.stats
    samples = stats.samples
    packets = len(samples)
    drops = sum(stats.drops_by_flow().values())

    # The registry reads the log's columns; per-flow bytes come from
    # the collector's totals.
    _, _, interface_ids, sizes, delays = samples.columns()
    bytes_total = sum(sizes)
    interface_ids = list(interface_ids)
    delays = [delay for delay in delays if delay is not None]
    flow_bytes = stats.bytes_by_flow()

    registry = MetricsRegistry()
    registry.counter(DEVICES_TOTAL).inc(1)
    registry.counter(PACKETS_TOTAL).inc(packets)
    registry.counter(BYTES_TOTAL).inc(bytes_total)
    registry.counter(EVENTS_TOTAL).inc(run.sim.events_processed)
    registry.counter(DROPS_TOTAL).inc(drops)
    registry.counter(FLOWS_TOTAL).inc(len(scenario.flows))
    registry.counter(FLOWS_COMPLETED_TOTAL).inc(len(run.completions))
    registry.sketch(DELAY_SKETCH).observe_many(delays)

    for spec in scenario.interfaces:
        registry.counter(interface_bytes_metric(spec.interface_id)).inc(
            stats.interface_bytes(spec.interface_id)
        )
    for spec in scenario.interfaces:
        registry.counter(interface_packets_metric(spec.interface_id)).inc(
            interface_ids.count(spec.interface_id)
        )

    # Jain-index accumulators over weight-normalized per-flow rates:
    # x_f = (bytes·8 / duration) / φ_f. Keeping only (Σx, Σx², n) makes
    # the fairness proxy mergeable without per-flow state.
    if scenario.flows:
        sum_rate = registry.counter(FAIRNESS_SUM_RATE)
        sum_rate_sq = registry.counter(FAIRNESS_SUM_RATE_SQ)
        flows_counter = registry.counter(FAIRNESS_FLOWS)
        for spec in scenario.flows:
            rate = (
                flow_bytes.get(spec.flow_id, 0) * 8 / scenario.duration
            ) / spec.weight
            sum_rate.inc(rate)
            sum_rate_sq.inc(rate * rate)
            flows_counter.inc(1)

    return {
        "device_id": device_id,
        "seed": seed,
        "flows": len(scenario.flows),
        "flows_completed": len(run.completions),
        "packets": packets,
        "bytes": bytes_total,
        "events": run.sim.events_processed,
        "drops": drops,
        # Plain row tuples off the columns encode as the samples do
        # and skip building a named tuple per row.
        "trace_sha256": trace_fingerprint(zip(*samples.columns())),
        "registry": registry.snapshot_state(),
    }
