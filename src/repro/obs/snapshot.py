"""Periodic metric snapshots on the simulation clock, exported as JSONL.

:class:`SnapshotProcess` rides the event heap as a
:class:`~repro.sim.process.PeriodicProcess`: every ``period`` virtual
seconds it runs any registered pre-sample hooks (instrumentation uses
these to drain component telemetry into histograms), collects the
registry, and appends one record::

    {"t": 12.5, "seq": 25, "metrics": {"engine.packets_sent_total": ...}}

Records accumulate in memory and can be written as one-object-per-line
JSONL with :meth:`SnapshotProcess.write_jsonl` / :func:`write_jsonl`;
:func:`read_jsonl` round-trips them back. Because sampling happens on
the *virtual* clock, a seeded run produces the identical snapshot
sequence on every machine — only wall-clock-derived metrics (decision
latency) vary.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..sim.process import PeriodicProcess
from ..sim.simulator import Simulator
from .metrics import MetricsRegistry

#: Schema version stamped into every snapshot record. Version 2 added
#: the optional ``shard_id`` / ``device_id`` provenance labels so fleet
#: snapshots stay attributable after cross-process merge; version-1
#: records (no labels) remain readable.
SNAPSHOT_SCHEMA_VERSION = 2


class SnapshotProcess:
    """Samples a :class:`MetricsRegistry` periodically on the sim clock.

    *shard_id* / *device_id*, when given, label every record this
    process emits: a fleet run mixes snapshot streams from thousands of
    devices across worker processes, and an unlabelled record would be
    unattributable the moment two streams share a file.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: MetricsRegistry,
        period: float = 1.0,
        pre_sample: Optional[List[Callable[[float], None]]] = None,
        shard_id: Optional[int] = None,
        device_id: Optional[str] = None,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        self._sim = sim
        self._registry = registry
        self._period = period
        self._shard_id = shard_id
        self._device_id = device_id
        self._pre_sample: List[Callable[[float], None]] = list(pre_sample or [])
        self._process = PeriodicProcess(sim, period, self._tick)
        self.snapshots: List[Dict[str, object]] = []
        #: Wall-clock seconds spent inside :meth:`sample_now` (hooks +
        #: collect + record build) — the snapshot stack's own cost,
        #: measured from within the run so the overhead bench can
        #: report a host-noise-free telemetry share.
        self.telemetry_seconds = 0.0

    @property
    def period(self) -> float:
        """Sampling period in virtual seconds."""
        return self._period

    @property
    def running(self) -> bool:
        """``True`` between :meth:`start` and :meth:`stop`."""
        return self._process.running

    def start(self) -> None:
        """Begin sampling. Idempotent."""
        self._process.start()

    def stop(self) -> None:
        """Stop sampling. Idempotent."""
        self._process.stop()

    def sample_now(self) -> Dict[str, object]:
        """Take one snapshot immediately (also used by each tick)."""
        started = perf_counter()
        now = self._sim.now
        for hook in self._pre_sample:
            hook(now)
        record: Dict[str, object] = {
            "t": now,
            "seq": len(self.snapshots),
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "metrics": self._registry.collect(),
        }
        if self._shard_id is not None:
            record["shard_id"] = self._shard_id
        if self._device_id is not None:
            record["device_id"] = self._device_id
        self.snapshots.append(record)
        self.telemetry_seconds += perf_counter() - started
        return record

    def _tick(self, now: float) -> None:
        self.sample_now()

    def write_jsonl(self, path: str) -> int:
        """Write accumulated snapshots as JSONL; returns the line count."""
        return write_jsonl(path, self.snapshots)


def write_jsonl(path: str, snapshots: List[Dict[str, object]]) -> int:
    """Write snapshot records one-per-line; returns the line count."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in snapshots:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(snapshots)


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Read snapshot records written by :func:`write_jsonl`.

    Accepts every schema up to :data:`SNAPSHOT_SCHEMA_VERSION`:
    version-1 records simply carry no ``shard_id`` / ``device_id``
    labels (readers must treat the labels as optional). A record from
    a *newer* schema than this build understands is refused — its
    semantics are unknown.
    """
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{line_number}: invalid snapshot line: {exc}"
                ) from exc
            if not isinstance(record, dict) or "metrics" not in record:
                raise ConfigurationError(
                    f"{path}:{line_number}: not a snapshot record"
                )
            version = record.get("schema_version", 1)
            if not isinstance(version, int) or version > SNAPSHOT_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"{path}:{line_number}: snapshot schema {version!r} is "
                    f"newer than this build understands "
                    f"(max {SNAPSHOT_SCHEMA_VERSION})"
                )
            records.append(record)
    return records


def _format_value(payload: Dict[str, object]) -> str:
    kind = payload.get("type")
    if kind in ("counter", "gauge"):
        value = payload.get("value", 0.0)
        if isinstance(value, float) and value == int(value):
            return f"{int(value):,}"
        return f"{value:,.4g}"
    count = payload.get("count", 0)
    if not count:
        return "n=0"
    parts = [f"n={count}"]
    for key in ("p50", "p99", "max"):
        if key in payload:
            parts.append(f"{key}={payload[key]:.4g}")
    return " ".join(parts)


def render_final_report(
    registry: MetricsRegistry, title: str = "== observability report =="
) -> str:
    """An ASCII summary of every registered metric (CLI output)."""
    from ..analysis.report import render_table

    rows = []
    described = registry.describe()
    collected = registry.collect()
    for name in registry.names():
        kind, _ = described[name]
        rows.append([name, kind, _format_value(collected[name])])
    return render_table(["metric", "kind", "value"], rows, title=title)
