"""Observability: metrics, periodic snapshots, and instrumentation.

``repro.obs`` is the telemetry layer the ROADMAP's production-scale
north star needs: counters, gauges, streaming histograms and quantile
sketches behind a :class:`MetricsRegistry`; a
:class:`SnapshotProcess` that samples the registry on the *virtual*
clock and exports JSONL; and :func:`instrument_engine` /
:func:`instrument_watchdog` / :func:`instrument_auditor`, which
wire a running
:class:`~repro.core.engine.SchedulingEngine`, its scheduler and
interfaces, and the health watchdog into a registry without
perturbing the hot path (see ``docs/observability.md`` for the metric
catalog and measured overhead).
"""

from .._lazy import lazy_exports

__all__ = [
    "Counter",
    "DECISION_LATENCY_SAMPLE_EVERY",
    "EngineInstrumentation",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotProcess",
    "instrument_auditor",
    "instrument_engine",
    "instrument_watchdog",
    "read_jsonl",
    "render_final_report",
    "write_jsonl",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".instrument": (
        "DECISION_LATENCY_SAMPLE_EVERY",
        "EngineInstrumentation",
        "instrument_auditor",
        "instrument_engine",
        "instrument_watchdog",
    ),
    ".metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "QuantileSketch",
    ),
    ".snapshot": (
        "SNAPSHOT_SCHEMA_VERSION",
        "SnapshotProcess",
        "read_jsonl",
        "render_final_report",
        "write_jsonl",
    ),
})
