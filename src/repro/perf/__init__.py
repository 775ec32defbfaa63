"""Reproducible performance baselines for the hot path.

The ROADMAP's north star is a system that runs "as fast as the hardware
allows"; this package is how that claim is *measured* rather than
asserted. :mod:`repro.perf.core_bench` drives the full stack (sources →
engine → miDRR → interfaces) over a seeded grid of flow × interface
counts and reports events/sec, packets/sec and decisions/sec. The CLI
(``midrr bench core``) writes the results to ``BENCH_core.json`` so
every PR can compare against the previous baseline.
"""

from .._lazy import lazy_exports

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_FLEET_DEVICES",
    "DEFAULT_FLEET_WORKERS",
    "DEFAULT_FLEET_WORKLOAD",
    "DEFAULT_FLOW_COUNTS",
    "DEFAULT_INTERFACE_COUNTS",
    "DEFAULT_OVERHEAD_TARGET_PACKETS",
    "DEFAULT_TARGET_PACKETS",
    "FLEET_REGRESSION_THRESHOLD",
    "OVERHEAD_BUDGET",
    "OVERHEAD_NOISE_CEILING",
    "REGRESSION_THRESHOLD",
    "build_core_scenario",
    "calibrate",
    "check_fleet_regression",
    "check_regression",
    "committed_baseline_cell",
    "find_cell",
    "find_fleet_cell",
    "render_bench_table",
    "render_overhead_table",
    "run_cell",
    "run_core_bench",
    "run_fleet_bench",
    "run_fleet_cell",
    "run_auditor_overhead",
    "run_metrics_overhead",
    "validate_bench_document",
    "validate_fleet_cells",
    "write_bench_document",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core_bench": (
        "BENCH_SCHEMA_VERSION",
        "DEFAULT_FLOW_COUNTS",
        "DEFAULT_INTERFACE_COUNTS",
        "DEFAULT_TARGET_PACKETS",
        "REGRESSION_THRESHOLD",
        "build_core_scenario",
        "calibrate",
        "check_regression",
        "find_cell",
        "render_bench_table",
        "run_cell",
        "run_core_bench",
        "validate_bench_document",
        "write_bench_document",
    ),
    ".fleet_bench": (
        "DEFAULT_FLEET_DEVICES",
        "DEFAULT_FLEET_WORKERS",
        "DEFAULT_FLEET_WORKLOAD",
        "FLEET_REGRESSION_THRESHOLD",
        "check_fleet_regression",
        "find_fleet_cell",
        "run_fleet_bench",
        "run_fleet_cell",
        "validate_fleet_cells",
    ),
    ".obs_bench": (
        "DEFAULT_OVERHEAD_TARGET_PACKETS",
        "OVERHEAD_BUDGET",
        "OVERHEAD_NOISE_CEILING",
        "committed_baseline_cell",
        "render_overhead_table",
        "run_auditor_overhead",
        "run_metrics_overhead",
    ),
})
