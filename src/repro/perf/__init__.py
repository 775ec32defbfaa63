"""Reproducible performance baselines for the regression gate.

Whole-program throughput is measured by ``perfbench``; this package
records and re-runs the two cells the ``bench smoke`` regression gate
reads. :mod:`repro.perf.core_bench` runs the core cell (F=1000
backlogged flows over I=8 interfaces, sources → engine → miDRR →
interfaces) and :mod:`repro.perf.fleet_bench` the fleet cell (32
devices on one worker), each bracketed by host-speed probes.
``midrr bench core`` writes both to ``BENCH_core.json``;
``midrr bench smoke --check-regression`` re-runs them and fails on a
packets/s loss the probes cannot explain. :mod:`repro.perf.obs_bench`
measures what telemetry and the fairness auditor cost.
"""

from .._lazy import lazy_exports

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CORE_ATTEMPTS",
    "CORE_FLOWS",
    "CORE_INTERFACES",
    "DEFAULT_FLEET_DEVICES",
    "DEFAULT_FLEET_WORKLOAD",
    "DEFAULT_TARGET_PACKETS",
    "FLEET_ATTEMPTS",
    "FLEET_EXECUTOR",
    "FLEET_REGRESSION_THRESHOLD",
    "FLEET_WORKERS",
    "OVERHEAD_BUDGET",
    "OVERHEAD_NOISE_CEILING",
    "REGRESSION_THRESHOLD",
    "build_core_scenario",
    "calibrate",
    "check_regression",
    "render_bench_table",
    "render_overhead_table",
    "run_bracketed",
    "run_cell",
    "run_core_bench",
    "run_fleet_cell",
    "run_auditor_overhead",
    "run_metrics_overhead",
    "validate_bench_document",
    "write_bench_document",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core_bench": (
        "BENCH_SCHEMA_VERSION",
        "CORE_ATTEMPTS",
        "CORE_FLOWS",
        "CORE_INTERFACES",
        "DEFAULT_TARGET_PACKETS",
        "REGRESSION_THRESHOLD",
        "build_core_scenario",
        "calibrate",
        "check_regression",
        "render_bench_table",
        "run_bracketed",
        "run_cell",
        "run_core_bench",
        "validate_bench_document",
        "write_bench_document",
    ),
    ".fleet_bench": (
        "DEFAULT_FLEET_DEVICES",
        "DEFAULT_FLEET_WORKLOAD",
        "FLEET_ATTEMPTS",
        "FLEET_EXECUTOR",
        "FLEET_REGRESSION_THRESHOLD",
        "FLEET_WORKERS",
        "run_fleet_cell",
    ),
    ".obs_bench": (
        "OVERHEAD_BUDGET",
        "OVERHEAD_NOISE_CEILING",
        "render_overhead_table",
        "run_auditor_overhead",
        "run_metrics_overhead",
    ),
})
