"""Weighted max-min fairness with interface preferences.

One exact solver (combinatorial water-filling in ``Fraction``
arithmetic, certified against Theorem 2 by the test suite) with a
front end that holds a live instance under deltas and solves it on
read; the fluid reference, which replays an engine's regime journal
into that front end and integrates the optimum over time;
rate-cluster extraction/validation (Definition 2, Theorem 2); and the
paper's directional fairness metric.
"""

from .._lazy import lazy_exports

__all__ = [
    "Allocation",
    "Cluster",
    "IncrementalMaxMinSolver",
    "MAX_RELATIVE_ERROR",
    "ZERO_RATE_ATOL",
    "ConformanceReport",
    "FluidSimulator",
    "PropertyResult",
    "run_conformance",
    "EmpiricalCluster",
    "allocation_from_prefs",
    "check_maxmin_conditions",
    "check_rate_clustering",
    "directional_fairness",
    "fate_sharing_holds",
    "lemma_bounds",
    "max_service_lag",
    "theorem1_counterexample",
    "extract_clusters",
    "jain_index",
    "max_relative_error",
    "measured_rates",
    "relative_errors",
    "service_lag_bound",
    "throughput_utilization",
    "weighted_maxmin",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".conformance": ("ConformanceReport", "PropertyResult", "run_conformance"),
    ".fluid": ("FluidSimulator", "max_service_lag"),
    ".theory": (
        "fate_sharing_holds",
        "lemma_bounds",
        "theorem1_counterexample",
    ),
    ".clusters": (
        "EmpiricalCluster",
        "check_maxmin_conditions",
        "check_rate_clustering",
        "extract_clusters",
    ),
    ".incremental": ("IncrementalMaxMinSolver",),
    ".metrics": (
        "MAX_RELATIVE_ERROR",
        "ZERO_RATE_ATOL",
        "directional_fairness",
        "jain_index",
        "max_relative_error",
        "measured_rates",
        "relative_errors",
        "service_lag_bound",
        "throughput_utilization",
    ),
    ".waterfill": (
        "Allocation",
        "Cluster",
        "allocation_from_prefs",
        "weighted_maxmin",
    ),
})
