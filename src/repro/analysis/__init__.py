"""Measurement post-processing: time series, CDFs, rate estimators and
ASCII reports."""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_DEADLINE_BUDGETS",
    "EmpiricalCdf",
    "EwmaRateEstimator",
    "SCHEDULER_FAMILY",
    "Series",
    "SloReport",
    "SloRow",
    "WindowedRateEstimator",
    "bin_events",
    "crossings",
    "jain_index",
    "moving_average",
    "p99",
    "render_comparison",
    "render_rate_table",
    "render_series",
    "render_table",
    "run_latency_slo",
    "series_mean",
    "settle_time",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cdf": ("EmpiricalCdf",),
    ".rates": ("EwmaRateEstimator", "WindowedRateEstimator"),
    ".report": (
        "render_comparison",
        "render_rate_table",
        "render_series",
        "render_table",
    ),
    ".slo": (
        "DEFAULT_DEADLINE_BUDGETS",
        "SCHEDULER_FAMILY",
        "SloReport",
        "SloRow",
        "jain_index",
        "p99",
        "run_latency_slo",
    ),
    ".timeseries": (
        "Series",
        "bin_events",
        "crossings",
        "moving_average",
        "series_mean",
        "settle_time",
    ),
})
