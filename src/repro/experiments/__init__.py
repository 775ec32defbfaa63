"""Paper experiment definitions, one module per figure.

* :mod:`repro.experiments.fig1` — motivating allocations (Figure 1)
* :mod:`repro.experiments.fig6` — fair scheduling + clusters (Figures 6, 8)
* :mod:`repro.experiments.fig7` — smartphone concurrency CDF (Figure 7)
* :mod:`repro.experiments.fig9` — scheduling overhead CDF (Figure 9)
* :mod:`repro.experiments.fig10` — HTTP proxy goodput + clusters
  (Figures 10, 11)
* :mod:`repro.experiments.inbound_ideal` — extension: Figure 4's ideal
  in-network proxy vs the Figure 5 HTTP approximation
* :mod:`repro.experiments.fct` — extension: flow completion times under
  trace-driven smartphone churn

Benchmarks under ``benchmarks/`` and the CLI call into these; tests
assert the paper's qualitative claims against them.
"""

from .._lazy import lazy_exports

__all__ = ["fct", "fig1", "fig6", "fig7", "fig9", "fig10", "inbound_ideal"]

__getattr__, __dir__ = lazy_exports(globals(), {})
