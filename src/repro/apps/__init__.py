"""Beyond packets: the paper's conclusion applications.

The scheduling model (weights φ + binary preference matrix Π + max-min)
is domain-agnostic; these modules instantiate it on the two examples
the paper's conclusion names — datacenter task pools and heterogeneous
(big.LITTLE-style) CPU cores.
"""

from .._lazy import lazy_exports

__all__ = [
    "BIG_CORE_CAPACITY",
    "COMPANION_CORE_CAPACITY",
    "CpuScheduler",
    "JobSpec",
    "MachineSpec",
    "TaskPool",
    "TaskPoolResult",
    "ThreadSpec",
    "big_cores_of",
    "fair_shares",
    "tegra_cores",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cpu_affinity": (
        "BIG_CORE_CAPACITY",
        "COMPANION_CORE_CAPACITY",
        "CpuScheduler",
        "ThreadSpec",
        "big_cores_of",
        "tegra_cores",
    ),
    ".taskpool": (
        "JobSpec",
        "MachineSpec",
        "TaskPool",
        "TaskPoolResult",
        "fair_shares",
    ),
})
