"""The fleet scaling bench: devices × workers throughput grid.

Each cell runs the same fleet (same devices, same workload, same
seed) through :func:`repro.fleet.run_fleet` with a different worker
count and reports fleet-wide throughput — packets/sec and devices/sec
of wall time. Because every cell simulates the *identical* device
population (the report hash proves it), the packets/sec ratio between
the ``workers=1`` and ``workers=k`` cells is a clean parallel-scaling
measurement: same work, different pool.

Honesty note: scaling is bounded by the host's CPU count. On a
single-CPU container every worker count serializes onto one core and
the ratio hovers around 1.0 (minus pool overhead); the committed
numbers record what the machine actually did, never an extrapolation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..fleet.coordinator import run_fleet
from ..trace.fleet_workloads import DeviceWorkload

#: Default devices × workers sweep for the committed document.
DEFAULT_FLEET_DEVICES = (32,)
DEFAULT_FLEET_WORKERS = (1, 2, 4)

#: The bench workload: backlogged bulk flows, every device identical
#: work, sized so one cell stays around a second of wall time.
DEFAULT_FLEET_WORKLOAD = DeviceWorkload(
    kind="bulk",
    duration=1.0,
    num_flows=8,
    num_interfaces=2,
)

#: Fractional packets/sec loss that fails the fleet regression check.
FLEET_REGRESSION_THRESHOLD = 0.25

#: Keys every fleet cell must carry.
FLEET_CELL_KEYS = frozenset(
    {
        "devices",
        "workers",
        "shards",
        "executor",
        "packets",
        "events",
        "wall_seconds",
        "packets_per_sec",
        "devices_per_sec",
        "report_hash",
    }
)


def run_fleet_cell(
    devices: int,
    workers: int,
    seed: int = 0,
    workload: Optional[DeviceWorkload] = None,
    executor: str = "process",
) -> Dict[str, object]:
    """Run one devices × workers cell and return its measurement row."""
    report = run_fleet(
        devices,
        workload if workload is not None else DEFAULT_FLEET_WORKLOAD,
        fleet_seed=seed,
        workers=workers,
        executor=executor,
    )
    wall = max(float(report["run"]["wall_seconds"]), 1e-9)
    return {
        "devices": devices,
        "workers": workers,
        "shards": report["run"]["shards"],
        "executor": report["run"]["executor"],
        "packets": report["totals"]["packets"],
        "events": report["totals"]["events"],
        "wall_seconds": round(wall, 6),
        "packets_per_sec": round(report["totals"]["packets"] / wall, 1),
        "devices_per_sec": round(devices / wall, 1),
        "report_hash": report["report_hash"],
    }


def run_fleet_bench(
    device_counts: Sequence[int] = DEFAULT_FLEET_DEVICES,
    worker_counts: Sequence[int] = DEFAULT_FLEET_WORKERS,
    seed: int = 0,
    workload: Optional[DeviceWorkload] = None,
    executor: str = "process",
    progress: Optional[callable] = None,
) -> List[Dict[str, object]]:
    """Run the devices × workers grid; returns the ``fleet`` section."""
    cells: List[Dict[str, object]] = []
    for devices in device_counts:
        for workers in worker_counts:
            if progress is not None:
                progress(f"bench fleet: devices={devices} workers={workers} ...")
            cells.append(
                run_fleet_cell(
                    devices,
                    workers,
                    seed=seed,
                    workload=workload,
                    executor=executor,
                )
            )
    return cells


def validate_fleet_cells(cells: object) -> List[str]:
    """Schema-check a document's ``fleet`` section (may be empty)."""
    problems: List[str] = []
    if not isinstance(cells, list):
        return ["fleet must be a list"]
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict):
            problems.append(f"fleet[{index}] is not an object")
            continue
        missing = FLEET_CELL_KEYS - set(cell)
        if missing:
            problems.append(f"fleet[{index}] missing keys: {sorted(missing)}")
            continue
        if cell["packets"] <= 0:
            problems.append(f"fleet[{index}] transmitted no packets")
        if cell["packets_per_sec"] <= 0 or cell["devices_per_sec"] <= 0:
            problems.append(f"fleet[{index}] has zero throughput")
    same_fleet: Dict[int, str] = {}
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict) or "report_hash" not in cell:
            continue
        devices = cell.get("devices")
        seen = same_fleet.setdefault(devices, cell["report_hash"])
        if cell["report_hash"] != seen:
            problems.append(
                f"fleet[{index}] report_hash differs across worker counts "
                f"for devices={devices} — the parallel run simulated a "
                f"different fleet"
            )
    return problems


def find_fleet_cell(
    document: Dict[str, object], devices: int, workers: int
) -> Optional[Dict[str, object]]:
    """The fleet cell matching the given coordinates, or ``None``."""
    for cell in document.get("fleet", ()) or ():
        if cell.get("devices") == devices and cell.get("workers") == workers:
            return cell
    return None


def check_fleet_regression(
    current: Dict[str, object],
    baseline: Dict[str, object],
    devices: int,
    workers: int,
    threshold: float = FLEET_REGRESSION_THRESHOLD,
    load_factor: float = 1.0,
) -> List[str]:
    """Gate fleet packets/sec against a committed baseline cell.

    Same contract as :func:`repro.perf.core_bench.check_regression`:
    compares only coordinates present in both documents (a pre-fleet
    baseline gates nothing), divides the floor by *load_factor*, and
    returns human-readable failures.
    """
    if threshold <= 0 or threshold >= 1:
        raise ConfigurationError(
            f"threshold must be in (0, 1), got {threshold}"
        )
    base = find_fleet_cell(baseline, devices, workers)
    cur = find_fleet_cell(current, devices, workers)
    if base is None or cur is None:
        return [
            f"no comparable fleet devices={devices} workers={workers} cell "
            "between the current run and the baseline document"
        ]
    load_factor = max(load_factor, 1.0)
    base_pps = float(base["packets_per_sec"])
    cur_pps = float(cur["packets_per_sec"])
    floor = base_pps * (1.0 - threshold) / load_factor
    if cur_pps < floor:
        return [
            f"fleet devices={devices} workers={workers}: {cur_pps:,.1f} "
            f"packets/s is below the floor {floor:,.1f} (baseline "
            f"{base_pps:,.1f}, threshold {threshold:.0%}, load factor "
            f"{load_factor:.2f})"
        ]
    return []
