"""The fleet cell of ``bench core``: fleet-wide throughput.

The cell runs :data:`DEFAULT_FLEET_DEVICES` identical devices of
:data:`DEFAULT_FLEET_WORKLOAD` through :func:`repro.fleet.run_fleet`
on one worker of the process executor, and reports fleet-wide
throughput: packets/sec and devices/sec of wall time. One worker makes
the cell time the per-device path plus the pool hand-off, not parallel
scaling, which is bounded by the host's CPU count. The cell records
its ``report_hash``; ``tests/test_fleet.py`` checks that the worker
count and the executor do not change it.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..fleet.coordinator import run_fleet
from ..trace.fleet_workloads import DeviceWorkload

#: The fleet cell's coordinates.
DEFAULT_FLEET_DEVICES = 32
FLEET_WORKERS = 1
FLEET_EXECUTOR = "process"

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

#: Runs of the fleet cell per gate (see ``CORE_ATTEMPTS``).
FLEET_ATTEMPTS = 2

#: Keys the fleet cell must carry.
FLEET_CELL_KEYS = frozenset(
    {
        "devices",
        "workers",
        "shards",
        "executor",
        "workload",
        "packets",
        "events",
        "wall_seconds",
        "packets_per_sec",
        "devices_per_sec",
        "report_hash",
        "calibration_seconds",
    }
)


def run_fleet_cell(
    devices: int = DEFAULT_FLEET_DEVICES,
    workers: int = FLEET_WORKERS,
    seed: int = 0,
    workload: Optional[DeviceWorkload] = None,
    executor: str = FLEET_EXECUTOR,
) -> Dict[str, object]:
    """Run one fleet cell and return its measurement row."""
    if workload is None:
        workload = DEFAULT_FLEET_WORKLOAD
    report = run_fleet(
        devices,
        workload,
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
        "workload": workload.to_dict(),
        "packets": report["totals"]["packets"],
        "events": report["totals"]["events"],
        "wall_seconds": round(wall, 6),
        "packets_per_sec": round(report["totals"]["packets"] / wall, 1),
        "devices_per_sec": round(devices / wall, 1),
        "report_hash": report["report_hash"],
    }
