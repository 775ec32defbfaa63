"""The ``bench core`` macro-benchmark: hot-path throughput baselines.

Each cell of the grid builds a seeded scenario with *F* continuously
backlogged flows spread over *I* interfaces (random-but-reproducible Π
and φ), sizes the virtual duration so roughly ``target_packets``
packets are transmitted, runs it end to end through the real engine,
and reports three throughput numbers:

* **events/sec** — heap events dispatched per wall second; the
  event-loop cost (``sim/events.py`` + ``sim/simulator.py``).
* **packets/sec** — packets transmitted per wall second; the end-to-end
  hot-path cost (arrival → activation → select → transmit → refill).
* **decisions/sec** — ``select()`` calls per wall second; the scheduler
  decision cost the paper's Figure 9 profiles.

The *workload* is deterministic per seed: for a given (seed, F, I,
target_packets) the event, packet and decision **counts** are exact
invariants across runs and machines — only the wall-clock times vary.
``validate_bench_document`` checks that shape, and the tier-1 smoke
test runs a miniature grid through it on every CI run.

``BENCH_core.json`` at the repo root is the committed trajectory: each
performance PR re-runs ``midrr bench core`` and reports the delta.
"""

from __future__ import annotations

import heapq
import json
import platform
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

from ..core.runner import run_scenario
from ..core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from ..errors import ConfigurationError
from ..schedulers.midrr import MiDrrScheduler
from ..sim.randomness import RandomStreams
from ..units import mbps

#: Version stamp for the BENCH_core.json schema: one cell per (flows,
#: interfaces) coordinate plus the ``fleet`` section (devices × workers
#: scaling cells, see :mod:`repro.perf.fleet_bench`). The validator
#: accepts only this version.
BENCH_SCHEMA_VERSION = 4

#: The default grid: flow counts × interface counts.
DEFAULT_FLOW_COUNTS = (10, 100, 1000)
DEFAULT_INTERFACE_COUNTS = (2, 4, 8)

#: Fractional packets/sec loss that fails a regression check.
REGRESSION_THRESHOLD = 0.20

#: Packets transmitted per cell (sets the virtual duration).
DEFAULT_TARGET_PACKETS = 6000

#: Interface capacities cycle through these (Mb/s).
_CAPACITY_CYCLE = (5, 10, 20, 40)

#: Keys every grid cell must carry (validated by the CI smoke test).
CELL_KEYS = frozenset(
    {
        "flows",
        "interfaces",
        "virtual_seconds",
        "events",
        "packets",
        "decisions",
        "wall_seconds",
        "events_per_sec",
        "packets_per_sec",
        "decisions_per_sec",
    }
)

#: Top-level keys of a bench document.
DOCUMENT_KEYS = frozenset(
    {
        "name",
        "schema_version",
        "seed",
        "quantum_base",
        "packet_size",
        "target_packets",
        "calibration_seconds",
        "platform",
        "grid",
        "fleet",
    }
)


def calibrate() -> float:
    """Machine-speed probe: best-of-3 time of a fixed pure-Python workload.

    The same deterministic workload every time, so the ratio of two
    ``calibrate()`` readings taken on different occasions estimates
    how much slower (or faster) the interpreter+machine is running now
    versus then — which is exactly the factor a wall-clock regression
    gate must divide out before blaming the code. Best-of-3 with the
    minimum: CPU-bound timing noise is one-sided.

    The workload is of the simulator's kind (small slotted objects,
    heap pushes and pops, a sliding deque, dict updates, method calls)
    but runs none of the package's code, so speeding the package up
    cannot read as a faster host.
    """
    return min(_probe_seconds() for _ in range(3))


class _ProbeItem:
    """A small slotted record for :func:`_probe_seconds`."""

    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def score(self, x: int) -> int:
        return self.weight + x if x & 1 else self.key - x


def _probe_seconds(rounds: int = 24000, held: int = 512) -> float:
    """Seconds for *rounds* steps of the fixed probe workload."""
    heap: List[Any] = []
    recent: Deque[_ProbeItem] = deque()
    table: Dict[int, int] = {}
    total = 0
    started = time.perf_counter()
    for i in range(rounds):
        item = _ProbeItem(i & 1023, (i * 40503) & 0xFFFF)
        heapq.heappush(heap, (item.weight, i, item))
        if len(heap) > held:
            total += heapq.heappop(heap)[2].score(i)
        recent.append(item)
        if len(recent) > 32:
            recent.popleft()
        table[item.key] = table.get(item.key, 0) + item.score(total & 7)
    return time.perf_counter() - started


def build_core_scenario(
    num_flows: int,
    num_interfaces: int,
    seed: int = 0,
    target_packets: int = DEFAULT_TARGET_PACKETS,
    packet_size: int = 1500,
) -> Scenario:
    """A seeded always-backlogged scenario for one grid cell.

    Interface capacities cycle through :data:`_CAPACITY_CYCLE`; each
    flow draws a random willing subset of the interfaces and a random
    weight from a named RNG stream, so the workload is reproducible and
    independent of any other seeded component.
    """
    if num_flows <= 0 or num_interfaces <= 0:
        raise ConfigurationError("flow and interface counts must be positive")
    if target_packets <= 0:
        raise ConfigurationError(
            f"target_packets must be positive, got {target_packets}"
        )
    rng = RandomStreams(seed).stream(
        f"bench-core:{num_flows}x{num_interfaces}"
    )
    interface_ids = [f"if{j}" for j in range(num_interfaces)]
    interfaces = tuple(
        InterfaceSpec(
            interface_id,
            mbps(_CAPACITY_CYCLE[j % len(_CAPACITY_CYCLE)]),
        )
        for j, interface_id in enumerate(interface_ids)
    )
    flows = []
    for i in range(num_flows):
        count = rng.randint(1, num_interfaces)
        willing = tuple(sorted(rng.sample(interface_ids, count)))
        flows.append(
            FlowSpec(
                f"flow{i:04d}",
                weight=rng.choice([0.5, 1.0, 2.0, 4.0]),
                interfaces=willing,
                traffic=TrafficSpec("bulk", packet_size=packet_size),
            )
        )
    total_capacity = sum(spec.rate_bps for spec in interfaces)
    packets_per_virtual_second = total_capacity / (packet_size * 8)
    duration = target_packets / packets_per_virtual_second
    return Scenario(
        name=f"bench-core-{num_flows}x{num_interfaces}",
        interfaces=interfaces,
        flows=tuple(flows),
        duration=duration,
        seed=seed,
    )


def run_cell(
    num_flows: int,
    num_interfaces: int,
    seed: int = 0,
    target_packets: int = DEFAULT_TARGET_PACKETS,
    packet_size: int = 1500,
    quantum_base: int = 1500,
    instrument: bool = False,
) -> Dict[str, object]:
    """Run one grid cell and return its measurement row.

    With ``instrument=True`` the cell runs with the full ``repro.obs``
    stack attached — engine instrumentation plus a 20-tick
    :class:`~repro.obs.snapshot.SnapshotProcess` — which is how the
    metrics-overhead bench measures the telemetry tax. Instrumentation
    must not perturb scheduling: packet and decision counts are
    identical to the uninstrumented cell (the obs smoke test asserts
    this); only event counts grow by the snapshot ticks.
    """
    scenario = build_core_scenario(
        num_flows,
        num_interfaces,
        seed=seed,
        target_packets=target_packets,
        packet_size=packet_size,
    )
    on_engine = None
    captured = {}
    if instrument:
        # Imported lazily: perf must stay importable without obs in
        # partial checkouts, and the uninstrumented path pays nothing.
        from ..obs import MetricsRegistry, SnapshotProcess, instrument_engine

        def on_engine(sim, engine):
            registry = MetricsRegistry()
            instrumentation = instrument_engine(engine, registry)
            snapshots = SnapshotProcess(
                sim,
                registry,
                period=scenario.duration / 20,
                pre_sample=[instrumentation.sample],
            )
            snapshots.start()
            captured["snapshots"] = snapshots

    started = time.perf_counter()
    result = run_scenario(
        scenario,
        lambda: MiDrrScheduler(quantum_base=quantum_base),
        on_engine=on_engine,
    )
    wall = time.perf_counter() - started
    packets = sum(
        interface.packets_sent
        for interface in result.engine.interfaces.values()
    )
    decisions = len(result.engine.scheduler.decision_flows_examined)
    events = result.sim.events_processed
    wall = max(wall, 1e-9)
    cell = {
        "flows": num_flows,
        "interfaces": num_interfaces,
        "virtual_seconds": round(scenario.duration, 6),
        "events": events,
        "packets": packets,
        "decisions": decisions,
        "wall_seconds": round(wall, 6),
        "events_per_sec": round(events / wall, 1),
        "packets_per_sec": round(packets / wall, 1),
        "decisions_per_sec": round(decisions / wall, 1),
    }
    if instrument:
        cell["telemetry_seconds"] = round(
            captured["snapshots"].telemetry_seconds, 6
        )
    return cell


def run_core_bench(
    flow_counts: Sequence[int] = DEFAULT_FLOW_COUNTS,
    interface_counts: Sequence[int] = DEFAULT_INTERFACE_COUNTS,
    seed: int = 0,
    target_packets: int = DEFAULT_TARGET_PACKETS,
    packet_size: int = 1500,
    quantum_base: int = 1500,
    progress: Optional[callable] = None,
    fleet_device_counts: Sequence[int] = (),
    fleet_worker_counts: Sequence[int] = (),
) -> Dict[str, object]:
    """Run the full grid and return the BENCH_core document.

    When both *fleet_device_counts* and *fleet_worker_counts* are
    non-empty, the document's ``fleet`` section carries the devices ×
    workers scaling grid from :func:`repro.perf.fleet_bench.run_fleet_bench`.
    """
    grid: List[Dict[str, object]] = []
    for num_flows in flow_counts:
        for num_interfaces in interface_counts:
            if progress is not None:
                progress(f"bench core: F={num_flows} I={num_interfaces} ...")
            grid.append(
                run_cell(
                    num_flows,
                    num_interfaces,
                    seed=seed,
                    target_packets=target_packets,
                    packet_size=packet_size,
                    quantum_base=quantum_base,
                )
            )
    fleet: List[Dict[str, object]] = []
    if fleet_device_counts and fleet_worker_counts:
        # Imported lazily: the fleet bench pulls in the whole fleet
        # subsystem, which plain grid runs never need.
        from .fleet_bench import run_fleet_bench

        fleet = run_fleet_bench(
            device_counts=fleet_device_counts,
            worker_counts=fleet_worker_counts,
            seed=seed,
            progress=progress,
        )
    return {
        "name": "core",
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": seed,
        "quantum_base": quantum_base,
        "packet_size": packet_size,
        "target_packets": target_packets,
        "calibration_seconds": round(calibrate(), 6),
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "grid": grid,
        "fleet": fleet,
    }


def validate_bench_document(document: Dict[str, object]) -> List[str]:
    """Schema-check a bench document; returns a list of problems.

    An empty list means the document is valid: all keys present, the
    seed recorded, and every cell transmitted packets at a non-zero
    wall-clock rate.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    missing = DOCUMENT_KEYS - set(document)
    if missing:
        problems.append(f"missing top-level keys: {sorted(missing)}")
    version = document.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, got {version!r}"
        )
    if not isinstance(document.get("seed"), int):
        problems.append("seed must be an integer")
    if document.get("name") != "core":
        problems.append(f"name must be 'core', got {document.get('name')!r}")
    calibration = document.get("calibration_seconds")
    if calibration is not None and (
        not isinstance(calibration, (int, float)) or calibration <= 0
    ):
        problems.append("calibration_seconds must be a positive number")
    grid = document.get("grid")
    if not isinstance(grid, list) or not grid:
        problems.append("grid must be a non-empty list")
        return problems
    for index, cell in enumerate(grid):
        if not isinstance(cell, dict):
            problems.append(f"grid[{index}] is not an object")
            continue
        missing = CELL_KEYS - set(cell)
        if missing:
            problems.append(f"grid[{index}] missing keys: {sorted(missing)}")
            continue
        if cell["packets"] <= 0:
            problems.append(f"grid[{index}] transmitted no packets")
        if cell["packets_per_sec"] <= 0 or cell["events_per_sec"] <= 0:
            problems.append(f"grid[{index}] has zero throughput")
        if cell["decisions"] <= 0:
            problems.append(f"grid[{index}] made no scheduling decisions")
    fleet = document.get("fleet")
    if fleet is not None:
        from .fleet_bench import validate_fleet_cells

        problems.extend(validate_fleet_cells(fleet))
    return problems


def find_cell(
    document: Dict[str, object],
    flows: int,
    interfaces: int,
) -> Optional[Dict[str, object]]:
    """The grid cell matching the given coordinates, or ``None``."""
    grid = document.get("grid")
    if not isinstance(grid, list):
        return None
    for cell in grid:
        if (
            isinstance(cell, dict)
            and cell.get("flows") == flows
            and cell.get("interfaces") == interfaces
        ):
            return cell
    return None


def check_regression(
    current: Dict[str, object],
    baseline: Dict[str, object],
    flows: int = 1000,
    interfaces: int = 8,
    threshold: float = REGRESSION_THRESHOLD,
    load_factor: float = 1.0,
) -> List[str]:
    """Compare like-for-like packets/sec against a committed baseline.

    Returns a list of human-readable failures; empty means the cell
    did not regress more than *threshold* (fractional). Wall-clock
    numbers are machine-dependent: this is a tripwire against gross
    hot-path regressions, not a precision benchmark, hence the generous
    threshold and the single (largest) gated cell.

    *load_factor* divides the floor: pass ``calibrate() /
    baseline["calibration_seconds"]`` (clamped to >= 1) so a machine
    that is measurably slower now than when the baseline was written
    does not read as a code regression. Load the gate cannot calibrate
    away still fails it — hence the env-var escape documented on
    ``bench smoke``.
    """
    load_factor = max(load_factor, 1.0)
    base = find_cell(baseline, flows, interfaces)
    cur = find_cell(current, flows, interfaces)
    if base is None or cur is None:
        return [
            f"no comparable F={flows} I={interfaces} cells between the "
            "current run and the baseline document"
        ]
    base_pps = float(base["packets_per_sec"])
    cur_pps = float(cur["packets_per_sec"])
    floor = base_pps * (1.0 - threshold) / load_factor
    if cur_pps < floor:
        return [
            f"F={flows} I={interfaces}: "
            f"{cur_pps:,.1f} packets/s is below the floor "
            f"{floor:,.1f} (baseline {base_pps:,.1f}, threshold "
            f"{threshold:.0%}, load factor {load_factor:.2f})"
        ]
    return []


def write_bench_document(document: Dict[str, object], path: str) -> None:
    """Write the document as stable, diff-friendly JSON."""
    problems = validate_bench_document(document)
    if problems:
        raise ConfigurationError(
            "refusing to write invalid bench document: " + "; ".join(problems)
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def render_bench_table(document: Dict[str, object]) -> str:
    """An ASCII summary of a bench document (CLI output)."""
    from ..analysis.report import render_table

    rows = [
        [
            cell["flows"],
            cell["interfaces"],
            cell["packets"],
            f"{cell['wall_seconds']:.3f}",
            f"{cell['events_per_sec']:,.0f}",
            f"{cell['packets_per_sec']:,.0f}",
            f"{cell['decisions_per_sec']:,.0f}",
        ]
        for cell in document["grid"]
    ]
    return render_table(
        [
            "flows",
            "ifaces",
            "packets",
            "wall s",
            "events/s",
            "packets/s",
            "decisions/s",
        ],
        rows,
        title=f"== bench core (seed {document['seed']}) ==",
    )
