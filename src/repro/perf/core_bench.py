"""The ``bench core`` baseline: the two cells the regression gate runs.

``BENCH_core.json`` holds exactly two measured cells:

* **core** — :data:`CORE_FLOWS` continuously backlogged flows over
  :data:`CORE_INTERFACES` interfaces (seeded, random-but-reproducible
  Π and φ) for about :data:`DEFAULT_TARGET_PACKETS` packets, run end to
  end through the real engine. It reports events/sec, packets/sec and
  decisions/sec.
* **fleet** — :data:`~repro.perf.fleet_bench.DEFAULT_FLEET_DEVICES`
  devices of :data:`~repro.perf.fleet_bench.DEFAULT_FLEET_WORKLOAD`
  through :func:`repro.fleet.run_fleet` (see
  :mod:`repro.perf.fleet_bench`).

Each cell is measured the way ``bench smoke --check-regression``
measures an attempt (:func:`run_bracketed`): a :func:`calibrate` host
probe right before and right after the run, whose mean the cell keeps
as its ``calibration_seconds``. The gate re-runs each cell at the
coordinates the document records and scales its floor by how much
slower the host probes now.

For a given seed the event, packet and decision **counts** are exact
invariants across runs and machines; only the wall-clock times vary.
Whole-program throughput is measured by ``perfbench``; this document
exists for the gate.
"""

from __future__ import annotations

import heapq
import json
import platform
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional

from ..core.runner import DEFAULT_TARGET_PACKETS, run_scenario
from ..core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from ..errors import ConfigurationError
from ..schedulers.midrr import MiDrrScheduler
from ..sim.randomness import RandomStreams
from ..units import mbps

#: Version stamp for the BENCH_core.json schema: one ``core`` cell and
#: one ``fleet`` cell, each with its own probe reading. The validator
#: accepts only this version.
BENCH_SCHEMA_VERSION = 5

#: The core cell's coordinates.
CORE_FLOWS = 1000
CORE_INTERFACES = 8

#: Fractional packets/sec loss that fails the core regression check.
REGRESSION_THRESHOLD = 0.20

#: Runs of the core cell per gate. The gate passes the cell when any
#: attempt clears its floor, so ``bench core`` records the fastest of
#: as many runs: both sides read the best of the same number of tries.
CORE_ATTEMPTS = 3

#: Interface capacities cycle through these (Mb/s).
_CAPACITY_CYCLE = (5, 10, 20, 40)

#: Keys the core cell must carry.
CELL_KEYS = frozenset(
    {
        "flows",
        "interfaces",
        "target_packets",
        "virtual_seconds",
        "events",
        "packets",
        "decisions",
        "wall_seconds",
        "events_per_sec",
        "packets_per_sec",
        "decisions_per_sec",
        "calibration_seconds",
    }
)

#: Top-level keys of a bench document.
DOCUMENT_KEYS = frozenset(
    {"name", "schema_version", "seed", "platform", "core", "fleet"}
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
    """Run one core cell and return its measurement row.

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
        "target_packets": target_packets,
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


def run_bracketed(run: Callable[[], Dict[str, object]]) -> Dict[str, object]:
    """*run()*'s cell, with the mean of a probe before and after it.

    Shared hosts flip between full and ~2x slow speed within seconds,
    so one probe taken before several runs does not describe the later
    ones: each run carries the reading taken around it. ``bench core``
    records cells this way and ``bench smoke`` measures its attempts
    this way, so the two readings compare like for like.
    """
    before = calibrate()
    cell = run()
    cell["calibration_seconds"] = round((before + calibrate()) / 2, 6)
    return cell


def run_core_bench(
    seed: int = 0,
    target_packets: int = DEFAULT_TARGET_PACKETS,
    fleet_devices: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Measure the core and fleet cells; return the BENCH_core document.

    Each cell is the fastest of as many bracketed runs as the gate
    makes attempts at it. *target_packets* and *fleet_devices* shrink
    the cells for smoke runs; the committed document uses the
    defaults, which are the work the regression gate runs.
    """
    # Imported lazily: the fleet bench pulls in the whole fleet
    # subsystem, which users of the core cell alone never need.
    from .fleet_bench import DEFAULT_FLEET_DEVICES, FLEET_ATTEMPTS, run_fleet_cell

    def fastest(attempts: int, run: Callable[[], Dict[str, object]]):
        cells = [run_bracketed(run) for _ in range(attempts)]
        return max(cells, key=lambda cell: cell["packets_per_sec"])

    if progress is not None:
        progress(f"bench core: F={CORE_FLOWS} I={CORE_INTERFACES} ...")
    core = fastest(
        CORE_ATTEMPTS,
        lambda: run_cell(
            CORE_FLOWS,
            CORE_INTERFACES,
            seed=seed,
            target_packets=target_packets,
        ),
    )
    devices = fleet_devices or DEFAULT_FLEET_DEVICES
    if progress is not None:
        progress(f"bench core: fleet devices={devices} ...")
    fleet = fastest(FLEET_ATTEMPTS, lambda: run_fleet_cell(devices, seed=seed))
    return {
        "name": "core",
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": seed,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "core": core,
        "fleet": fleet,
    }


def _cell_problems(
    document: Dict[str, object], section: str, keys: FrozenSet[str]
) -> List[str]:
    """Schema problems of one measured cell of a bench document."""
    cell = document.get(section)
    if not isinstance(cell, dict):
        return [f"{section} must be an object"]
    missing = keys - set(cell)
    if missing:
        return [f"{section} missing keys: {sorted(missing)}"]
    problems = []
    if cell["packets"] <= 0:
        problems.append(f"{section} transmitted no packets")
    if cell["packets_per_sec"] <= 0:
        problems.append(f"{section} has zero throughput")
    calibration = cell["calibration_seconds"]
    if not isinstance(calibration, (int, float)) or calibration <= 0:
        problems.append(f"{section} calibration_seconds must be a positive number")
    return problems


def validate_bench_document(document: Dict[str, object]) -> List[str]:
    """Schema-check a bench document; returns a list of problems.

    An empty list means the document is valid: all keys present, the
    seed recorded, and both cells transmitted packets at a non-zero
    wall-clock rate with a probe reading of their own.
    """
    from .fleet_bench import FLEET_CELL_KEYS

    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    problems: List[str] = []
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
    problems.extend(_cell_problems(document, "core", CELL_KEYS))
    problems.extend(_cell_problems(document, "fleet", FLEET_CELL_KEYS))
    return problems


def check_regression(
    current: Dict[str, object],
    baseline: Dict[str, object],
    section: str = "core",
    threshold: float = REGRESSION_THRESHOLD,
    load_factor: float = 1.0,
) -> List[str]:
    """Compare one cell's packets/sec against a committed baseline.

    *section* names the cell (``"core"`` or ``"fleet"``) in both
    documents. Returns a list of human-readable failures; empty means
    the cell did not regress more than *threshold* (fractional).
    Wall-clock numbers are machine-dependent: this is a tripwire
    against gross regressions, not a precision benchmark, hence the
    generous thresholds.

    *load_factor* divides the floor: pass the ratio of the probe read
    around the current run to the baseline cell's
    ``calibration_seconds`` (clamped to >= 1), so a machine that is
    measurably slower now than when the baseline was written does not
    read as a code regression. Load the gate cannot calibrate away
    still fails it — hence the env-var escape documented on
    ``bench smoke``.
    """
    if threshold <= 0 or threshold >= 1:
        raise ConfigurationError(
            f"threshold must be in (0, 1), got {threshold}"
        )
    base = baseline.get(section)
    cur = current.get(section)
    if not isinstance(base, dict) or not isinstance(cur, dict):
        return [
            f"no comparable {section} cell between the current run and "
            "the baseline document"
        ]
    load_factor = max(load_factor, 1.0)
    base_pps = float(base["packets_per_sec"])
    cur_pps = float(cur["packets_per_sec"])
    floor = base_pps * (1.0 - threshold) / load_factor
    if cur_pps < floor:
        return [
            f"{section}: {cur_pps:,.1f} packets/s is below the floor "
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

    core = document["core"]
    fleet = document["fleet"]
    rows = [
        [
            name,
            work,
            cell["packets"],
            f"{cell['wall_seconds']:.3f}",
            f"{cell['packets_per_sec']:,.0f}",
            f"{cell['calibration_seconds']:.4f}",
        ]
        for name, work, cell in (
            ("core", f"F={core['flows']} I={core['interfaces']}", core),
            (
                "fleet",
                f"devices={fleet['devices']} workers={fleet['workers']}",
                fleet,
            ),
        )
    ]
    return render_table(
        ["cell", "work", "packets", "wall s", "packets/s", "probe s"],
        rows,
        title=f"== bench core (seed {document['seed']}) ==",
    )
