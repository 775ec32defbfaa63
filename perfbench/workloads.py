"""The benchmark's workloads.

Each workload turns ``--seed`` into inputs with the standard library's
``random`` (so the inputs do not move when the program's own RNG helpers
change), wires the program through its public API, and runs one timed
window of fixed work. Because the work is fixed, every count a window
reports (events, packets, decisions, solver deltas, ...) must repeat
exactly for one seed; ``run.py`` compares them across interpreters.

Lifecycle, driven by ``child.py`` in a fresh interpreter:

* ``setup()`` — build inputs and wire the engine (untimed: ``setup_s``);
* ``run_window()`` — the timed window;
* ``measure()`` — outputs, output checks and work counts (untimed);
* ``extra_checks()`` — checks too costly for every interpreter, run by
  the first interpreter of a run only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
import time
from typing import Dict, List, Tuple

from calibration import probe
from repro.core.engine import SchedulingEngine
from repro.fairness.waterfill import weighted_maxmin
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.sources import BulkSource
from repro.schedulers.midrr import MiDrrScheduler
from repro.sim.simulator import Simulator

MBPS = 1e6

#: Interface capacities cycle through these (Mb/s), as in ``bench core``.
CAPACITY_CYCLE = (5, 10, 20, 40)

#: The φ values flows draw from.
WEIGHT_CHOICES = (0.5, 1.0, 2.0, 4.0)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not values:
        return float("nan")
    rank = max(1, math.ceil(q * len(values)))
    return values[rank - 1]


def check(name: str, attempted: int, failed: int, detail: str = "") -> dict:
    """One output check: *attempted* units checked, *failed* of them bad."""
    return {"name": name, "attempted": attempted, "failed": failed, "detail": detail}


def delay_summary(delays_s: List[float]) -> dict:
    delays = sorted(delays_s)
    return {
        "delay_p50_ms": percentile(delays, 0.50) * 1e3,
        "delay_p99_ms": percentile(delays, 0.99) * 1e3,
        "delay_samples": len(delays),
    }


def capacities(count: int) -> Dict[str, float]:
    return {
        f"if{j}": CAPACITY_CYCLE[j % len(CAPACITY_CYCLE)] * MBPS
        for j in range(count)
    }


def random_row(rng: random.Random, interface_ids: List[str]) -> Tuple[str, ...]:
    """A random non-empty Π row."""
    return tuple(sorted(rng.sample(interface_ids, rng.randint(1, len(interface_ids)))))


def run_subwindows(sim, engine, boundaries: List[float],
                   probing: bool = True) -> List[Tuple[int, float, float, float]]:
    """Run to each boundary in turn.

    Returns ``(packets sent, wall seconds, probe before, probe after)``
    per sub-window; one speed probe sits between consecutive ones
    (traced windows skip the probes, which no span would cover).
    """
    speed = probe if probing else (lambda: 0.0)
    interfaces = list(engine.interfaces.values())
    clock = time.perf_counter
    samples = []
    sent = sum(i.packets_sent for i in interfaces)
    before = speed()
    for until in boundaries:
        started = clock()
        sim.run(until=until)
        elapsed = clock() - started
        after = speed()
        now_sent = sum(i.packets_sent for i in interfaces)
        samples.append((now_sent - sent, elapsed, before, after))
        sent, before = now_sent, after
    return samples


def conservation_check(flows, stats, interfaces, offered_bytes) -> dict:
    """offered = sent + queued + in flight, per flow, in bytes and packets.

    *offered_bytes* maps flow id to the bytes its source has queued so
    far. In-flight packets are those pulled but not yet completed: each
    busy interface carries exactly one, so their total must equal the
    number of busy interfaces. No workload caps a queue, so any drop
    would be of an enqueued packet.
    """
    sent_packets: Dict[str, int] = {}
    for sample in stats.samples:
        sent_packets[sample.flow_id] = sent_packets.get(sample.flow_id, 0) + 1
    failed = 0
    in_flight = 0
    for flow_id, flow in flows.items():
        queue = flow.queue
        residual_bytes = (
            offered_bytes[flow_id]
            - stats.bytes_sent(flow_id)
            - flow.backlog_bytes
            - queue.dropped_bytes
        )
        residual_packets = (
            queue.enqueued_packets
            - sent_packets.get(flow_id, 0)
            - len(queue)
            - queue.dropped_packets
        )
        if residual_bytes < 0 or residual_packets < 0 or (
            (residual_bytes == 0) != (residual_packets == 0)
        ):
            failed += 1
        in_flight += residual_packets
    busy = sum(1 for interface in interfaces.values() if interface.busy)
    return check(
        "bytes_conserved",
        len(flows) + 1,
        failed + (in_flight != busy),
        f"{in_flight} in flight on {busy} busy interfaces",
    )


# ----------------------------------------------------------------------
# bulk-f1000-i8
# ----------------------------------------------------------------------
class Bulk:
    """1000 always-backlogged flows over 8 interfaces, closed loop.

    Each transmit completion pulls the next packet, so the program runs
    as fast as it can: the window measures the per-packet hot path
    (event queue, ``select()``, source refill, transmit chain) with no
    monitoring attached.
    """

    name = "bulk-f1000-i8"
    FLOWS = 1000
    INTERFACES = 8
    PACKET = 1500
    WARMUP_PACKETS = 20_000
    WINDOW_PACKETS = 120_000
    TRACED_WINDOW_PACKETS = 15_000
    #: The window is timed in units of this many packets (see ``run.py``).
    SUBWINDOW_PACKETS = 2_500

    def __init__(self, seed: int, traced: bool) -> None:
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.capacities = capacities(self.INTERFACES)
        interface_ids = list(self.capacities)
        self.rows: Dict[str, Tuple[str, ...]] = {}
        self.weights: Dict[str, float] = {}
        for index in range(self.FLOWS):
            flow_id = f"f{index:04d}"
            self.rows[flow_id] = random_row(rng, interface_ids)
            self.weights[flow_id] = rng.choice(WEIGHT_CHOICES)
        self.traced = traced
        self.window_packets = (
            self.TRACED_WINDOW_PACKETS if traced else self.WINDOW_PACKETS
        )

    def setup(self) -> None:
        self.sim = sim = Simulator()
        self.scheduler = MiDrrScheduler()
        self.engine = engine = SchedulingEngine(sim, self.scheduler)
        for interface_id, rate in self.capacities.items():
            engine.add_interface(Interface(sim, interface_id, rate))
        self.flows: Dict[str, Flow] = {}
        for flow_id, row in self.rows.items():
            flow = Flow(flow_id, weight=self.weights[flow_id], allowed_interfaces=row)
            engine.add_flow(flow, source=BulkSource(sim, flow, packet_size=self.PACKET))
            self.flows[flow_id] = flow
        engine.start()
        # Sim time per packet is fixed (every interface is always busy),
        # so packet budgets map to exact horizons.
        packets_per_sim_s = sum(self.capacities.values()) / (self.PACKET * 8)
        self.t_warm = self.WARMUP_PACKETS / packets_per_sim_s
        self.t_end = self.t_warm + self.window_packets / packets_per_sim_s
        step = self.SUBWINDOW_PACKETS / packets_per_sim_s
        count = self.window_packets // self.SUBWINDOW_PACKETS
        self.boundaries = [self.t_warm + step * (k + 1) for k in range(count - 1)]
        self.boundaries.append(self.t_end)
        sim.run(until=self.t_warm)
        self.before = self._counters()

    def _counters(self) -> Dict[str, int]:
        examined = self.scheduler.decision_flows_examined
        return {
            "events": self.sim.events_processed,
            "packets": sum(i.packets_sent for i in self.engine.interfaces.values()),
            "decisions": len(examined),
            "flows_examined": sum(examined),
        }

    def run_window(self) -> None:
        self.samples = run_subwindows(
            self.sim, self.engine, self.boundaries, probing=not self.traced
        )

    def measure(self) -> dict:
        after = self._counters()
        counts = {key: after[key] - self.before[key] for key in after}
        stats = self.engine.stats
        samples = stats.samples
        window = [s.delay for s in samples if s.time > self.t_warm and s.delay is not None]
        outside = sum(1 for s in samples if s.interface_id not in self.rows[s.flow_id])
        checks = [check("served_in_pi", len(samples), outside)]
        checks.append(
            conservation_check(
                self.flows,
                stats,
                self.engine.interfaces,
                {f: flow.queue.enqueued_packets * self.PACKET for f, flow in self.flows.items()},
            )
        )
        optimum = weighted_maxmin(
            {f: (self.weights[f], list(row)) for f, row in self.rows.items()},
            self.capacities,
        )
        rel_err = max(
            abs(stats.rate_in_window(f, self.t_warm, self.t_end) - optimum.rate(f))
            / optimum.rate(f)
            for f in self.rows
        )
        summary = delay_summary(window)
        counts["delay_samples"] = summary["delay_samples"]
        counts["subwindow_packets"] = [sample[0] for sample in self.samples]
        return {
            "samples": self.samples,
            "counts": counts,
            "checks": checks,
            "fidelity": {"maxmin_rel_err": rel_err},
            **summary,
        }

    def extra_checks(self) -> List[dict]:
        return []


# ----------------------------------------------------------------------
# churn-monitored-i8
# ----------------------------------------------------------------------
class Churn:
    """Open-loop flow arrivals under faults, with full monitoring.

    A fixed number of flows arrive at seeded Poisson times (uniform
    order statistics over the run), each a finite lognormal-sized
    transfer of small or MTU packets over a random Π row spanning 8
    interfaces. Sizes are rescaled so every seed offers the same bytes
    per packet size: the seed moves who sends what and when, not how
    much work the run holds. One interface flaps, φ and Π rows churn,
    and the engine carries instrumentation, snapshots, the fairness
    auditor and a watchdog with the miDRR invariant checker.
    """

    name = "churn-monitored-i8"
    INTERFACES = 8
    DURATION = 8.0
    TRACED_DURATION = 3.0
    FLOWS_PER_S = 20
    #: Offered load as a share of the summed interface capacity.
    LOAD = 0.5
    SIZE_SIGMA = 1.0
    SMALL_PACKET = 256
    MTU = 1500
    #: Share of flows (and of offered bytes) sent in small packets.
    SMALL_SHARE = 0.3
    FLAPPING = "if1"
    CHURN_PERIOD = 0.5
    WATCHDOG_PERIOD = 0.25
    SNAPSHOT_PERIOD = 0.5
    #: The auditor compares rates only over windows free of flow, Π and
    #: capacity changes; with open-loop arrivals those windows are short.
    AUDIT_PERIOD = 0.1
    AUDIT_WINDOW = 0.3
    #: The window is timed in units of this many simulated seconds.
    SUBWINDOW_S = 0.125

    def __init__(self, seed: int, traced: bool) -> None:
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.traced = traced
        self.duration = self.TRACED_DURATION if traced else self.DURATION
        self.capacities = capacities(self.INTERFACES)
        interface_ids = list(self.capacities)
        count = int(self.FLOWS_PER_S * self.duration)
        small = int(round(count * self.SMALL_SHARE))
        packets = [self.SMALL_PACKET] * small + [self.MTU] * (count - small)
        rng.shuffle(packets)
        times = sorted(rng.uniform(0.0, self.duration * 0.9) for _ in range(count))
        raw = [rng.lognormvariate(0.0, self.SIZE_SIGMA) for _ in range(count)]
        offered = self.LOAD * sum(self.capacities.values()) / 8 * self.duration
        budget = {
            self.SMALL_PACKET: offered * self.SMALL_SHARE,
            self.MTU: offered * (1 - self.SMALL_SHARE),
        }
        raw_total = {size: 0.0 for size in budget}
        for size, draw in zip(packets, raw):
            raw_total[size] += draw
        self.arrivals: List[dict] = []
        for index, (when, size, draw) in enumerate(zip(times, packets, raw)):
            self.arrivals.append(
                {
                    "flow_id": f"c{index:04d}",
                    "time": when,
                    "weight": rng.choice(WEIGHT_CHOICES),
                    "row": random_row(rng, interface_ids),
                    "bytes": max(1, int(draw * budget[size] / raw_total[size])),
                    "packet": size,
                    "options": [random_row(rng, interface_ids) for _ in range(2)],
                }
            )
        self.flap_seed = rng.getrandbits(64)
        self.churn_seed = rng.getrandbits(64)

    def setup(self) -> None:
        from repro.faults.processes import GilbertElliottFlapper, PreferenceChurner
        from repro.health.auditor import FairnessAuditor
        from repro.health.invariants import MiDrrInvariantChecker
        from repro.health.watchdog import Watchdog
        from repro.obs import MetricsRegistry, SnapshotProcess, instrument_engine
        from repro.obs.instrument import instrument_auditor, instrument_watchdog

        self.sim = sim = Simulator()
        self.scheduler = MiDrrScheduler()
        self.engine = engine = SchedulingEngine(sim, self.scheduler)
        for interface_id, rate in self.capacities.items():
            engine.add_interface(Interface(sim, interface_id, rate))
        interfaces = engine.interfaces
        self.flows: Dict[str, Flow] = {}
        # Π history per flow: [(since, row), ...] for the served-in-Π check.
        self.history: Dict[str, List[Tuple[float, frozenset]]] = {}
        for arrival in self.arrivals:
            sim.schedule(arrival["time"], self._arrive, arrival)
        fault_end = self.duration - 1.0
        self.flapper = GilbertElliottFlapper(
            sim, interfaces[self.FLAPPING], random.Random(self.flap_seed),
            mean_up=3.0, mean_down=0.5, start_time=0.5, until=fault_end,
        )
        self.churner = PreferenceChurner(
            sim, engine, random.Random(self.churn_seed), period=self.CHURN_PERIOD,
            weight_choices=WEIGHT_CHOICES,
            interface_options={a["flow_id"]: list(a["options"]) for a in self.arrivals},
            until=fault_end,
        )
        self.checker = MiDrrInvariantChecker(self.scheduler, engine=engine)
        self.watchdog = Watchdog(
            sim, engine, period=self.WATCHDOG_PERIOD, invariant_checker=self.checker
        )
        self.auditor = FairnessAuditor(
            sim, engine, period=self.AUDIT_PERIOD, window=self.AUDIT_WINDOW
        )
        registry = MetricsRegistry()
        instrumentation = instrument_engine(engine, registry)
        instrument_watchdog(self.watchdog, registry)
        instrument_auditor(self.auditor, registry)
        self.snapshots = SnapshotProcess(
            sim, registry, period=self.SNAPSHOT_PERIOD, pre_sample=[instrumentation.sample]
        )
        self.watchdog.start()
        self.auditor.start()
        self.snapshots.start()
        engine.start()

    def _arrive(self, arrival: dict) -> None:
        flow_id = arrival["flow_id"]
        flow = Flow(flow_id, weight=arrival["weight"], allowed_interfaces=arrival["row"])
        history = self.history[flow_id] = [(self.sim.now, frozenset(arrival["row"]))]
        flow.on_prefs_change(
            lambda f: history.append((self.sim.now, f.allowed_interfaces))
        )
        source = BulkSource(
            self.sim, flow, packet_size=arrival["packet"], total_bytes=arrival["bytes"]
        )
        self.flows[flow_id] = flow
        self.engine.add_flow(flow, source=source)

    def run_window(self) -> None:
        count = int(round(self.duration / self.SUBWINDOW_S))
        boundaries = [self.SUBWINDOW_S * (k + 1) for k in range(count - 1)] + [self.duration]
        self.samples = run_subwindows(
            self.sim, self.engine, boundaries, probing=not self.traced
        )
        self.watchdog.stop()
        self.auditor.stop()
        self.snapshots.stop()

    def _served_in_pi(self, samples) -> dict:
        # A packet chosen just before a Π edit may complete just after it.
        slack = self.MTU * 8 / min(self.capacities.values())
        outside = 0
        for sample in samples:
            history = self.history[sample.flow_id]
            index = len(history) - 1
            while index > 0 and history[index][0] > sample.time:
                index -= 1
            since, row = history[index]
            if sample.interface_id in row:
                continue
            if index > 0 and sample.time - since <= slack and (
                sample.interface_id in history[index - 1][1]
            ):
                continue
            outside += 1
        return check("served_in_pi", len(samples), outside)

    def measure(self) -> dict:
        stats = self.engine.stats
        samples = stats.samples
        packet_of = {a["flow_id"]: a for a in self.arrivals}
        offered = {
            flow_id: min(
                packet_of[flow_id]["bytes"],
                flow.queue.enqueued_packets * packet_of[flow_id]["packet"],
            )
            for flow_id, flow in self.flows.items()
        }
        checks = [
            self._served_in_pi(samples),
            conservation_check(self.flows, stats, self.engine.interfaces, offered),
            check(
                "midrr_invariants",
                self.checker.checks_run,
                len(self.checker.violations),
                "; ".join(self.checker.violations[:3]),
            ),
        ]
        solver = self.auditor.solver
        summary = delay_summary([s.delay for s in samples if s.delay is not None])
        examined = self.scheduler.decision_flows_examined
        counts = {
            "events": self.sim.events_processed,
            "packets": len(samples),
            "decisions": len(examined),
            "flows_examined": sum(examined),
            "flows_arrived": len(self.flows),
            "flows_completed": sum(1 for f in self.flows.values() if f.completed_at is not None),
            "solver_deltas": solver.deltas_total,
            "solver_full_solves": solver.full_solves,
            "watchdog_ticks": self.watchdog.ticks,
            "auditor_ticks": self.auditor.ticks,
            "audits": self.auditor.audits_total,
            "snapshots": len(self.snapshots.snapshots),
            "churn_events": self.churner.churn_events,
            "flap_transitions": self.flapper.transitions,
            "delay_samples": summary["delay_samples"],
            "subwindow_packets": [sample[0] for sample in self.samples],
        }
        return {
            "samples": self.samples,
            "counts": counts,
            "checks": checks,
            "fidelity": {"drift_peak": self.auditor.drift_peak},
            **summary,
        }

    def extra_checks(self) -> List[dict]:
        return []


# ----------------------------------------------------------------------
# fleet-smartphone
# ----------------------------------------------------------------------
class FleetSmartphone:
    """``run_fleet`` over the smartphone device workload.

    Short, bursty device traces whose flows start and drain constantly.
    The timed window runs the fleet on the serial executor — the same
    ``run_shard``, payload validation and registry merge the process
    pool runs, in one interpreter, so every shard is one timed unit with
    speed probes between shards. The process pool at ``min(2, nproc)``
    workers runs in the first interpreter's check (its ``report_hash``
    must equal the serial one) and in the traced run's shard profile:
    on a shared 2-CPU host a pool's time cannot be told apart from its
    neighbours' load.
    """

    name = "fleet-smartphone"
    DEVICES = 96
    TRACED_DEVICES = 12
    #: Simulated seconds per device and mean idle gap between a device's
    #: sessions (the model's defaults are 30 s and 10 s). Many short,
    #: mostly active devices average out the per-device mix of flows
    #: and packets, so the fleet's packets/s varies less by seed.
    DEVICE_SECONDS = 10.0
    MEAN_GAP_S = 2.0

    def __init__(self, seed: int, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.devices = self.TRACED_DEVICES if traced else self.DEVICES
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def setup(self) -> None:
        from repro.fleet import run_fleet
        from repro.trace import DeviceWorkload

        self.run_fleet = run_fleet
        self.workload = DeviceWorkload(
            kind="smartphone", duration=self.DEVICE_SECONDS, mean_gap=self.MEAN_GAP_S
        )

    def _run(self, executor: str, devices: int, **kwargs) -> dict:
        return self.run_fleet(
            devices, self.workload, fleet_seed=self.seed, workers=self.workers,
            executor=executor, **kwargs,
        )

    def run_window(self) -> None:
        """One serial fleet run, timed shard by shard through ``progress``.

        The last unit is the coordinator's merge and report after the
        final shard; it carries the fleet's packet total.
        """
        speed = probe if not self.traced else (lambda: 0.0)
        clock = time.perf_counter
        samples = []
        mark = {"before": speed()}
        mark["start"] = clock()

        def shard_done(done: int, total: int) -> None:
            elapsed = clock() - mark["start"]
            after = speed()
            samples.append([0, elapsed, mark["before"], after])
            mark["before"] = after
            mark["start"] = clock()

        self.report = self._run("serial", self.devices, progress=shard_done)
        elapsed = clock() - mark["start"]
        samples.append([self.report["totals"]["packets"], elapsed, mark["before"], speed()])
        self.samples = samples

    def measure(self) -> dict:
        report = self.report
        totals = report["totals"]
        delay = report["delay"]
        counts = dict(totals)
        counts["shards"] = report["run"]["shards"]
        counts["report_hash"] = report["report_hash"]
        counts["delay_samples"] = delay["count"]
        checks = [
            check("fleet_devices", self.devices, int(totals["devices"] != self.devices)),
        ]
        return {
            "samples": self.samples,
            "counts": counts,
            "checks": checks,
            "fidelity": {"jain_index": report["fairness"]["jain_index"]},
            "delay_p50_ms": delay["p50"] * 1e3,
            "delay_p99_ms": delay["p99"] * 1e3,
            "delay_samples": delay["count"],
        }

    def extra_checks(self) -> List[dict]:
        pooled = self._run("process", self.devices)
        same = pooled["report_hash"] == self.report["report_hash"]
        return [check("fleet_hash_process_equals_serial", 1, int(not same))]

    def shard_profile(self, out_dir: str) -> dict:
        """Shard, payload and merge costs of one process-executor run.

        The coordinator's merges are timed around ``merge_state``; shard
        wall times and payload sizes come from the fleet's shard log.
        """
        import json

        from repro.obs.metrics import MetricsRegistry

        merge_s = [0.0]
        original = MetricsRegistry.merge_state

        def merge_state(registry, state):
            started = time.perf_counter()
            try:
                return original(registry, state)
            finally:
                merge_s[0] += time.perf_counter() - started

        log_path = os.path.join(out_dir, f"shards-{os.getpid()}.jsonl")
        MetricsRegistry.merge_state = merge_state
        try:
            report = self._run("process", self.DEVICES, shard_log_path=log_path)
        finally:
            MetricsRegistry.merge_state = original
        with open(log_path, "rb") as handle:
            raw = handle.read()
        os.remove(log_path)
        shard_walls = sorted(
            json.loads(line)["wall_seconds"] for line in raw.splitlines() if line.strip()
        )
        pool_wall = report["run"]["wall_seconds"]
        return {
            "fleet.shards": len(shard_walls),
            "fleet.shard_p50_s": percentile(shard_walls, 0.5),
            "fleet.shard_max_s": shard_walls[-1],
            "fleet.merge_s": merge_s[0],
            "fleet.payload_bytes": len(raw),
            "fleet.worker_busy_share": sum(shard_walls) / (self.workers * pool_wall),
            "fleet.pool_wall_s": pool_wall,
        }


# ----------------------------------------------------------------------
# paper-figures
# ----------------------------------------------------------------------
class PaperFigures:
    """The ``midrr all`` figure set, from a fresh interpreter.

    fig1 across five schedulers, fig6/8, fig7, fig9 and fig10/11
    through the simulated HTTP proxy, each through the CLI exactly as
    ``midrr all`` runs them. ``midrr all`` fixes the figures' inputs
    (seed 0 for fig7 and fig10), so the workload seed changes nothing
    here: the paper's inputs are the workload.
    """

    name = "paper-figures"
    FIGURES = ("fig1", "fig6", "fig7", "fig9", "fig10")
    #: fig9 prints wall-clock decision times; they are masked before
    #: outputs are compared.
    WALL_CLOCK = re.compile(r"\d+(?:\.\d+)? µs")
    PADDING = re.compile(r"[ \t]+")

    #: A figure simulation is timed in units of at most this many
    #: simulated seconds, so a slow spell on the host stays inside short
    #: units (fig6 alone is one 100 s simulation).
    UNIT_SIM_S = 10.0

    def __init__(self, seed: int, traced: bool) -> None:
        self.traced = traced

    def _argv(self, figure: str) -> List[str]:
        return ["fig6", "--zoom"] if figure == "fig6" else [figure]

    def setup(self) -> None:
        from repro import cli

        self.cli = cli

    def _run_figures(self, on_figure=None):
        """``(outputs, wall seconds, exit codes)`` by figure."""
        outputs, walls, codes = {}, {}, []
        for figure in self.FIGURES:
            buffer = io.StringIO()
            started = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                if on_figure is None:
                    codes.append(self.cli.main(self._argv(figure)))
                else:
                    codes.append(on_figure(figure, self.cli.main, self._argv(figure)))
            walls[figure] = time.perf_counter() - started
            outputs[figure] = buffer.getvalue()
        return outputs, walls, codes

    def run_window(self, on_figure=None) -> None:
        """Run the figure set, timed in units between speed probes.

        Untraced, ``Simulator.run`` is wrapped for the window so each
        figure simulation runs in steps of :data:`UNIT_SIM_S` (a run may
        be resumed with a later horizon) with a probe between steps;
        the code between simulations forms units of its own. Outputs
        must equal the unsplit counting pass's (``extra_checks``).
        """
        if self.traced:
            self.outputs, self.figure_s, self.codes = self._run_figures(on_figure)
            self.samples = []
            return
        clock = time.perf_counter
        samples = []
        mark = {"before": probe()}
        mark["start"] = clock()

        def close_unit() -> None:
            elapsed = clock() - mark["start"]
            after = probe()
            samples.append([0, elapsed, mark["before"], after])
            mark["before"] = after
            mark["start"] = clock()

        original = Simulator.run
        step = self.UNIT_SIM_S

        def run_in_units(sim, until=None, max_events=None):
            close_unit()
            if until is None or max_events is not None:
                original(sim, until, max_events)
            else:
                while sim.now + step < until:
                    original(sim, sim.now + step)
                    close_unit()
                original(sim, until)
            close_unit()

        Simulator.run = run_in_units
        try:
            self.outputs, self.figure_s, self.codes = self._run_figures()
        finally:
            Simulator.run = original
        close_unit()
        self.samples = samples

    def _digest(self, outputs: Dict[str, str]) -> str:
        digest = hashlib.sha256()
        for figure in self.FIGURES:
            # Masked times change column widths, so whitespace runs too.
            text = self.PADDING.sub(" ", self.WALL_CLOCK.sub("<t> µs", outputs[figure]))
            digest.update(text.encode("utf-8"))
        return digest.hexdigest()

    def measure(self) -> dict:
        failed = sum(1 for code in self.codes if code != 0)
        empty = sum(1 for text in self.outputs.values() if not text.strip())
        return {
            "samples": self.samples,
            "counts": {
                "figures": len(self.FIGURES),
                "output_sha256": self._digest(self.outputs),
                "units": len(self.samples),
            },
            "checks": [check("figures_exit_zero", len(self.codes), failed + empty)],
            "figure_s": self.figure_s,
        }

    def extra_checks(self) -> List[dict]:
        """Re-run the figures with counters: packets, delays, fidelity.

        Interfaces built during this pass get one more sent-listener,
        which counts packets and their sim-clock delays; ``fig6.run`` is
        wrapped to keep its result for the unrounded phase rates. The
        output must equal the timed pass's.
        """
        from repro.experiments import fig6

        delays: List[float] = []
        sims = []
        original_init = Interface.__init__
        original_run = fig6.run
        kept = {}

        def init(interface, sim, *args, **kwargs):
            original_init(interface, sim, *args, **kwargs)
            if not any(s is sim for s in sims):
                sims.append(sim)
            interface.on_sent(lambda i, packet: delays.append(sim.now - packet.created_at))

        def run(*args, **kwargs):
            kept["result"] = original_run(*args, **kwargs)
            return kept["result"]

        Interface.__init__ = init
        fig6.run = run
        try:
            outputs, _, codes = self._run_figures()
        finally:
            Interface.__init__ = original_init
            fig6.run = original_run
        phase_rates = fig6.phase_rates(kept["result"])
        paper_rel_err = max(
            abs(phase_rates[phase][flow] - paper) / paper
            for phase, expected in fig6.PAPER_PHASE_RATES.items()
            for flow, paper in expected.items()
        )
        same = self._digest(outputs) == self._digest(self.outputs)
        self.counted = {
            "packets": len(delays),
            "events": sum(sim.events_processed for sim in sims),
            "fidelity": {"paper_rel_err": paper_rel_err},
            **delay_summary(delays),
        }
        return [
            check("figures_output_repeats", 1, int(not same)),
            check("figures_exit_zero", len(codes), sum(1 for c in codes if c != 0)),
        ]


WORKLOADS = {cls.name: cls for cls in (Bulk, Churn, FleetSmartphone, PaperFigures)}
