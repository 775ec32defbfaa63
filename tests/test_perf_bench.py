"""Tests for the ``repro.perf`` benchmark harness.

The tier-1 tests run a miniature bench document (a few hundred core
packets, two fleet devices) end to end and validate the
BENCH_core.json schema, and check that the committed document records
the work the regression gate runs. Only the metrics-overhead
acceptance test runs under the ``bench`` marker (``pytest -m bench``),
which the default run deselects — it measures wall-clock and has no
place gating CI.
"""

from __future__ import annotations

import copy
import json
import pathlib
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.perf import (
    BENCH_SCHEMA_VERSION,
    CORE_FLOWS,
    CORE_INTERFACES,
    DEFAULT_FLEET_DEVICES,
    DEFAULT_FLEET_WORKLOAD,
    DEFAULT_TARGET_PACKETS,
    FLEET_EXECUTOR,
    FLEET_REGRESSION_THRESHOLD,
    FLEET_WORKERS,
    OVERHEAD_BUDGET,
    OVERHEAD_NOISE_CEILING,
    REGRESSION_THRESHOLD,
    build_core_scenario,
    check_regression,
    render_bench_table,
    render_overhead_table,
    run_core_bench,
    run_fleet_cell,
    run_auditor_overhead,
    run_cell,
    run_metrics_overhead,
    validate_bench_document,
    write_bench_document,
)

#: A document small enough for tier-1: a few hundred core packets and
#: two fleet devices.
SMOKE_KWARGS = dict(target_packets=200, fleet_devices=2)

COMMITTED = pathlib.Path(__file__).resolve().parent.parent / "BENCH_core.json"


@pytest.fixture(scope="module")
def smoke_document():
    return run_core_bench(seed=0, **SMOKE_KWARGS)


@pytest.fixture
def document(smoke_document):
    """A private copy of the miniature document, free to mutate."""
    return copy.deepcopy(smoke_document)


class TestScenarioBuilder:
    def test_deterministic_per_seed(self):
        first = build_core_scenario(5, 2, seed=42)
        second = build_core_scenario(5, 2, seed=42)
        assert [spec.interfaces for spec in first.flows] == [
            spec.interfaces for spec in second.flows
        ]
        assert [spec.weight for spec in first.flows] == [
            spec.weight for spec in second.flows
        ]

    def test_seed_changes_workload(self):
        first = build_core_scenario(20, 4, seed=0)
        second = build_core_scenario(20, 4, seed=1)
        assert [spec.interfaces for spec in first.flows] != [
            spec.interfaces for spec in second.flows
        ]

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            build_core_scenario(0, 2)
        with pytest.raises(ConfigurationError):
            build_core_scenario(5, 2, target_packets=0)


class TestSmokeBench:
    def test_document_is_valid(self, document):
        assert validate_bench_document(document) == []
        assert document["schema_version"] == BENCH_SCHEMA_VERSION
        assert document["seed"] == 0

    def test_cell_throughput_nonzero(self, document):
        core = document["core"]
        assert (core["flows"], core["interfaces"]) == (CORE_FLOWS, CORE_INTERFACES)
        assert core["target_packets"] == 200
        assert core["packets"] > 0
        assert core["packets_per_sec"] > 0
        assert core["events_per_sec"] > 0
        assert core["decisions"] >= core["packets"]
        fleet = document["fleet"]
        assert fleet["devices"] == 2 and fleet["packets"] > 0
        # Each cell carries the probe reading taken around its own run.
        assert core["calibration_seconds"] > 0
        assert fleet["calibration_seconds"] > 0

    def test_counts_are_seed_deterministic(self, document):
        core = run_cell(CORE_FLOWS, CORE_INTERFACES, seed=0, target_packets=200)
        for key in ("events", "packets", "decisions", "virtual_seconds"):
            assert document["core"][key] == core[key]
        fleet = run_fleet_cell(2, seed=0)
        for key in ("events", "packets", "report_hash"):
            assert document["fleet"][key] == fleet[key]

    def test_write_and_render(self, document, tmp_path):
        path = tmp_path / "BENCH_core.json"
        write_bench_document(document, str(path))
        loaded = json.loads(path.read_text())
        assert validate_bench_document(loaded) == []
        table = render_bench_table(loaded)
        assert "packets/s" in table
        assert "F=1000 I=8" in table and "devices=2 workers=1" in table

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_bench_document({"name": "core"}, str(tmp_path / "x.json"))


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_bench_document([]) != []

    def test_reports_missing_keys_and_zero_throughput(self, document):
        document["core"]["packets"] = 0
        document["fleet"]["packets_per_sec"] = 0
        del document["seed"]
        problems = validate_bench_document(document)
        assert any("seed" in problem for problem in problems)
        assert "core transmitted no packets" in problems
        assert "fleet has zero throughput" in problems

    def test_requires_both_cells_and_their_probes(self, document):
        del document["fleet"]
        del document["core"]["calibration_seconds"]
        problems = validate_bench_document(document)
        assert "fleet must be an object" in problems
        assert any(
            problem.startswith("core missing keys")
            and "calibration_seconds" in problem
            for problem in problems
        )

    def test_rejects_other_schema_versions(self, document):
        document["schema_version"] = BENCH_SCHEMA_VERSION - 1
        problems = validate_bench_document(document)
        assert any("schema_version" in problem for problem in problems)

    def test_committed_document_is_valid(self):
        document = json.loads(COMMITTED.read_text())
        assert validate_bench_document(document) == []

    def test_committed_cells_are_the_gated_work(self):
        """The committed baseline was recorded on exactly the work the
        gate re-runs: a cell recorded at another packet count, seed or
        fleet shape compares unlike with unlike and blinds the gate."""
        document = json.loads(COMMITTED.read_text())
        assert document["seed"] == 0
        core = document["core"]
        assert (core["flows"], core["interfaces"], core["target_packets"]) == (
            CORE_FLOWS,
            CORE_INTERFACES,
            DEFAULT_TARGET_PACKETS,
        )
        fleet = document["fleet"]
        assert (fleet["devices"], fleet["workers"], fleet["executor"]) == (
            DEFAULT_FLEET_DEVICES,
            FLEET_WORKERS,
            FLEET_EXECUTOR,
        )
        assert fleet["workload"] == DEFAULT_FLEET_WORKLOAD.to_dict()


class TestCli:
    def test_bench_core_parses(self):
        args = build_parser().parse_args(
            ["bench", "core", "--seed", "3", "--out", "x.json"]
        )
        assert callable(args.func)
        assert (args.seed, args.out) == (3, "x.json")
        args = build_parser().parse_args(
            ["bench", "smoke", "--check-regression", "--baseline", "b.json"]
        )
        assert args.check_regression and args.baseline == "b.json"
        args = build_parser().parse_args(
            ["bench", "obs", "--repeats", "2", "--strict"]
        )
        assert args.repeats == 2 and args.strict

    def test_bench_options_are_the_gated_ones(self):
        """``bench`` picks no coordinates: the cells' work lives in the
        module constants and the committed document."""
        parser = build_parser()
        bench = next(
            action.choices["bench"]
            for action in parser._actions
            if getattr(action, "choices", None) and "bench" in action.choices
        )
        subparsers = next(
            action.choices
            for action in bench._actions
            if getattr(action, "choices", None)
        )
        options = {
            name: sorted(
                action.option_strings[-1]
                for action in subparser._actions
                if action.option_strings and action.dest != "help"
            )
            for name, subparser in subparsers.items()
        }
        assert options == {
            "core": ["--out", "--seed"],
            "smoke": ["--baseline", "--check-regression", "--seed"],
            "obs": ["--baseline", "--repeats", "--seed", "--strict"],
        }

    def test_choices_are_the_registries(self):
        """Each choice list and default the parser shows equals the
        registry or constant the command runs against."""
        from repro.analysis.slo import SCHEDULER_FAMILY
        from repro.fleet import EXECUTORS
        from repro.trace.fleet_workloads import WORKLOAD_KINDS

        commands = next(
            action.choices
            for action in build_parser()._actions
            if getattr(action, "choices", None) and "fleet" in action.choices
        )

        def option(command, flag):
            return next(
                action
                for action in commands[command]._actions
                if flag in action.option_strings
            )

        assert option("slo", "--scheduler").choices == sorted(SCHEDULER_FAMILY)
        assert option("fleet", "--executor").choices == list(EXECUTORS)
        assert option("fleet", "--workload").choices == list(WORKLOAD_KINDS)
        assert option("obs", "--target-packets").default == DEFAULT_TARGET_PACKETS
        assert cli.SCHEDULER_CHOICES == {
            **SCHEDULER_FAMILY,
            "midrr-counter": cli.SCHEDULER_CHOICES["midrr-counter"],
        }
        for command in ("run", "checkpoint", "resume", "obs"):
            assert option(command, "--scheduler").choices == sorted(
                cli.SCHEDULER_CHOICES
            )

    def test_bench_core_writes_document(
        self, document, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.perf.run_core_bench", lambda seed, progress: document
        )
        out = tmp_path / "BENCH_core.json"
        assert main(["bench", "core", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == document
        assert "packets/s" in capsys.readouterr().out

    def test_gate_refuses_a_baseline_without_a_cell(
        self, document, tmp_path, capsys, monkeypatch
    ):
        """A baseline missing its fleet cell fails the gate instead of
        skipping the fleet floor."""
        monkeypatch.delenv("MIDRR_SKIP_BENCH_REGRESSION", raising=False)
        monkeypatch.setattr(
            "repro.perf.run_core_bench", lambda seed, **kwargs: document
        )
        monkeypatch.setattr(
            "repro.analysis.slo.run_latency_slo",
            lambda seed, duration: SimpleNamespace(report_hash=lambda: "same"),
        )
        baseline = copy.deepcopy(document)
        del baseline["fleet"]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        with pytest.raises(SystemExit) as raised:
            main(["bench", "smoke", "--check-regression", "--baseline", str(path)])
        assert raised.value.code == 2
        assert "fleet must be an object" in capsys.readouterr().err


class TestMetricsOverhead:
    def test_smoke_report_shape(self):
        """Tier-1 smoke: the paired comparison runs and the workload-
        invariance guard holds (identical packet/decision counts)."""
        report = run_metrics_overhead(
            num_flows=5, num_interfaces=2, target_packets=200
        )
        assert report["within_budget"] in (True, False)
        assert report["bare"]["packets"] == report["instrumented"]["packets"]
        assert (
            report["bare"]["decisions"] == report["instrumented"]["decisions"]
        )
        # Snapshot ticks add events on the instrumented side only.
        assert report["instrumented"]["events"] > report["bare"]["events"]
        # The instrumented cell accounts for its own telemetry time.
        assert 0 < report["telemetry_fraction"] < 1
        assert report["instrumented"]["telemetry_seconds"] > 0
        assert "telemetry_seconds" not in report["bare"]
        table = render_overhead_table(report)
        assert "instrumented" in table
        assert "overhead" in table

    def test_rejects_bad_repeats(self):
        with pytest.raises(ConfigurationError):
            run_metrics_overhead(repeats=0)

    def test_bench_obs_cli(self, document, tmp_path, capsys, monkeypatch):
        """``bench obs`` shows the committed core cell, the same work it
        ran, when the baseline has the same seed."""
        calls = []

        def small_overhead(seed, repeats):
            calls.append((seed, repeats))
            return run_metrics_overhead(
                num_flows=5, num_interfaces=2, target_packets=200,
                seed=seed, repeats=repeats,
            )

        monkeypatch.setattr("repro.perf.run_metrics_overhead", small_overhead)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(document))
        assert main(["bench", "obs", "--repeats", "1", "--baseline", str(path)]) == 0
        assert calls == [(0, 1)]
        assert "committed baseline" in capsys.readouterr().out
        # Another seed's baseline is other work: no committed row.
        assert main(
            ["bench", "obs", "--seed", "1", "--repeats", "1", "--baseline", str(path)]
        ) == 0
        assert "committed baseline" not in capsys.readouterr().out
        assert main(
            ["bench", "obs", "--repeats", "1", "--baseline", "does-not-exist.json"]
        ) == 0
        assert "bench obs" in capsys.readouterr().out


def _spin(count: int) -> int:
    total = 0
    for i in range(count):
        total += i
    return total


class TestAuditorOverhead:
    def test_detects_an_injected_cost(self, monkeypatch):
        """The lockstep measurement is not blind: pure-Python work worth
        ~30% of a bare chaos run, added to the auditor's ticks, shows up
        in the reported overhead."""
        from time import perf_counter

        from repro.faults.chaos import ChaosRun
        from repro.health.auditor import FairnessAuditor

        started = perf_counter()
        ChaosRun(seed=0, duration=20.0, with_auditor=False).run()
        bare_seconds = perf_counter() - started
        started = perf_counter()
        _spin(200_000)
        per_step = (perf_counter() - started) / 200_000
        # Twenty 1 s audit ticks in the 20 s run.
        count = int(0.30 * bare_seconds / 20 / per_step)

        tick = FairnessAuditor._tick

        def costly_tick(self, now):
            tick(self, now)
            _spin(count)

        monkeypatch.setattr(FairnessAuditor, "_tick", costly_tick)
        cell = run_auditor_overhead(repeats=1)
        assert cell["signatures_identical"]
        assert cell["overhead_fraction"] > 0.15, cell
        assert not cell["within_budget"]

    def test_rejects_bad_repeats(self):
        with pytest.raises(ConfigurationError):
            run_auditor_overhead(repeats=0)


#: Python-level calls per transmitted packet on the per-packet path of
#: :func:`_calls_per_packet`'s cell (deterministic for a given code
#: path). It reads 9.00: the interface completion, the engine's sent
#: handler and packet supply, ``select``, the pull, the bulk refill,
#: the packet's construction, the offer and the completion's push. The
#: run loop pops and dispatches events without ``pop_ready`` and
#: ``fire`` frames, the push builds its event without ``__init__``,
#: the offer inlines the unbounded enqueue, and a refill into a
#: non-empty backlog calls no engine listener; with those five frames it
#: read 14.00.
CALL_BUDGET_PER_PACKET = 9.1


def _calls_per_packet(make_source=None, min_packets: int = 3000) -> float:
    """Python-level ``call`` events per packet on a fixed miDRR cell.

    The cell is :func:`_midrr_cell`'s. The count starts after a warm-up
    and covers 0.5 simulated seconds (more than *min_packets*
    packets), read with :func:`sys.setprofile` (no wall clock, so no
    noise).
    """
    import sys

    sim, interfaces = _midrr_cell(make_source)
    sent_before = sum(interface.packets_sent for interface in interfaces)
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sim.run(until=1.0)
    finally:
        sys.setprofile(previous)
    packets = sum(interface.packets_sent for interface in interfaces) - sent_before
    assert packets > min_packets
    return calls[0] / packets


def _midrr_cell(make_source=None):
    """A fixed miDRR cell, warmed up to 0.5 simulated seconds.

    200 flows over 4 interfaces (75 Mb/s in total). By default every
    flow is always backlogged (closed loop); otherwise
    ``make_source(sim, flow)`` builds each flow's source. Returns the
    simulator and the interfaces.
    """
    import random

    from repro.core.engine import SchedulingEngine
    from repro.net.flow import Flow
    from repro.net.interface import Interface
    from repro.net.sources import BulkSource
    from repro.schedulers.midrr import MiDrrScheduler
    from repro.sim.simulator import Simulator

    if make_source is None:
        def make_source(sim, flow):
            return BulkSource(sim, flow, packet_size=1500)

    rng = random.Random(0)
    sim = Simulator()
    engine = SchedulingEngine(sim, MiDrrScheduler())
    interface_ids = [f"if{j}" for j in range(4)]
    rates = (5e6, 10e6, 20e6, 40e6)
    for interface_id, rate in zip(interface_ids, rates):
        engine.add_interface(Interface(sim, interface_id, rate))
    for index in range(200):
        row = rng.sample(interface_ids, rng.randint(1, len(interface_ids)))
        flow = Flow(
            f"f{index}",
            weight=rng.choice((0.5, 1.0, 2.0, 4.0)),
            allowed_interfaces=row,
        )
        engine.add_flow(flow, source=make_source(sim, flow))
    engine.start()
    # 1500 B packets on 75 Mb/s in total: up to 6,250 packets per second.
    sim.run(until=0.5)
    return sim, list(engine.interfaces.values())


def test_per_packet_call_budget():
    """The per-packet path stays within its call budget: a new hop on
    the transmit chain (a listener, a helper, a property) shows here
    as a count, without wall-clock noise."""
    calls = _calls_per_packet()
    assert calls <= CALL_BUDGET_PER_PACKET, (
        f"{calls:.3f} Python-level calls per packet, budget "
        f"{CALL_BUDGET_PER_PACKET}"
    )


def _collections_in_window() -> dict:
    """Cyclic-GC passes per generation while :func:`_midrr_cell`'s
    closed loop runs.

    The collector stays on; its passes are counted with
    :data:`gc.callbacks` from 0.5 s to 4.5 s of simulated time (about
    25,000 packets), after a ``gc.collect()`` that zeroes the
    allocation counters, so the count is deterministic for a given
    code path and CPython version.
    """
    import gc
    from collections import Counter

    sim, _ = _midrr_cell()
    passes = Counter()

    def count(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        sim.run(until=4.5)
    finally:
        gc.callbacks.remove(count)
    return dict(passes)


def test_per_packet_path_starts_no_collection():
    """Nothing on the closed-loop per-packet path outlives its packet,
    so CPython's gen-0 allocation counter never reaches its threshold
    and the transmit loop runs no cyclic-GC pass. A tracked container
    kept per packet (a tuple per pending sample read 45 gen-0 and 4
    gen-1 passes here) shows as a count, without wall-clock noise. The
    open-loop cell (Poisson sources, see
    :func:`_open_loop_calls_per_packet`) also reads 0; it read 37 gen-0
    and 3 gen-1 passes with the tuple per pending sample."""
    assert _collections_in_window() == {}


#: Python-level calls per transmitted packet on the open-loop path:
#: :func:`_calls_per_packet`'s cell with Poisson sources offering 60 of
#: its 75 Mb/s, passed to the engine as ``source=`` (deterministic for
#: a given code path). Arrivals into empty queues wake interfaces
#: through a deferred kick, so a packet costs more calls than in the
#: closed loop. It reads 27.40 (37.28 before the run loop dispatched
#: from the heap, the push lost its ``__init__`` frame and the offer
#: inlined the unbounded enqueue); the drain into the stats columns
#: adds 0.0016 of that.
OPEN_LOOP_CALL_BUDGET_PER_PACKET = 27.5


def _open_loop_calls_per_packet() -> float:
    """:func:`_calls_per_packet` with 25 packets/s Poisson sources."""
    import random

    from repro.net.sources import PoissonSource

    rng = random.Random(1)

    def make_source(sim, flow):
        # 200 flows × 25 packets/s × 1500 B = 60 Mb/s offered.
        return PoissonSource(sim, flow, rate_pps=25, rng=rng, packet_size=1500)

    return _calls_per_packet(make_source, min_packets=2000)


def test_open_loop_call_budget():
    """The open-loop per-packet path stays within its call budget."""
    calls = _open_loop_calls_per_packet()
    assert calls <= OPEN_LOOP_CALL_BUDGET_PER_PACKET, (
        f"{calls:.3f} Python-level calls per open-loop packet, budget "
        f"{OPEN_LOOP_CALL_BUDGET_PER_PACKET}"
    )


#: Bytes the stats collector retains per sample for
#: :func:`_sample_log_bytes`'s log (deterministic for a given layout
#: and CPython version). One tuple per sample read 136 in ``pending``
#: and 146 drained into ``ServiceSample`` tuples; the typed columns
#: read 36.0 with an undrained tail of tuples and 35.0 with the flat
#: tail of five fields per sample.
SAMPLE_LOG_BYTES_BUDGET = 37


def _sample_log_bytes(indexed: bool = False) -> float:
    """Bytes retained per sample by a collector fed like the engine.

    100,000 samples over 100 flows and 8 interfaces, each extending
    ``pending`` by its five fields with fresh time and delay floats,
    the log drained every ``DRAIN_CHUNK`` samples as the engine does. The
    retained size is the growth :mod:`tracemalloc` traces from an
    empty collector to the end of the stream, the undrained tail
    included. No index is built unless *indexed*: then the first
    windowed read and the first pair read run before the reading.
    """
    import gc
    import tracemalloc

    from repro.net.sink import DRAIN_CHUNK, SAMPLE_WIDTH, StatsCollector
    from repro.sim.simulator import Simulator

    flow_ids = [f"f{index}" for index in range(100)]
    interface_ids = [f"if{index}" for index in range(8)]
    count = 100_000
    gc.collect()
    tracemalloc.start()
    try:
        stats = StatsCollector(Simulator())
        pending = stats.pending
        limit = DRAIN_CHUNK * SAMPLE_WIDTH
        before = tracemalloc.get_traced_memory()[0]
        time = 0.0
        for index in range(count):
            time += 1e-4
            pending.extend(
                (
                    time,
                    flow_ids[index % 100],
                    interface_ids[index % 8],
                    1500,
                    time - 5e-3,
                )
            )
            if len(pending) >= limit:
                stats.drain()
        if indexed:
            stats.service_in_window("f0", 0.0, time)
            stats.pair_service_in_window(0.0, time)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(stats.samples) == count
    return retained / count


def test_sample_log_bytes_budget():
    """The service log stays within its bytes-per-sample budget: a
    boxed object per sample in the retained layout shows here."""
    retained = _sample_log_bytes()
    assert retained <= SAMPLE_LOG_BYTES_BUDGET, (
        f"{retained:.1f} bytes retained per sample, budget "
        f"{SAMPLE_LOG_BYTES_BUDGET}"
    )


#: Bytes the stats collector retains per sample for
#: :func:`_sample_log_bytes`'s log once the first window and pair reads
#: have run (deterministic for a given layout and CPython version). The
#: per-flow index adds a row number and a prefix sum per sample to the
#: columns: it reads 46.3 (47.9 with an undrained tail of tuples). A
#: per-(flow, interface) index kept beside it read 60.6.
INDEXED_LOG_BYTES_BUDGET = 46.5


def test_indexed_log_bytes_budget():
    """The service log and its derived indexes stay within their
    bytes-per-sample budget: a second time index shows here."""
    retained = _sample_log_bytes(indexed=True)
    assert retained <= INDEXED_LOG_BYTES_BUDGET, (
        f"{retained:.1f} bytes retained per indexed sample, budget "
        f"{INDEXED_LOG_BYTES_BUDGET}"
    )


#: Python-level calls per ingested sample while the stats collector
#: drains :func:`_calls_per_sample`'s log, builds its totals and index
#: and answers its first windows (deterministic for a given code path).
#: A log of sample tuples with an index object per key read 0.053 here:
#: one call per new index (250) and a few per read. The columnar log
#: with per-flow and per-pair indexes read 0.0042 (21 calls); with the
#: per-flow index alone it reads 0.0028 (14 calls): no call per new id,
#: index entry or row in a window, a few per read.
CALL_BUDGET_PER_SAMPLE = 0.003


def _calls_per_sample() -> float:
    """Python-level ``call`` events per sample to ingest and index a log.

    A fixed 5,000-sample log over 50 flows and 4 interfaces, in time
    order as the simulator clock produces it, drained by one totals
    read, then indexed per flow by the first windowed query and read
    on one interface, all counted with :func:`sys.setprofile`. The
    cyclic collector is off while counting: a collection it starts
    could run finalizers of objects other tests left behind.
    """
    import gc
    import random
    import sys

    from repro.net.sink import StatsCollector
    from repro.sim.simulator import Simulator

    rng = random.Random(0)
    stats = StatsCollector(Simulator())
    time = 0.0
    for _ in range(5000):
        time += rng.choice((0.0, 1e-4, 2e-4))
        stats.pending.extend(
            (
                time,
                f"f{rng.randrange(50)}",
                f"if{rng.randrange(4)}",
                rng.choice((40, 576, 1500)),
                rng.random(),
            )
        )
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        stats.interface_bytes("if0")
        stats.bytes_sent("f0")
        stats.service_in_window("f0", 0.0, 1.0)
        stats.service_in_window("f0", 0.0, 1.0, interface_id="if0")
    finally:
        sys.setprofile(previous)
        gc.enable()
    assert len(stats.samples) == 5000
    assert len(stats.flow_ids()) == 50
    return calls[0] / 5000


def test_ingest_call_budget():
    """Draining the stats log stays within its call budget: a per-sample
    method hop in the collector's ingest shows here as a count."""
    calls = _calls_per_sample()
    assert calls <= CALL_BUDGET_PER_SAMPLE, (
        f"{calls:.3f} Python-level calls per ingested sample, budget "
        f"{CALL_BUDGET_PER_SAMPLE}"
    )


#: Python-level calls per served sample in a fleet device's digest,
#: from :meth:`~repro.core.runner.ScenarioRun.close`'s return to
#: :func:`~repro.fleet.run_device`'s return (deterministic for a given
#: code path). A per-sample generator, method call or copy in the
#: digest shows as a jump of a whole call per sample; the one-pass
#: digest reads about 0.125.
DIGEST_CALL_BUDGET_PER_SAMPLE = 0.15


def _digest_calls_per_sample() -> float:
    """Python-level ``call`` events per sample in one device's digest.

    Device ``d3``, seed 7, the default smartphone workload over 10 s.
    Counting starts as the finished run's ``close`` returns into
    ``run_device`` and stops when ``run_device`` returns, so it covers
    the stats flush, the registry, the sketch feed and the trace
    fingerprint.
    """
    import gc
    import sys

    from repro.core.runner import ScenarioRun
    from repro.fleet import device as fleet_device
    from repro.trace import DeviceWorkload

    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    real_close = ScenarioRun.close

    def counted_close(run):
        real_close(run)
        gc.collect()
        gc.disable()
        sys.setprofile(profile)

    previous = sys.getprofile()
    ScenarioRun.close = counted_close
    try:
        payload = fleet_device.run_device(
            "d3", 7, DeviceWorkload(kind="smartphone", duration=10.0)
        )
    finally:
        sys.setprofile(previous)
        gc.enable()
        ScenarioRun.close = real_close
    assert payload["packets"] > 500
    return calls[0] / payload["packets"]


def test_device_digest_call_budget():
    """A fleet device's post-simulation digest stays within its call
    budget: it reads the sample log in one loop without per-sample
    Python calls."""
    calls = _digest_calls_per_sample()
    assert calls <= DIGEST_CALL_BUDGET_PER_SAMPLE, (
        f"{calls:.3f} Python-level calls per sample in the device digest, "
        f"budget {DIGEST_CALL_BUDGET_PER_SAMPLE}"
    )


#: Python-level calls per packet over whole fleet devices: scenario
#: generation, the simulation and the digest of four short, mostly
#: active smartphone devices (deterministic for a given code path). The
#: open-loop per-packet path dominates; it reads 9.68 (14.67 before the
#: run loop, the push, the offer and the backlog wake-up lost their
#: frames).
FLEET_CALL_BUDGET_PER_PACKET = 9.75


def _fleet_calls_per_packet() -> float:
    """Python-level ``call`` events per packet over ``run_device``.

    Devices ``d0``..``d3`` of fleet seed 1, each the smartphone workload
    over 10 s with a 2 s mean idle gap (``perfbench``'s fleet devices),
    counted with :func:`sys.setprofile` from ``run_device``'s call to
    its return. The cyclic collector is off while counting.
    """
    import gc
    import sys

    from repro.fleet.device import run_device
    from repro.fleet.plan import device_seed
    from repro.trace import DeviceWorkload

    workload = DeviceWorkload(kind="smartphone", duration=10.0, mean_gap=2.0)
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    packets = 0
    for device_id in ("d0", "d1", "d2", "d3"):
        gc.collect()
        gc.disable()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            payload = run_device(device_id, device_seed(1, device_id), workload)
        finally:
            sys.setprofile(previous)
            gc.enable()
        packets += payload["packets"]
    assert packets > 5000
    return calls[0] / packets


def test_fleet_call_budget():
    """Fleet devices stay within their per-packet call budget: a hop
    added to the open-loop arrival, kick or transmit path shows here as
    a count, without wall-clock noise."""
    calls = _fleet_calls_per_packet()
    assert calls <= FLEET_CALL_BUDGET_PER_PACKET, (
        f"{calls:.3f} Python-level calls per fleet packet, budget "
        f"{FLEET_CALL_BUDGET_PER_PACKET}"
    )


#: ``repro`` modules loaded by each entry point in a fresh interpreter.
#: Package exports resolve on first access, so an import runs only its
#: own dependency chain; a new eager import on one of these chains
#: shows here as a count. ``repro.schedulers`` stays eager (every
#: scheduler class registers on import): 9 of the engine's 25.
IMPORT_BUDGETS = {
    "import repro": 2,
    "import repro.core.engine": 24,
    "from repro.fleet import run_fleet": 44,
    "import repro.cli": 53,
    "from repro.faults.processes import GilbertElliottFlapper, PreferenceChurner": 27,
}

_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "repro")))
"""


def _fresh_interpreter(script: str, *args: str) -> str:
    """Standard output of *script* run in a new interpreter with
    ``src/`` as ``sys.argv[1]``; fails the test if the script fails."""
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", script, src, *args],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("statement", sorted(IMPORT_BUDGETS))
def test_import_graph_budget(statement):
    """Each entry point loads no more ``repro`` modules than recorded."""
    output = _fresh_interpreter(_IMPORT_PROBE, statement)
    loaded = json.loads(output.strip().splitlines()[-1])
    assert len(loaded) <= IMPORT_BUDGETS[statement], (
        f"{statement!r} loaded {len(loaded)} repro modules, budget "
        f"{IMPORT_BUDGETS[statement]}: {loaded}"
    )


#: Subsystems only the non-figure commands use: ``import repro.cli``
#: (paper-figures' whole set-up) and building its parser load none.
CLI_DEFERRED = (
    "repro.analysis.slo",
    "repro.faults",
    "repro.fleet",
    "repro.health",
    "repro.obs",
    "repro.perf",
    "repro.recovery",
)


def test_cli_defers_other_commands_subsystems():
    """The CLI loads the figure chain; every other command imports its
    own subsystem when it runs."""
    output = _fresh_interpreter(
        _IMPORT_PROBE, "import repro.cli; repro.cli.build_parser()"
    )
    loaded = json.loads(output.strip().splitlines()[-1])
    assert [
        module
        for module in loaded
        if any(module == deferred or module.startswith(deferred + ".")
               for deferred in CLI_DEFERRED)
    ] == []


_POOL_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.fleet import run_fleet
from repro.trace import DeviceWorkload
workload = DeviceWorkload(kind="bulk", duration=0.25, num_flows=2, num_interfaces=2)
run_fleet(2, workload, fleet_seed=1, executor="serial")
assert "concurrent.futures.process" not in sys.modules, "serial run loaded the pool"
run_fleet(2, workload, fleet_seed=1, workers=1, executor="process")
assert "concurrent.futures.process" in sys.modules
"""


def test_process_pool_loads_on_demand():
    """Only a process-executor fleet run loads the process pool."""
    _fresh_interpreter(_POOL_PROBE)


#: Exact max-min solves per solver delta on the seed-7 audited chaos
#: run (20 s, the ``midrr audit`` defaults). Solving after every delta
#: reads 1.0 (16 solves for 16 deltas); solving the optimum only when
#: it is read reads 0.125 (2 for 16: the six audits share two regimes).
SOLVE_BUDGET_PER_DELTA = 0.25


def test_auditor_solve_budget():
    """The fairness auditor solves the fluid optimum when it is read,
    not at each delta: a solve per delta creeping back shows here as a
    count."""
    from repro.faults.chaos import ChaosRun

    run = ChaosRun(seed=7, duration=20.0, with_auditor=True)
    run.run()
    solver = run.auditor.solver
    assert solver.deltas_total >= 8
    assert run.auditor.audits_total > 0
    solves = solver.full_solves / solver.deltas_total
    assert solves <= SOLVE_BUDGET_PER_DELTA, (
        f"{solver.full_solves} solves for {solver.deltas_total} deltas, "
        f"budget {SOLVE_BUDGET_PER_DELTA} per delta"
    )


class TestFleetBench:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.trace import DeviceWorkload

        return DeviceWorkload(
            kind="bulk", duration=0.25, num_flows=4, num_interfaces=2
        )

    @pytest.fixture(scope="class")
    def cell(self, workload):
        return run_fleet_cell(2, 1, workload=workload, executor="serial")

    def test_cell_shape(self, cell, workload):
        assert cell["devices"] == 2 and cell["workers"] == 1
        assert cell["executor"] == "serial"
        assert cell["workload"] == workload.to_dict()
        assert cell["packets"] > 0 and cell["packets_per_sec"] > 0

    def test_validation_reports_broken_cells(self, document, cell):
        document["fleet"] = {
            key: value for key, value in cell.items() if key != "packets"
        }
        problems = validate_bench_document(document)
        assert any(problem.startswith("fleet missing keys") for problem in problems)
        document["fleet"] = "nope"
        assert validate_bench_document(document) == ["fleet must be an object"]
        document["fleet"] = dict(cell, calibration_seconds=0)
        assert validate_bench_document(document) == [
            "fleet calibration_seconds must be a positive number"
        ]

    def test_regression_gate(self, document):
        """One function gates both cells, each at its own threshold: a
        halved rate fails, a load factor forgives it, and a missing
        cell is reported rather than skipped."""
        for section, threshold in (
            ("core", REGRESSION_THRESHOLD),
            ("fleet", FLEET_REGRESSION_THRESHOLD),
        ):
            base = document[section]
            slow = {section: dict(base, packets_per_sec=base["packets_per_sec"] / 2)}
            failures = check_regression(slow, document, section, threshold)
            assert len(failures) == 1 and "below the floor" in failures[0]
            assert failures[0].startswith(f"{section}:")
            assert check_regression(document, document, section, threshold) == []
            assert check_regression(
                slow, document, section, threshold, load_factor=4.0
            ) == []
            missing = check_regression({}, document, section, threshold)
            assert missing == [
                f"no comparable {section} cell between the current run and "
                "the baseline document"
            ]

    def test_regression_needs_comparable_cell(self, document):
        baseline = dict(document)
        del baseline["fleet"]
        failures = check_regression(document, baseline, "fleet")
        assert failures and "no comparable fleet" in failures[0]
        with pytest.raises(ConfigurationError):
            check_regression(document, document, "fleet", threshold=1.5)


@pytest.mark.bench
def test_metrics_overhead_within_budget():
    """ISSUE 5 acceptance: telemetry costs <5% packets/s at F=1000, I=8."""
    report = run_metrics_overhead(repeats=5)
    assert report["bare"]["packets"] == report["instrumented"]["packets"]
    # The within-run telemetry share is the robust signal: shared/CI
    # hosts show sustained 10-30% load swings that make the end-to-end
    # wall-clock delta read several percent either way (see
    # docs/observability.md), so that delta only has to clear the
    # documented noise ceiling.
    assert report["telemetry_fraction"] < OVERHEAD_BUDGET, (
        f"telemetry share {report['telemetry_fraction']:.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%}"
    )
    assert report["overhead_fraction"] < OVERHEAD_NOISE_CEILING, (
        f"metrics overhead {report['overhead_fraction']:.1%} exceeds the "
        f"{OVERHEAD_NOISE_CEILING:.0%} noise ceiling"
    )
