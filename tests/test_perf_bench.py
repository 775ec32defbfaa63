"""Tests for the ``repro.perf`` benchmark harness.

The tier-1 smoke test runs a miniature grid end to end and validates
the BENCH_core.json schema; the full default grid runs only under the
``bench`` marker (``pytest -m bench``), which the default run
deselects — benchmarks measure wall-clock and have no place gating CI.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.perf import (
    BENCH_SCHEMA_VERSION,
    OVERHEAD_BUDGET,
    OVERHEAD_NOISE_CEILING,
    build_core_scenario,
    check_fleet_regression,
    committed_baseline_cell,
    render_bench_table,
    render_overhead_table,
    run_core_bench,
    run_fleet_cell,
    run_auditor_overhead,
    run_metrics_overhead,
    validate_bench_document,
    validate_fleet_cells,
    write_bench_document,
)

#: A grid small enough for tier-1 (one cell, a few hundred packets).
SMOKE_KWARGS = dict(
    flow_counts=(3,), interface_counts=(2,), target_packets=200
)


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
    @pytest.fixture(scope="class")
    def document(self):
        return run_core_bench(seed=0, **SMOKE_KWARGS)

    def test_document_is_valid(self, document):
        assert validate_bench_document(document) == []
        assert document["schema_version"] == BENCH_SCHEMA_VERSION
        assert document["seed"] == 0

    def test_cell_throughput_nonzero(self, document):
        # One cell per (F, I) coordinate.
        assert len(document["grid"]) == 1
        for cell in document["grid"]:
            assert cell["packets"] > 0
            assert cell["packets_per_sec"] > 0
            assert cell["events_per_sec"] > 0
            assert cell["decisions"] >= cell["packets"]

    def test_counts_are_seed_deterministic(self, document):
        again = run_core_bench(seed=0, **SMOKE_KWARGS)
        for first, second in zip(document["grid"], again["grid"]):
            for key in ("events", "packets", "decisions", "virtual_seconds"):
                assert first[key] == second[key]

    def test_write_and_render(self, document, tmp_path):
        path = tmp_path / "BENCH_core.json"
        write_bench_document(document, str(path))
        loaded = json.loads(path.read_text())
        assert validate_bench_document(loaded) == []
        table = render_bench_table(loaded)
        assert "packets/s" in table

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_bench_document({"name": "core"}, str(tmp_path / "x.json"))


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_bench_document([]) != []

    def test_reports_missing_keys_and_zero_throughput(self):
        document = run_core_bench(seed=0, **SMOKE_KWARGS)
        document["grid"][0]["packets"] = 0
        del document["seed"]
        problems = validate_bench_document(document)
        assert any("seed" in problem for problem in problems)
        assert any("packets" in problem for problem in problems)

    def test_rejects_other_schema_versions(self):
        document = run_core_bench(seed=0, **SMOKE_KWARGS)
        document["schema_version"] = BENCH_SCHEMA_VERSION - 1
        problems = validate_bench_document(document)
        assert any("schema_version" in problem for problem in problems)

    def test_committed_document_is_valid(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_core.json"
        document = json.loads(path.read_text())
        assert validate_bench_document(document) == []


class TestCli:
    def test_bench_core_parses(self):
        args = build_parser().parse_args(
            ["bench", "core", "--seed", "3", "--flows", "5", "--interfaces", "2"]
        )
        assert callable(args.func)
        assert args.seed == 3

    def test_bench_core_writes_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_core.json"
        exit_code = main(
            [
                "bench",
                "core",
                "--flows", "3",
                "--interfaces", "2",
                "--target-packets", "200",
                "--out", str(out),
            ]
        )
        assert exit_code == 0
        assert validate_bench_document(json.loads(out.read_text())) == []
        assert "packets/s" in capsys.readouterr().out


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

    def test_committed_baseline_lookup(self):
        document = run_core_bench(seed=0, **SMOKE_KWARGS)
        cell = committed_baseline_cell(document, 3, 2)
        assert cell is not None and cell["flows"] == 3
        assert committed_baseline_cell(document, 999, 2) is None
        assert committed_baseline_cell({}, 3, 2) is None

    def test_bench_obs_cli(self, capsys):
        exit_code = main(
            [
                "bench",
                "obs",
                "--flows", "5",
                "--interfaces", "2",
                "--target-packets", "200",
                "--repeats", "1",
                "--baseline", "does-not-exist.json",
            ]
        )
        assert exit_code == 0
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
#: path; the engine-owned transmit chain reads 15.5).
CALL_BUDGET_PER_PACKET = 15.6


def _calls_per_packet() -> float:
    """Python-level ``call`` events per packet on a fixed miDRR bulk cell.

    200 always-backlogged flows over 4 interfaces, closed loop. The
    count starts after a warm-up and covers ~3,000 packets, read with
    :func:`sys.setprofile` (no wall clock, so no noise).
    """
    import random
    import sys

    from repro.core.engine import SchedulingEngine
    from repro.net.flow import Flow
    from repro.net.interface import Interface
    from repro.net.sources import BulkSource
    from repro.schedulers.midrr import MiDrrScheduler
    from repro.sim.simulator import Simulator

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
        engine.add_flow(flow, source=BulkSource(sim, flow, packet_size=1500))
    engine.start()
    # 1500 B packets on 75 Mb/s in total: 6,250 packets per second.
    sim.run(until=0.5)
    interfaces = list(engine.interfaces.values())
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
    assert packets > 3000
    return calls[0] / packets


def test_per_packet_call_budget():
    """The per-packet path stays within its call budget: a new hop on
    the transmit chain (a listener, a helper, a property) shows here
    as a count, without wall-clock noise."""
    calls = _calls_per_packet()
    assert calls <= CALL_BUDGET_PER_PACKET, (
        f"{calls:.3f} Python-level calls per packet, budget "
        f"{CALL_BUDGET_PER_PACKET}"
    )


#: Python-level calls per ingested sample while the stats collector
#: drains :func:`_calls_per_sample`'s log (deterministic for a given
#: code path). The one-pass flush reads 0.0502: one call per new index
#: and one for the drain.
CALL_BUDGET_PER_SAMPLE = 0.051


def _calls_per_sample() -> float:
    """Python-level ``call`` events per sample in one collector drain.

    A fixed 5,000-sample log over 50 flows and 4 interfaces, in time
    order as the simulator clock produces it, drained by one read and
    counted with :func:`sys.setprofile`. The cyclic collector is off
    while counting: a collection it starts could run finalizers of
    objects other tests left behind.
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
        stats.pending.append(
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
        stats._flush()
    finally:
        sys.setprofile(previous)
        gc.enable()
    assert len(stats.samples) == 5000
    return calls[0] / 5000


def test_ingest_call_budget():
    """Draining the stats log stays within its call budget: a per-sample
    method hop in the collector's ingest shows here as a count."""
    calls = _calls_per_sample()
    assert calls <= CALL_BUDGET_PER_SAMPLE, (
        f"{calls:.3f} Python-level calls per ingested sample, budget "
        f"{CALL_BUDGET_PER_SAMPLE}"
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

    def test_cell_shape(self, cell):
        assert validate_fleet_cells([cell]) == []
        assert cell["devices"] == 2 and cell["workers"] == 1
        assert cell["packets"] > 0 and cell["packets_per_sec"] > 0

    def test_hash_mismatch_across_workers_detected(self, cell):
        """Two cells at the same device count must have simulated the
        identical fleet; a hash drift is a determinism bug, not noise."""
        other = dict(cell, workers=2, report_hash="0" * 64)
        problems = validate_fleet_cells([cell, other])
        assert any("report_hash differs" in problem for problem in problems)

    def test_validation_reports_broken_cells(self, cell):
        missing = {key: value for key, value in cell.items() if key != "packets"}
        problems = validate_fleet_cells([missing, "nope"])
        assert any("missing keys" in problem for problem in problems)
        assert any("not an object" in problem for problem in problems)
        assert validate_fleet_cells({}) == ["fleet must be a list"]

    def test_regression_gate(self, cell):
        current = {"fleet": [dict(cell, packets_per_sec=cell["packets_per_sec"] / 2)]}
        baseline = {"fleet": [cell]}
        failures = check_fleet_regression(current, baseline, 2, 1)
        assert failures and "below the floor" in failures[0]
        assert check_fleet_regression(baseline, baseline, 2, 1) == []
        # A generous load factor forgives the same slowdown.
        assert check_fleet_regression(
            current, baseline, 2, 1, load_factor=4.0
        ) == []

    def test_regression_needs_comparable_cell(self, cell):
        failures = check_fleet_regression({"fleet": [cell]}, {}, 2, 1)
        assert failures and "no comparable fleet" in failures[0]
        with pytest.raises(ConfigurationError):
            check_fleet_regression({}, {}, 2, 1, threshold=1.5)


@pytest.mark.bench
def test_full_default_grid():
    """The committed BENCH_core.json workload, end to end (slow)."""
    document = run_core_bench(seed=0)
    assert validate_bench_document(document) == []
    # 3 flow counts × 3 interface counts.
    assert len(document["grid"]) == 9


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
