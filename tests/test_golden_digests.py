"""Golden digests: the simulated decisions are pinned byte for byte.

Each test runs one workload and compares a SHA-256 digest of what it
decided against a literal. The literals pin the per-interface decision
streams (observed through the engine's decision probe, the tap the
figure traces use), the service samples and counters, the latency-SLO
report hash, a crash-equivalence decision trace, the simulated part
of a fleet report and the fairness auditor's state over chaos runs. A change that alters any tie-break — event order,
interface registration order, the DRR turn — moves a digest; a
refactor that claims "same behaviour" must leave every one of them
unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from collections import Counter

import pytest

from repro.analysis.slo import run_latency_slo
from repro.core.engine import SchedulingEngine
from repro.core.runner import run_scenario
from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from repro.experiments import fig1, fig6, fig10
from repro.faults.chaos import ChaosRun
from repro.faults.crashes import run_crash_equivalence
from repro.fleet import run_fleet
from repro.fleet.coordinator import REPORT_HASH_FIELDS
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.sources import BulkSource
from repro.perf import build_core_scenario
from repro.recovery import RecoverableScenarioRun
from repro.schedulers.midrr import MiDrrScheduler
from repro.sim.simulator import Simulator
from repro.units import mbps


class ProbeRecorder:
    """Record the per-interface decision stream through the probe tap."""

    def __init__(self, engine):
        self.engine = engine
        self.streams = {}

    def __call__(self, interface):
        packet = self.engine.scheduler.select(interface.interface_id)
        self.streams.setdefault(interface.interface_id, []).append(
            None if packet is None else (packet.flow_id, packet.size_bytes)
        )
        return packet


def fingerprint(result):
    """Everything a run decided, in a comparable, ordered form."""
    scheduler = result.engine.scheduler
    return {
        "samples": sorted(
            (s.time, s.flow_id, s.interface_id, s.size_bytes, s.delay)
            for s in result.stats.samples
        ),
        "bytes": {
            flow_id: result.stats.bytes_sent(flow_id)
            for flow_id in result.stats.flow_ids()
        },
        "completions": result.completions,
        "interfaces": {
            interface_id: (
                interface.packets_sent,
                round(interface.busy_time, 9),
            )
            for interface_id, interface in result.engine.interfaces.items()
        },
        "turns": scheduler.turns_taken,
        "flags": (scheduler.flags_set_total, scheduler.flags_cleared_total),
        "examined_multiset": Counter(scheduler.decision_flows_examined),
        "examined_len": len(scheduler.decision_flows_examined),
    }


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def scenario_digest(scenario, **knobs) -> str:
    """Digest of ``(fingerprint, decision streams)`` for a miDRR run.

    *knobs* are passed to :class:`MiDrrScheduler` (``flag_on``,
    ``deficit_scope``, ``exclusion``); none means the default variant.
    """
    box = {}

    def attach(sim, engine):
        box["probe"] = ProbeRecorder(engine)
        engine.set_decision_probe(box["probe"], every=1)

    factory = functools.partial(MiDrrScheduler, **knobs)
    result = run_scenario(scenario, factory, on_engine=attach)
    return digest((fingerprint(result), box["probe"].streams))


def fig7_workload():
    """A Figure 7-style stochastic mix: poisson and on/off flows."""
    return Scenario(
        name="fig7-workload",
        interfaces=(
            InterfaceSpec("wifi", mbps(4)),
            InterfaceSpec("lte", mbps(2)),
        ),
        flows=(
            FlowSpec("web", traffic=TrafficSpec("poisson", rate_bps=mbps(1.5))),
            FlowSpec(
                "sync",
                weight=2.0,
                interfaces=("wifi",),
                traffic=TrafficSpec(
                    "onoff", rate_bps=mbps(3), mean_on=0.5, mean_off=0.8
                ),
            ),
            FlowSpec(
                "stream",
                start_time=1.5,
                traffic=TrafficSpec("cbr", rate_bps=mbps(0.8)),
            ),
        ),
        duration=8.0,
        seed=11,
    )


#: Hand-wired bulk flows: ``(flow_id, weight, Π or None, packet size,
#: total bytes or None, start time)``. Two transfers are finite and
#: complete mid-run; packet sizes differ so deficits carry over turns.
WIRED_FLOWS = (
    ("f0", 1.0, None, 1500, None, 0.0),
    ("f1", 2.0, ("a",), 700, None, 0.0),
    ("f2", 0.5, ("b", "c"), 1500, 60_000, 0.0),
    ("f3", 1.0, ("a", "c"), 1000, 150_000, 0.5),
    ("f4", 4.0, ("c",), 400, None, 1.0),
    ("f5", 1.0, ("b",), 1200, 36_000, 0.25),
)


def wired_digest(target_depth: int, flows=WIRED_FLOWS, until: float = 4.0) -> str:
    """Digest of a hand-wired miDRR run over three interfaces.

    Every flow is fed by a :class:`BulkSource` keeping *target_depth*
    packets queued. A completion listener reads ``engine.stats`` the
    moment each finite transfer completes, so the digest also pins
    what the stats hold at that instant. Samples are kept in
    completion (append) order.
    """
    sim = Simulator()
    engine = SchedulingEngine(sim, MiDrrScheduler())
    for interface_id, rate in (("a", mbps(4)), ("b", mbps(2)), ("c", mbps(1))):
        engine.add_interface(Interface(sim, interface_id, rate))
    probe = ProbeRecorder(engine)
    engine.set_decision_probe(probe, every=1)
    completions = []

    def completed(flow):
        stats = engine.stats
        completions.append(
            (
                flow.flow_id,
                sim.now,
                flow.bytes_sent,
                flow.packets_sent,
                stats.bytes_sent(flow.flow_id),
                len(stats.samples),
                sorted(stats.flow_ids()),
            )
        )

    engine.on_flow_completed(completed)
    for flow_id, weight, allowed, size, total, start in flows:
        flow = Flow(flow_id, weight=weight, allowed_interfaces=allowed)
        source = BulkSource(
            sim,
            flow,
            packet_size=size,
            total_bytes=total,
            target_depth=target_depth,
            start_time=start,
        )
        engine.add_flow(flow, source=source)
    engine.start()
    sim.run(until=until)
    scheduler = engine.scheduler
    samples = [
        (s.time, s.flow_id, s.interface_id, s.size_bytes, s.delay)
        for s in engine.stats.samples
    ]
    return digest(
        (
            samples,
            completions,
            probe.streams,
            scheduler.turns_taken,
            (scheduler.flags_set_total, scheduler.flags_cleared_total),
            scheduler.decision_flows_examined,
            sorted(engine.flows),
        )
    )


class TestScenarioDigests:
    def test_fig1a(self):
        scenario = fig1.ALL_SCENARIOS["fig1a"]()
        assert scenario_digest(scenario) == (
            "300a7dd8bfce9243476b500003b9013d8ec3bbc6b8df374586214dff81e35366"
        )

    def test_fig6_first_phase(self):
        scenario = dataclasses.replace(fig6.scenario(), duration=12.0)
        assert scenario_digest(scenario) == (
            "3778e5d9dfd2ab197615cd632266ed48a1b4e0fdf03c546b6ea3da2ab7a18a01"
        )

    @pytest.mark.parametrize(
        "flows,interfaces,packets,expected",
        [
            (100, 4, 2000, "d5bc40949afdc2a79a01e4186940374620e5c72c92936a2801d3ba12d1167f49"),
            # Capacity-ratio rates make completions on different
            # interfaces collide at the same instant: this cell pins
            # the interfaces' tx_priority tie-break.
            (200, 8, 2000, "f2e6b05438ad4a22189cdd42336a815bba5bb69844baf16e97cd7e8c209218a3"),
            (20, 4, 500, "7a04be2a63de2c7f7c5f171bed0ec0b6323fd9ed00d416d12a7228c17bbb905e"),
        ],
        ids=["100x4", "200x8", "20x4"],
    )
    def test_core_cell(self, flows, interfaces, packets, expected):
        scenario = build_core_scenario(
            flows, interfaces, seed=0, target_packets=packets
        )
        assert scenario_digest(scenario) == expected


class TestVariantDigests:
    """The non-default miDRR knobs take branches of ``select()`` and of
    the flag/deficit bookkeeping that the default digests never reach."""

    @pytest.mark.parametrize(
        "knobs,expected",
        [
            ({"flag_on": "packet"}, "59f87c65d2e8a13f9911ab242df82901b8f2c8e566e86e043e87a6dd4af60ef2"),
            ({"deficit_scope": "flow"}, "be615f13daebab5923124c084cf9bee454e56fb62137a46aaa04d0baf0d875f9"),
            ({"exclusion": "counter"}, "86eb124428a374e2d67a886135fceb071c17069b796a0db06995fb9342e3a5aa"),
        ],
        ids=["packet-flags", "flow-deficit", "counter"],
    )
    def test_core_cell_20x4(self, knobs, expected):
        scenario = build_core_scenario(20, 4, seed=0, target_packets=500)
        assert scenario_digest(scenario, **knobs) == expected

    @pytest.mark.parametrize(
        "knobs,expected",
        [
            ({"flag_on": "packet"}, "3778e5d9dfd2ab197615cd632266ed48a1b4e0fdf03c546b6ea3da2ab7a18a01"),
            ({"deficit_scope": "flow"}, "3778e5d9dfd2ab197615cd632266ed48a1b4e0fdf03c546b6ea3da2ab7a18a01"),
            ({"exclusion": "counter"}, "5026966cc69d636ed5a4c69cb9b2c7760558910e8ee0394b85d9bafe52750a3d"),
        ],
        ids=["packet-flags", "flow-deficit", "counter"],
    )
    def test_fig6_first_phase(self, knobs, expected):
        scenario = dataclasses.replace(fig6.scenario(), duration=12.0)
        assert scenario_digest(scenario, **knobs) == expected


class TestWiredDigests:
    """Bulk sources wired by hand: shallow refill depths and transfers
    that complete while their completion listeners read the stats."""

    @pytest.mark.parametrize(
        "depth,expected",
        [
            # With one packet queued, the pull that empties the backlog
            # must refill it before select() tests for a drained flow.
            (1, "4b18796e83a379f43ccf46cc4d7464279ed30b435394b2a5c7b73fc17005f610"),
            (2, "182d48a5feb22f1819a22ffb77836ad74ac464a126a4293f6360448dc65d7bf4"),
        ],
        ids=["depth1", "depth2"],
    )
    def test_shallow_bulk_depth(self, depth, expected):
        assert wired_digest(depth) == expected

    def test_finite_transfers_complete_mid_run(self):
        """Completion listeners run before the completing packet's
        stats sample is recorded, and see the stats as of then."""
        flows = tuple(
            (f"t{k}", 1.0 + k % 3, (("a", "b"), ("b", "c"), None)[k % 3],
             (1500, 1000, 600)[k % 3], 20_000 + 9_000 * k, 0.1 * k)
            for k in range(8)
        )
        assert wired_digest(8, flows=flows, until=3.0) == (
            "62b92e7fbca870c8969d0d873af4f7002d8a9e91a14c72f33d00592bb3c24ffd"
        )


def pair_rows(matrix):
    """A ``{(flow, interface): bytes}`` matrix as sorted JSON-safe rows."""
    return sorted([flow, interface, size] for (flow, interface), size in matrix.items())


class TestServiceWindowDigests:
    """The cluster matrices the Figure 8 and Figure 11 panels read, on
    the figures' own service logs."""

    def test_figure_cluster_windows(self):
        fig6_result = fig6.run()
        fig6_windows = fig6.phase_windows(fig6_result)
        fig10_stats = fig10.run().proxy.stats
        value = {
            "fig6": {
                phase: pair_rows(fig6_result.stats.pair_service_in_window(start, end))
                for phase, (start, end) in fig6_windows.items()
            },
            "fig10": [
                pair_rows(fig10_stats.pair_service_in_window(start + 2, end - 0.5))
                for start, end, _, _ in fig10.CAPACITY_PHASES
            ],
            "fig6_matrix": pair_rows(fig6_result.stats.service_matrix()),
        }
        canonical = json.dumps(value, sort_keys=True)
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == (
            "2d35781404fdd7643783308e7e476a793c9a9351776bcf29f1c83490449d6158"
        )


class TestAuditorDigests:
    """Everything the fairness auditor tracked and concluded over three
    chaos runs: ticks, audits, drift, alerts, the quiescence clock, the
    masked set and the solver instance with its counters. The read
    cursor is left out: it counts journal entries, not conclusions."""

    def test_chaos_auditor_state(self):
        states = []
        for seed in (0, 1, 2):
            run = ChaosRun(seed, 30.0, with_auditor=True)
            run.run()
            state = run.auditor.snapshot_state()
            state.pop("cursor", None)
            states.append(state)
        canonical = json.dumps(states, sort_keys=True)
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == (
            "8ed5eb034c807847b7fd80fab9eae3c4a8555b16aeed548aa1cdb00ba9432a6b"
        )


class TestReportDigests:
    def test_latency_slo_report_hash(self):
        report = run_latency_slo(seed=0, duration=20.0)
        assert report.report_hash() == (
            "205dcd591ae51c0415a20b789e4aa13309b4fc2112183536ac14ae621fdee9a3"
        )

    def test_fig7_crash_equivalence_trace(self):
        reference = RecoverableScenarioRun(fig7_workload(), MiDrrScheduler)
        reference.run_to_completion()
        assert digest(list(reference.trace.entries)) == (
            "9c879911738b57401ea05043090276c9842147ce893aeeea2739171cdb08a574"
        )
        report = run_crash_equivalence(
            fig7_workload(), MiDrrScheduler, (150, 1200, 3500)
        )
        assert report.total_decisions == len(reference.trace.entries)
        assert report.equivalent

    def test_fleet_simulation_digest(self):
        """Everything the fleet simulated, without the report's schema
        version and config echo (which later schemas may reshape)."""
        report = run_fleet(32, executor="serial")
        simulated = {
            key: report[key]
            for key in REPORT_HASH_FIELDS
            if key not in ("schema_version", "fleet")
        }
        canonical = json.dumps(simulated, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == (
            "b8ed9eb1246e22b62f2cae848d360472eaae6cb596ed13bd5744239761bbb08e"
        )
