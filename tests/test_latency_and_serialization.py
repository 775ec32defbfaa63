"""Tests for per-packet latency accounting and scenario serialization."""

import json

import pytest

from repro.analysis.cdf import EmpiricalCdf
from repro.core.engine import SchedulingEngine
from repro.core.runner import run_scenario
from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from repro.errors import ConfigurationError
from repro.net.flow import Flow
from repro.net.interface import CapacityStep, Interface
from repro.net.packet import Packet
from repro.net.sink import StatsCollector
from repro.schedulers.midrr import MiDrrScheduler
from repro.units import mbps


def deliver(sim, packets):
    """Stats of a scheduling engine that sends *packets* (flow ``a``)
    over one 12 kb/s interface: 1 s per 1500 B packet."""
    engine = SchedulingEngine(sim, MiDrrScheduler())
    engine.add_interface(Interface(sim, "if1", 12_000))
    flow = Flow("a")
    engine.add_flow(flow)
    engine.start()
    for packet in packets:
        flow.offer(packet)
    sim.run()
    return engine.stats


class TestDelayAccounting:
    def test_delay_recorded_by_engine(self, sim):
        stats = deliver(sim, [Packet(flow_id="a", size_bytes=1500, created_at=0.0)])
        delays = stats.delays("a")
        assert delays == [pytest.approx(1.0)]

    def test_queueing_delay_included(self, sim):
        stats = deliver(
            sim,
            [
                Packet(flow_id="a", size_bytes=1500, created_at=0.0),
                Packet(flow_id="a", size_bytes=1500, created_at=0.0),
            ],
        )
        delays = stats.delays("a")
        # Second packet waited one transmission behind the first.
        assert delays == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_manual_record_without_delay(self, sim):
        stats = StatsCollector(sim)
        stats.record("a", "if1", 100)
        assert stats.delays("a") == []

    def test_window_filtering(self, sim):
        stats = StatsCollector(sim)
        sim.schedule(1.0, stats.record, "a", "if1", 100, 0.2)
        sim.schedule(5.0, stats.record, "a", "if1", 100, 0.9)
        sim.run()
        assert stats.delays("a", start=2.0) == [pytest.approx(0.9)]

    def test_voip_latency_motivation_scenario(self):
        """The paper's intro: low-load VoIP sees low delay under miDRR
        even next to a saturating bulk flow."""
        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(2)),),
            flows=(
                FlowSpec(
                    "voip",
                    traffic=TrafficSpec("cbr", rate_bps=mbps(0.064), packet_size=200),
                ),
                FlowSpec("bulk"),
            ),
            duration=20.0,
        )
        result = run_scenario(scenario, MiDrrScheduler)
        delays = result.stats.delays("voip", start=2.0)
        assert delays, "VoIP packets were delivered"
        cdf = EmpiricalCdf(delays)
        # One 1500 B bulk packet of head-of-line blocking is 6 ms at
        # 2 Mb/s; the p99 stays within a few packets of that.
        assert cdf.quantile(0.99) < 0.05


class TestScenarioSerialization:
    def _scenario(self):
        return Scenario(
            name="roundtrip",
            seed=7,
            interfaces=(
                InterfaceSpec(
                    "if1",
                    mbps(3),
                    capacity_steps=(CapacityStep(5.0, mbps(1)),),
                ),
                InterfaceSpec("if2", mbps(10)),
            ),
            flows=(
                FlowSpec(
                    "a",
                    weight=2.0,
                    interfaces=("if1",),
                    traffic=TrafficSpec("bulk", total_bytes=1_000_000),
                ),
                FlowSpec(
                    "p",
                    start_time=3.0,
                    traffic=TrafficSpec("poisson", rate_bps=mbps(0.5)),
                ),
            ),
            duration=30.0,
        )

    def test_roundtrip_preserves_everything(self):
        original = self._scenario()
        restored = Scenario.from_dict(original.to_dict())
        assert restored == original

    def test_json_serializable(self):
        document = json.dumps(self._scenario().to_dict())
        restored = Scenario.from_dict(json.loads(document))
        assert restored == self._scenario()

    def test_restored_scenario_runs_identically(self):
        original = self._scenario()
        restored = Scenario.from_dict(original.to_dict())
        first = run_scenario(original, MiDrrScheduler)
        second = run_scenario(restored, MiDrrScheduler)
        assert first.stats.bytes_sent("a") == second.stats.bytes_sent("a")
        assert first.completions == second.completions

    def test_defaults_filled_in(self):
        document = {
            "duration": 10.0,
            "interfaces": [{"interface_id": "if1", "rate_bps": 1e6}],
            "flows": [{"flow_id": "a"}],
        }
        scenario = Scenario.from_dict(document)
        assert scenario.seed == 0
        assert scenario.flows[0].weight == 1.0
        assert scenario.flows[0].traffic.kind == "bulk"

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"duration": 10.0, "flows": []})

    def test_invalid_values_rejected_via_validation(self):
        document = {
            "duration": 10.0,
            "interfaces": [{"interface_id": "if1", "rate_bps": -5}],
            "flows": [{"flow_id": "a"}],
        }
        with pytest.raises(ConfigurationError):
            Scenario.from_dict(document)
