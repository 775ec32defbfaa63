"""Unit tests for the scheduling engine."""

import random

import pytest

from tests.helpers import make_flow

from repro.core.engine import SchedulingEngine
from repro.errors import ConfigurationError
from repro.faults.processes import PacketLossInjector
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.packet import Packet
from repro.net.sources import (
    BulkSource,
    CbrSource,
    OnOffSource,
    PoissonSource,
    TraceSource,
)
from repro.schedulers.midrr import MiDrrScheduler


def build_engine(sim, rates=(12_000,)):
    engine = SchedulingEngine(sim, MiDrrScheduler())
    for index, rate in enumerate(rates, start=1):
        engine.add_interface(Interface(sim, f"if{index}", rate))
    return engine


class TestWiring:
    def test_duplicate_interface_rejected(self, sim):
        engine = build_engine(sim)
        with pytest.raises(ConfigurationError):
            engine.add_interface(Interface(sim, "if1", 1e6))

    def test_duplicate_flow_rejected(self, sim):
        engine = build_engine(sim)
        engine.add_flow(make_flow("a"))
        with pytest.raises(ConfigurationError):
            engine.add_flow(make_flow("a"))

    def test_transmits_prebacklogged_flow(self, sim):
        engine = build_engine(sim)
        engine.add_flow(make_flow("a", backlog_packets=3))
        engine.start()
        sim.run()
        assert engine.stats.bytes_sent("a") == 4500

    def test_arrival_wakes_idle_interface(self, sim):
        engine = build_engine(sim)
        flow = make_flow("a")
        engine.add_flow(flow)
        engine.start()
        sim.run()  # nothing to do yet
        sim.schedule(5.0, flow.offer, Packet(flow_id="a", size_bytes=1500))
        sim.run()
        assert engine.stats.bytes_sent("a") == 1500
        assert sim.now == pytest.approx(6.0)  # 5.0 + 1 s transmission

    def test_flow_accounting(self, sim):
        engine = build_engine(sim)
        flow = make_flow("a", backlog_packets=2)
        engine.add_flow(flow)
        engine.start()
        sim.run()
        assert flow.bytes_sent == 3000
        assert flow.packets_sent == 2

    def test_sent_packets_accrue_to_their_flow(self, sim):
        engine = build_engine(sim)
        flow = make_flow("a")
        engine.add_flow(flow)
        flow.offer(Packet(flow_id="a", size_bytes=700))
        flow.offer(Packet(flow_id="a", size_bytes=300))
        engine.start()
        sim.run()
        assert flow.bytes_sent == 1000
        assert flow.packets_sent == 2
        assert engine.stats.bytes_sent("a") == 1000


class TestCompletion:
    def test_finite_transfer_completes_and_retires(self, sim):
        engine = build_engine(sim)
        flow = Flow("a")
        source = BulkSource(sim, flow, packet_size=1500, total_bytes=4500)
        engine.add_flow(flow, source=source)
        completions = []
        engine.on_flow_completed(lambda f: completions.append((f.flow_id, sim.now)))
        engine.start()
        sim.run()
        assert completions == [("a", pytest.approx(3.0))]
        assert flow.completed_at == pytest.approx(3.0)
        assert "a" not in engine.flows

    def test_completion_frees_capacity_for_peer(self, sim):
        engine = build_engine(sim)
        short = Flow("short")
        short_source = BulkSource(sim, short, packet_size=1500, total_bytes=3000)
        long_flow = Flow("long")
        long_source = BulkSource(sim, long_flow, packet_size=1500, total_bytes=15000)
        engine.add_flow(short, source=short_source)
        engine.add_flow(long_flow, source=long_source)
        engine.start()
        sim.run()
        # All 18000 bytes sent back to back: 12 s at 12 kb/s.
        assert sim.now == pytest.approx(12.0)
        assert long_flow.completed_at == pytest.approx(12.0)

    @pytest.mark.parametrize("loss", [0.0, 1.0])
    def test_transfer_completes_whether_or_not_delivered(self, sim, loss):
        """A finite transfer completes when its last packet finishes
        transmission, even if an egress filter eats that packet."""
        engine = build_engine(sim, rates=(1e6,))
        PacketLossInjector(
            sim, engine.interfaces["if1"], random.Random(0), loss_probability=loss
        )
        flow = Flow("a")
        engine.add_flow(
            flow, source=BulkSource(sim, flow, packet_size=1500, total_bytes=5000)
        )
        completions = []
        engine.on_flow_completed(lambda f: completions.append((f.flow_id, sim.now)))
        engine.start()
        sim.run()
        # 5000 B at 1 Mb/s.
        assert completions == [("a", pytest.approx(0.04))]
        assert "a" not in engine.flows
        # A consumed packet is not service.
        assert flow.bytes_sent == engine.stats.bytes_sent("a") == (0 if loss else 5000)

    def test_unbounded_flow_never_completes(self, sim):
        engine = build_engine(sim)
        flow = Flow("a")
        source = BulkSource(sim, flow)  # unbounded
        engine.add_flow(flow, source=source)
        engine.start()
        sim.run(until=10.0)
        assert flow.completed_at is None
        assert engine.stats.bytes_sent("a") > 0

    @pytest.mark.parametrize("kind", ["cbr", "poisson", "onoff", "trace"])
    def test_open_loop_source_never_completes(self, sim, kind):
        """A source without ``exhausted`` drives no auto-completion:
        the flow's queue drains between arrivals and the flow stays."""
        engine = build_engine(sim, rates=(1e6,))
        flow = Flow("a")
        rng = random.Random(0)
        source = {
            "cbr": lambda: CbrSource(sim, flow, rate_bps=120_000),
            "poisson": lambda: PoissonSource(sim, flow, rate_pps=10, rng=rng),
            "onoff": lambda: OnOffSource(
                sim, flow, peak_rate_bps=120_000, mean_on=1.0, mean_off=1.0, rng=rng
            ),
            "trace": lambda: TraceSource(sim, flow, [(0.5, 1500), (2.5, 1500)]),
        }[kind]()
        engine.add_flow(flow, source=source)
        engine.start()
        sim.run(until=5.0)
        assert flow.completed_at is None
        assert "a" in engine.flows
        assert engine.stats.bytes_sent("a") > 0

    def test_remove_flow_stops_service(self, sim):
        engine = build_engine(sim)
        flow = make_flow("a", backlog_packets=100)
        engine.add_flow(flow)
        engine.start()
        sim.schedule(2.5, engine.remove_flow, "a")
        sim.run(until=10.0)
        # ~2-3 packets in 2.5 s, then nothing.
        assert engine.stats.bytes_sent("a") <= 3 * 1500


class TestMultiInterface:
    def test_two_interfaces_share_one_flow(self, sim):
        engine = build_engine(sim, rates=(12_000, 12_000))
        flow = Flow("a")
        BulkSource(sim, flow)
        engine.add_flow(flow)
        engine.start()
        sim.run(until=10.0)
        # Aggregation: both interfaces work → ~20 packets total.
        assert engine.stats.bytes_sent("a") == pytest.approx(30_000, rel=0.15)

    def test_unwilling_interface_stays_idle(self, sim):
        engine = build_engine(sim, rates=(12_000, 12_000))
        flow = Flow("a", allowed_interfaces=["if1"])
        BulkSource(sim, flow)
        engine.add_flow(flow)
        engine.start()
        sim.run(until=10.0)
        assert engine.stats.interface_bytes("if1") > 0
        assert engine.stats.interface_bytes("if2") == 0


class TestDeadlineAccounting:
    """Engine-level miss accounting is scheduler-agnostic (ISSUE 9)."""

    def test_misses_counted_under_midrr(self, sim):
        engine = build_engine(sim, rates=(8_000,))  # 1 s per 1000 B
        flow = Flow("slow", deadline_budget=0.5)
        engine.add_flow(flow)
        for _ in range(2):
            flow.offer(Packet(flow_id="slow", size_bytes=1000))
        engine.start()
        sim.run()
        assert engine.deadline_packets_total == 2
        assert engine.deadline_misses_total == 2
        assert engine.deadline_misses_by_flow == {"slow": 2}

    def test_met_deadlines_do_not_count_as_misses(self, sim):
        engine = build_engine(sim, rates=(8_000_000,))
        flow = Flow("fast", deadline_budget=0.5)
        engine.add_flow(flow)
        flow.offer(Packet(flow_id="fast", size_bytes=1000))
        engine.start()
        sim.run()
        assert engine.deadline_packets_total == 1
        assert engine.deadline_misses_total == 0

    def test_elastic_packets_ignored(self, sim):
        engine = build_engine(sim, rates=(8_000,))
        engine.add_flow(make_flow("e", backlog_packets=2))
        engine.start()
        sim.run()
        assert engine.deadline_packets_total == 0

    def test_listener_receives_lateness(self, sim):
        engine = build_engine(sim, rates=(8_000,))
        flow = Flow("slow", deadline_budget=0.25)
        engine.add_flow(flow)
        flow.offer(Packet(flow_id="slow", size_bytes=1000))
        seen = []
        engine.on_deadline_miss(
            lambda f, packet, lateness: seen.append((f.flow_id, lateness))
        )
        engine.start()
        sim.run()
        assert len(seen) == 1
        assert seen[0][0] == "slow"
        assert seen[0][1] == pytest.approx(0.75)

    def test_counters_survive_snapshot(self, sim):
        import json

        engine = build_engine(sim, rates=(8_000,))
        flow = Flow("slow", deadline_budget=0.5)
        engine.add_flow(flow)
        for _ in range(2):
            flow.offer(Packet(flow_id="slow", size_bytes=1000))
        engine.start()
        sim.run()
        state = json.loads(json.dumps(engine.snapshot_state()))

        from repro.sim.simulator import Simulator

        sim2 = Simulator()
        engine2 = build_engine(sim2, rates=(8_000,))
        engine2.add_flow(Flow("slow", deadline_budget=0.5))
        engine2.restore_state(state)
        assert engine2.deadline_packets_total == 2
        assert engine2.deadline_misses_total == 2
        assert engine2.deadline_misses_by_flow == {"slow": 2}
