"""Unit tests for the simulated interface."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.interface import CapacityStep, Interface
from repro.net.packet import Packet


def supply_n(packets):
    """A packet source serving from a fixed list."""
    remaining = list(packets)

    def source(interface):
        return remaining.pop(0) if remaining else None

    return source


def pkt(size=1500, flow="f"):
    return Packet(flow_id=flow, size_bytes=size)


class TestTransmission:
    def test_transmits_at_line_rate(self, sim):
        # 1500 B at 12 kb/s = 1 s per packet.
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt(), pkt()]))
        done = []
        interface.on_sent(lambda i, p: done.append(sim.now))
        interface.kick()
        sim.run()
        assert done == pytest.approx([1.0, 2.0])

    def test_busy_flag_during_transmission(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt()]))
        interface.kick()
        assert interface.busy
        sim.run()
        assert not interface.busy

    def test_kick_while_busy_is_noop(self, sim):
        sent = []
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt(), pkt()]))
        interface.on_sent(lambda i, p: sent.append(p))
        interface.kick()
        interface.kick()  # ignored: busy
        sim.run()
        assert len(sent) == 2  # not duplicated

    def test_counters(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt(100), pkt(200)]))
        interface.kick()
        sim.run()
        assert interface.packets_sent == 2
        assert interface.bytes_sent == 300

    def test_kick_without_source_raises(self, sim):
        interface = Interface(sim, "if1", 1e6)
        with pytest.raises(SimulationError):
            interface.kick()

    def test_double_attach_rejected(self, sim):
        interface = Interface(sim, "if1", 1e6)
        interface.attach_source(lambda i: None)
        with pytest.raises(ConfigurationError):
            interface.attach_source(lambda i: None)


class TestCapacity:
    def test_rate_change_affects_next_packet(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt(), pkt()]))
        done = []
        interface.on_sent(lambda i, p: done.append(sim.now))
        sim.schedule(0.5, interface.set_rate, 24_000)  # mid-flight
        interface.kick()
        sim.run()
        # First packet keeps its original 1 s; second takes 0.5 s.
        assert done == pytest.approx([1.0, 1.5])

    def test_capacity_schedule(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.apply_capacity_schedule(
            [CapacityStep(1.0, 24_000), CapacityStep(2.0, 6_000)]
        )
        interface.attach_source(supply_n([]))
        sim.run(until=3.0)
        assert interface.rate_bps == 6_000

    @pytest.mark.parametrize("rate", [0, -5])
    def test_invalid_rates_rejected(self, sim, rate):
        with pytest.raises(ConfigurationError):
            Interface(sim, "if1", rate)
        interface = Interface(sim, "if1", 1e6)
        with pytest.raises(ConfigurationError):
            interface.set_rate(rate)

    @pytest.mark.parametrize("rate", [0, -5])
    def test_transmit_rejects_a_restored_bad_rate(self, sim, rate):
        # restore_state writes the rate unchecked; the per-packet
        # serialization guard is what stops a zero rate from scheduling
        # a completion at +inf.
        interface = Interface(sim, "if1", 12_000)
        state = interface.snapshot_state()
        state["rate_bps"] = rate
        interface.restore_state(state)
        interface.attach_source(supply_n([pkt()]))
        with pytest.raises(ValueError, match="rate must be positive"):
            interface.kick()

    def test_invalid_step_rejected(self):
        with pytest.raises(ConfigurationError):
            CapacityStep(1.0, 0)

    def test_utilization(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt()]))  # 1 s of work
        interface.kick()
        sim.run(until=2.0)
        assert interface.utilization() == pytest.approx(0.5)


class TestUpDown:
    def test_bring_down_stops_new_work(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt(), pkt()]))
        sent = []
        interface.on_sent(lambda i, p: sent.append(p))
        interface.kick()
        interface.bring_down()
        sim.run()
        assert len(sent) == 1  # in-flight packet completed, no more pulled

    def test_bring_up_resumes(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt()]))
        interface.bring_down()
        interface.kick()  # ignored while down
        interface.bring_up()  # kicks internally
        sim.run()
        assert interface.packets_sent == 1


class TestStateListeners:
    def test_listeners_fire_on_transitions(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([]))
        seen = []
        interface.on_state_change(lambda i, up: seen.append((sim.now, up)))
        interface.bring_down()
        interface.bring_up()
        assert seen == [(0.0, False), (0.0, True)]

    def test_transitions_are_idempotent(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([]))
        seen = []
        interface.on_state_change(lambda i, up: seen.append(up))
        interface.bring_down()
        interface.bring_down()  # no duplicate notification
        interface.bring_up()
        interface.bring_up()
        assert seen == [False, True]
        assert interface.down_count == 1

    def test_down_time_accumulates(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([]))
        sim.schedule(1.0, interface.bring_down)
        sim.schedule(3.0, interface.bring_up)
        sim.schedule(5.0, interface.bring_down)
        sim.schedule(6.0, interface.bring_up)
        sim.run(until=10.0)
        assert interface.down_time == pytest.approx(3.0)
        assert interface.down_count == 2


class TestUpDownRobustness:
    def test_in_flight_completion_fires_while_down(self, sim):
        interface = Interface(sim, "if1", 12_000)  # 1 s per 1500 B
        interface.attach_source(supply_n([pkt(), pkt()]))
        done = []
        interface.on_sent(lambda i, p: done.append((sim.now, interface.up)))
        interface.kick()
        sim.schedule(0.5, interface.bring_down)
        sim.run(until=5.0)
        # The in-flight packet completed (and its listener fired) while
        # the interface was already down; no new packet was pulled.
        assert done == [(pytest.approx(1.0), False)]
        assert interface.packets_sent == 1

    def test_no_new_pull_until_bring_up(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt(), pkt()]))
        done = []
        interface.on_sent(lambda i, p: done.append(sim.now))
        interface.kick()
        sim.schedule(0.5, interface.bring_down)
        sim.schedule(4.0, interface.bring_up)
        sim.run()
        assert done == pytest.approx([1.0, 5.0])

    def test_set_rate_while_down_is_deferred(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt()]))
        done = []
        interface.on_sent(lambda i, p: done.append(sim.now))
        interface.bring_down()
        interface.set_rate(24_000)  # legal while down, recorded now
        assert interface.rate_bps == 24_000
        sim.schedule(2.0, interface.bring_up)
        sim.run()
        assert done == pytest.approx([2.5])  # 1500 B at the new 24 kb/s

    def test_capacity_step_lands_mid_outage(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt()]))
        interface.apply_capacity_schedule([CapacityStep(1.0, 24_000)])
        done = []
        interface.on_sent(lambda i, p: done.append(sim.now))
        sim.schedule(0.5, interface.bring_down)
        sim.schedule(2.0, interface.bring_up)
        sim.run()
        assert done == pytest.approx([2.5])


class TestEgressFilters:
    def test_consuming_filter_skips_sent_listeners(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt(), pkt()]))
        delivered = []
        interface.on_sent(lambda i, p: delivered.append(p))
        interface.add_egress_filter(lambda i, p: False)
        interface.kick()
        sim.run()
        assert delivered == []
        assert interface.packets_sent == 2  # transmitted...
        assert interface.packets_consumed == 2  # ...but never delivered

    def test_consumed_listeners_hear_only_consumed_packets(self, sim):
        interface = Interface(sim, "if1", 12_000)
        first, second = pkt(), pkt()
        interface.attach_source(supply_n([first, second]))
        consumed, delivered = [], []
        interface.on_consumed(lambda i, p: consumed.append((i, p)))
        interface.on_sent(lambda i, p: delivered.append(p))
        interface.add_egress_filter(lambda i, p: p is not first)
        interface.kick()
        sim.run()
        assert consumed == [(interface, first)]
        assert delivered == [second]

    def test_filters_run_in_order_and_short_circuit(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt()]))
        calls = []
        interface.add_egress_filter(lambda i, p: calls.append("first") or False)
        interface.add_egress_filter(lambda i, p: calls.append("second") or True)
        interface.kick()
        sim.run()
        assert calls == ["first"]  # the second filter never saw the packet

    def test_passing_filters_deliver(self, sim):
        interface = Interface(sim, "if1", 12_000)
        interface.attach_source(supply_n([pkt()]))
        delivered = []
        interface.on_sent(lambda i, p: delivered.append(p))
        interface.add_egress_filter(lambda i, p: True)
        interface.add_egress_filter(lambda i, p: True)
        interface.kick()
        sim.run()
        assert len(delivered) == 1
        assert interface.packets_consumed == 0
