"""Unit tests for the Flow object."""

import pytest

from repro.errors import ConfigurationError, PreferenceError
from repro.net.flow import Flow
from repro.net.packet import Packet


def pkt(flow="f", size=100):
    return Packet(flow_id=flow, size_bytes=size)


class TestConstruction:
    def test_defaults(self):
        flow = Flow("f")
        assert flow.weight == 1.0
        assert flow.allowed_interfaces is None
        assert not flow.backlogged

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Flow("")

    @pytest.mark.parametrize("weight", [0, -1.5])
    def test_nonpositive_weight_rejected(self, weight):
        with pytest.raises(PreferenceError):
            Flow("f", weight=weight)

    def test_empty_interface_set_rejected(self):
        with pytest.raises(PreferenceError):
            Flow("f", allowed_interfaces=[])


class TestDeadlinesAndDemand:
    def test_deadline_budget_stamps_offered_packets(self):
        flow = Flow("f", deadline_budget=0.25)
        packet = Packet(flow_id="f", size_bytes=100, created_at=2.0)
        flow.offer(packet)
        assert packet.deadline == pytest.approx(2.25)

    def test_explicit_deadline_not_overwritten(self):
        flow = Flow("f", deadline_budget=0.25)
        packet = Packet(flow_id="f", size_bytes=100, created_at=2.0, deadline=9.0)
        flow.offer(packet)
        assert packet.deadline == 9.0

    def test_no_budget_leaves_packets_elastic(self):
        flow = Flow("f")
        packet = pkt()
        flow.offer(packet)
        assert packet.deadline is None

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(ConfigurationError):
            Flow("f", deadline_budget=budget)

    @pytest.mark.parametrize("rate", [0.0, -5.0])
    def test_nonpositive_nominal_rate_rejected(self, rate):
        with pytest.raises(ConfigurationError):
            Flow("f", nominal_rate_bps=rate)

    def test_budget_and_demand_survive_snapshot(self):
        import json

        flow = Flow("f", deadline_budget=0.5, nominal_rate_bps=1e6)
        state = json.loads(json.dumps(flow.snapshot_state()))
        restored = Flow("f")
        restored.restore_state(state)
        assert restored.deadline_budget == 0.5
        assert restored.nominal_rate_bps == 1e6

    def test_pre_deadline_snapshots_still_restore(self):
        flow = Flow("f")
        state = flow.snapshot_state()
        del state["deadline_budget"]  # a checkpoint written before ISSUE 9
        del state["nominal_rate_bps"]
        restored = Flow("f")
        restored.restore_state(state)
        assert restored.deadline_budget is None
        assert restored.nominal_rate_bps is None


class TestInterfacePreferences:
    def test_none_means_any(self):
        flow = Flow("f")
        assert flow.willing_to_use("anything")

    def test_restricted_set(self):
        flow = Flow("f", allowed_interfaces=["if2"])
        assert flow.willing_to_use("if2")
        assert not flow.willing_to_use("if1")

    def test_restrict_to_updates_live(self):
        flow = Flow("f")
        flow.restrict_to({"if1"})
        assert flow.willing_to_use("if1")
        assert not flow.willing_to_use("if2")

    def test_restrict_to_empty_rejected(self):
        flow = Flow("f")
        with pytest.raises(PreferenceError):
            flow.restrict_to(set())


class TestBacklogAndListeners:
    def test_offer_updates_backlog(self):
        flow = Flow("f")
        flow.offer(pkt())
        assert flow.backlogged
        assert flow.backlog_bytes == 100

    def test_arrival_listener_fires_on_accept(self):
        flow = Flow("f")
        seen = []
        flow.on_arrival(lambda f, p: seen.append(p))
        flow.offer(pkt())
        assert len(seen) == 1

    def test_arrival_listener_skipped_on_drop(self):
        flow = Flow("f", max_queue_bytes=50)
        seen = []
        flow.on_arrival(lambda f, p: seen.append(p))
        assert not flow.offer(pkt(size=100))
        assert seen == []

    @pytest.mark.parametrize("max_queue_bytes", [None, 1000])
    def test_backlogged_listener_fires_on_empty_to_backlogged(self, max_queue_bytes):
        # The unbounded queue takes Flow.offer's inlined accept path,
        # the bounded one FlowQueue.enqueue: both wake on the first
        # packet only, ahead of the arrival listeners, and a rejected
        # arrival wakes nobody.
        flow = Flow("f", max_queue_bytes=max_queue_bytes)
        calls = []
        flow.on_backlogged(lambda f: calls.append(("backlogged", len(f.queue))))
        flow.on_arrival(lambda f, p: calls.append(("arrival", len(f.queue))))
        flow.offer(pkt())
        flow.offer(pkt())
        assert calls == [("backlogged", 1), ("arrival", 1), ("arrival", 2)]
        flow.pull()
        flow.pull()
        calls.clear()
        flow.offer(pkt())
        assert calls == [("backlogged", 1), ("arrival", 1)]
        assert flow.queue.enqueued_packets == 3
        assert flow.backlog_bytes == 100
        if max_queue_bytes is not None:
            calls.clear()
            flow.pull()
            assert not flow.offer(pkt(size=max_queue_bytes + 1))
            assert calls == []
            assert not flow.backlogged

    def test_offer_rejects_a_packet_of_another_flow(self):
        flow = Flow("f")
        with pytest.raises(ConfigurationError, match="enqueued on queue"):
            flow.offer(pkt(flow="g"))
        assert not flow.backlogged

    def test_pull_fires_dequeue_listener(self):
        flow = Flow("f")
        seen = []
        flow.on_dequeue(lambda f, p: seen.append(p))
        packet = pkt()
        flow.offer(packet)
        assert flow.pull() is packet
        assert seen == [packet]

    def test_repr_mentions_preferences(self):
        flow = Flow("video", weight=2.0, allowed_interfaces=["wifi"])
        assert "video" in repr(flow)
        assert "wifi" in repr(flow)
