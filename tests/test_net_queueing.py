"""Unit tests for per-flow queues."""

import pytest

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queueing import FlowQueue


def pkt(size=100, flow="f"):
    return Packet(flow_id=flow, size_bytes=size)


class TestFifoBehaviour:
    def test_fifo_order(self):
        queue = FlowQueue("f")
        first, second = pkt(), pkt()
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second

    def test_head_does_not_remove(self):
        queue = FlowQueue("f")
        packet = pkt()
        queue.enqueue(packet)
        assert queue.head() is packet
        assert len(queue) == 1

    def test_head_size(self):
        queue = FlowQueue("f")
        assert queue.head_size() is None
        queue.enqueue(pkt(size=77))
        assert queue.head_size() == 77

    def test_dequeue_empty_raises(self):
        with pytest.raises(IndexError):
            FlowQueue("f").dequeue()


class TestByteAccounting:
    def test_backlog_tracks_bytes(self):
        queue = FlowQueue("f")
        queue.enqueue(pkt(100))
        queue.enqueue(pkt(200))
        assert queue.backlog_bytes == 300
        queue.dequeue()
        assert queue.backlog_bytes == 200

    def test_clear_resets(self):
        queue = FlowQueue("f")
        queue.enqueue(pkt())
        removed = queue.clear()
        assert len(removed) == 1
        assert queue.backlog_bytes == 0
        assert not queue

    def test_enqueued_counter(self):
        queue = FlowQueue("f")
        queue.enqueue(pkt())
        queue.enqueue(pkt())
        queue.dequeue()
        assert queue.enqueued_packets == 2


class TestDropTail:
    def test_drops_when_full(self):
        queue = FlowQueue("f", max_bytes=250)
        assert queue.enqueue(pkt(100))
        assert queue.enqueue(pkt(100))
        assert not queue.enqueue(pkt(100))  # would exceed 250
        assert queue.backlog_bytes == 200
        assert queue.dropped_packets == 1
        assert queue.dropped_bytes == 100

    def test_drop_callback(self):
        dropped = []
        queue = FlowQueue("f", max_bytes=50, on_drop=dropped.append)
        queue.enqueue(pkt(40))
        queue.enqueue(pkt(40))
        assert len(dropped) == 1

    def test_accepts_after_drain(self):
        queue = FlowQueue("f", max_bytes=100)
        queue.enqueue(pkt(100))
        assert not queue.enqueue(pkt(100))
        queue.dequeue()
        assert queue.enqueue(pkt(100))

    def test_invalid_max_bytes(self):
        with pytest.raises(ConfigurationError):
            FlowQueue("f", max_bytes=0)


class TestDropHead:
    def test_evicts_oldest_to_fit_arrival(self):
        queue = FlowQueue("f", max_bytes=250, policy="drop-head")
        first, second, third = pkt(100), pkt(100), pkt(100)
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.enqueue(third)  # evicts `first`
        assert list(queue) == [second, third]
        assert queue.dropped_packets == 1
        assert queue.dropped_bytes == 100
        assert queue.backlog_bytes == 200

    def test_evicts_several_for_a_large_arrival(self):
        queue = FlowQueue("f", max_bytes=300, policy="drop-head")
        for _ in range(3):
            queue.enqueue(pkt(100))
        big = pkt(250)
        assert queue.enqueue(big)
        assert list(queue) == [big]
        assert queue.dropped_packets == 3
        assert queue.backlog_bytes == 250

    def test_oversized_arrival_still_rejected(self):
        # No amount of evicting makes room for a packet bigger than the
        # queue itself; the existing backlog is untouched.
        queue = FlowQueue("f", max_bytes=200, policy="drop-head")
        kept = pkt(150)
        queue.enqueue(kept)
        assert not queue.enqueue(pkt(300))
        assert list(queue) == [kept]
        assert queue.dropped_packets == 1  # the arrival itself
        assert queue.backlog_bytes == 150

    def test_drop_callback_sees_evictions(self):
        dropped = []
        queue = FlowQueue(
            "f", max_bytes=200, on_drop=dropped.append, policy="drop-head"
        )
        first = pkt(150)
        queue.enqueue(first)
        queue.enqueue(pkt(150))
        assert dropped == [first]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowQueue("f", policy="random-early")

    def test_set_drop_listener_replaces(self):
        first_log, second_log = [], []
        queue = FlowQueue("f", max_bytes=100, on_drop=first_log.append)
        queue.set_drop_listener(second_log.append)
        queue.enqueue(pkt(100))
        queue.enqueue(pkt(100))  # drop-tail rejection
        assert first_log == []
        assert len(second_log) == 1


class TestValidation:
    def test_wrong_flow_rejected(self):
        queue = FlowQueue("f")
        with pytest.raises(ConfigurationError):
            queue.enqueue(pkt(flow="other"))

    def test_iteration(self):
        queue = FlowQueue("f")
        packets = [pkt(), pkt(), pkt()]
        for packet in packets:
            queue.enqueue(packet)
        assert list(queue) == packets


class TestCheckpoint:
    def test_restore_refills_the_same_deque(self):
        source = FlowQueue("f", max_bytes=1000)
        for size in (100, 200, 300):
            source.enqueue(pkt(size))
        state = source.snapshot_state()

        queue = FlowQueue("f", max_bytes=1000)
        queue.enqueue(pkt(50))
        held = queue.packets
        queue.restore_state(state)
        # Holders of the deque (the scheduler, bulk sources) keep
        # seeing the live backlog after a restore.
        assert queue.packets is held
        assert [packet.size_bytes for packet in held] == [100, 200, 300]
        assert [packet.seqno for packet in held] == [p.seqno for p in source]
        assert queue.backlog_bytes == 600
        assert queue.snapshot_state() == state

    def test_failed_restore_leaves_the_queue_intact(self):
        queue = FlowQueue("f", max_bytes=1000)
        for size in (100, 200):
            queue.enqueue(pkt(size))
        before = queue.snapshot_state()
        held = queue.packets
        bad = dict(before)
        bad["packets"] = before["packets"] + [dict(before["packets"][0], size_bytes=0)]
        with pytest.raises(ConfigurationError):
            queue.restore_state(bad)
        assert queue.packets is held
        assert queue.snapshot_state() == before
