"""Model-based and accounting properties for the event queue.

The hypothesis property drives the heap queue and a sorted-list model
of the ``EventQueue`` contract through any interleaving of
schedule/cancel/pop and requires them to agree step for step
(including the ``(time, priority, seq)`` tie-break and ``pop_ready``
horizons). It also pins the cancel/compaction accounting bug that
motivated the counter audit: lazily discarding a cancelled *head*
inside ``pop``/``peek_time`` must decrement ``_cancelled_count``, or
the tombstone estimate drifts upward forever and every later ``cancel``
triggers a spurious full compaction.
"""

from __future__ import annotations

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue

BACKENDS = (EventQueue,)


def _noop():
    pass


class SortedListModel:
    """Reference model: live ``(time, priority, seq)`` keys, kept sorted."""

    def __init__(self):
        self.live = []
        self.next_seq = 0

    def push(self, time, priority):
        key = (time, priority, self.next_seq)
        self.next_seq += 1
        bisect.insort(self.live, key)
        return key

    def cancel(self, key):
        self.live.remove(key)

    def pop_ready(self, until=None):
        if not self.live or (until is not None and self.live[0][0] > until):
            return None
        return self.live.pop(0)


def count_tombstones(queue):
    """Count qcancelled events still physically inside the heap."""
    return queue.tombstones()


def assert_accounting(queue):
    assert queue._cancelled_count == count_tombstones(queue), (
        f"tombstone counter {queue._cancelled_count} != physical count "
        f"{count_tombstones(queue)}"
    )


def drain(queue):
    """Pop every live event (peek_time prunes cancelled residue)."""
    out = []
    while queue.peek_time() is not None:
        out.append(queue.pop())
    return out


def key(event):
    return None if event is None else (event.time, event.priority, event.seq)


#: One op per step: push a timestamped event, cancel a prior push by
#: index, pop the minimum, or pop against a horizon. Times are drawn
#: from a small grid so ties (and therefore the priority/seq tie-break)
#: occur constantly.
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]),
            st.sampled_from([0, 0, 0, 1, 2]),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("pop_ready"), st.sampled_from([0.5, 1.5, 4.0])),
    ),
    max_size=120,
)


@settings(max_examples=120, deadline=None)
@given(ops=OPS)
def test_interleaved_schedule_cancel_pop_equivalence(ops):
    """The heap agrees with the sorted-list model step for step, and
    keeps the tombstone counter exact after every operation."""
    queue = EventQueue()
    model = SortedListModel()
    # Pending, not yet cancelled events by seq. cancel() requires a
    # pending event — the simulator's handle discipline.
    cancellable = {}

    for op in ops:
        if op[0] == "push":
            event = queue.push(op[1], _noop, priority=op[2])
            assert key(event) == model.push(op[1], op[2])
            cancellable[event.seq] = event
        elif op[0] == "cancel":
            if cancellable:
                seqs = sorted(cancellable)
                event = cancellable.pop(seqs[op[1] % len(seqs)])
                queue.cancel(event)
                assert event.qcancelled
                model.cancel(key(event))
        else:
            until = op[1] if op[0] == "pop_ready" else None
            expected = model.pop_ready(until)
            if op[0] == "pop" and expected is None:
                assert queue.peek_time() is None
                with pytest.raises(SimulationError):
                    queue.pop()
            else:
                event = queue.pop() if op[0] == "pop" else queue.pop_ready(until)
                assert key(event) == expected, f"diverged on {op}"
                if event is not None:
                    cancellable.pop(event.seq, None)
        assert_accounting(queue)
        # peek_time discards cancelled heads; re-check the books.
        assert queue.peek_time() == (model.live[0][0] if model.live else None)
        assert_accounting(queue)

    # Drain to exhaustion: the model's tail, and a fully drained queue
    # must have zero recorded tombstones (the pinned bug left the
    # counter positive here).
    assert [key(event) for event in drain(queue)] == model.live
    assert len(queue) == 0
    assert queue._cancelled_count == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestCancelAccounting:
    def test_lazy_head_discard_decrements_counter(self, backend):
        """The regression this file exists for: cancelled events
        discarded lazily at the frontier must leave the books balanced."""
        queue = backend()
        doomed = [queue.push(float(i), _noop) for i in range(10)]
        queue.push(100.0, _noop)
        for event in doomed:
            queue.cancel(event)
        assert queue._cancelled_count == 10
        # peek_time walks past (and discards) all ten tombstones.
        assert queue.peek_time() == 100.0
        assert queue._cancelled_count == 0
        assert queue.compactions_total == 0

    def test_cancel_is_idempotent(self, backend):
        queue = backend()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        queue.cancel(event)
        queue.cancel(event)  # second cancel must not double-count
        assert queue._cancelled_count == 1
        assert queue.pop().time == 2.0

    def test_direct_cancel_stays_uncounted(self, backend):
        """Event.cancel() bypasses the queue: honoured on pop, but it
        never contributes to compaction pressure."""
        queue = backend()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        event.cancel()
        assert queue._cancelled_count == 0
        assert queue.pop().time == 2.0
        assert queue._cancelled_count == 0

    def test_compaction_sweeps_tombstones(self, backend):
        queue = backend()
        events = [queue.push(float(i), _noop) for i in range(200)]
        for event in events[::2]:
            queue.cancel(event)
        for event in events[1::2][:40]:
            queue.cancel(event)
        assert queue.compactions_total >= 1
        assert_accounting(queue)
        remaining = [event.time for event in drain(queue)]
        assert remaining == sorted(remaining)
        assert len(remaining) == 60

    def test_clear_resets_books(self, backend):
        queue = backend()
        event = queue.push(1.0, _noop)
        queue.cancel(event)
        queue.clear()
        assert len(queue) == 0
        assert queue._cancelled_count == 0
        assert queue.peek_time() is None
        with pytest.raises(SimulationError):
            queue.pop()


@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckpointContract:
    def test_live_events_excludes_cancelled(self, backend):
        queue = backend()
        keep = queue.push(2.0, _noop)
        drop = queue.push(1.0, _noop)
        queue.cancel(drop)
        assert [event.seq for event in queue.live_events()] == [keep.seq]

    def test_restore_round_trip(self, backend):
        queue = backend()
        for i in range(20):
            queue.push(float(i % 5), _noop, priority=i % 3)
        snapshot = [
            (event.time, event.priority, event.seq)
            for event in queue.live_events()
        ]
        clone = backend()
        clone.restore(
            [Event(t, p, s, _noop) for t, p, s in snapshot], queue.next_seq
        )
        assert clone.next_seq == queue.next_seq
        popped = [
            (event.time, event.priority, event.seq) for event in drain(clone)
        ]
        assert popped == sorted(snapshot)
