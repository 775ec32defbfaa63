"""Model-based and checkpoint-contract properties for the event queue.

The hypothesis property drives the heap queue and a sorted-list model
of the ``EventQueue`` contract through any interleaving of
schedule/cancel/pop and requires them to agree step for step
(including the ``(time, priority, seq)`` tie-break and ``pop_ready``
horizons). After every step the queue's ``live_events()``, which the
checkpoint codec serializes, must list exactly the model's pending
keys: a cancelled event never reaches a checkpoint, whether or not its
dead entry has left the heap yet.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventQueue


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


def drain(queue):
    """Pop every live event (``pop_ready`` drops cancelled residue)."""
    out = []
    event = queue.pop_ready()
    while event is not None:
        out.append(event)
        event = queue.pop_ready()
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
    """The heap agrees with the sorted-list model step for step, and its
    checkpointable events are exactly the model's pending ones."""
    queue = EventQueue()
    model = SortedListModel()
    # Pending, not yet cancelled events by seq.
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
                event.cancel()
                model.cancel(key(event))
        else:
            until = op[1] if op[0] == "pop_ready" else None
            event = queue.pop_ready(until)
            assert key(event) == model.pop_ready(until), f"diverged on {op}"
            if event is not None:
                cancellable.pop(event.seq, None)
        assert [key(event) for event in queue.live_events()] == model.live
        assert queue.next_seq == model.next_seq
        # peek_time discards cancelled heads without changing the answer.
        assert queue.peek_time() == (model.live[0][0] if model.live else None)
        assert [key(event) for event in queue.live_events()] == model.live

    # Drain to exhaustion: the model's tail, and no dead entry is left.
    assert [key(event) for event in drain(queue)] == model.live
    assert len(queue) == 0


class TestCheckpointContract:
    def test_live_events_excludes_cancelled(self):
        queue = EventQueue()
        keep = queue.push(2.0, _noop)
        drop = queue.push(1.0, _noop)
        drop.cancel()
        assert [event.seq for event in queue.live_events()] == [keep.seq]

    def test_restore_round_trip(self):
        queue = EventQueue()
        for i in range(20):
            queue.push(float(i % 5), _noop, priority=i % 3)
        snapshot = [
            (event.time, event.priority, event.seq)
            for event in queue.live_events()
        ]
        clone = EventQueue()
        clone.restore(
            [Event(t, p, s, _noop) for t, p, s in snapshot], queue.next_seq
        )
        assert clone.next_seq == queue.next_seq
        popped = [
            (event.time, event.priority, event.seq) for event in drain(clone)
        ]
        assert popped == sorted(snapshot)
