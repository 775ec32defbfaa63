"""Unit tests for the event queue."""

from repro.sim.events import EventQueue


def fire_next(queue):
    """Pop the next live event and run its callback, as the simulator does."""
    event = queue.pop_ready()
    return event.callback(*event.args)


class TestEventOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, fired.append, ("c",))
        queue.push(1.0, fired.append, ("a",))
        queue.push(2.0, fired.append, ("b",))
        while queue:
            fire_next(queue)
        assert fired == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        fired = []
        for name in "abcde":
            queue.push(1.0, fired.append, (name,))
        while queue:
            fire_next(queue)
        assert fired == list("abcde")

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, fired.append, ("low",), priority=5)
        queue.push(1.0, fired.append, ("high",), priority=-5)
        assert fire_next(queue) is None  # fires "high"
        assert fired == ["high"]

    def test_negative_and_fractional_times(self):
        queue = EventQueue()
        queue.push(0.5, lambda: None)
        queue.push(0.25, lambda: None)
        assert queue.peek_time() == 0.25


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        fired = []
        victim = queue.push(1.0, fired.append, ("victim",))
        queue.push(2.0, fired.append, ("survivor",))
        victim.cancel()
        fire_next(queue)
        assert fired == ["survivor"]

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        victim = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        victim.cancel()
        assert queue.peek_time() == 5.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert queue.pop_ready().time == 2.0
        assert queue.pop_ready() is None

    def test_cancelled_entry_leaves_at_its_time(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        assert len(queue) == 200  # dead entries stay until they surface
        assert queue.pop_ready().time == 150.0
        assert len(queue) == 49


class TestQueueBasics:
    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue
        assert len(queue) == 1

    def test_event_callback_args(self):
        queue = EventQueue()
        result = []
        queue.push(0.0, lambda a, b: result.append(a + b), (2, 3))
        fire_next(queue)
        assert result == [5]


class TestPopReady:
    def test_fuses_peek_and_pop(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None)
        queue.push(1.0, lambda: None)
        assert queue.pop_ready().time == 1.0
        assert queue.pop_ready(until=1.5) is None  # next event is later
        assert len(queue) == 1  # the too-late event stays queued
        assert queue.pop_ready(until=2.0).time == 2.0
        assert queue.pop_ready() is None  # empty

    def test_skips_cancelled_heads(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None).cancel()
        queue.push(2.0, lambda: None)
        assert queue.pop_ready().time == 2.0

    def test_all_cancelled_returns_none(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None).cancel()
        assert queue.pop_ready() is None
        assert len(queue) == 0
