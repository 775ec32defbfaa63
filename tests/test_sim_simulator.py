"""Unit tests for the simulator core."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.simulator import Simulator


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_advances_to_event_time(self, sim):
        sim.schedule(4.5, lambda: None)
        sim.run()
        assert sim.now == 4.5

    def test_run_until_sets_clock_even_without_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_cannot_schedule_in_past(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(-1.0, lambda: None)

    def test_run_until_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=2.0)


class TestExecution:
    def test_events_fire_in_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_excludes_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run(until=3.0)
        assert fired == ["in"]
        assert sim.now == 3.0
        sim.run()  # the rest still fires
        assert fired == ["in", "out"]

    def test_run_until_includes_boundary(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "edge")
        sim.run(until=3.0)
        assert fired == ["edge"]

    def test_events_can_schedule_events(self, sim):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.call_later(1.0, chain, depth + 1)

        sim.call_now(chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_call_now_runs_after_current_event(self, sim):
        order = []

        def first():
            sim.call_now(lambda: order.append("deferred"))
            order.append("current")

        sim.call_now(first)
        sim.run()
        assert order == ["current", "deferred"]

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_processes_one_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.schedule(2.0, fired.append, "y")
        assert sim.step() is True
        assert fired == ["x"]

    def test_max_events_guards_livelock(self, sim):
        def forever():
            sim.call_now(forever)

        sim.call_now(forever)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(max_events=100)

    def test_not_reentrant(self, sim):
        def nested():
            sim.run()

        sim.call_now(nested)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    def test_events_processed_counter(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestCancellation:
    def test_sim_cancel_skips_event(self, sim):
        fired = []
        keep = sim.schedule(2.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.cancelled is False

    def test_cancellation_inside_a_callback(self, sim):
        # A callback cancels 100 pending events mid-run: the run loop
        # drops each dead entry as it surfaces and keeps dispatching
        # the live events, in order.
        fired = []
        doomed = [sim.schedule(2.0 + i, fired.append, i) for i in range(100)]

        def cancel_all():
            fired.append("cancel")
            for event in doomed:
                event.cancel()

        sim.schedule(1.0, cancel_all)
        sim.schedule(50.5, fired.append, "kept")
        sim.schedule(200.0, fired.append, "last")
        sim.run()
        assert fired == ["cancel", "kept", "last"]
        assert sim.events_processed == 3
        assert sim.pending_events == 0

    def test_queue_restore_inside_a_callback(self, sim):
        # Restoring the queue from a callback replaces what the run
        # loop dispatches next.
        fired = []
        replacement = Event(3.0, 0, 7, fired.append, ("restored",))

        def restore():
            fired.append("restore")
            sim.queue.restore([replacement], next_seq=8)

        sim.schedule(1.0, restore)
        sim.schedule(2.0, fired.append, "dropped")
        sim.run()
        assert fired == ["restore", "restored"]
        assert sim.queue.next_seq == 8
