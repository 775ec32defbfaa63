"""Property-based tests for the simulation substrate."""

from hypothesis import given, settings, strategies as st

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_event_queue_pops_sorted(times):
    """Any schedule pops in non-decreasing time order."""
    queue = EventQueue()
    for time in times:
        queue.push(time, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop_ready().time)
    assert popped == sorted(times)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        min_size=2,
        max_size=50,
    ),
    cancel_mask=st.lists(st.booleans(), min_size=2, max_size=50),
)
def test_cancellation_property(times, cancel_mask):
    """Cancelled events never fire; survivors all fire, in order."""
    queue = EventQueue()
    events = [queue.push(time, lambda: None) for time in times]
    survivors = []
    for index, event in enumerate(events):
        # Events beyond the mask's length default to surviving.
        cancel = cancel_mask[index] if index < len(cancel_mask) else False
        if cancel:
            event.cancel()
        else:
            survivors.append(event.time)
    popped = []
    event = queue.pop_ready()
    while event is not None:
        popped.append(event.time)
        event = queue.pop_ready()
    assert popped == sorted(survivors)
    assert len(queue) == 0


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=50)
def test_simulator_fires_everything_in_order(times):
    """run() visits every event, clock monotone, final time = max."""
    sim = Simulator()
    fired = []
    for time in times:
        sim.schedule(time, lambda t=time: fired.append((t, sim.now)))
    sim.run()
    assert len(fired) == len(times)
    assert [t for t, _ in fired] == sorted(times)
    # The clock always equals the event's timestamp when it fires.
    for scheduled, observed_now in fired:
        assert scheduled == observed_now
    assert sim.now == max(times)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    num_events=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=30)
def test_same_seed_same_trajectory(seed, num_events):
    """Two simulators fed the same seeded randomness fire identically."""
    import random

    def run_once():
        rng = random.Random(seed)
        sim = Simulator()
        fired = []
        for index in range(num_events):
            sim.schedule(rng.uniform(0, 100), fired.append, index)
        sim.run()
        return fired

    assert run_once() == run_once()


@given(
    period=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    horizon=st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
)
@settings(max_examples=40)
def test_periodic_tick_count(period, horizon):
    """A periodic process ticks exactly floor(horizon / period) times."""
    from repro.sim.process import PeriodicProcess

    sim = Simulator()
    ticks = []
    process = PeriodicProcess(sim, period, ticks.append)
    process.start()
    sim.run(until=horizon)
    expected = int(horizon / period + 1e-9)
    assert abs(len(ticks) - expected) <= 1  # float-boundary slack
