"""Unit tests for periodic processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import PeriodicProcess


class TestPeriodicProcess:
    def test_ticks_at_period(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, ticks.append)
        process.start()
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_ends_ticking(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, ticks.append)
        process.start()
        sim.schedule(2.5, process.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_from_callback(self, sim):
        ticks = []

        def tick(now):
            ticks.append(now)
            if len(ticks) == 2:
                process.stop()

        process = PeriodicProcess(sim, 1.0, tick)
        process.start()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_start_is_idempotent(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, ticks.append)
        process.start()
        process.start()
        sim.run(until=2.5)
        assert ticks == [1.0, 2.0]

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicProcess(sim, 0.0, lambda now: None)

    def test_running_property(self, sim):
        process = PeriodicProcess(sim, 1.0, lambda now: None)
        assert not process.running
        process.start()
        assert process.running
        process.stop()
        assert not process.running
