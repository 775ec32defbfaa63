"""Tests for the fluid reference simulator and the theory artifacts.

The fluid reference reads nothing but a regime journal, so these tests
hand-build journals in the engine's entry format.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, FairnessError
from repro.fairness import fluid as fluid_module
from repro.fairness.fluid import FluidSimulator, max_service_lag
from repro.fairness.theory import (
    fate_sharing_holds,
    lemma_bounds,
    theorem1_counterexample,
)
from repro.units import mbps

M = 10**6


def cap(time, interface_id, rate_bps):
    return (time, "capacity", interface_id, rate_bps)


def flow(time, flow_id, weight=1.0, interfaces=None, shed=False):
    row = sorted(interfaces) if interfaces is not None else None
    return (time, "flow", flow_id, (weight, row, shed))


def remove(time, flow_id):
    return (time, "remove", flow_id, None)


def rate(journal, flow_id, start, end):
    """Exact mean optimal rate of *flow_id* over ``(start, end]``."""
    service = FluidSimulator(journal).run(start, end)
    return service.get(flow_id, 0) / (Fraction(end) - Fraction(start))


FIGURE6 = [
    cap(0.0, "if1", mbps(3)),
    cap(0.0, "if2", mbps(10)),
    flow(0.0, "a", interfaces=("if1",)),
    flow(0.0, "b", weight=2.0),
    flow(0.0, "c", interfaces=("if2",)),
]


class TestFluidSimulator:
    def test_static_allocation(self):
        service = FluidSimulator(FIGURE6).run(0.0, 10.0)
        assert service["a"] == 3 * M * 10
        assert service["b"] == Fraction(20 * M, 3) * 10
        assert service["c"] == Fraction(10 * M, 3) * 10

    def test_figure6_fluid_trajectory(self):
        """The whole Figure 6 timeline, exactly, with zero packets: a
        leaves at 66 s and b at 85 s, having been served exactly the
        bytes the paper's transfers hold."""
        journal = FIGURE6 + [remove(66.0, "a"), remove(85.0, "b")]
        service = FluidSimulator(journal).run(0.0, 100.0)
        assert service["a"] == 3 * M * 66
        assert service["b"] == Fraction(20 * M, 3) * 66 + Fraction(26 * M, 3) * 19
        assert rate(journal, "b", 40.0, 60.0) == Fraction(20 * M, 3)
        assert rate(journal, "b", 66.0, 85.0) == Fraction(26 * M, 3)
        assert rate(journal, "c", 85.0, 100.0) == 10 * M

    def test_late_arrival(self):
        journal = [cap(0.0, "if1", mbps(2)), flow(0.0, "early"), flow(5.0, "late")]
        assert rate(journal, "early", 0.0, 5.0) == 2 * M
        assert rate(journal, "early", 5.0, 10.0) == M
        assert rate(journal, "late", 5.0, 10.0) == M
        assert "late" not in FluidSimulator(journal).run(0.0, 5.0)

    def test_capacity_step(self):
        journal = [cap(0.0, "if1", mbps(1)), flow(0.0, "a"), cap(5.0, "if1", mbps(4))]
        assert rate(journal, "a", 1.0, 5.0) == M
        assert rate(journal, "a", 5.0, 9.0) == 4 * M
        assert FluidSimulator(journal).run(0.0, 10.0)["a"] == M * 5 + 4 * M * 5

    def test_average_rate(self):
        journal = [cap(0.0, "if1", mbps(2)), flow(0.0, "a")]
        assert rate(journal, "a", 2.0, 8.0) == 2 * M
        # A float window: the exact span keeps the rate exact.
        assert rate(journal, "a", 0.1, 0.3) == 2 * M

    def test_masked_flows(self):
        journal = [
            cap(0.0, "if1", mbps(2)),
            flow(0.0, "a"),
            flow(0.0, "later", interfaces=("if2",)),
            flow(0.0, "shed", shed=True),
            cap(5.0, "if2", mbps(1)),
        ]
        early = FluidSimulator(journal).run(0.0, 5.0)
        assert set(early) == {"a"}
        # The new interface replays the masked flow's entry.
        assert rate(journal, "later", 5.0, 10.0) == M
        assert rate(journal, "a", 5.0, 10.0) == 2 * M
        assert "shed" not in FluidSimulator(journal).run(0.0, 10.0)

    def test_run_restarts_the_replay(self):
        """run replays from the first entry into an instance of its own:
        the live cursor, solver and masked set are left as they were."""
        fluid = FluidSimulator(FIGURE6 + [remove(66.0, "a")])
        fluid.advance(10.0)
        solver, live = fluid.solver, fluid.solver.snapshot_state()
        first = fluid.run(60.0, 70.0)
        assert fluid.solver is solver
        assert solver.snapshot_state() == live
        assert (fluid.cursor, fluid.masked) == (len(FIGURE6), set())
        assert fluid.advance() == (66.0, ["a"])
        assert fluid.run(60.0, 70.0) == first
        assert fluid.run(0.0, 10.0) == FluidSimulator(FIGURE6).run(0.0, 10.0)

    def test_validation(self):
        fluid = FluidSimulator(FIGURE6)
        with pytest.raises(ConfigurationError):
            fluid.run(5.0, 5.0)
        with pytest.raises(ConfigurationError):
            fluid.run(5.0, 4.0)


class TestPacketizedAgainstFluid:
    def test_midrr_service_lag_bounded_over_time(self):
        """System-level Lemma check: miDRR's cumulative service stays
        within a handful of packets of the fluid ideal at all times."""
        from repro.core.runner import run_scenario
        from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario
        from repro.schedulers.midrr import MiDrrScheduler

        scenario = Scenario(
            interfaces=(InterfaceSpec("if1", mbps(3)), InterfaceSpec("if2", mbps(10))),
            flows=(
                FlowSpec("a", weight=1.0, interfaces=("if1",)),
                FlowSpec("b", weight=2.0),
                FlowSpec("c", weight=1.0, interfaces=("if2",)),
            ),
            duration=20.0,
        )
        packet_result = run_scenario(scenario, MiDrrScheduler)
        fluid = FluidSimulator(packet_result.engine.regimes)

        measured = {}
        for checkpoint in (2.0, 5.0, 10.0, 15.0, 20.0):
            measured[checkpoint] = {
                spec.flow_id: packet_result.stats.service_in_window(
                    spec.flow_id, 0.0, checkpoint
                )
                for spec in scenario.flows
            }
        lags = max_service_lag(fluid, measured)
        # A quantum per weight plus a few MTUs of slop; generous x4.
        bound = 4 * (2 * 1500 + 1500)
        for flow_id, lag in lags.items():
            assert lag < bound, f"{flow_id} lag {lag} B exceeds {bound}"


    def test_max_service_lag_integrates_across_checkpoints(self):
        """One replay over unsorted checkpoints gives the gaps of a
        separate ``run(0, t)`` per checkpoint; at t <= 0 the ideal is 0."""
        fluid = FluidSimulator(FIGURE6 + [remove(4.0, "a"), cap(6.0, "if1", mbps(6))])
        times = [7.5, 0.0, 2.0, 4.0, 6.0, 9.0]
        measured = {t: {"a": 4e5 * t, "b": 8e5 * t, "c": 1e3} for t in times}
        expected = {}
        for time in times:
            ideal = fluid.run(0.0, time) if time > 0 else {}
            for flow_id, served in measured[time].items():
                gap = abs(float(ideal.get(flow_id, 0)) / 8 - served)
                if gap > expected.get(flow_id, 0.0):
                    expected[flow_id] = gap
        assert max_service_lag(fluid, measured) == expected
        assert max_service_lag(fluid, {-1.0: {"a": 5.0}}) == {"a": 5.0}


class TestTheorem1:
    def test_finish_order_flips(self):
        future_1, future_2 = theorem1_counterexample()
        assert future_1.first_to_finish() == "b"
        assert future_2.first_to_finish() == "a"

    def test_future2_rates_match_paper(self):
        _, future_2 = theorem1_counterexample()
        # "flow a ... will remain at 1 Mb/s. Meanwhile flow b's rate
        # reduces to 1/4 Mb/s."
        assert future_2.rates["a"] == pytest.approx(1e6)
        assert future_2.rates["b"] == pytest.approx(0.25e6)

    def test_scales_with_capacity(self):
        future_1, future_2 = theorem1_counterexample(capacity_bps=8e6,
                                                     packet_bits_a=8e6,
                                                     packet_bits_b=4e6)
        assert future_1.first_to_finish() != future_2.first_to_finish()


class TestLemmaBounds:
    def test_values(self):
        bounds = lemma_bounds(quantum_base=1500.0)
        assert bounds["lemma5_lower"] == -3000.0
        assert bounds["lemma6_bound"] == 4500.0

    def test_validation(self):
        with pytest.raises(FairnessError):
            lemma_bounds(quantum_base=0)


class TestFateSharing:
    def test_holds_without_preferences(self):
        assert fate_sharing_holds({"if1": 1e6, "if2": 1e6})

    def test_holds_single_interface(self):
        assert fate_sharing_holds({"if1": 5e6}, num_initial_flows=3)

    def test_validation(self):
        with pytest.raises(FairnessError):
            fate_sharing_holds({"if1": 1e6}, num_initial_flows=0)


class TestFluidProperties:
    def test_capacity_conservation_random_instances(self):
        """Backlogged fluid flows consume exactly the reachable capacity."""
        import random

        rng = random.Random(0)
        for trial in range(20):
            num_ifaces = rng.randint(1, 4)
            capacities = {
                f"if{j}": mbps(rng.randint(1, 10)) for j in range(num_ifaces)
            }
            iface_ids = list(capacities)
            journal = [cap(0.0, j, c) for j, c in capacities.items()]
            rows = {}
            for index in range(rng.randint(1, 5)):
                count = rng.randint(1, num_ifaces)
                rows[f"f{index}"] = rng.sample(iface_ids, count)
                journal.append(
                    flow(0.0, f"f{index}", rng.choice([1.0, 2.0]), rows[f"f{index}"])
                )
            service = FluidSimulator(journal).run(0.0, 10.0)
            reachable = sum(
                capacity
                for interface_id, capacity in capacities.items()
                if any(interface_id in row for row in rows.values())
            )
            assert sum(service.values()) == Fraction(reachable) * 10

    def test_rate_at_boundaries(self):
        """An entry at time t applies from t: over ``(start, end]`` one
        stamped ``start`` is in force for the whole window, one stamped
        ``end`` for none of it."""
        journal = [cap(0.0, "if1", mbps(1)), flow(0.0, "a"), cap(5.0, "if1", mbps(4))]
        assert rate(journal, "a", 5.0, 10.0) == 4 * M
        assert rate(journal, "a", 0.0, 5.0) == M
        assert rate(journal, "ghost", 0.0, 10.0) == 0

    def test_cumulative_service_monotone(self):
        journal = [
            cap(0.0, "if1", mbps(3)),
            flow(0.0, "a"),
            flow(0.0, "b"),
            remove(4.0, "a"),
        ]
        fluid = FluidSimulator(journal)
        served = [fluid.run(0.0, 0.5 * k)["b"] for k in range(1, 21)]
        assert served == sorted(served)
        assert served[-1] == Fraction(3 * M, 2) * 4 + 3 * M * 6

    def test_entries_at_one_instant_cost_one_solve(self, monkeypatch):
        journal = [
            cap(0.0, "if1", mbps(2)),
            cap(0.0, "if2", mbps(1)),
            flow(0.0, "a"),
            flow(0.0, "b", interfaces=("if2",)),
            cap(5.0, "if1", mbps(4)),
            flow(5.0, "c"),
            flow(5.0, "b", weight=3.0, interfaces=("if2",)),
            flow(5.0, "a", interfaces=("if1",)),
        ]
        # run replays into a private instance: record each solver made.
        solvers = []

        class Recorded(fluid_module.IncrementalMaxMinSolver):
            def __init__(self):
                super().__init__()
                solvers.append(self)

        monkeypatch.setattr(fluid_module, "IncrementalMaxMinSolver", Recorded)
        fluid = FluidSimulator(journal)
        for start, end, solves in ((0.0, 10.0, 2), (5.0, 10.0, 1), (0.0, 5.0, 1)):
            fluid.run(start, end)
            assert solvers[-1].full_solves == solves
        assert fluid.solver.full_solves == 0
        assert rate(journal, "c", 5.0, 10.0) == 2 * M


@st.composite
def fluid_journal(draw):
    """A random regime journal: staggered arrivals and departures,
    φ/Π edits and capacity steps (including outages), several entries
    often sharing one instant."""
    iface_count = draw(st.integers(min_value=1, max_value=3))
    iface_ids = [f"if{j}" for j in range(iface_count)]
    entries = [
        cap(0.0, j, mbps(draw(st.integers(min_value=1, max_value=10))))
        for j in iface_ids
    ]
    rows = st.one_of(
        st.none(),
        st.lists(
            st.sampled_from(iface_ids), min_size=1, max_size=iface_count, unique=True
        ),
    )
    weights = st.sampled_from([0.5, 1.0, 2.0])
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        start = draw(st.sampled_from([0.0, 1.5, 4.0]))
        entries.append(flow(start, f"f{index}", draw(weights), draw(rows)))
        edit = draw(st.sampled_from([None, 2.0, 6.0]))
        if edit is not None and edit > start:
            entries.append(flow(edit, f"f{index}", draw(weights), draw(rows)))
        stop = draw(st.sampled_from([None, 3.5, 8.0]))
        if stop is not None and stop > start:
            entries.append(remove(stop, f"f{index}"))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        entries.append(
            cap(
                draw(st.sampled_from([2.0, 3.5, 6.0, 8.0])),
                draw(st.sampled_from(iface_ids)),
                mbps(draw(st.integers(min_value=0, max_value=8))),
            )
        )
    # Stable: entries sharing an instant keep their drawn order.
    return sorted(entries, key=lambda entry: entry[0])


class TestRateAtConservation:
    """Byte conservation pins the boundary semantics of the journal.

    The rate in force at time t is the optimum of every entry stamped
    at or before t. Integrating it regime by regime must reproduce the
    service over the whole window exactly, in ``Fraction`` arithmetic.
    """

    DURATION = 10.0

    def boundaries(self, journal):
        return sorted({entry[0] for entry in journal if entry[0] < self.DURATION})

    @settings(max_examples=60, deadline=None)
    @given(journal=fluid_journal())
    def test_rate_at_integrates_to_cumulative_service(self, journal):
        fluid = FluidSimulator(journal)
        total = fluid.run(0.0, self.DURATION)
        marks = self.boundaries(journal) + [self.DURATION]
        pieces = [fluid.run(start, end) for start, end in zip(marks, marks[1:])]
        for flow_id, served in total.items():
            assert sum(piece.get(flow_id, 0) for piece in pieces) == served

    @settings(max_examples=60, deadline=None)
    @given(journal=fluid_journal())
    def test_rate_at_is_right_continuous_at_boundaries(self, journal):
        marks = self.boundaries(journal) + [self.DURATION]
        for start, end in zip(marks, marks[1:]):
            replay = FluidSimulator(journal)
            replay.advance(start)
            expected = replay.solver.allocation.rates
            service = FluidSimulator(journal).run(start, end)
            span = Fraction(end) - Fraction(start)
            assert {f: s / span for f, s in service.items()} == expected

    @settings(max_examples=60, deadline=None)
    @given(journal=fluid_journal())
    def test_rate_at_final_end_and_beyond(self, journal):
        fluid = FluidSimulator(journal)
        for end in self.boundaries(journal)[1:]:
            # An entry stamped at the window's end is in force for none of it.
            before = FluidSimulator([e for e in journal if e[0] < end])
            assert fluid.run(0.0, end) == before.run(0.0, end)
        # Past the last entry the final regime holds for ever.
        one = fluid.run(self.DURATION, self.DURATION + 1)
        five = fluid.run(self.DURATION, self.DURATION + 5)
        assert {f: s * 5 for f, s in one.items()} == five

    def test_rate_changes_at_an_exact_step_boundary(self):
        # A capacity step at t=5 is in force from t=5 on, not after it.
        journal = [cap(0.0, "if1", mbps(2)), flow(0.0, "a"), cap(5.0, "if1", mbps(6))]
        assert rate(journal, "a", 5.0 - 1e-3, 5.0) == 2 * M
        assert rate(journal, "a", 5.0, 5.0 + 1e-3) == 6 * M
