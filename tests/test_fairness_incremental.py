"""Tests for the solve-on-read weighted max-min solver front end.

Deltas only edit the instance and drop the cached allocation; the
first read after a change runs one exact :func:`weighted_maxmin`.
The delta tests read before *and* after each delta, so a delta that
forgets to drop the cache serves a stale allocation and fails here.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import FairnessError
from repro.fairness.incremental import IncrementalMaxMinSolver
from repro.fairness.waterfill import weighted_maxmin


def assert_matches_scratch(solver):
    scratch = weighted_maxmin(
        {
            flow_id: (solver.weight_of(flow_id), solver.row_of(flow_id))
            for flow_id in solver.flow_ids
        },
        {j: solver.capacity(j) for j in solver.interface_ids},
    )
    assert solver.allocation.rates == scratch.rates
    assert solver.allocation.idle_interfaces == scratch.idle_interfaces


class TestDeltas:
    def test_empty_instance(self):
        solver = IncrementalMaxMinSolver()
        assert solver.allocation.rates == {}
        assert solver.deltas_total == 0
        assert solver.full_solves == 1

    def test_arrival_in_upper_stage_is_incremental(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"])},
        )
        assert solver.rate("b") == Fraction(8_000_000)
        solver.add_flow("c", 1.0, ["if2"])
        assert solver.rate("b") == Fraction(4_000_000)
        assert solver.rate("c") == Fraction(4_000_000)
        assert solver.rate("a") == Fraction(1_000_000)
        assert solver.full_solves == 2
        assert_matches_scratch(solver)

    def test_arrival_with_open_row_forces_full_solve(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"])},
        )
        assert "if2" in solver.allocation.idle_interfaces
        # A None row reaches every interface, including the idle one.
        solver.add_flow("roamer", 1.0, None)
        assert solver.rate("roamer") == Fraction(8_000_000)
        assert solver.allocation.idle_interfaces == frozenset()
        assert solver.full_solves == 2

    def test_departure_from_upper_stage_is_incremental(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"]), "c": (1.0, ["if2"])},
        )
        assert solver.rate("b") == Fraction(4_000_000)
        solver.remove_flow("c")
        assert solver.rate("b") == Fraction(8_000_000)
        assert "c" not in solver.allocation.rates
        assert not solver.has_flow("c")

    def test_reweight_is_scoped_to_the_flows_stage(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"]), "c": (1.0, ["if2"])},
        )
        assert solver.rate("b") == Fraction(4_000_000)
        solver.set_weight("b", 3.0)
        assert solver.rate("b") == Fraction(6_000_000)
        assert solver.rate("c") == Fraction(2_000_000)
        assert solver.rate("a") == Fraction(1_000_000)

    def test_restriction_narrows_the_row(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if1", "if2"])},
        )
        assert solver.rate("b") == Fraction(8_000_000)
        solver.restrict_flow("b", ["if1"])
        assert solver.rate("b") == Fraction(500_000)
        assert solver.row_of("b") == frozenset({"if1"})
        assert solver.allocation.idle_interfaces == frozenset({"if2"})

    def test_capacity_change_in_upper_stage_is_incremental(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"])},
        )
        assert solver.rate("b") == Fraction(8_000_000)
        solver.set_capacity("if2", 12e6)
        assert solver.rate("b") == Fraction(12_000_000)

    def test_outage_pins_the_confined_flow_at_zero(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"])},
        )
        assert solver.rate("b") == Fraction(8_000_000)
        solver.set_capacity("if2", 0)
        assert solver.rate("b") == 0
        assert solver.rate("a") == Fraction(1_000_000)

    def test_new_idle_interface_is_incremental(self):
        solver = IncrementalMaxMinSolver({"if1": 1e6}, {"a": (1.0, ["if1"])})
        assert solver.allocation.idle_interfaces == frozenset()
        solver.set_capacity("if2", 2e6)
        assert solver.has_interface("if2")
        assert "if2" in solver.allocation.idle_interfaces

    def test_new_interface_reachable_by_open_rows(self):
        solver = IncrementalMaxMinSolver({"if1": 1e6}, {"a": (1.0, None)})
        assert solver.rate("a") == Fraction(1_000_000)
        solver.set_capacity("if2", 2e6)
        assert solver.rate("a") == Fraction(3_000_000)


class TestSolveOnRead:
    def test_deltas_without_a_read_cost_no_solve(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6}, {"a": (1.0, ["if1"])}
        )
        solver.add_flow("b", 2.0, None)
        solver.set_weight("a", 3.0)
        solver.restrict_flow("b", ["if2"])
        solver.set_capacity("if1", 0)
        solver.add_flow("c", 1.0, ["if2"])
        solver.remove_flow("c")
        assert solver.deltas_total == 6
        assert solver.full_solves == 0

    def test_reads_without_a_delta_cost_one_solve(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6}, {"a": (1.0, ["if1"]), "b": (1.0, None)}
        )
        solver.set_capacity("if2", 4e6)
        first = solver.allocation
        assert solver.rate("b") == Fraction(4_000_000)
        assert solver.allocation is first
        assert solver.full_solves == 1


class TestValidation:
    def test_duplicate_arrival_rejected(self):
        solver = IncrementalMaxMinSolver({"if1": 1e6}, {"a": (1.0, None)})
        with pytest.raises(FairnessError):
            solver.add_flow("a")

    def test_unknown_departure_rejected(self):
        solver = IncrementalMaxMinSolver({"if1": 1e6})
        with pytest.raises(FairnessError):
            solver.remove_flow("ghost")

    def test_nonpositive_weight_rejected(self):
        solver = IncrementalMaxMinSolver({"if1": 1e6}, {"a": (1.0, None)})
        with pytest.raises(FairnessError):
            solver.set_weight("a", 0.0)
        with pytest.raises(FairnessError):
            solver.add_flow("b", weight=-1.0)

    def test_row_without_any_known_interface_rejected(self):
        solver = IncrementalMaxMinSolver({"if1": 1e6}, {"a": (1.0, None)})
        with pytest.raises(FairnessError):
            solver.add_flow("b", interfaces=["nope"])
        with pytest.raises(FairnessError):
            solver.restrict_flow("a", ["nope"])

    def test_negative_capacity_rejected(self):
        solver = IncrementalMaxMinSolver({"if1": 1e6})
        with pytest.raises(FairnessError):
            solver.set_capacity("if1", -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_inputs_rejected(self, bad):
        with pytest.raises(FairnessError):
            IncrementalMaxMinSolver({"if1": bad})
        solver = IncrementalMaxMinSolver({"if1": 1e6}, {"a": (1.0, None)})
        with pytest.raises(FairnessError):
            solver.set_capacity("if1", bad)
        with pytest.raises(FairnessError):
            solver.set_weight("a", bad)
        with pytest.raises(FairnessError):
            solver.add_flow("b", weight=bad)
        # Every rejection left the instance untouched.
        assert solver.flow_ids == ["a"]
        assert solver.rate("a") == Fraction(10**6)


class TestSnapshotRestore:
    def test_roundtrip_is_json_safe_and_exact(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.5, ["if1"]), "b": (1.0, None)},
        )
        solver.add_flow("c", 2.0, ["if2"])
        solver.set_capacity("if1", 0)
        expected = solver.allocation
        snap = json.loads(json.dumps(solver.snapshot_state()))

        restored = IncrementalMaxMinSolver()
        restored.restore_state(snap)
        assert restored.snapshot_state() == solver.snapshot_state()
        assert restored.allocation.rates == expected.rates
        assert restored.allocation.idle_interfaces == expected.idle_interfaces
        # The snapshot held a fresh cache: restoring it counts no solve.
        assert restored.full_solves == solver.full_solves == 1
        restored.add_flow("d", 1.0, ["if2"])
        assert restored.deltas_total == solver.deltas_total + 1

    def test_snapshot_preserves_exact_fractions(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6},
            {"a": (1.0, None), "b": (1.0, None), "c": (1.0, None)},
        )
        restored = IncrementalMaxMinSolver()
        restored.restore_state(solver.snapshot_state())
        assert restored.rate("a") == Fraction(1_000_000, 3)


@st.composite
def delta_script(draw):
    """A small instance plus typed deltas, each flagged read-after or not."""
    iface_count = draw(st.integers(min_value=2, max_value=4))
    ifaces = [f"if{j}" for j in range(iface_count)]
    cap = st.sampled_from([0, 1e6, 2e6, 5e6, 8e6])
    caps = {j: draw(cap) for j in ifaces}
    row = st.one_of(
        st.none(),
        st.lists(
            st.sampled_from(ifaces), min_size=1, max_size=iface_count
        ).map(frozenset),
    )
    weight = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    flow_count = draw(st.integers(min_value=0, max_value=4))
    flows = {
        f"f{i}": (draw(weight), draw(row)) for i in range(flow_count)
    }
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["add", "remove", "reweight", "restrict", "capacity"]
                ),
                st.randoms(use_true_random=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    script = []
    live = list(flows)
    fresh = itertools.count(flow_count)
    for op, rng, read in steps:
        if op == "add":
            flow_id = f"f{next(fresh)}"
            script.append((read, "add", flow_id, rng.choice([0.5, 1.0, 2.0, 3.0]),
                           rng.choice([None, frozenset(rng.sample(ifaces, rng.randint(1, iface_count)))])))
            live.append(flow_id)
        elif op == "remove" and live:
            flow_id = live.pop(rng.randrange(len(live)))
            script.append((read, "remove", flow_id))
        elif op == "reweight" and live:
            script.append((read, "reweight", rng.choice(live),
                           rng.choice([0.5, 1.0, 2.0, 3.0])))
        elif op == "restrict" and live:
            script.append((read, "restrict", rng.choice(live),
                           rng.choice([None, frozenset(rng.sample(ifaces, rng.randint(1, iface_count)))])))
        elif op == "capacity":
            script.append((read, "capacity", rng.choice(ifaces),
                           rng.choice([0, 1e6, 2e6, 5e6, 8e6])))
    return caps, flows, script


class TestEquivalenceProperties:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=delta_script(), read_first=st.booleans())
    @example(
        # Every delta kind, each read right after it and each moving
        # the allocation: a kind that keeps a stale cache fails here.
        case=(
            {"if0": 1e6, "if1": 8e6},
            {"f0": (1.0, frozenset({"if0"})), "f1": (1.0, None)},
            [
                (True, "add", "f2", 2.0, frozenset({"if1"})),
                (True, "reweight", "f1", 3.0),
                (True, "restrict", "f1", frozenset({"if0"})),
                (True, "capacity", "if0", 5e6),
                (True, "remove", "f0"),
            ],
        ),
        read_first=True,
    )
    def test_reads_equal_scratch_on_a_mirrored_instance(self, case, read_first):
        caps, flows, script = case
        solver = IncrementalMaxMinSolver(caps, flows)
        # The test's own copy of the instance, in plain dicts.
        mirror_caps = dict(caps)
        mirror_flows = dict(flows)
        reads = 0

        def check_read():
            expected = weighted_maxmin(mirror_flows, mirror_caps)
            assert solver.allocation.rates == expected.rates
            assert solver.allocation.idle_interfaces == expected.idle_interfaces

        if read_first:
            check_read()
            reads += 1
        for read, op, *args in script:
            if op == "add":
                flow_id, weight, row = args
                solver.add_flow(flow_id, weight, row)
                mirror_flows[flow_id] = (weight, row)
            elif op == "remove":
                solver.remove_flow(args[0])
                del mirror_flows[args[0]]
            elif op == "reweight":
                flow_id, weight = args
                solver.set_weight(flow_id, weight)
                mirror_flows[flow_id] = (weight, mirror_flows[flow_id][1])
            elif op == "restrict":
                flow_id, row = args
                solver.restrict_flow(flow_id, row)
                mirror_flows[flow_id] = (mirror_flows[flow_id][0], row)
            elif op == "capacity":
                interface_id, capacity = args
                solver.set_capacity(interface_id, capacity)
                mirror_caps[interface_id] = capacity
            if read:
                check_read()
                reads += 1
        check_read()
        assert solver.deltas_total == len(script)
        assert solver.full_solves <= reads + 1
