"""Tests for the incremental (warm-started) weighted max-min solver.

Everything here runs with ``debug=True`` so the solver self-asserts
exact agreement with :func:`weighted_maxmin` after every single delta;
the explicit equality checks in the tests are then documentation of
*what* exact means (Fraction rates, identical idle sets).
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
        solver = IncrementalMaxMinSolver(debug=True)
        assert solver.allocation.rates == {}
        assert solver.deltas_total == 0
        assert solver.incremental_ratio == 1.0

    def test_arrival_in_upper_stage_is_incremental(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"])},
            debug=True,
        )
        solver.add_flow("c", 1.0, ["if2"])
        assert solver.incremental_solves == 1
        assert solver.full_solves == 0
        assert solver.rate("b") == Fraction(4_000_000)
        assert solver.rate("c") == Fraction(4_000_000)
        assert solver.rate("a") == Fraction(1_000_000)

    def test_arrival_with_open_row_forces_full_solve(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"])},
            debug=True,
        )
        # A None row reaches every interface, including stage 0.
        solver.add_flow("roamer", 1.0, None)
        assert solver.full_solves == 1
        assert solver.rate("roamer") == Fraction(8_000_000)

    def test_departure_from_upper_stage_is_incremental(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"]), "c": (1.0, ["if2"])},
            debug=True,
        )
        solver.remove_flow("c")
        assert solver.incremental_solves == 1
        assert solver.rate("b") == Fraction(8_000_000)
        assert not solver.has_flow("c")

    def test_reweight_is_scoped_to_the_flows_stage(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"]), "c": (1.0, ["if2"])},
            debug=True,
        )
        solver.set_weight("b", 3.0)
        assert solver.incremental_solves == 1
        assert solver.rate("b") == Fraction(6_000_000)
        assert solver.rate("c") == Fraction(2_000_000)

    def test_restriction_narrows_the_row(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if1", "if2"])},
            debug=True,
        )
        solver.restrict_flow("b", ["if2"])
        assert solver.rate("b") == Fraction(8_000_000)
        assert solver.row_of("b") == frozenset({"if2"})

    def test_capacity_change_in_upper_stage_is_incremental(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"])},
            debug=True,
        )
        solver.set_capacity("if2", 12e6)
        assert solver.incremental_solves == 1
        assert solver.rate("b") == Fraction(12_000_000)

    def test_outage_pins_the_confined_flow_at_zero(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 8e6},
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"])},
            debug=True,
        )
        solver.set_capacity("if2", 0)
        assert solver.rate("b") == 0
        assert solver.rate("a") == Fraction(1_000_000)

    def test_new_idle_interface_is_incremental(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6}, {"a": (1.0, ["if1"])}, debug=True
        )
        solver.set_capacity("if2", 2e6)
        assert solver.has_interface("if2")
        assert solver.incremental_solves == 1
        assert "if2" in solver.allocation.idle_interfaces

    def test_new_interface_reachable_by_open_rows(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6}, {"a": (1.0, None)}, debug=True
        )
        solver.set_capacity("if2", 2e6)
        assert solver.rate("a") == Fraction(3_000_000)


class TestFenceFallback:
    """Deltas that pull the suffix level below a kept level must fall
    back to a full solve — and still agree exactly with scratch."""

    def two_stage_solver(self):
        solver = IncrementalMaxMinSolver(
            {"if1": 1e6, "if2": 10e6},
            {"low": (1.0, ["if1"]), "high": (1.0, ["if2"])},
            debug=True,
        )
        levels = [float(s.level) for s in solver.allocation.stages]
        assert levels == [1e6, 10e6]
        return solver

    def test_reweight_below_the_fence(self):
        solver = self.two_stage_solver()
        # Normalized level of "high" becomes 10e6/100 = 1e5 < 1e6: the
        # stage order inverts, which the suffix cannot decide locally.
        solver.set_weight("high", 100.0)
        assert solver.fence_fallbacks == 1
        assert solver.rate("high") == Fraction(10_000_000)
        assert solver.rate("low") == Fraction(1_000_000)

    def test_capacity_collapse_below_the_fence(self):
        solver = self.two_stage_solver()
        solver.set_capacity("if2", 0.5e6)
        assert solver.fence_fallbacks == 1
        assert solver.rate("high") == Fraction(500_000)
        assert solver.rate("low") == Fraction(1_000_000)

    def test_arrival_storm_merges_clusters(self):
        solver = self.two_stage_solver()
        # Twenty arrivals on if2 drive its per-flow share to ~0.48e6,
        # below if1's 1e6 level: the clusters reorder around the new
        # bottleneck. Every post-breach delta still resolves exactly.
        before = solver.fence_fallbacks
        for index in range(20):
            solver.add_flow(f"n{index}", 1.0, ["if2"])
        assert solver.fence_fallbacks > before
        assert solver.rate("high") == Fraction(10_000_000, 21)
        assert solver.rate("low") == Fraction(1_000_000)
        assert_matches_scratch(solver)


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
            debug=True,
        )
        solver.add_flow("c", 2.0, ["if2"])
        solver.set_capacity("if1", 0)
        snap = json.loads(json.dumps(solver.snapshot_state()))

        restored = IncrementalMaxMinSolver(debug=True)
        restored.restore_state(snap)
        assert restored.allocation.rates == solver.allocation.rates
        assert (
            restored.allocation.idle_interfaces
            == solver.allocation.idle_interfaces
        )
        assert restored.deltas_total == solver.deltas_total
        assert restored.incremental_solves == solver.incremental_solves
        assert restored.full_solves == solver.full_solves
        assert restored.fence_fallbacks == solver.fence_fallbacks
        # Restore re-derives the allocation without counting a solve.
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


class TestAcceptanceSequence:
    """The ISSUE acceptance run: a seeded 500-delta sequence where the
    incremental path resolves >= 80% of deltas, exact throughout."""

    def test_seeded_500_delta_sequence(self):
        rng = random.Random(20260809)
        tiers = 8
        caps = {f"if{k}": 1e6 * (4 ** k) for k in range(tiers)}
        flows = {f"seed{k}": (1.0, [f"if{k}"]) for k in range(tiers)}
        solver = IncrementalMaxMinSolver(caps, flows, debug=True)

        counter = itertools.count()
        extras = {k: [] for k in range(tiers)}  # non-seed pinned flows
        roamers = []

        for _ in range(500):
            if rng.random() < 0.08:
                # Occasional global churn: open-row flows reach stage 0
                # and force a full solve — the workload's noise floor.
                if roamers and rng.random() < 0.5:
                    solver.remove_flow(roamers.pop())
                else:
                    flow_id = f"r{next(counter)}"
                    solver.add_flow(flow_id, 1.0, None)
                    roamers.append(flow_id)
                continue
            # Steady-state churn lives in the upper stages: pinned
            # flows on well-separated tiers (4x capacity steps keep
            # every per-flow level strictly inside its tier, so the
            # fence is never breached).
            k = rng.randrange(1, tiers)
            op = rng.random()
            if op < 0.4 and not extras[k]:
                flow_id = f"p{next(counter)}"
                solver.add_flow(flow_id, 1.0, [f"if{k}"])
                extras[k].append(flow_id)
            elif op < 0.4:
                solver.remove_flow(extras[k].pop())
            elif op < 0.7:
                solver.set_weight(f"seed{k}", rng.uniform(0.8, 1.25))
            else:
                solver.set_capacity(
                    f"if{k}", caps[f"if{k}"] * rng.uniform(0.9, 1.1)
                )

        assert solver.deltas_total == 500
        assert solver.incremental_ratio >= 0.8, repr(solver)
        # Roamers parked in a tier can nudge its level across a fence;
        # that stays a rare event on this workload, never the norm.
        assert solver.fence_fallbacks <= 5, repr(solver)
        assert_matches_scratch(solver)


@st.composite
def delta_script(draw):
    """A small instance plus a sequence of typed deltas against it."""
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
            ),
            min_size=1,
            max_size=12,
        )
    )
    script = []
    live = list(flows)
    fresh = itertools.count(flow_count)
    for op, rng in steps:
        if op == "add":
            flow_id = f"f{next(fresh)}"
            script.append(("add", flow_id, rng.choice([0.5, 1.0, 2.0, 3.0]),
                           rng.choice([None, frozenset(rng.sample(ifaces, rng.randint(1, iface_count)))])))
            live.append(flow_id)
        elif op == "remove" and live:
            flow_id = live.pop(rng.randrange(len(live)))
            script.append(("remove", flow_id))
        elif op == "reweight" and live:
            script.append(("reweight", rng.choice(live),
                           rng.choice([0.5, 1.0, 2.0, 3.0])))
        elif op == "restrict" and live:
            script.append(("restrict", rng.choice(live),
                           rng.choice([None, frozenset(rng.sample(ifaces, rng.randint(1, iface_count)))])))
        elif op == "capacity":
            script.append(("capacity", rng.choice(ifaces),
                           rng.choice([0, 1e6, 2e6, 5e6, 8e6])))
    return caps, flows, script


class TestEquivalenceProperties:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=delta_script())
    def test_incremental_equals_scratch_after_every_delta(self, case):
        caps, flows, script = case
        solver = IncrementalMaxMinSolver(caps, flows, debug=True)
        for step in script:
            if step[0] == "add":
                solver.add_flow(step[1], step[2], step[3])
            elif step[0] == "remove":
                solver.remove_flow(step[1])
            elif step[0] == "reweight":
                solver.set_weight(step[1], step[2])
            elif step[0] == "restrict":
                solver.restrict_flow(step[1], step[2])
            elif step[0] == "capacity":
                solver.set_capacity(step[1], step[2])
            # debug=True already asserted; make the contract explicit
            # at the end of the sequence too.
        assert_matches_scratch(solver)
        assert (
            solver.incremental_solves + solver.full_solves
            == solver.deltas_total
        )
