"""Unit and property tests for the exact max-min water-filling solver."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import FairnessError
from repro.fairness.waterfill import (
    Allocation,
    Cluster,
    allocation_from_prefs,
    weighted_maxmin,
)
from repro.prefs.preferences import PreferenceSet


class TestPaperExamples:
    def test_figure_1a_single_interface(self):
        allocation = weighted_maxmin(
            {"a": (1.0, None), "b": (1.0, None)}, {"if1": 2e6}
        )
        assert allocation.rate("a") == pytest.approx(1e6)
        assert allocation.rate("b") == pytest.approx(1e6)

    def test_figure_1b_no_preferences(self):
        allocation = weighted_maxmin(
            {"a": (1.0, None), "b": (1.0, None)}, {"if1": 1e6, "if2": 1e6}
        )
        assert allocation.rate("a") == pytest.approx(1e6)
        assert allocation.rate("b") == pytest.approx(1e6)

    def test_figure_1c_interface_preference(self):
        allocation = weighted_maxmin(
            {"a": (1.0, None), "b": (1.0, ["if2"])}, {"if1": 1e6, "if2": 1e6}
        )
        assert allocation.rate("a") == pytest.approx(1e6)
        assert allocation.rate("b") == pytest.approx(1e6)

    def test_section1_infeasible_rate_preference(self):
        # φ_b = 2φ_a but b can only use if2: b is capped at 1 Mb/s and
        # a receives the leftover rather than being throttled to 0.5.
        allocation = weighted_maxmin(
            {"a": (1.0, None), "b": (2.0, ["if2"])}, {"if1": 1e6, "if2": 1e6}
        )
        assert allocation.rate("b") == pytest.approx(1e6)
        assert allocation.rate("a") == pytest.approx(1e6)

    def test_figure_6_phase1(self):
        allocation = weighted_maxmin(
            {
                "a": (1.0, ["if1"]),
                "b": (2.0, None),
                "c": (1.0, ["if2"]),
            },
            {"if1": 3e6, "if2": 10e6},
        )
        assert allocation.rate("a") == pytest.approx(3e6)
        assert allocation.rate("b") == pytest.approx(20e6 / 3)
        assert allocation.rate("c") == pytest.approx(10e6 / 3)

    def test_figure_6_phase2(self):
        allocation = weighted_maxmin(
            {"b": (2.0, None), "c": (1.0, ["if2"])},
            {"if1": 3e6, "if2": 10e6},
        )
        assert allocation.rate("b") == pytest.approx(26e6 / 3)
        assert allocation.rate("c") == pytest.approx(13e6 / 3)

    def test_figure_6_clusters(self):
        allocation = weighted_maxmin(
            {
                "a": (1.0, ["if1"]),
                "b": (2.0, None),
                "c": (1.0, ["if2"]),
            },
            {"if1": 3e6, "if2": 10e6},
        )
        assert len(allocation.clusters) == 2
        low, high = allocation.clusters
        assert low.flows == frozenset({"a"})
        assert low.interfaces == frozenset({"if1"})
        assert float(low.level) == pytest.approx(3e6)
        assert high.flows == frozenset({"b", "c"})
        assert high.interfaces == frozenset({"if2"})
        assert float(high.level) == pytest.approx(10e6 / 3)

    def test_theorem1_counterexample_scenario2(self):
        # Three extra if2-only flows arrive: a keeps 1 Mb/s on if1,
        # the four if2 flows split 1 Mb/s.
        flows = {"a": (1.0, None), "b": (1.0, ["if2"])}
        for index in range(3):
            flows[f"n{index}"] = (1.0, ["if2"])
        allocation = weighted_maxmin(flows, {"if1": 1e6, "if2": 1e6})
        assert allocation.rate("a") == pytest.approx(1e6)
        assert allocation.rate("b") == pytest.approx(0.25e6)


class TestExactness:
    def test_rates_are_exact_fractions(self):
        allocation = weighted_maxmin(
            {"a": (1.0, None), "b": (1.0, None), "c": (1.0, None)},
            {"if1": 1e6},
        )
        assert allocation.rates["a"] == Fraction(1_000_000, 3)

    def test_total_rate_equals_usable_capacity(self):
        allocation = weighted_maxmin(
            {"a": (1.0, ["if1"]), "b": (1.0, None)},
            {"if1": 5e6, "if2": 7e6},
        )
        assert allocation.total_rate() == pytest.approx(12e6)

    def test_idle_interface_reported(self):
        allocation = weighted_maxmin(
            {"a": (1.0, ["if1"])}, {"if1": 1e6, "if2": 1e6}
        )
        assert allocation.idle_interfaces == frozenset({"if2"})
        assert allocation.total_rate() == pytest.approx(1e6)

    def test_cluster_lookup(self):
        allocation = weighted_maxmin(
            {"a": (1.0, ["if1"]), "b": (1.0, ["if2"])},
            {"if1": 1e6, "if2": 2e6},
        )
        assert allocation.cluster_of("a").interfaces == frozenset({"if1"})
        assert allocation.cluster_of("if2").flows == frozenset({"b"})
        assert allocation.cluster_of("nothing") is None

    def test_normalized_rate(self):
        allocation = weighted_maxmin(
            {"a": (2.0, None), "b": (1.0, None)}, {"if1": 3e6}
        )
        assert allocation.normalized("a", 2.0) == pytest.approx(1e6)
        assert allocation.normalized("b", 1.0) == pytest.approx(1e6)


class TestValidation:
    def test_negative_capacity_rejected(self):
        with pytest.raises(FairnessError):
            weighted_maxmin({"a": (1.0, None)}, {"if1": -1.0})

    def test_zero_capacity_is_an_outage_not_an_error(self):
        # Capacity 0 models a downed interface: the flow confined to it
        # is part of the instance at an exact rate of 0 (the engine's
        # quarantine semantics), not a configuration error.
        allocation = weighted_maxmin({"a": (1.0, None)}, {"if1": 0})
        assert allocation.rates["a"] == 0
        cluster = allocation.cluster_of("a")
        assert cluster is not None and cluster.level == 0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(FairnessError):
            weighted_maxmin({"a": (0.0, None)}, {"if1": 1e6})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_capacity_rejected(self, bad):
        with pytest.raises(FairnessError, match="finite"):
            weighted_maxmin({"a": (1.0, None)}, {"if1": bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(FairnessError, match="finite"):
            weighted_maxmin({"a": (bad, None)}, {"if1": 1e6})

    def test_unknown_interfaces_rejected(self):
        with pytest.raises(FairnessError):
            weighted_maxmin({"a": (1.0, ["nope"])}, {"if1": 1e6})

    def test_interface_limit(self):
        capacities = {f"if{j}": 1e6 for j in range(21)}
        with pytest.raises(FairnessError, match="exceeds"):
            weighted_maxmin({"a": (1.0, None)}, capacities)

    def test_empty_flow_set(self):
        allocation = weighted_maxmin({}, {"if1": 1e6})
        assert allocation.rates == {}
        assert allocation.idle_interfaces == frozenset({"if1"})

    def test_cluster_rate_of_validates_membership(self):
        cluster = Cluster(
            flows=frozenset({"a"}), interfaces=frozenset({"if1"}), level=Fraction(1)
        )
        assert cluster.rate_of("a", 2.0) == 2.0
        with pytest.raises(FairnessError):
            cluster.rate_of("b", 1.0)


class TestPreferenceSetWrapper:
    def test_allocation_from_prefs(self):
        prefs = PreferenceSet(["if1", "if2"])
        prefs.add_flow("a", weight=1.0, interfaces=["if1"])
        prefs.add_flow("b", weight=2.0)
        allocation = allocation_from_prefs(prefs, {"if1": 3e6, "if2": 10e6})
        assert allocation.rate("a") == pytest.approx(3e6)
        assert allocation.rate("b") == pytest.approx(10e6)


class TestOutageSemantics:
    """Capacity-0 interfaces model outages; quarantined flows pin at 0.

    These pin the satellite bugfix: before it, ``weighted_maxmin``
    rejected capacity 0 outright, so the fluid reference could not
    even *express* the engine's quarantine state, let alone agree
    with it.
    """

    def test_flow_confined_to_dead_interface_rates(self):
        allocation = weighted_maxmin(
            {"pinned": (1.0, ["cell"]), "roamer": (1.0, None)},
            {"wifi": 8e6, "cell": 0},
        )
        # The quarantined flow is exactly 0 (Fraction, not approx) and
        # the survivor absorbs the full remaining capacity.
        assert allocation.rates["pinned"] == 0
        assert allocation.rate("roamer") == pytest.approx(8e6)
        levels = sorted(c.level for c in allocation.clusters)
        assert levels[0] == 0

    def test_zero_capacity_subset_restriction(self):
        # A flow restricted to a mix of dead interfaces only: all-zero
        # capacity over the row still yields rate 0, not an error.
        allocation = weighted_maxmin(
            {"a": (2.0, ["c1", "c2"]), "b": (1.0, ["up"])},
            {"c1": 0, "c2": 0, "up": 1e6},
        )
        assert allocation.rates["a"] == 0
        assert allocation.rate("b") == pytest.approx(1e6)

    def test_matches_engine_quarantine_path(self):
        # The engine parks a flow whose whole Π-row is down; the fluid
        # optimum computed from live capacities (rate if up else 0)
        # must agree that the parked flow's share is exactly 0.
        from repro.core.engine import SchedulingEngine
        from repro.net.flow import Flow
        from repro.net.interface import Interface
        from repro.schedulers.midrr import MiDrrScheduler
        from repro.sim.simulator import Simulator

        sim = Simulator()
        engine = SchedulingEngine(sim, MiDrrScheduler())
        wifi = Interface(sim, "wifi", 8e6)
        cell = Interface(sim, "cell", 2e6)
        engine.add_interface(wifi)
        engine.add_interface(cell)
        engine.add_flow(Flow("bulk", weight=1.0))
        engine.add_flow(Flow("pinned", weight=1.0, allowed_interfaces=("cell",)))
        cell.bring_down()
        assert "pinned" in engine.quarantined_flows

        allocation = weighted_maxmin(
            {
                flow_id: (flow.weight, flow.allowed_interfaces)
                for flow_id, flow in engine.flows.items()
            },
            {
                interface.interface_id: (
                    interface.rate_bps if interface.up else 0
                )
                for interface in engine.interfaces.values()
            },
        )
        assert allocation.rates["pinned"] == 0
        assert allocation.rate("bulk") == pytest.approx(8e6)

    def test_all_interfaces_down_total_outage(self):
        allocation = weighted_maxmin(
            {"a": (1.0, None), "b": (3.0, None)}, {"if1": 0, "if2": 0}
        )
        assert allocation.rates["a"] == 0
        assert allocation.rates["b"] == 0
        assert allocation.total_rate() == 0


@st.composite
def random_instances(draw):
    """Small (Π, φ, C) instances; capacity 0 (an outage) is allowed."""
    num_interfaces = draw(st.integers(min_value=1, max_value=4))
    interface_ids = [f"if{j}" for j in range(num_interfaces)]
    capacities = {
        j: float(draw(st.integers(min_value=0, max_value=20))) for j in interface_ids
    }
    num_flows = draw(st.integers(min_value=1, max_value=5))
    flows = {}
    for i in range(num_flows):
        weight = float(draw(st.sampled_from([1, 2, 3, 5])))
        mask = draw(
            st.none() | st.integers(min_value=1, max_value=(1 << num_interfaces) - 1)
        )
        willing = None if mask is None else [
            interface_ids[j] for j in range(num_interfaces) if mask & (1 << j)
        ]
        flows[f"flow{i}"] = (weight, willing)
    return flows, capacities


def certificate_violations(flows, capacities, allocation):
    """Check *allocation* against Gale feasibility and Theorem 2, exactly.

    Returns the list of violated conditions (empty for a certified
    max-min allocation). Every comparison is between Fractions.
    """
    caps = {j: Fraction(c) for j, c in capacities.items()}
    weights = {i: Fraction(w) for i, (w, _) in flows.items()}
    willing = {
        i: frozenset(caps if row is None else row) for i, (_, row) in flows.items()
    }
    rates = allocation.rates
    violations = []

    # Gale: every flow subset fits in the capacity it can reach.
    for size in range(1, len(flows) + 1):
        for subset in itertools.combinations(flows, size):
            reach = frozenset().union(*(willing[i] for i in subset))
            if sum(rates[i] for i in subset) > sum(caps[j] for j in reach):
                violations.append(f"infeasible: {subset} exceed C({sorted(reach)})")

    # Clusters partition the flows and the non-idle interfaces.
    cluster_flows = [i for c in allocation.clusters for i in c.flows]
    cluster_ifaces = [j for c in allocation.clusters for j in c.interfaces]
    if sorted(cluster_flows) != sorted(flows):
        violations.append("clusters do not partition the flows")
    used = frozenset().union(*willing.values())
    if sorted(cluster_ifaces) != sorted(used):
        violations.append("clusters do not partition the non-idle interfaces")
    if allocation.idle_interfaces != frozenset(caps) - used:
        violations.append("idle interfaces are not exactly the unwanted ones")

    level_of = {}
    for cluster in allocation.clusters:
        for member in cluster.flows | cluster.interfaces:
            level_of[member] = cluster.level
        # The cluster's flows use exactly its interfaces' capacity.
        if sum(rates[i] for i in cluster.flows) != sum(
            caps[j] for j in cluster.interfaces
        ):
            violations.append(f"cluster {sorted(cluster.flows)} misuses capacity")
    for i in flows:
        if i not in level_of:
            continue
        if rates[i] != weights[i] * level_of[i]:
            violations.append(f"{i} rate is not φ × its cluster level")
        # Theorem 2: no willing interface sits in a higher cluster.
        for j in willing[i]:
            if j in level_of and level_of[j] > level_of[i]:
                violations.append(f"{i} is willing to use higher-level {j}")
    return violations


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(random_instances())
def test_waterfill_is_certified_maxmin(instance):
    """The solver's allocation carries an exact Theorem 2 certificate."""
    flows, capacities = instance
    allocation = weighted_maxmin(flows, capacities)
    assert certificate_violations(flows, capacities, allocation) == []


def test_certificate_rejects_per_interface_equal_split():
    # Figure 1c split equally on each interface (the naive per-interface
    # answer): a gets all of if1 plus half of if2, b only half of if2.
    flows = {"a": (1.0, None), "b": (1.0, ["if2"])}
    capacities = {"if1": 1e6, "if2": 1e6}
    wrong = Allocation(
        rates={"a": Fraction(1_500_000), "b": Fraction(500_000)},
        clusters=[
            Cluster(frozenset({"b"}), frozenset({"if2"}), Fraction(500_000)),
            Cluster(frozenset({"a"}), frozenset({"if1"}), Fraction(1_500_000)),
        ],
    )
    assert certificate_violations(flows, capacities, wrong)
    right = weighted_maxmin(flows, capacities)
    assert certificate_violations(flows, capacities, right) == []


@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(random_instances())
def test_waterfill_is_pareto_efficient(instance):
    """Total allocated rate equals total *reachable* capacity.

    Work conservation: every interface with at least one willing flow is
    fully used in a max-min allocation of continuously backlogged flows.
    """
    flows, capacities = instance
    allocation = weighted_maxmin(flows, capacities)
    reachable = sum(
        capacity
        for interface_id, capacity in capacities.items()
        if interface_id not in allocation.idle_interfaces
    )
    assert allocation.total_rate() == pytest.approx(reachable, rel=1e-9)


@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(random_instances())
def test_waterfill_satisfies_cluster_definition(instance):
    """Definition 2 holds on the solver's own clusters."""
    flows, capacities = instance
    allocation = weighted_maxmin(flows, capacities)
    # 1. Disjoint clusters covering every flow.
    seen_flows = set()
    seen_ifaces = set()
    for cluster in allocation.clusters:
        assert not (cluster.flows & seen_flows)
        assert not (cluster.interfaces & seen_ifaces)
        seen_flows |= cluster.flows
        seen_ifaces |= cluster.interfaces
    assert seen_flows == set(flows)
    # 2/3. Each flow's cluster has the max level among reachable ones.
    for flow_id, (weight, willing) in flows.items():
        own = allocation.cluster_of(flow_id)
        for other in allocation.clusters:
            reachable = any(
                j in other.interfaces for j in (willing or capacities)
            )
            if reachable:
                assert other.level <= own.level
