"""Exact weighted max-min fair allocation with interface preferences.

The paper (§4.2) notes the max-min allocation "can be posed as a convex
program". This module instead computes it *exactly* with a combinatorial
progressive-filling algorithm built on the paper's own rate-clustering
insight (Definition 2):

The lowest normalized level in the weighted max-min allocation is

    t* = min over interface subsets J of  C(J) / Φ(S(J)),

where ``S(J) = {flows whose entire willing set lies inside J}`` and
``Φ`` sums weights. The minimizing ``(S(J*), J*)`` pair is the bottom
rate cluster group: those flows are frozen at rates ``φ_i · t*``, they
consume exactly the capacity of ``J*``, and the algorithm recurses on
the remaining flows and interfaces. Minimizing subsets are closed under
union, so taking the union of all minimizers freezes every bottlenecked
flow in one stage.

Arithmetic is done in :class:`fractions.Fraction`, so results are exact.
This is the package's one max-min solver; the test suite certifies its
output against Gale feasibility and the Theorem 2 conditions with no
float tolerance.

Complexity is ``O(2^m · n)`` per stage for *m* interfaces — exponential
in interfaces, but the paper's device scenarios have m ≤ 16 and the
algorithm is used as a *reference*, not in the packet path. More than
20 interfaces are refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import FairnessError
from ..prefs.preferences import PreferenceSet

#: Refuse subset enumeration beyond this many interfaces.
MAX_INTERFACES = 20


@dataclass(frozen=True)
class Cluster:
    """One rate cluster: flows and interfaces served at a common level.

    ``level`` is the *normalized* rate ``t = r_i / φ_i`` shared by every
    flow in the cluster; ``rate_of(flow)`` gives the absolute rate.
    """

    flows: FrozenSet[str]
    interfaces: FrozenSet[str]
    level: Fraction

    def rate_of(self, flow_id: str, weight: float) -> float:
        """Absolute rate of *flow_id* given its weight."""
        if flow_id not in self.flows:
            raise FairnessError(f"flow {flow_id!r} not in this cluster")
        return float(self.level) * weight


@dataclass
class Allocation:
    """The result of a max-min computation.

    Flows confined to zero-capacity interfaces (an outage — see
    :func:`weighted_maxmin`) appear with an exact rate of 0 in a
    level-0 cluster; they are *not* errors.
    """

    #: Absolute rate per flow, bits/s (exact fractions).
    rates: Dict[str, Fraction]
    #: Rate clusters, sorted by ascending level.
    clusters: List[Cluster]
    #: Interfaces that serve no flow (capacity necessarily unused).
    idle_interfaces: FrozenSet[str] = field(default_factory=frozenset)

    def rate(self, flow_id: str) -> float:
        """Absolute rate of *flow_id* as a float."""
        return float(self.rates[flow_id])

    def normalized(self, flow_id: str, weight: float) -> float:
        """``r_i / φ_i``."""
        return float(self.rates[flow_id]) / weight

    def cluster_of(self, member: str) -> Optional[Cluster]:
        """The cluster containing a flow or interface id, if any."""
        for cluster in self.clusters:
            if member in cluster.flows or member in cluster.interfaces:
                return cluster
        return None

    def total_rate(self) -> float:
        """Aggregate allocated rate across all flows."""
        return float(sum(self.rates.values(), Fraction(0)))


def _as_fraction(value: float) -> Fraction:
    """Convert a float/int capacity or weight to an exact Fraction."""
    return Fraction(value).limit_denominator(10**12)


def _checked_fraction(what: str, value: float, *, allow_zero: bool) -> Fraction:
    """Validate a capacity (``allow_zero``: 0 is an outage) or a weight.

    Rejects NaN, infinities, negatives and (for weights) zero with
    :class:`FairnessError`; returns the exact Fraction otherwise.
    """
    if not (math.isfinite(value) and (value >= 0 if allow_zero else value > 0)):
        bound = ">= 0" if allow_zero else "positive"
        raise FairnessError(f"{what} must be finite and {bound}, got {value}")
    return _as_fraction(value)


def weighted_maxmin(
    flows: Mapping[str, Tuple[float, Optional[Iterable[str]]]],
    capacities: Mapping[str, float],
) -> Allocation:
    """Compute the exact weighted max-min allocation.

    Parameters
    ----------
    flows:
        ``{flow_id: (weight, willing_interfaces_or_None)}``; ``None``
        means willing to use every interface.
    capacities:
        ``{interface_id: capacity_bps}``. A capacity of exactly 0
        models an interface outage: the interface stays part of the
        instance (flows referencing it are *known*, not misconfigured)
        but contributes no capacity, so a flow whose entire Π-row is
        down is frozen at an exact rate of 0 — matching the engine's
        quarantine semantics. Negative or non-finite capacities and
        non-positive or non-finite weights are rejected.

    Returns
    -------
    Allocation
        Exact rates, the rate clusters (ascending level), and any
        interfaces that no flow is willing to use.
    """
    interface_ids = list(capacities)
    if len(interface_ids) > MAX_INTERFACES:
        raise FairnessError(
            f"{len(interface_ids)} interfaces exceeds exact-solver limit "
            f"({MAX_INTERFACES})"
        )
    caps: Dict[str, Fraction] = {
        interface_id: _checked_fraction(
            f"interface {interface_id!r} capacity", capacity, allow_zero=True
        )
        for interface_id, capacity in capacities.items()
    }

    willing: Dict[str, FrozenSet[str]] = {}
    weights: Dict[str, Fraction] = {}
    for flow_id, (weight, interfaces) in flows.items():
        weights[flow_id] = _checked_fraction(
            f"flow {flow_id!r} weight", weight, allow_zero=False
        )
        if interfaces is None:
            willing[flow_id] = frozenset(interface_ids)
        else:
            chosen = frozenset(interfaces) & set(interface_ids)
            if not chosen:
                raise FairnessError(
                    f"flow {flow_id!r} is not willing to use any known interface"
                )
            willing[flow_id] = chosen

    idle = frozenset(
        j for j in interface_ids if not any(j in w for w in willing.values())
    )

    rates: Dict[str, Fraction] = {}
    clusters: List[Cluster] = []
    remaining_flows = set(willing)
    remaining_ifaces = [j for j in interface_ids if j not in idle]

    while remaining_flows:
        if not remaining_ifaces:
            raise FairnessError(
                "flows remain but no interface capacity does — inconsistent Π"
            )
        stage = _bottleneck_stage(
            remaining_flows, remaining_ifaces, willing, weights, caps
        )
        level, frozen_flows, frozen_ifaces = stage
        for flow_id in frozen_flows:
            rates[flow_id] = weights[flow_id] * level
        clusters.extend(
            _split_into_clusters(frozen_flows, frozen_ifaces, willing, level)
        )
        remaining_flows -= frozen_flows
        remaining_ifaces = [j for j in remaining_ifaces if j not in frozen_ifaces]
        # Interfaces that only served frozen flows but were not in the
        # bottleneck set cannot exist: S(J*) confined to J* by
        # construction. Interfaces left with no willing remaining flow
        # become idle leftovers.
        orphaned = {
            j
            for j in remaining_ifaces
            if not any(j in willing[i] for i in remaining_flows)
        }
        if orphaned:
            idle = idle | orphaned
            remaining_ifaces = [j for j in remaining_ifaces if j not in orphaned]

    clusters.sort(key=lambda c: c.level)
    return Allocation(rates=rates, clusters=clusters, idle_interfaces=idle)


def _bottleneck_stage(
    remaining_flows: set,
    remaining_ifaces: Sequence[str],
    willing: Mapping[str, FrozenSet[str]],
    weights: Mapping[str, Fraction],
    caps: Mapping[str, Fraction],
) -> Tuple[Fraction, FrozenSet[str], FrozenSet[str]]:
    """Find the bottleneck level and the union of all minimizing sets.

    Enumerates interface subsets J, computing ``C(J)/Φ(S(J))`` where
    ``S(J)`` is the set of remaining flows confined to J. Subsets with
    empty ``S(J)`` impose no constraint. Minimizers are closed under
    union, so the union of all minimizing (S, J) pairs is itself a
    minimizer and freezes every bottlenecked flow at once.
    """
    iface_list = list(remaining_ifaces)
    active_willing = {
        flow_id: willing[flow_id] & set(iface_list) for flow_id in remaining_flows
    }
    best_level: Optional[Fraction] = None
    union_flows: set = set()
    union_ifaces: set = set()
    for size in range(1, len(iface_list) + 1):
        for combo in itertools.combinations(iface_list, size):
            subset = frozenset(combo)
            confined = [
                flow_id
                for flow_id, w in active_willing.items()
                if w <= subset
            ]
            if not confined:
                continue
            capacity = sum((caps[j] for j in subset), Fraction(0))
            weight_sum = sum((weights[i] for i in confined), Fraction(0))
            level = capacity / weight_sum
            if best_level is None or level < best_level:
                best_level = level
                union_flows = set(confined)
                union_ifaces = set(subset)
            elif level == best_level:
                union_flows |= set(confined)
                union_ifaces |= set(subset)
    if best_level is None:
        # No flow is confined to any subset — cannot happen because the
        # full set confines every remaining flow.
        raise FairnessError("bottleneck search found no constraining subset")
    # Trim interfaces in the union that serve no frozen flow (can occur
    # when distinct minimizers overlap): they keep their capacity for
    # later stages.
    used_ifaces = {
        j
        for j in union_ifaces
        if any(j in active_willing[i] for i in union_flows)
    }
    return best_level, frozenset(union_flows), frozenset(used_ifaces)


def _split_into_clusters(
    frozen_flows: FrozenSet[str],
    frozen_ifaces: FrozenSet[str],
    willing: Mapping[str, FrozenSet[str]],
    level: Fraction,
) -> List[Cluster]:
    """Split a frozen stage into connected components (rate clusters)."""
    # Union-find over flows ∪ interfaces restricted to the stage.
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for member in itertools.chain(frozen_flows, frozen_ifaces):
        parent[member] = member
    for flow_id in frozen_flows:
        for interface_id in willing[flow_id] & frozen_ifaces:
            union(flow_id, interface_id)

    components: Dict[str, Tuple[set, set]] = {}
    for flow_id in frozen_flows:
        root = find(flow_id)
        components.setdefault(root, (set(), set()))[0].add(flow_id)
    for interface_id in frozen_ifaces:
        root = find(interface_id)
        components.setdefault(root, (set(), set()))[1].add(interface_id)

    return [
        Cluster(flows=frozenset(flows), interfaces=frozenset(ifaces), level=level)
        for flows, ifaces in components.values()
        if flows
    ]


def allocation_from_prefs(
    prefs: PreferenceSet, capacities: Mapping[str, float]
) -> Allocation:
    """Convenience wrapper taking a :class:`PreferenceSet`."""
    flows = {
        flow_id: (
            prefs.weight(flow_id),
            prefs.willing_interfaces(flow_id),
        )
        for flow_id in prefs.flow_ids
    }
    return weighted_maxmin(flows, capacities)
