"""Incremental weighted max-min solver: warm-started delta updates.

:class:`IncrementalMaxMinSolver` maintains the exact weighted max-min
allocation of :func:`~repro.fairness.waterfill.weighted_maxmin` under
live deltas — flow arrival/departure, weight change, Π-row restriction,
interface capacity change/outage — without re-solving the whole
instance each time. It is the engine behind the inline fairness
auditor (:mod:`repro.health.auditor`), where the fluid optimum must
track chaos-run churn every few events.

How the warm start works
------------------------
The from-scratch solver freezes flows in *stages* of ascending level
(progressive filling over the union of minimizing interface subsets;
paper §4.2 / Theorem 2). The key localization property: a delta whose
touched flows and interfaces all live in stages ``>= s`` cannot change
stages ``< s``:

* kept flows' willing sets lie entirely inside kept-stage interfaces
  (every interface in a flow's active row freezes with the flow), so
  no kept interface subset gains or loses confined flows or capacity;
* any *mixed* subset J splits as ``J_kept ∪ J_suffix``, and by the
  mediant inequality ``ratio(J) >= min(ratio-over-kept,
  ratio-over-suffix)`` — the kept part is bounded below by the old
  stage minimality, the suffix part by the re-solve's own first level.

So the solver keeps every stage strictly below the lowest touched one,
re-solves only the suffix instance (remaining flows with their rows
restricted to remaining interfaces, which is exactly the state the
from-scratch algorithm would reach), and verifies the **fence
condition**: the re-solved suffix's lowest level must not drop below
the highest kept level. When it does — the delta grew a bottleneck
that swallows kept clusters (clusters merge), or an arrival reaches
below its apparent stage — the solver falls back to one full
``weighted_maxmin`` call. Rates are :class:`fractions.Fraction`
arithmetic end to end, so incremental and from-scratch results agree
*exactly*, which ``debug=True`` asserts after every delta.

Degenerate level ties can group the same rates into different
stage/cluster boundaries than a from-scratch run (both groupings are
valid maximizers); rates and idle-interface sets are always identical,
and those are what the debug assertion (and the auditor) compare.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..errors import FairnessError
from .waterfill import Allocation, Stage, _checked_fraction, weighted_maxmin


class IncrementalMaxMinSolver:
    """Maintain a weighted max-min allocation under live deltas.

    Parameters
    ----------
    capacities:
        Initial ``{interface_id: capacity_bps}``; 0 models an outage
        (see :func:`~repro.fairness.waterfill.weighted_maxmin`).
    flows:
        Initial ``{flow_id: (weight, willing_or_None)}``.
    debug:
        Assert exact agreement (rates and idle interfaces) with a
        from-scratch solve after *every* delta. Expensive; tests only.
    """

    def __init__(
        self,
        capacities: Optional[Mapping[str, float]] = None,
        flows: Optional[
            Mapping[str, Tuple[float, Optional[Iterable[str]]]]
        ] = None,
        debug: bool = False,
    ) -> None:
        self._caps: Dict[str, Fraction] = {}
        self._weights: Dict[str, Fraction] = {}
        self._rows: Dict[str, Optional[FrozenSet[str]]] = {}
        self._debug = debug
        self._allocation: Optional[Allocation] = None
        self.deltas_total = 0
        self.incremental_solves = 0
        self.full_solves = 0
        #: Full solves forced by the fence condition (cluster merge/split
        #: ambiguity), a subset of :attr:`full_solves`.
        self.fence_fallbacks = 0
        if capacities:
            for interface_id, capacity in capacities.items():
                self._caps[interface_id] = _checked_fraction(
                    f"interface {interface_id!r} capacity", capacity, allow_zero=True
                )
        if flows:
            for flow_id, (weight, interfaces) in flows.items():
                self._ingest_flow(flow_id, weight, interfaces)
        self._solve_full(count=False)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def allocation(self) -> Allocation:
        """The current exact allocation (always up to date)."""
        assert self._allocation is not None
        return self._allocation

    @property
    def flow_ids(self) -> List[str]:
        """Registered flows, insertion order."""
        return list(self._weights)

    @property
    def interface_ids(self) -> List[str]:
        """Registered interfaces, insertion order."""
        return list(self._caps)

    @property
    def incremental_ratio(self) -> float:
        """Fraction of deltas resolved without a full re-solve."""
        if not self.deltas_total:
            return 1.0
        return self.incremental_solves / self.deltas_total

    def rate(self, flow_id: str) -> Fraction:
        """Exact current rate of *flow_id* (bits/s)."""
        return self.allocation.rates[flow_id]

    def capacity(self, interface_id: str) -> Fraction:
        """Exact current capacity of *interface_id* (bits/s)."""
        return self._caps[interface_id]

    def has_flow(self, flow_id: str) -> bool:
        """Whether *flow_id* is part of the instance."""
        return flow_id in self._weights

    def has_interface(self, interface_id: str) -> bool:
        """Whether *interface_id* is part of the instance."""
        return interface_id in self._caps

    def weight_of(self, flow_id: str) -> Fraction:
        """Exact registered weight of *flow_id*."""
        return self._weights[flow_id]

    def row_of(self, flow_id: str) -> Optional[FrozenSet[str]]:
        """Registered Π-row of *flow_id* (``None`` = any interface)."""
        return self._rows[flow_id]

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def add_flow(
        self,
        flow_id: str,
        weight: float = 1.0,
        interfaces: Optional[Iterable[str]] = None,
    ) -> Allocation:
        """Flow arrival. Scope: the lowest stage its Π-row reaches."""
        if flow_id in self._weights:
            raise FairnessError(f"flow {flow_id!r} already registered")
        row = self._ingest_flow(flow_id, weight, interfaces)
        scope = self._row_scope(row)
        return self._resolve(scope)

    def remove_flow(self, flow_id: str) -> Allocation:
        """Flow departure. Scope: the flow's own stage."""
        self._require_flow(flow_id)
        scope = self._flow_scope(flow_id)
        del self._weights[flow_id]
        del self._rows[flow_id]
        return self._resolve(scope)

    def set_weight(self, flow_id: str, weight: float) -> Allocation:
        """φ change. Scope: the flow's own stage (its row is unchanged,
        and no kept-stage subset can confine a later-stage flow)."""
        self._require_flow(flow_id)
        exact = _checked_fraction(f"flow {flow_id!r} weight", weight, allow_zero=False)
        scope = self._flow_scope(flow_id)
        self._weights[flow_id] = exact
        return self._resolve(scope)

    def restrict_flow(
        self, flow_id: str, interfaces: Optional[Iterable[str]]
    ) -> Allocation:
        """Π-row change. Scope: the flow's stage *and* every stage the
        new row reaches (a narrowed row can confine the flow into a
        lower subset)."""
        self._require_flow(flow_id)
        row: Optional[FrozenSet[str]] = (
            frozenset(interfaces) if interfaces is not None else None
        )
        self._validate_row(flow_id, row)
        scope = min(self._flow_scope(flow_id), self._row_scope(row))
        self._rows[flow_id] = row
        return self._resolve(scope)

    def set_capacity(self, interface_id: str, capacity: float) -> Allocation:
        """Capacity change or outage (0). Scope: the interface's stage.

        Also registers previously unknown interfaces; a new interface
        is reachable by every ``None``-row flow and any explicit row
        naming it, so its scope is the lowest stage of those flows.
        """
        exact = _checked_fraction(
            f"interface {interface_id!r} capacity", capacity, allow_zero=True
        )
        if interface_id in self._caps:
            scope = self._iface_scope(interface_id)
        else:
            scope = self._new_iface_scope(interface_id)
        self._caps[interface_id] = exact
        return self._resolve(scope)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_row(
        self, flow_id: str, row: Optional[FrozenSet[str]]
    ) -> None:
        if row is not None and not (row & set(self._caps)):
            raise FairnessError(
                f"flow {flow_id!r} is not willing to use any known interface"
            )

    def _ingest_flow(
        self,
        flow_id: str,
        weight: float,
        interfaces: Optional[Iterable[str]],
    ) -> Optional[FrozenSet[str]]:
        exact = _checked_fraction(f"flow {flow_id!r} weight", weight, allow_zero=False)
        row: Optional[FrozenSet[str]] = (
            frozenset(interfaces) if interfaces is not None else None
        )
        self._validate_row(flow_id, row)
        self._weights[flow_id] = exact
        self._rows[flow_id] = row
        return row

    def _require_flow(self, flow_id: str) -> None:
        if flow_id not in self._weights:
            raise FairnessError(f"unknown flow {flow_id!r}")

    def _stages(self) -> List[Stage]:
        return self._allocation.stages if self._allocation is not None else []

    def _flow_scope(self, flow_id: str) -> int:
        for index, stage in enumerate(self._stages()):
            if flow_id in stage.flows:
                return index
        return 0  # not in any stage: force a full solve

    def _iface_scope(self, interface_id: str) -> int:
        stages = self._stages()
        for index, stage in enumerate(stages):
            if interface_id in stage.interfaces:
                return index
        return len(stages)  # idle interface: suffix-only

    def _row_scope(self, row: Optional[FrozenSet[str]]) -> int:
        stages = self._stages()
        if row is None:
            effective = set(self._caps)
        else:
            effective = row & set(self._caps)
        return min(
            (self._iface_scope(j) for j in effective), default=len(stages)
        )

    def _new_iface_scope(self, interface_id: str) -> int:
        stages = self._stages()
        scope = len(stages)
        for flow_id, row in self._rows.items():
            if row is None or interface_id in row:
                scope = min(scope, self._flow_scope(flow_id))
        return scope

    def _instance(self) -> Dict[str, Tuple[Fraction, Optional[FrozenSet[str]]]]:
        return {
            flow_id: (self._weights[flow_id], self._rows[flow_id])
            for flow_id in self._weights
        }

    def _solve_full(self, count: bool = True) -> Allocation:
        self._allocation = weighted_maxmin(self._instance(), self._caps)
        if count:
            self.full_solves += 1
        return self._allocation

    def _resolve(self, scope: int) -> Allocation:
        """Re-solve after a delta whose lowest touched stage is *scope*."""
        self.deltas_total += 1
        previous = self._allocation
        if previous is None or scope <= 0 or not previous.stages:
            allocation = self._solve_full()
        else:
            allocation = self._resolve_suffix(previous, scope)
        if self._debug:
            self._assert_matches_scratch(allocation)
        return allocation

    def _resolve_suffix(self, previous: Allocation, scope: int) -> Allocation:
        kept_stages = previous.stages[:scope]
        kept_flows = frozenset().union(*(s.flows for s in kept_stages))
        kept_ifaces = frozenset().union(*(s.interfaces for s in kept_stages))
        fence = kept_stages[-1].level

        sub_caps = {
            j: self._caps[j] for j in self._caps if j not in kept_ifaces
        }
        sub_flows: Dict[str, Tuple[Fraction, Optional[FrozenSet[str]]]] = {}
        for flow_id, weight in self._weights.items():
            if flow_id in kept_flows:
                continue
            row = self._rows[flow_id]
            # Kept interfaces are fully consumed by kept flows; the
            # suffix instance sees rows restricted to what remains —
            # exactly the from-scratch algorithm's state at this stage.
            restricted = (
                frozenset(sub_caps)
                if row is None
                else row - kept_ifaces
            )
            sub_flows[flow_id] = (weight, restricted)

        try:
            sub = weighted_maxmin(sub_flows, sub_caps)
        except FairnessError:
            # A suffix row emptied out (only reachable through deltas
            # this scope analysis missed); never guess — full solve.
            self.fence_fallbacks += 1
            return self._solve_full()
        if sub.stages and sub.stages[0].level < fence:
            # Fence breached: the delta pulled the suffix bottleneck
            # below a kept level, so kept clusters must merge into the
            # new bottleneck. Ambiguous locally — full solve.
            self.fence_fallbacks += 1
            return self._solve_full()

        rates = {
            flow_id: previous.rates[flow_id] for flow_id in kept_flows
        }
        rates.update(sub.rates)
        kept_clusters = [
            cluster
            for cluster in previous.clusters
            if cluster.flows <= kept_flows
        ]
        clusters = sorted(
            kept_clusters + list(sub.clusters), key=lambda c: c.level
        )
        self._allocation = Allocation(
            rates=rates,
            clusters=clusters,
            idle_interfaces=sub.idle_interfaces,
            stages=list(kept_stages) + list(sub.stages),
        )
        self.incremental_solves += 1
        return self._allocation

    def _assert_matches_scratch(self, allocation: Allocation) -> None:
        scratch = weighted_maxmin(self._instance(), self._caps)
        if allocation.rates != scratch.rates:
            raise AssertionError(
                "incremental solve diverged from weighted_maxmin: "
                f"incremental={allocation.rates!r} scratch={scratch.rates!r}"
            )
        if allocation.idle_interfaces != scratch.idle_interfaces:
            raise AssertionError(
                "incremental idle set diverged from weighted_maxmin: "
                f"incremental={sorted(allocation.idle_interfaces)} "
                f"scratch={sorted(scratch.idle_interfaces)}"
            )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Instance definition and solve counters, JSON-safe.

        The allocation itself is derived state: restore re-solves once
        from scratch (uncounted) instead of serializing Fractions of
        every rate.
        """
        return {
            "capacities": {j: str(c) for j, c in self._caps.items()},
            "flows": {
                flow_id: [
                    str(self._weights[flow_id]),
                    sorted(row) if row is not None else None,
                ]
                for flow_id, row in self._rows.items()
            },
            "deltas_total": self.deltas_total,
            "incremental_solves": self.incremental_solves,
            "full_solves": self.full_solves,
            "fence_fallbacks": self.fence_fallbacks,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the instance from :meth:`snapshot_state`."""
        self._caps = {
            j: Fraction(c) for j, c in state["capacities"].items()
        }
        self._weights = {}
        self._rows = {}
        for flow_id, (weight, row) in state["flows"].items():
            self._weights[flow_id] = Fraction(weight)
            self._rows[flow_id] = frozenset(row) if row is not None else None
        self.deltas_total = state["deltas_total"]
        self.incremental_solves = state["incremental_solves"]
        self.full_solves = state["full_solves"]
        self.fence_fallbacks = state["fence_fallbacks"]
        self._solve_full(count=False)

    def __repr__(self) -> str:
        return (
            f"IncrementalMaxMinSolver({len(self._weights)} flows × "
            f"{len(self._caps)} interfaces, "
            f"{self.incremental_solves}/{self.deltas_total} incremental)"
        )
