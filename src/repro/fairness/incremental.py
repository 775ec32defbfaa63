"""Weighted max-min solver front end for a live, changing instance.

:class:`IncrementalMaxMinSolver` holds one weighted max-min instance —
interface capacities, flow weights φ and Π-rows — and applies live
deltas to it: flow arrival/departure, weight change, Π-row restriction,
interface capacity change/outage. It is the engine behind the inline
fairness auditor (:mod:`repro.health.auditor`).

Deltas only edit the instance and drop the cached allocation. The
:attr:`~IncrementalMaxMinSolver.allocation` property runs one exact
:func:`~repro.fairness.waterfill.weighted_maxmin` on the first read
after a change and caches the result, so any number of deltas between
two reads costs one solve, and reads without a delta in between cost
none. Chaos runs change the instance far more often than they read the
optimum, which is why the solve waits for a reader.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..errors import FairnessError
from .waterfill import Allocation, _checked_fraction, weighted_maxmin


class IncrementalMaxMinSolver:
    """Hold a weighted max-min instance under live deltas; solve on read.

    Parameters
    ----------
    capacities:
        Initial ``{interface_id: capacity_bps}``; 0 models an outage
        (see :func:`~repro.fairness.waterfill.weighted_maxmin`).
    flows:
        Initial ``{flow_id: (weight, willing_or_None)}``.
    """

    def __init__(
        self,
        capacities: Optional[Mapping[str, float]] = None,
        flows: Optional[
            Mapping[str, Tuple[float, Optional[Iterable[str]]]]
        ] = None,
    ) -> None:
        self._caps: Dict[str, Fraction] = {}
        self._weights: Dict[str, Fraction] = {}
        self._rows: Dict[str, Optional[FrozenSet[str]]] = {}
        self._allocation: Optional[Allocation] = None
        self.deltas_total = 0
        #: Exact solves run (one per read of a changed instance).
        self.full_solves = 0
        if capacities:
            for interface_id, capacity in capacities.items():
                self._caps[interface_id] = _checked_fraction(
                    f"interface {interface_id!r} capacity", capacity, allow_zero=True
                )
        if flows:
            for flow_id, (weight, interfaces) in flows.items():
                self._ingest_flow(flow_id, weight, interfaces)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def allocation(self) -> Allocation:
        """The exact allocation of the current instance.

        Solved on the first read after a change, cached until the next.
        """
        if self._allocation is None:
            self._allocation = weighted_maxmin(self._instance(), self._caps)
            self.full_solves += 1
        return self._allocation

    @property
    def flow_ids(self) -> List[str]:
        """Registered flows, insertion order."""
        return list(self._weights)

    @property
    def interface_ids(self) -> List[str]:
        """Registered interfaces, insertion order."""
        return list(self._caps)

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
    ) -> None:
        """Flow arrival."""
        if flow_id in self._weights:
            raise FairnessError(f"flow {flow_id!r} already registered")
        self._ingest_flow(flow_id, weight, interfaces)
        self._changed()

    def remove_flow(self, flow_id: str) -> None:
        """Flow departure."""
        self._require_flow(flow_id)
        del self._weights[flow_id]
        del self._rows[flow_id]
        self._changed()

    def set_weight(self, flow_id: str, weight: float) -> None:
        """φ change."""
        self._require_flow(flow_id)
        exact = _checked_fraction(f"flow {flow_id!r} weight", weight, allow_zero=False)
        self._weights[flow_id] = exact
        self._changed()

    def restrict_flow(
        self, flow_id: str, interfaces: Optional[Iterable[str]]
    ) -> None:
        """Π-row change (``None`` = any interface)."""
        self._require_flow(flow_id)
        self._rows[flow_id] = self._checked_row(flow_id, interfaces)
        self._changed()

    def set_capacity(self, interface_id: str, capacity: float) -> None:
        """Capacity change or outage (0).

        Also registers previously unknown interfaces.
        """
        exact = _checked_fraction(
            f"interface {interface_id!r} capacity", capacity, allow_zero=True
        )
        self._caps[interface_id] = exact
        self._changed()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _changed(self) -> None:
        self.deltas_total += 1
        self._allocation = None

    def _checked_row(
        self, flow_id: str, interfaces: Optional[Iterable[str]]
    ) -> Optional[FrozenSet[str]]:
        if interfaces is None:
            return None
        row = frozenset(interfaces)
        if row.isdisjoint(self._caps):
            raise FairnessError(
                f"flow {flow_id!r} is not willing to use any known interface"
            )
        return row

    def _ingest_flow(
        self,
        flow_id: str,
        weight: float,
        interfaces: Optional[Iterable[str]],
    ) -> None:
        exact = _checked_fraction(f"flow {flow_id!r} weight", weight, allow_zero=False)
        self._rows[flow_id] = self._checked_row(flow_id, interfaces)
        self._weights[flow_id] = exact

    def _require_flow(self, flow_id: str) -> None:
        if flow_id not in self._weights:
            raise FairnessError(f"unknown flow {flow_id!r}")

    def _instance(self) -> Dict[str, Tuple[Fraction, Optional[FrozenSet[str]]]]:
        return {
            flow_id: (self._weights[flow_id], self._rows[flow_id])
            for flow_id in self._weights
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Instance definition, solve counters and cache state, JSON-safe.

        The allocation itself is derived state: a restore whose snapshot
        held a fresh cache re-solves once from scratch (uncounted)
        instead of serializing Fractions of every rate.
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
            "full_solves": self.full_solves,
            "solved": self._allocation is not None,
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
        self.full_solves = state["full_solves"]
        self._allocation = (
            weighted_maxmin(self._instance(), self._caps)
            if state["solved"]
            else None
        )
