"""User preferences: the connectivity matrix Π and rate weights φ.

The paper models preferences with two inputs to the scheduler
(Figure 2):

* ``Π = [π_ij]`` — a binary matrix where ``π_ij = 1`` iff flow *i* is
  willing to use interface *j* (*interface preferences*), and
* ``φ = [φ_i]`` — positive weights giving relative rates between flows
  (*rate preferences*).

:class:`PreferenceSet` is the canonical in-memory form; it validates
the inputs (every flow must be willing to use at least one interface),
builds from an explicit Π matrix given as plain sequences, and
supports live updates — the paper's "use new capacity" property is
exercised by editing preferences mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import PreferenceError


@dataclass(frozen=True)
class FlowPreference:
    """One flow's preferences: its weight and its willing-interface set.

    ``interfaces=None`` means "willing to use every interface".
    """

    weight: float = 1.0
    interfaces: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise PreferenceError(f"weight must be positive, got {self.weight}")
        if self.interfaces is not None and not self.interfaces:
            raise PreferenceError("interface preference set must not be empty")


class PreferenceSet:
    """The (Π, φ) pair for a set of flows over a set of interfaces."""

    def __init__(self, interface_ids: Iterable[str]) -> None:
        self._interface_ids: List[str] = list(dict.fromkeys(interface_ids))
        if not self._interface_ids:
            raise PreferenceError("at least one interface is required")
        self._flows: Dict[str, FlowPreference] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls,
        flow_ids: Sequence[str],
        interface_ids: Sequence[str],
        pi: Sequence[Sequence[int]],
        weights: Optional[Sequence[float]] = None,
    ) -> "PreferenceSet":
        """Build from an explicit Π matrix (rows = flows, cols = ifaces)."""
        prefs = cls(interface_ids)
        if len(pi) != len(flow_ids):
            raise PreferenceError(
                f"Π has {len(pi)} rows but there are {len(flow_ids)} flows"
            )
        for row_index, flow_id in enumerate(flow_ids):
            row = pi[row_index]
            if len(row) != len(interface_ids):
                raise PreferenceError(
                    f"Π row {row_index} has {len(row)} entries but there are "
                    f"{len(interface_ids)} interfaces"
                )
            willing = {
                interface_ids[j] for j, bit in enumerate(row) if bit
            }
            weight = weights[row_index] if weights is not None else 1.0
            prefs.add_flow(flow_id, weight=weight, interfaces=willing)
        return prefs

    def add_flow(
        self,
        flow_id: str,
        weight: float = 1.0,
        interfaces: Optional[Iterable[str]] = None,
    ) -> None:
        """Register *flow_id* with its weight and willing interfaces.

        ``interfaces=None`` means "any interface".
        """
        if flow_id in self._flows:
            raise PreferenceError(f"flow {flow_id!r} already registered")
        willing: Optional[FrozenSet[str]] = None
        if interfaces is not None:
            willing = frozenset(interfaces)
            unknown = willing - set(self._interface_ids)
            if unknown:
                raise PreferenceError(
                    f"flow {flow_id!r} references unknown interfaces {sorted(unknown)}"
                )
            if not willing:
                raise PreferenceError(
                    f"flow {flow_id!r} has an empty interface set — it could "
                    "never be served"
                )
        self._flows[flow_id] = FlowPreference(weight=float(weight), interfaces=willing)

    def remove_flow(self, flow_id: str) -> None:
        """Drop *flow_id* (e.g. the flow completed)."""
        self._flows.pop(flow_id, None)

    def add_interface(self, interface_id: str) -> None:
        """Register a new interface coming online."""
        if interface_id in self._interface_ids:
            raise PreferenceError(f"interface {interface_id!r} already registered")
        self._interface_ids.append(interface_id)

    def set_weight(self, flow_id: str, weight: float) -> None:
        """Live-update a flow's rate preference."""
        pref = self._require(flow_id)
        self._flows[flow_id] = FlowPreference(weight=float(weight), interfaces=pref.interfaces)

    def set_interfaces(self, flow_id: str, interfaces: Optional[Iterable[str]]) -> None:
        """Live-update a flow's interface preference."""
        pref = self._require(flow_id)
        willing = frozenset(interfaces) if interfaces is not None else None
        if willing is not None:
            unknown = willing - set(self._interface_ids)
            if unknown:
                raise PreferenceError(
                    f"flow {flow_id!r} references unknown interfaces {sorted(unknown)}"
                )
        self._flows[flow_id] = FlowPreference(weight=pref.weight, interfaces=willing)

    def _require(self, flow_id: str) -> FlowPreference:
        pref = self._flows.get(flow_id)
        if pref is None:
            raise PreferenceError(f"unknown flow {flow_id!r}")
        return pref

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def flow_ids(self) -> List[str]:
        """Registered flows, in insertion order."""
        return list(self._flows)

    @property
    def interface_ids(self) -> List[str]:
        """Registered interfaces, in insertion order."""
        return list(self._interface_ids)

    def weight(self, flow_id: str) -> float:
        """``φ_i``."""
        return self._require(flow_id).weight

    def willing(self, flow_id: str, interface_id: str) -> bool:
        """``π_ij == 1``?"""
        pref = self._require(flow_id)
        if interface_id not in self._interface_ids:
            return False
        return pref.interfaces is None or interface_id in pref.interfaces

    def willing_interfaces(self, flow_id: str) -> List[str]:
        """Interfaces flow *flow_id* is willing to use, in order."""
        pref = self._require(flow_id)
        if pref.interfaces is None:
            return list(self._interface_ids)
        return [j for j in self._interface_ids if j in pref.interfaces]

    def willing_flows(self, interface_id: str) -> List[str]:
        """``F_j`` — flows willing to use *interface_id*, in order."""
        return [i for i in self._flows if self.willing(i, interface_id)]

    def validate(self) -> None:
        """Check global consistency; raises :class:`PreferenceError`.

        Every flow must be willing to use at least one *registered*
        interface, otherwise it can never be served.
        """
        for flow_id in self._flows:
            if not self.willing_interfaces(flow_id):
                raise PreferenceError(
                    f"flow {flow_id!r} is not willing to use any registered interface"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """A JSON-safe document capturing (Π, φ).

        Flows willing to use every interface serialize with
        ``interfaces: null`` so adding an interface later keeps them
        unrestricted.
        """
        return {
            "interfaces": list(self._interface_ids),
            "flows": [
                {
                    "flow_id": flow_id,
                    "weight": pref.weight,
                    "interfaces": (
                        sorted(pref.interfaces)
                        if pref.interfaces is not None
                        else None
                    ),
                }
                for flow_id, pref in self._flows.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PreferenceSet":
        """Reconstruct a set produced by :meth:`to_dict`."""
        try:
            prefs = cls(data["interfaces"])
            for item in data["flows"]:
                prefs.add_flow(
                    item["flow_id"],
                    weight=item.get("weight", 1.0),
                    interfaces=item.get("interfaces"),
                )
        except (KeyError, TypeError) as exc:
            raise PreferenceError(
                f"malformed preference document: {exc}"
            ) from exc
        prefs.validate()
        return prefs

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    def __repr__(self) -> str:
        return (
            f"PreferenceSet({len(self._flows)} flows × "
            f"{len(self._interface_ids)} interfaces)"
        )
