"""Declarative experiment scenarios.

A :class:`Scenario` describes interfaces (with optional capacity
schedules), flows (weights, interface preferences, traffic model) and a
duration. The :mod:`repro.core.runner` materializes it against any
multi-interface scheduler, so the same scenario file drives miDRR and
every baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..net.interface import CapacityStep
from ..prefs.preferences import PreferenceSet

#: Traffic model names understood by the runner.
TRAFFIC_KINDS = ("bulk", "cbr", "poisson", "onoff")


@dataclass(frozen=True)
class TrafficSpec:
    """How a flow generates packets.

    ``kind``:

    * ``"bulk"`` — continuously backlogged transfer of ``total_bytes``
      (``None`` = unbounded). The paper's workload.
    * ``"cbr"`` — constant bit rate at ``rate_bps``.
    * ``"poisson"`` — Poisson arrivals at ``rate_bps`` average load.
    * ``"onoff"`` — exponential on/off bursts at ``rate_bps`` peak.

    ``deadline`` is an optional per-packet latency budget (seconds):
    each packet must leave the system within ``deadline`` of its
    arrival. ``None`` marks elastic traffic with no SLO.
    """

    kind: str = "bulk"
    total_bytes: Optional[int] = None
    rate_bps: Optional[float] = None
    packet_size: int = 1500
    mean_on: float = 1.0
    mean_off: float = 1.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ConfigurationError(
                f"unknown traffic kind {self.kind!r}; expected one of {TRAFFIC_KINDS}"
            )
        # Byte counts are integers end to end (the stats collector keeps
        # them in integer arrays); a JSON document may still carry 1500.0.
        if not isinstance(self.packet_size, int) or self.packet_size <= 0:
            raise ConfigurationError(
                f"packet_size must be a positive integer, got {self.packet_size!r}"
            )
        if self.kind in ("cbr", "poisson", "onoff") and (
            self.rate_bps is None or self.rate_bps <= 0
        ):
            raise ConfigurationError(
                f"traffic kind {self.kind!r} needs a positive rate_bps"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be positive, got {self.deadline}"
            )


@dataclass(frozen=True)
class FlowSpec:
    """One flow: identity, preferences and traffic."""

    flow_id: str
    weight: float = 1.0
    interfaces: Optional[Tuple[str, ...]] = None
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.flow_id:
            raise ConfigurationError("flow_id must be non-empty")
        if self.weight <= 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: weight must be positive, got {self.weight}"
            )
        if self.start_time < 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: start_time must be ≥ 0"
            )


@dataclass(frozen=True)
class InterfaceSpec:
    """One interface: id, initial rate, optional capacity schedule."""

    interface_id: str
    rate_bps: float
    capacity_steps: Tuple[CapacityStep, ...] = ()

    def __post_init__(self) -> None:
        if not self.interface_id:
            raise ConfigurationError("interface_id must be non-empty")
        if self.rate_bps <= 0:
            raise ConfigurationError(
                f"interface {self.interface_id!r}: rate must be positive"
            )


@dataclass(frozen=True)
class Scenario:
    """A complete experiment description."""

    interfaces: Tuple[InterfaceSpec, ...]
    flows: Tuple[FlowSpec, ...]
    duration: float
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self) -> None:
        if not self.interfaces:
            raise ConfigurationError("a scenario needs at least one interface")
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        interface_ids = [spec.interface_id for spec in self.interfaces]
        if len(set(interface_ids)) != len(interface_ids):
            raise ConfigurationError("duplicate interface ids in scenario")
        flow_ids = [spec.flow_id for spec in self.flows]
        if len(set(flow_ids)) != len(flow_ids):
            raise ConfigurationError("duplicate flow ids in scenario")
        known = set(interface_ids)
        for spec in self.flows:
            if spec.interfaces is not None:
                unknown = set(spec.interfaces) - known
                if unknown:
                    raise ConfigurationError(
                        f"flow {spec.flow_id!r} references unknown interfaces "
                        f"{sorted(unknown)}"
                    )

    def interface_ids(self) -> List[str]:
        """Interface ids in declaration order."""
        return [spec.interface_id for spec in self.interfaces]

    def capacities(self) -> Dict[str, float]:
        """Initial capacity per interface."""
        return {spec.interface_id: spec.rate_bps for spec in self.interfaces}

    def preference_set(self) -> PreferenceSet:
        """Compile flows' (Π, φ) into a :class:`PreferenceSet`."""
        prefs = PreferenceSet(self.interface_ids())
        for spec in self.flows:
            prefs.add_flow(
                spec.flow_id,
                weight=spec.weight,
                interfaces=spec.interfaces,
            )
        prefs.validate()
        return prefs

    def weights(self) -> Dict[str, float]:
        """``φ`` per flow."""
        return {spec.flow_id: spec.weight for spec in self.flows}

    # ------------------------------------------------------------------
    # Serialization (store experiment definitions alongside results)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """A JSON-safe dictionary capturing the whole scenario."""
        return {
            "name": self.name,
            "duration": self.duration,
            "seed": self.seed,
            "interfaces": [
                {
                    "interface_id": spec.interface_id,
                    "rate_bps": spec.rate_bps,
                    "capacity_steps": [
                        {"time": step.time, "rate_bps": step.rate_bps}
                        for step in spec.capacity_steps
                    ],
                }
                for spec in self.interfaces
            ],
            "flows": [
                {
                    "flow_id": spec.flow_id,
                    "weight": spec.weight,
                    "interfaces": (
                        list(spec.interfaces) if spec.interfaces is not None else None
                    ),
                    "start_time": spec.start_time,
                    "traffic": {
                        "kind": spec.traffic.kind,
                        "total_bytes": spec.traffic.total_bytes,
                        "rate_bps": spec.traffic.rate_bps,
                        "packet_size": spec.traffic.packet_size,
                        "mean_on": spec.traffic.mean_on,
                        "mean_off": spec.traffic.mean_off,
                        "deadline": spec.traffic.deadline,
                    },
                }
                for spec in self.flows
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        """Reconstruct a scenario produced by :meth:`to_dict`.

        Validation runs through the normal constructors, so a corrupt
        document raises :class:`~repro.errors.ConfigurationError`.
        """
        try:
            interfaces = tuple(
                InterfaceSpec(
                    interface_id=item["interface_id"],
                    rate_bps=item["rate_bps"],
                    capacity_steps=tuple(
                        CapacityStep(step["time"], step["rate_bps"])
                        for step in item.get("capacity_steps", [])
                    ),
                )
                for item in data["interfaces"]
            )
            flows = tuple(
                FlowSpec(
                    flow_id=item["flow_id"],
                    weight=item.get("weight", 1.0),
                    interfaces=(
                        tuple(item["interfaces"])
                        if item.get("interfaces") is not None
                        else None
                    ),
                    start_time=item.get("start_time", 0.0),
                    traffic=TrafficSpec(**item.get("traffic", {})),
                )
                for item in data["flows"]
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed scenario document: {exc}") from exc
        return cls(
            interfaces=interfaces,
            flows=flows,
            duration=data["duration"],
            seed=data.get("seed", 0),
            name=data.get("name", "scenario"),
        )
