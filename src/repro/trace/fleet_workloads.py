"""Per-device workload factories for the fleet runner.

The fleet coordinator (:mod:`repro.fleet`) simulates thousands of
independent devices; each one needs a complete
:class:`~repro.core.scenario.Scenario` that is a *pure function* of
``(workload spec, device_id, device_seed)`` so any device can be re-run
standalone, byte-identically, outside the fleet. This module provides
that function.

Two workload kinds are supported:

* ``"smartphone"`` — drives the generative app-behaviour model from
  :mod:`repro.trace.smartphone` with a densified configuration (fleet
  runs simulate seconds, not the paper's device-week), converting each
  generated :class:`FlowInterval` into a bounded bulk transfer whose
  size is drawn from the app category's log-normal.  Devices differ
  realistically: some are idle for the whole window, some juggle a
  dozen concurrent flows.
* ``"bulk"`` — a fixed cell of continuously backlogged flows with
  heterogeneous weights and interface restrictions (the paper's
  evaluation workload).  Every device does identical work, which makes
  this the right kind for throughput benchmarking.

Determinism contract: every random draw below comes from
``random.Random`` instances seeded via :func:`derive_seed` from the
*device* seed — never from global state or wall clock — so the same
``(workload, device_id, device_seed)`` triple always yields an
identical scenario document on every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from ..errors import ConfigurationError
from ..sim.randomness import derive_seed
from . import WORKLOAD_KINDS
from .smartphone import DeviceTraceConfig, SmartphoneTraceGenerator

#: Apps whose flows the user is actively waiting on get a heavier φ —
#: mirroring the paper's premise that preferences differ across flows.
_APP_WEIGHTS: Dict[str, float] = {
    "video": 2.0,
    "voip": 2.0,
    "browser": 1.5,
}

#: Per-packet latency budgets (seconds) by app category. Interactive
#: apps carry tight deadlines so fleet runs exercise the engine's
#: deadline-miss accounting; background/bulk apps stay elastic (None).
_APP_DEADLINES: Dict[str, float] = {
    "voip": 0.050,
    "video": 0.150,
    "browser": 0.300,
}


@dataclass(frozen=True)
class DeviceWorkload:
    """Declarative description of one device's simulated workload.

    The same spec is shared by every device in a fleet; per-device
    variation comes exclusively from the device seed.
    """

    kind: str = "smartphone"
    #: Simulated seconds per device. Fleet runs are short windows —
    #: population statistics come from device count, not duration.
    duration: float = 30.0
    num_interfaces: int = 2
    #: Rate of the fastest interface; interface ``i`` runs at
    #: ``rate / (i + 1)`` (WiFi faster than cellular, etc.).
    interface_rate_bps: float = 10_000_000.0
    packet_size: int = 1500
    # -- smartphone knobs (densified relative to the Figure 7 defaults
    #    so a 30 s window actually contains traffic) --
    mean_session: float = 20.0
    mean_gap: float = 10.0
    launch_rate: float = 0.2
    background_rate: float = 0.05
    max_concurrent: int = 35
    # -- bulk knobs --
    num_flows: int = 8

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {WORKLOAD_KINDS}"
            )
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        if self.num_interfaces < 1:
            raise ConfigurationError(
                f"num_interfaces must be ≥ 1, got {self.num_interfaces}"
            )
        if self.interface_rate_bps <= 0:
            raise ConfigurationError(
                f"interface_rate_bps must be positive, got {self.interface_rate_bps}"
            )
        # Byte counts are integers end to end (the stats collector keeps
        # them in integer arrays); a JSON document may still carry 1500.0.
        if not isinstance(self.packet_size, int) or self.packet_size <= 0:
            raise ConfigurationError(
                f"packet_size must be a positive integer, got {self.packet_size!r}"
            )
        if self.num_flows < 1:
            raise ConfigurationError(
                f"num_flows must be ≥ 1, got {self.num_flows}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe spec, embedded verbatim in fleet reports."""
        return {
            "kind": self.kind,
            "duration": self.duration,
            "num_interfaces": self.num_interfaces,
            "interface_rate_bps": self.interface_rate_bps,
            "packet_size": self.packet_size,
            "mean_session": self.mean_session,
            "mean_gap": self.mean_gap,
            "launch_rate": self.launch_rate,
            "background_rate": self.background_rate,
            "max_concurrent": self.max_concurrent,
            "num_flows": self.num_flows,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceWorkload":
        """Reconstruct a spec produced by :meth:`to_dict`."""
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ConfigurationError(
                f"malformed device workload document: {exc}"
            ) from exc


def _interfaces(workload: DeviceWorkload) -> Tuple[InterfaceSpec, ...]:
    return tuple(
        InterfaceSpec(
            interface_id=f"if{index}",
            rate_bps=workload.interface_rate_bps / (index + 1),
        )
        for index in range(workload.num_interfaces)
    )


def _smartphone_flows(
    workload: DeviceWorkload, device_seed: int
) -> Tuple[FlowSpec, ...]:
    config = DeviceTraceConfig(
        duration=workload.duration,
        mean_session=workload.mean_session,
        mean_gap=workload.mean_gap,
        launch_rate=workload.launch_rate,
        background_rate=workload.background_rate,
        max_concurrent=workload.max_concurrent,
    )
    intervals = SmartphoneTraceGenerator(
        config, seed=derive_seed(device_seed, "trace")
    ).generate()
    size_rng = random.Random(derive_seed(device_seed, "bytes"))
    flows = []
    for index, interval in enumerate(intervals):
        flows.append(
            FlowSpec(
                flow_id=f"f{index}:{interval.app}",
                weight=_APP_WEIGHTS.get(interval.app, 1.0),
                traffic=TrafficSpec(
                    kind="bulk",
                    total_bytes=interval.transfer_bytes(size_rng),
                    packet_size=workload.packet_size,
                    deadline=_APP_DEADLINES.get(interval.app),
                ),
                start_time=interval.start,
            )
        )
    return tuple(flows)


def _bulk_flows(workload: DeviceWorkload) -> Tuple[FlowSpec, ...]:
    interface_ids = tuple(f"if{index}" for index in range(workload.num_interfaces))
    flows = []
    for index in range(workload.num_flows):
        # Alternate unrestricted flows with single-interface ones, the
        # preference structure the paper's evaluation exercises.
        restricted: Optional[Tuple[str, ...]] = None
        if index % 2 == 1:
            restricted = (interface_ids[index % workload.num_interfaces],)
        flows.append(
            FlowSpec(
                flow_id=f"bulk{index}",
                weight=float(index % 3 + 1),
                interfaces=restricted,
                traffic=TrafficSpec(
                    kind="bulk",
                    total_bytes=None,
                    packet_size=workload.packet_size,
                ),
            )
        )
    return tuple(flows)


def build_device_scenario(
    workload: DeviceWorkload, device_id: str, device_seed: int
) -> Scenario:
    """Materialize one device's scenario from the shared workload spec.

    Pure and deterministic: same arguments, same scenario — the
    property the fleet's per-device reproducibility guarantee rests on.
    An idle smartphone device (no app launches inside the window) is a
    legitimate outcome and yields a scenario with zero flows.
    """
    if not device_id:
        raise ConfigurationError("device_id must be non-empty")
    if workload.kind == "smartphone":
        flows = _smartphone_flows(workload, device_seed)
    else:
        flows = _bulk_flows(workload)
    return Scenario(
        interfaces=_interfaces(workload),
        flows=flows,
        duration=workload.duration,
        seed=device_seed,
        name=f"device:{device_id}",
    )
