"""Seed-driven fault processes scheduled on the event heap.

Each process takes its randomness from an explicit ``random.Random``
(derive one per process from :class:`~repro.sim.randomness.RandomStreams`
so adding a fault never perturbs another's draws) and records every
action into a shared :class:`~repro.faults.timeline.FaultTimeline`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.engine import SchedulingEngine
from ..errors import FaultError, HeaderError
from ..net.interface import Interface
from ..net.packet import Packet
from ..sim.simulator import Simulator
from .timeline import FaultTimeline


class GilbertElliottFlapper:
    """Two-state (up/down) Markov interface flapping.

    Dwell times are exponential with means ``mean_up`` / ``mean_down``
    — the classic Gilbert–Elliott burst model applied to link
    administrative state. The first transition (up→down) happens an
    exponential dwell after *start_time*; flapping stops after *until*
    (the interface is restored if it was down then).
    """

    def __init__(
        self,
        sim: Simulator,
        interface: Interface,
        rng: random.Random,
        mean_up: float = 5.0,
        mean_down: float = 1.0,
        start_time: float = 0.0,
        until: Optional[float] = None,
        timeline: Optional[FaultTimeline] = None,
    ) -> None:
        if mean_up <= 0 or mean_down <= 0:
            raise FaultError(
                f"dwell means must be positive, got up={mean_up}, down={mean_down}"
            )
        self._sim = sim
        self._interface = interface
        self._rng = rng
        self._mean_up = mean_up
        self._mean_down = mean_down
        self._until = until
        self._timeline = timeline
        self.transitions = 0
        first = max(start_time, sim.now) + rng.expovariate(1.0 / mean_up)
        sim.schedule(first, self._go_down)

    def snapshot_state(self) -> dict:
        """Mutable process state (pending transitions live on the heap)."""
        return {"transitions": self.transitions}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.transitions = state["transitions"]

    def _expired(self) -> bool:
        return self._until is not None and self._sim.now >= self._until

    def _record(self, kind: str) -> None:
        if self._timeline is not None:
            self._timeline.record(self._sim.now, kind, self._interface.interface_id)

    def _go_down(self) -> None:
        if self._expired():
            return
        self._interface.bring_down()
        self.transitions += 1
        self._record("if_down")
        self._sim.call_later(self._rng.expovariate(1.0 / self._mean_down), self._go_up)

    def _go_up(self) -> None:
        self._interface.bring_up()
        self.transitions += 1
        self._record("if_up")
        if self._expired():
            return
        self._sim.call_later(self._rng.expovariate(1.0 / self._mean_up), self._go_down)


class CapacityCollapse:
    """A capacity collapse followed by a staged recovery ramp.

    At *at* the interface's rate drops to ``collapse_factor`` of its
    rate at that moment; from *recover_at* it ramps back to the
    original rate in ``ramp_steps`` equal steps spread over
    ``ramp_duration`` seconds. Uses the deferred ``set_rate`` semantics,
    so a collapse or ramp step landing during an outage still sticks.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: Interface,
        at: float,
        recover_at: float,
        collapse_factor: float = 0.1,
        ramp_steps: int = 4,
        ramp_duration: float = 2.0,
        timeline: Optional[FaultTimeline] = None,
    ) -> None:
        if not 0 < collapse_factor < 1:
            raise FaultError(
                f"collapse_factor must be in (0, 1), got {collapse_factor}"
            )
        if recover_at <= at:
            raise FaultError("recover_at must come after the collapse")
        if ramp_steps <= 0:
            raise FaultError(f"ramp_steps must be positive, got {ramp_steps}")
        self._sim = sim
        self._interface = interface
        self._factor = collapse_factor
        self._recover_at = recover_at
        self._ramp_steps = ramp_steps
        self._ramp_duration = ramp_duration
        self._timeline = timeline
        self._original: Optional[float] = None
        sim.schedule(at, self._collapse)

    def snapshot_state(self) -> dict:
        """Mutable process state (ramp events live on the heap)."""
        return {"original": self._original}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self._original = state["original"]

    def _record(self, rate_bps: float) -> None:
        if self._timeline is not None:
            self._timeline.record(
                self._sim.now,
                "capacity",
                self._interface.interface_id,
                f"rate={rate_bps:.0f}",
            )

    def _collapse(self) -> None:
        self._original = self._interface.rate_bps
        collapsed = self._original * self._factor
        self._interface.set_rate(collapsed)
        self._record(collapsed)
        step = (self._original - collapsed) / self._ramp_steps
        interval = self._ramp_duration / self._ramp_steps
        for index in range(1, self._ramp_steps + 1):
            self._sim.schedule(
                self._recover_at + (index - 1) * interval,
                self._ramp_to,
                collapsed + step * index,
            )

    def _ramp_to(self, rate_bps: float) -> None:
        self._interface.set_rate(rate_bps)
        self._record(rate_bps)


class PacketLossInjector:
    """Bernoulli per-packet loss on one interface's egress.

    The packet is transmitted (it occupied the link) but never
    delivered: sent listeners — and therefore service accounting —
    skip it, modelling loss after the air interface.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: Interface,
        rng: random.Random,
        loss_probability: float,
        timeline: Optional[FaultTimeline] = None,
    ) -> None:
        if not 0 <= loss_probability <= 1:
            raise FaultError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        self._sim = sim
        self._rng = rng
        self._probability = loss_probability
        self._timeline = timeline
        self._interface = interface
        self.packets_lost = 0
        interface.add_egress_filter(self._filter)

    def snapshot_state(self) -> dict:
        """Mutable process state (RNG state lives with the streams)."""
        return {"packets_lost": self.packets_lost}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.packets_lost = state["packets_lost"]

    def _filter(self, interface: Interface, packet: Packet) -> bool:
        if self._rng.random() >= self._probability:
            return True
        self.packets_lost += 1
        if self._timeline is not None:
            self._timeline.record(
                self._sim.now,
                "loss",
                interface.interface_id,
                f"flow={packet.flow_id} size={packet.size_bytes}",
            )
        return False


class PacketCorruptionInjector:
    """Bernoulli byte corruption of packets carrying wire bytes.

    A corrupted packet has one byte past the Ethernet header XORed with
    a non-zero mask, which is guaranteed to break either the IPv4
    header checksum or the TCP/UDP pseudo-header checksum — pair this
    with a downstream :class:`ChecksumVerifier` to model
    detect-and-discard. Packets without ``wire_bytes`` (pure simulation
    packets) pass through untouched.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: Interface,
        rng: random.Random,
        corruption_probability: float,
        timeline: Optional[FaultTimeline] = None,
    ) -> None:
        if not 0 <= corruption_probability <= 1:
            raise FaultError(
                "corruption_probability must be in [0, 1], "
                f"got {corruption_probability}"
            )
        self._sim = sim
        self._rng = rng
        self._probability = corruption_probability
        self._timeline = timeline
        self.packets_corrupted = 0
        interface.add_egress_filter(self._filter)

    def snapshot_state(self) -> dict:
        """Mutable process state (RNG state lives with the streams)."""
        return {"packets_corrupted": self.packets_corrupted}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.packets_corrupted = state["packets_corrupted"]

    def _filter(self, interface: Interface, packet: Packet) -> bool:
        if packet.wire_bytes is None:
            return True
        if self._rng.random() >= self._probability:
            return True
        from ..net.headers import EthernetHeader

        data = bytearray(packet.wire_bytes)
        if len(data) <= EthernetHeader.LENGTH:
            return True
        index = self._rng.randrange(EthernetHeader.LENGTH, len(data))
        mask = 1 + self._rng.randrange(255)
        data[index] ^= mask
        packet.wire_bytes = bytes(data)
        self.packets_corrupted += 1
        if self._timeline is not None:
            self._timeline.record(
                self._sim.now,
                "corrupt",
                interface.interface_id,
                f"flow={packet.flow_id} offset={index} mask={mask:#04x}",
            )
        return True  # delivered corrupted; the verifier catches it


def verify_wire_packet(data: bytes) -> None:
    """Validate every checksum in a wire packet; raise on corruption.

    Checks the IPv4 header checksum and, for TCP/UDP payloads, the
    pseudo-header checksum. Non-IPv4 ethertypes pass vacuously.
    Raises :class:`~repro.errors.HeaderError` on any mismatch.
    """
    # Imported here: only runs that carry wire bytes load the header
    # codec.
    from ..net.headers import (
        ETHERTYPE_IPV4,
        IPPROTO_TCP,
        IPPROTO_UDP,
        EthernetHeader,
        Ipv4Header,
        TcpHeader,
        UdpHeader,
    )

    ethernet = EthernetHeader.unpack(data)
    if ethernet.ethertype != ETHERTYPE_IPV4:
        return
    ip_bytes = data[EthernetHeader.LENGTH :]
    ip = Ipv4Header.unpack(ip_bytes)  # validates the header checksum
    segment = ip_bytes[Ipv4Header.LENGTH : ip.total_length]
    if ip.protocol == IPPROTO_TCP:
        tcp = TcpHeader.unpack(segment)
        if not tcp.verify(ip.src, ip.dst, segment[TcpHeader.LENGTH :]):
            raise HeaderError("TCP checksum mismatch")
    elif ip.protocol == IPPROTO_UDP:
        udp = UdpHeader.unpack(segment)
        if not udp.verify(ip.src, ip.dst, segment[UdpHeader.LENGTH :]):
            raise HeaderError("UDP checksum mismatch")


class ChecksumVerifier:
    """Egress filter that discards packets failing header checksums.

    Attach *after* any :class:`PacketCorruptionInjector` so corrupted
    packets are caught by the real :mod:`repro.net.headers` arithmetic
    and dropped before service accounting sees them.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: Interface,
        timeline: Optional[FaultTimeline] = None,
    ) -> None:
        self._sim = sim
        self._timeline = timeline
        self.packets_verified = 0
        self.corruptions_detected = 0
        interface.add_egress_filter(self._filter)

    def snapshot_state(self) -> dict:
        """Mutable process state."""
        return {
            "packets_verified": self.packets_verified,
            "corruptions_detected": self.corruptions_detected,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.packets_verified = state["packets_verified"]
        self.corruptions_detected = state["corruptions_detected"]

    def _filter(self, interface: Interface, packet: Packet) -> bool:
        if packet.wire_bytes is None:
            return True
        try:
            verify_wire_packet(packet.wire_bytes)
        except HeaderError as exc:
            self.corruptions_detected += 1
            if self._timeline is not None:
                self._timeline.record(
                    self._sim.now,
                    "corrupt_detected",
                    interface.interface_id,
                    f"flow={packet.flow_id} reason={exc}",
                )
            return False
        self.packets_verified += 1
        return True


class PreferenceChurner:
    """Mid-run preference churn: rewrite φ (and optionally Π) on a beat.

    Every ``period`` seconds one registered flow is picked uniformly at
    random; its weight is redrawn from ``weight_choices`` and — when
    ``interface_options`` lists alternatives for it — its Π row is
    redrawn too. All edits route through
    :meth:`~repro.core.engine.SchedulingEngine.notify_preferences_changed`
    so the quarantine layer stays consistent.
    """

    def __init__(
        self,
        sim: Simulator,
        engine: SchedulingEngine,
        rng: random.Random,
        period: float = 5.0,
        weight_choices: Sequence[float] = (1.0, 2.0, 4.0),
        interface_options: Optional[Dict[str, List[Tuple[str, ...]]]] = None,
        start_time: float = 0.0,
        until: Optional[float] = None,
        timeline: Optional[FaultTimeline] = None,
    ) -> None:
        if period <= 0:
            raise FaultError(f"period must be positive, got {period}")
        if not weight_choices:
            raise FaultError("weight_choices must be non-empty")
        self._sim = sim
        self._engine = engine
        self._rng = rng
        self._period = period
        self._weights = list(weight_choices)
        self._interface_options = interface_options or {}
        self._until = until
        self._timeline = timeline
        self.churn_events = 0
        sim.schedule(max(start_time, sim.now) + period, self._churn)

    def snapshot_state(self) -> dict:
        """Mutable process state (RNG state lives with the streams)."""
        return {"churn_events": self.churn_events}

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`."""
        self.churn_events = state["churn_events"]

    def _churn(self) -> None:
        if self._until is not None and self._sim.now >= self._until:
            return
        flows = self._engine.flows
        if flows:
            flow_id = self._rng.choice(sorted(flows))
            flow = flows[flow_id]
            weight = self._rng.choice(self._weights)
            flow.weight = float(weight)
            self.churn_events += 1
            if self._timeline is not None:
                self._timeline.record(
                    self._sim.now, "weight", flow_id, f"phi={weight:g}"
                )
            options = self._interface_options.get(flow_id)
            if options:
                chosen = self._rng.choice(options)
                flow.restrict_to(set(chosen))
                if self._timeline is not None:
                    self._timeline.record(
                        self._sim.now,
                        "prefs",
                        flow_id,
                        "pi={" + ",".join(sorted(chosen)) + "}",
                    )
            self._engine.notify_preferences_changed(flow_id)
        self._sim.call_later(self._period, self._churn)
