"""Seeded chaos runs: a stock hostile scenario plus its report.

:func:`run_chaos` wires the full stack — engine, miDRR, watchdog,
invariant checker and every fault process — into one deterministic
scenario: WiFi flaps (Gilbert–Elliott), the cellular data interface
flaps *and* suffers loss + corruption (with checksum verification), LTE
capacity collapses and ramps back, and flow weights churn mid-run. The
fault window closes before the end of the run so the report can measure
how quickly quarantined flows reconverge to their weighted max-min
share.

Same seed ⇒ byte-identical fault timeline (``fault_signature``) and
final stats (``stats_signature``); the ``midrr chaos`` subcommand and
the chaos regression tests both assert this.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.engine import SchedulingEngine
from ..errors import FaultError
from ..fairness.waterfill import weighted_maxmin
from ..health.invariants import MiDrrInvariantChecker
from ..health.auditor import FairnessAuditor
from ..health.watchdog import Alert, Watchdog
from ..net.addresses import Ipv4Address, MacAddress
from ..net.flow import Flow
from ..net.headers import EthernetHeader, Ipv4Header, UdpHeader, IPPROTO_UDP
from ..net.interface import Interface
from ..net.packet import Packet
from ..net.sink import StatsCollector
from ..net.sources import BulkSource
from ..schedulers.midrr import MiDrrScheduler
from ..sim.randomness import RandomStreams
from ..sim.simulator import Simulator
from ..units import mbps
from .processes import (
    CapacityCollapse,
    ChecksumVerifier,
    GilbertElliottFlapper,
    PacketCorruptionInjector,
    PacketLossInjector,
    PreferenceChurner,
)
from .timeline import FaultTimeline

#: Interfaces of the stock chaos device (id → initial rate).
CHAOS_INTERFACES: Dict[str, float] = {
    "wifi": mbps(8),
    "lte": mbps(5),
    "cell": mbps(2),
}

#: Bulk flows of the stock scenario (id → (weight, Π-set or None)).
CHAOS_BULK_FLOWS: Dict[str, Tuple[float, Optional[Tuple[str, ...]]]] = {
    "pinned": (1.0, ("wifi",)),
    "video": (2.0, ("wifi", "lte")),
    "bulk": (1.0, ("wifi", "lte")),
}

#: The wire-packet flow exercising loss/corruption on the cell link.
WIRE_FLOW = "wire"


def _wire_packet(flow_id: str, payload_bytes: int, now: float) -> Packet:
    """A schedulable packet carrying a real Ethernet/IPv4/UDP frame."""
    payload = bytes(payload_bytes)
    udp = UdpHeader(
        src_port=40000,
        dst_port=9,
        length=UdpHeader.LENGTH + payload_bytes,
    )
    src = Ipv4Address.parse("10.0.0.2")
    dst = Ipv4Address.parse("192.0.2.1")
    udp_bytes = udp.pack(src, dst, payload)
    ip = Ipv4Header(
        src=src,
        dst=dst,
        protocol=IPPROTO_UDP,
        total_length=Ipv4Header.LENGTH + len(udp_bytes) + payload_bytes,
    )
    wire = (
        EthernetHeader(
            dst=MacAddress.parse("02:00:00:00:00:01"),
            src=MacAddress.parse("02:00:00:00:00:02"),
        ).pack()
        + ip.pack()
        + udp_bytes
        + payload
    )
    return Packet(
        flow_id=flow_id,
        size_bytes=len(wire),
        created_at=now,
        wire_bytes=wire,
    )


@dataclass
class QuarantineSpell:
    """One quarantine interval for one flow (``end`` None = still parked)."""

    flow_id: str
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Spell length in seconds, if it closed."""
        return None if self.end is None else self.end - self.start


@dataclass
class ChaosReport:
    """Everything a chaos run measured."""

    seed: int
    duration: float
    timeline: FaultTimeline
    alerts: List[Alert]
    invariant_violations: List[str]
    bytes_by_flow: Dict[str, int]
    drops_by_flow: Dict[str, int]
    interface_down_counts: Dict[str, int]
    packets_lost: int
    packets_corrupted: int
    corruptions_detected: int
    quarantine_spells: List[QuarantineSpell]
    recovery_window: Tuple[float, float]
    recovery_rates: Dict[str, float] = field(default_factory=dict)
    reference_rates: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Determinism fingerprints
    # ------------------------------------------------------------------
    def fault_signature(self) -> str:
        """SHA-256 of the fault timeline."""
        return self.timeline.signature()

    def stats_signature(self) -> str:
        """SHA-256 over the final per-flow byte and drop counts."""
        digest = hashlib.sha256()
        for flow_id in sorted(self.bytes_by_flow):
            digest.update(
                f"{flow_id}:{self.bytes_by_flow[flow_id]}"
                f":{self.drops_by_flow.get(flow_id, 0)}\n".encode("utf-8")
            )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Quality summaries
    # ------------------------------------------------------------------
    def recovery_ratio(self, flow_id: str) -> Optional[float]:
        """measured / reference rate in the post-recovery window."""
        reference = self.reference_rates.get(flow_id)
        if not reference:
            return None
        return self.recovery_rates.get(flow_id, 0.0) / reference

    def to_text(self) -> str:
        """The human-readable chaos report the CLI prints."""
        lines = [
            f"== chaos run: seed={self.seed} duration={self.duration:g}s ==",
            f"fault signature: {self.fault_signature()}",
            f"stats signature: {self.stats_signature()}",
            "",
            f"-- fault timeline ({len(self.timeline)} events) --",
        ]
        lines.extend(self.timeline.render_lines())
        lines.append("")
        lines.append(f"-- quarantine spells ({len(self.quarantine_spells)}) --")
        for spell in self.quarantine_spells:
            end = f"{spell.end:.3f}" if spell.end is not None else "open"
            lines.append(f"{spell.flow_id}: {spell.start:.3f} -> {end}")
        lines.append("")
        lines.append(
            f"-- loss/corruption: lost={self.packets_lost} "
            f"corrupted={self.packets_corrupted} "
            f"detected={self.corruptions_detected} --"
        )
        lines.append("")
        lines.append(f"-- watchdog alerts ({len(self.alerts)}) --")
        for alert in self.alerts:
            lines.append(str(alert))
        lines.append(
            f"-- invariant violations ({len(self.invariant_violations)}) --"
        )
        lines.extend(self.invariant_violations)
        lines.append("")
        lines.append("-- final per-flow service --")
        for flow_id in sorted(self.bytes_by_flow):
            lines.append(
                f"{flow_id}: {self.bytes_by_flow[flow_id]} B sent, "
                f"{self.drops_by_flow.get(flow_id, 0)} dropped"
            )
        start, end = self.recovery_window
        lines.append("")
        lines.append(
            f"-- recovery ({start:.1f}, {end:.1f}]s: measured vs max-min --"
        )
        for flow_id in sorted(self.recovery_rates):
            measured = self.recovery_rates[flow_id]
            reference = self.reference_rates.get(flow_id, 0.0)
            ratio = self.recovery_ratio(flow_id)
            shown = f"{ratio:.3f}" if ratio is not None else "n/a"
            lines.append(
                f"{flow_id}: {measured / 1e6:.3f} vs {reference / 1e6:.3f} Mb/s "
                f"(ratio {shown})"
            )
        return "\n".join(lines)


class ChaosRun:
    """A fully wired chaos scenario, ready to execute.

    *scheduler_factory* swaps the scheduler under the identical fault
    workload (the latency-SLO report runs the whole family through it);
    the miDRR invariant checker is only attached when the scheduler is
    actually miDRR. *deadline_budgets* assigns per-packet latency SLOs
    (seconds) to named flows, feeding the engine's deadline-miss
    accounting.
    """

    def __init__(
        self,
        seed: int,
        duration: float,
        with_churn: bool = True,
        scheduler_factory: Optional[Callable[[], object]] = None,
        deadline_budgets: Optional[Mapping[str, float]] = None,
        with_auditor: bool = False,
        audit_period: float = 1.0,
    ) -> None:
        if duration < 20.0:
            # The fault window plus the settle/measure tail needs room.
            raise FaultError(f"chaos duration must be >= 20s, got {duration:g}")
        self.seed = seed
        self.duration = duration
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.timeline = FaultTimeline()
        budgets = dict(deadline_budgets) if deadline_budgets else {}
        self.scheduler = (
            scheduler_factory() if scheduler_factory is not None else MiDrrScheduler()
        )
        self.engine = SchedulingEngine(self.sim, self.scheduler)
        self.flows: Dict[str, Flow] = {}
        self.quarantine_spells: List[QuarantineSpell] = []
        self._open_spells: Dict[str, QuarantineSpell] = {}

        # The quiet tail: faults stop, the system reconverges, we measure.
        self.fault_end = duration - max(8.0, 0.15 * duration)
        self.settle = 2.0

        for interface_id, rate in CHAOS_INTERFACES.items():
            self.engine.add_interface(Interface(self.sim, interface_id, rate))
        interfaces = self.engine.interfaces

        self.engine.on_quarantine_change(self._quarantine_changed)

        for flow_id, (weight, willing) in CHAOS_BULK_FLOWS.items():
            flow = Flow(
                flow_id,
                weight=weight,
                allowed_interfaces=willing,
                deadline_budget=budgets.get(flow_id),
            )
            self.flows[flow_id] = flow
            BulkSource(self.sim, flow)
            self.engine.add_flow(flow)

        # The wire flow: real headers over the cell link, bounded
        # drop-head backlog so outage-time arrivals age out measurably.
        wire = Flow(
            WIRE_FLOW,
            allowed_interfaces=("cell",),
            max_queue_bytes=30_000,
            queue_policy="drop-head",
            deadline_budget=budgets.get(WIRE_FLOW),
        )
        self.flows[WIRE_FLOW] = wire
        self.engine.add_flow(wire)
        self._offer_wire_packets()

        # Fault processes, one RNG stream each.
        self.wifi_flapper = GilbertElliottFlapper(
            self.sim,
            interfaces["wifi"],
            self.streams.stream("flap:wifi"),
            mean_up=6.0,
            mean_down=1.5,
            start_time=4.0,
            until=self.fault_end,
            timeline=self.timeline,
        )
        self.cell_flapper = GilbertElliottFlapper(
            self.sim,
            interfaces["cell"],
            self.streams.stream("flap:cell"),
            mean_up=8.0,
            mean_down=2.0,
            start_time=6.0,
            until=self.fault_end,
            timeline=self.timeline,
        )
        self.collapse = CapacityCollapse(
            self.sim,
            interfaces["lte"],
            at=duration * 0.3,
            recover_at=duration * 0.3 + 5.0,
            collapse_factor=0.2,
            ramp_steps=4,
            ramp_duration=2.0,
            timeline=self.timeline,
        )
        self.loss = PacketLossInjector(
            self.sim,
            interfaces["cell"],
            self.streams.stream("loss:cell"),
            loss_probability=0.05,
            timeline=self.timeline,
        )
        self.corruption = PacketCorruptionInjector(
            self.sim,
            interfaces["cell"],
            self.streams.stream("corrupt:cell"),
            corruption_probability=0.2,
            timeline=self.timeline,
        )
        self.verifier = ChecksumVerifier(
            self.sim, interfaces["cell"], timeline=self.timeline
        )
        self.churner = (
            PreferenceChurner(
                self.sim,
                self.engine,
                self.streams.stream("churn"),
                period=7.0,
                weight_choices=(1.0, 2.0, 3.0),
                until=self.fault_end,
                timeline=self.timeline,
            )
            if with_churn
            else None
        )

        # Safety net: whatever state the flappers left, the fault window
        # closes with every interface up (bring_up is idempotent).
        for interface in interfaces.values():
            self.sim.schedule(self.fault_end, interface.bring_up)

        self.checker = (
            MiDrrInvariantChecker(self.scheduler, engine=self.engine)
            if isinstance(self.scheduler, MiDrrScheduler)
            else None
        )
        self.watchdog = Watchdog(
            self.sim,
            self.engine,
            period=0.5,
            starvation_timeout=2.0,
            stall_timeout=2.0,
            invariant_checker=self.checker,
        )
        # Optional inline fairness auditing. The auditor is read-only
        # with respect to scheduling, so enabling it leaves the report
        # hash (and every packet-level decision) byte-identical.
        self.auditor = (
            FairnessAuditor(self.sim, self.engine, period=audit_period)
            if with_auditor
            else None
        )

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------
    def _offer_wire_packets(self) -> None:
        """A steady 64 kb/s stream of real wire frames onto the cell."""
        payload = 486  # 14 + 20 + 8 + 486 = 528 B frames
        interval = 528 * 8 / 64_000

        def emit() -> None:
            flow = self.flows[WIRE_FLOW]
            flow.offer(_wire_packet(WIRE_FLOW, payload, self.sim.now))
            if self.sim.now + interval < self.duration:
                self.sim.call_later(interval, emit)

        self.sim.schedule(0.0, emit)

    def _quarantine_changed(self, flow: Flow, quarantined: bool) -> None:
        if quarantined:
            spell = QuarantineSpell(flow_id=flow.flow_id, start=self.sim.now)
            self._open_spells[flow.flow_id] = spell
            self.quarantine_spells.append(spell)
            self.timeline.record(self.sim.now, "quarantine", flow.flow_id)
        else:
            spell = self._open_spells.pop(flow.flow_id, None)
            if spell is not None:
                spell.end = self.sim.now
            self.timeline.record(self.sim.now, "resume", flow.flow_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ChaosReport:
        """Execute the scenario and compile the report."""
        self.start()
        self.sim.run(until=self.duration)
        return self.finish()

    def start(self) -> None:
        """Start the engine and the monitors; :meth:`run` begins here.

        Callers that advance ``sim`` themselves (in slices, with
        ``sim.run(until=...)`` up to :attr:`duration`) end with
        :meth:`finish`; the report equals an unsliced :meth:`run`'s.
        """
        self.watchdog.start()
        if self.auditor is not None:
            self.auditor.start()
        self.engine.start()

    def finish(self) -> ChaosReport:
        """Stop the monitors and compile the report."""
        self.watchdog.stop()
        if self.auditor is not None:
            self.auditor.stop()

        stats: StatsCollector = self.engine.stats
        window = (self.fault_end + self.settle, self.duration)
        recovery_rates = {
            flow_id: stats.rate_in_window(flow_id, window[0], window[1])
            for flow_id in CHAOS_BULK_FLOWS
        }
        reference = weighted_maxmin(
            {
                flow_id: (
                    self.flows[flow_id].weight,
                    sorted(self.flows[flow_id].allowed_interfaces)
                    if self.flows[flow_id].allowed_interfaces is not None
                    else None,
                )
                for flow_id in CHAOS_BULK_FLOWS
            },
            {
                interface_id: interface.rate_bps
                for interface_id, interface in self.engine.interfaces.items()
                if interface_id != "cell"  # reserved for the wire flow
            },
        )
        reference_rates = {
            flow_id: float(reference.rate(flow_id)) for flow_id in CHAOS_BULK_FLOWS
        }

        return ChaosReport(
            seed=self.seed,
            duration=self.duration,
            timeline=self.timeline,
            alerts=list(self.watchdog.alerts),
            invariant_violations=(
                list(self.checker.violations) if self.checker is not None else []
            ),
            bytes_by_flow={
                flow_id: stats.bytes_sent(flow_id) for flow_id in self.flows
            },
            drops_by_flow={
                flow_id: stats.dropped_packets(flow_id) for flow_id in self.flows
            },
            interface_down_counts={
                interface_id: interface.down_count
                for interface_id, interface in self.engine.interfaces.items()
            },
            packets_lost=self.loss.packets_lost,
            packets_corrupted=self.corruption.packets_corrupted,
            corruptions_detected=self.verifier.corruptions_detected,
            quarantine_spells=list(self.quarantine_spells),
            recovery_window=window,
            recovery_rates=recovery_rates,
            reference_rates=reference_rates,
        )


def build_default_chaos(
    seed: int = 0, duration: float = 60.0, with_churn: bool = True
) -> ChaosRun:
    """Construct (but do not run) the stock chaos scenario."""
    return ChaosRun(seed=seed, duration=duration, with_churn=with_churn)


def run_chaos(
    seed: int = 0, duration: float = 60.0, with_churn: bool = True
) -> ChaosReport:
    """Run the stock chaos scenario and return its report."""
    return build_default_chaos(seed, duration, with_churn=with_churn).run()
