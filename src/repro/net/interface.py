"""The simulated network interface (output link).

An :class:`Interface` models one physical interface (WiFi, 3G, ...) as a
serial transmitter with a (possibly time-varying) line rate. Whenever it
is free it asks its attached *packet source* — the scheduler binding —
for the next packet, which is exactly the paper's model: *"A packet
scheduler answers the question of when an interface is available, which
packet should be sent?"*

Capacity changes take effect for the *next* transmission; the packet in
flight completes at the rate it started with. Capacity steps in the
paper's experiments happen on multi-second timescales against
millisecond packet times, so this simplification is invisible in the
results while keeping the event math exact.

Up/down semantics (chaos runs depend on these — see
``docs/fault_model.md``):

* :meth:`bring_down` is administrative: the packet in flight completes
  at full fidelity and its completion listeners still fire (service
  accounting must not lose the packet), but the post-completion pull is
  suppressed — the interface takes no new work until :meth:`bring_up`.
* Both transitions are idempotent and observable through
  :meth:`on_state_change` listeners, which is how the engine learns to
  quarantine flows whose entire Π-set went dark.
* :meth:`set_rate` while down is legal and *deferred*: the new rate is
  recorded and governs the first transmission after recovery. A
  :class:`CapacityStep` scheduled before an outage therefore still
  lands if it fires mid-outage — the race between ``bring_down`` and a
  pending step cannot corrupt the transmit path because rate changes
  never pull packets.

Egress filters support fault injection: each completed transmission is
offered to the registered filters in order, and any filter returning
``False`` consumes the packet (loss/corruption discard) — the sent
listeners never see it, so it counts as transmitted but not delivered.
The :meth:`on_consumed` listeners hear about it instead (the engine
still counts a consumed packet toward its flow's completion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..errors import ConfigurationError, SimulationError
from ..units import BITS_PER_BYTE
from .packet import Packet
from ..sim.simulator import Simulator

#: Signature of the scheduler hook: given the interface, return the next
#: packet to transmit or ``None`` to go idle.
PacketSource = Callable[["Interface"], Optional[Packet]]

#: Signature of transmission-complete listeners.
SentListener = Callable[["Interface", Packet], None]

#: Signature of up/down listeners: ``listener(interface, is_up)``.
StateListener = Callable[["Interface", bool], None]

#: Signature of line-rate listeners: ``listener(interface, rate_bps)``.
RateListener = Callable[["Interface", float], None]

#: Signature of egress filters: return ``True`` to deliver the packet,
#: ``False`` to consume it (loss injection / corruption discard).
EgressFilter = Callable[["Interface", Packet], bool]


@dataclass(frozen=True)
class CapacityStep:
    """A scheduled line-rate change: at ``time``, become ``rate_bps``."""

    time: float
    rate_bps: float

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ConfigurationError(
                f"capacity step rate must be positive, got {self.rate_bps}"
            )


class Interface:
    """A serial output link with a pluggable packet source."""

    def __init__(
        self,
        sim: Simulator,
        interface_id: str,
        rate_bps: float,
    ) -> None:
        if not interface_id:
            raise ConfigurationError("interface_id must be non-empty")
        if rate_bps <= 0:
            raise ConfigurationError(
                f"interface {interface_id!r}: rate must be positive, got {rate_bps}"
            )
        self._sim = sim
        self.interface_id = interface_id
        self._rate_bps = float(rate_bps)
        self._source: Optional[PacketSource] = None
        self._sent_listeners: List[SentListener] = []
        self._state_listeners: List[StateListener] = []
        self._rate_listeners: List[RateListener] = []
        self._egress_filters: List[EgressFilter] = []
        self._consumed_listeners: List[SentListener] = []
        # The simulator's event queue, bound once: the transmit path
        # pushes each completion event straight onto it.
        self._events = sim.queue
        self._busy = False
        self._pulling = False
        self._up = True
        self._down_since: Optional[float] = None
        self.bytes_sent = 0
        self.packets_sent = 0
        self.packets_consumed = 0
        self.busy_time = 0.0
        self.down_count = 0
        self.down_time = 0.0
        # Event priority for this interface's transmission chain. The
        # engine assigns each interface a distinct priority above the
        # default (registration order), so completions that tie at the
        # same instant dispatch after every other event at that instant
        # and then in interface registration order, not in the order
        # their events happened to be created.
        self.tx_priority = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_source(self, source: PacketSource) -> None:
        """Install the scheduler hook that supplies packets."""
        if self._source is not None:
            raise ConfigurationError(
                f"interface {self.interface_id!r} already has a packet source"
            )
        self._source = source

    def on_sent(self, listener: SentListener) -> None:
        """Register a callback fired after each completed transmission."""
        self._sent_listeners.append(listener)

    def on_consumed(self, listener: SentListener) -> None:
        """Register a callback fired when an egress filter consumes a
        completed transmission (the sent listeners never see it)."""
        self._consumed_listeners.append(listener)

    def on_state_change(self, listener: StateListener) -> None:
        """Register a callback fired on every up/down transition."""
        self._state_listeners.append(listener)

    def on_rate_change(self, listener: RateListener) -> None:
        """Register a callback fired after every :meth:`set_rate`."""
        self._rate_listeners.append(listener)

    def add_egress_filter(self, egress_filter: EgressFilter) -> None:
        """Append an egress filter (fault injectors, checksum verifiers).

        Filters run in registration order after each transmission; the
        first one returning ``False`` consumes the packet: the sent
        listeners are skipped and the :meth:`on_consumed` listeners run
        instead (the packet was transmitted but never delivered).
        """
        self._egress_filters.append(egress_filter)

    def clear_listeners(self) -> None:
        """Drop the packet source, the egress filters and every
        registered callback (see :meth:`Flow.clear_listeners
        <repro.net.flow.Flow.clear_listeners>`)."""
        self._source = None
        for listeners in (
            self._sent_listeners,
            self._state_listeners,
            self._rate_listeners,
            self._egress_filters,
            self._consumed_listeners,
        ):
            listeners.clear()

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def rate_bps(self) -> float:
        """Current line rate in bits/second."""
        return self._rate_bps

    def set_rate(self, rate_bps: float) -> None:
        """Change the line rate (affects the next transmission).

        Legal while down: the rate is recorded now and takes effect on
        the first transmission after :meth:`bring_up`, so capacity
        steps pending when an outage hits are not lost.
        """
        if rate_bps <= 0:
            raise ConfigurationError(
                f"interface {self.interface_id!r}: rate must be positive, got {rate_bps}"
            )
        self._rate_bps = float(rate_bps)
        for listener in self._rate_listeners:
            listener(self, self._rate_bps)

    def apply_capacity_schedule(self, steps: Sequence[CapacityStep]) -> None:
        """Schedule future :class:`CapacityStep` changes on the simulator.

        Steps that fire while the interface is down still update the
        recorded rate (see :meth:`set_rate`); they never restart
        transmission on a downed interface.
        """
        for step in steps:
            self._sim.schedule(step.time, self.set_rate, step.rate_bps)

    # ------------------------------------------------------------------
    # Up/down state
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        """``True`` while the interface is administratively up."""
        return self._up

    def bring_down(self) -> None:
        """Administratively disable. Idempotent.

        The in-flight packet (if any) completes normally and its
        completion listeners fire; no new packet is pulled until
        :meth:`bring_up`.
        """
        if not self._up:
            return
        self._up = False
        self.down_count += 1
        self._down_since = self._sim.now
        for listener in self._state_listeners:
            listener(self, False)

    def bring_up(self) -> None:
        """Re-enable and immediately look for work. Idempotent."""
        if self._up:
            return
        self._up = True
        if self._down_since is not None:
            self.down_time += self._sim.now - self._down_since
            self._down_since = None
        for listener in self._state_listeners:
            listener(self, True)
        self.kick()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """``True`` while a packet is being serialized."""
        return self._busy

    def kick(self) -> None:
        """Pull the next packet from the source if currently idle.

        Safe to call at any time; the engine calls it on packet arrivals
        and after capacity/topology changes. A downed interface ignores
        kicks entirely.
        """
        self._complete(None)

    def _complete(self, packet: Optional[Packet]) -> None:
        """Finish transmitting *packet*, then pull and send the next one.

        The completion event's handler, and the body of :meth:`kick`
        (``packet=None``: nothing was in flight). One frame per packet:
        the completion bookkeeping, the listeners, the pull and the
        transmit of the next packet all run here.
        """
        if packet is not None:
            self._busy = False
            self.bytes_sent += packet.size_bytes
            self.packets_sent += 1
            for egress_filter in self._egress_filters:
                if not egress_filter(self, packet):
                    self.packets_consumed += 1
                    for listener in self._consumed_listeners:
                        listener(self, packet)
                    break
            else:
                for listener in self._sent_listeners:
                    listener(self, packet)
        # Look for more work only after listeners ran, so rate stats and
        # service flags are consistent when the next decision is made. A
        # listener may already have restarted this interface (a flow
        # completion kicks the flow's interfaces), and a downed
        # interface takes no new work: completion during an outage must
        # not restart transmission.
        if self._busy or self._pulling or not self._up:
            return
        source = self._source
        if source is None:
            raise SimulationError(
                f"interface {self.interface_id!r} kicked without a packet source"
            )
        # Guard against re-entrance: pulling a packet can trigger source
        # refills whose arrival hooks kick this same interface again.
        self._pulling = True
        try:
            packet = source(self)
        finally:
            self._pulling = False
        if packet is None:
            return
        # units.transmission_time(), guard included, inlined: this runs
        # once per packet. Change the two together.
        rate_bps = self._rate_bps
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps!r}")
        duration = packet.size_bytes * BITS_PER_BYTE / rate_bps
        self._busy = True
        self.busy_time += duration
        sim = self._sim
        # Simulator.call_later() inlined (the clock read skips the
        # property; duration > 0 needs no negative-delay check).
        self._events.push(
            sim._now + duration, self._complete, (packet,), self.tx_priority
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Mutable interface state as a JSON-safe dict.

        ``_pulling`` is a within-event re-entrance guard and is always
        ``False`` at event boundaries, so it is not recorded. A ``busy``
        interface has a pending ``_complete`` event, restored by the
        event-queue codec.
        """
        return {
            "interface_id": self.interface_id,
            "rate_bps": self._rate_bps,
            "busy": self._busy,
            "up": self._up,
            "down_since": self._down_since,
            "bytes_sent": self.bytes_sent,
            "packets_sent": self.packets_sent,
            "packets_consumed": self.packets_consumed,
            "busy_time": self.busy_time,
            "down_count": self.down_count,
            "down_time": self.down_time,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from :meth:`snapshot_state`.

        Writes fields directly — no listeners fire: the restored run
        re-creates pending events (including completions and kicks)
        from the event-queue snapshot instead.
        """
        if state["interface_id"] != self.interface_id:
            raise ConfigurationError(
                f"snapshot is for interface {state['interface_id']!r}, "
                f"not {self.interface_id!r}"
            )
        self._rate_bps = state["rate_bps"]
        self._busy = state["busy"]
        self._up = state["up"]
        self._down_since = state["down_since"]
        self.bytes_sent = state["bytes_sent"]
        self.packets_sent = state["packets_sent"]
        self.packets_consumed = state["packets_consumed"]
        self.busy_time = state["busy_time"]
        self.down_count = state["down_count"]
        self.down_time = state["down_time"]

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time spent transmitting over *elapsed* seconds."""
        window = elapsed if elapsed is not None else self._sim.now
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / window)

    def __repr__(self) -> str:
        state = "busy" if self._busy else ("idle" if self._up else "down")
        return f"Interface({self.interface_id!r}, {self._rate_bps:g} b/s, {state})"
