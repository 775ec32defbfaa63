"""The simulated packet.

A :class:`Packet` is the unit both the scheduling engine and the bridge
operate on. Scheduling only needs ``flow_id`` and ``size_bytes``; the
optional :class:`FiveTuple` and raw ``wire_bytes`` support the bridge
substrate, which classifies and rewrites real headers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .addresses import Ipv4Address

_packet_counter = itertools.count()


def packet_seq_state() -> int:
    """The next seqno the global packet counter will hand out.

    Read non-destructively (no counter draw), so taking a checkpoint
    never perturbs packet numbering.
    """
    return _packet_counter.__reduce__()[1][0]


def restore_packet_seq(next_seqno: int) -> None:
    """Reset the global packet counter so the next packet gets
    *next_seqno*. Used by checkpoint restore to keep packet numbering —
    and everything keyed on it — identical across a crash."""
    global _packet_counter
    _packet_counter = itertools.count(next_seqno)


@dataclass(frozen=True, order=True)
class FiveTuple:
    """The classic flow identifier: addresses, ports, protocol."""

    src: Ipv4Address
    dst: Ipv4Address
    src_port: int
    dst_port: int
    protocol: int

    def reversed(self) -> "FiveTuple":
        """The tuple of the reverse direction (for return traffic)."""
        return FiveTuple(
            src=self.dst,
            dst=self.src,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def __str__(self) -> str:
        return (
            f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port}"
            f"/proto{self.protocol}"
        )


class Packet:
    """One schedulable packet.

    Written out by hand with ``__slots__`` (a dataclass takes ``slots``
    only from Python 3.10): every simulated packet is one of these, so
    construction and attribute access stay cheap and no per-instance
    ``__dict__`` is allocated. Equality compares every field, as a
    dataclass's would, and packets are unhashable.

    Attributes
    ----------
    flow_id:
        Identifier of the flow this packet belongs to.
    size_bytes:
        Total on-wire size; this is what deficit counters account in.
    created_at:
        Virtual time of arrival into the system (for latency stats).
    seqno:
        Globally unique, monotonically increasing id (determinism aid).
        Drawn from the global packet counter when not given.
    deadline:
        Optional absolute virtual time by which the packet should have
        finished transmission. ``None`` means the packet is elastic —
        deadline-aware schedulers treat it as infinitely patient and
        the engine's miss accounting ignores it.
    five_tuple:
        Optional L3/L4 identity, set when the bridge substrate is used.
    wire_bytes:
        Optional raw bytes (headers + payload) for bridge rewriting.
    """

    __slots__ = (
        "flow_id",
        "size_bytes",
        "created_at",
        "seqno",
        "deadline",
        "five_tuple",
        "wire_bytes",
    )

    def __init__(
        self,
        flow_id: str,
        size_bytes: int,
        created_at: float = 0.0,
        seqno: Optional[int] = None,
        deadline: Optional[float] = None,
        five_tuple: Optional[FiveTuple] = None,
        wire_bytes: Optional[bytes] = None,
    ) -> None:
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        self.created_at = created_at
        # Drawn before the size check, so a rejected packet burns its
        # seqno exactly as it always has.
        self.seqno = next(_packet_counter) if seqno is None else seqno
        self.deadline = deadline
        self.five_tuple = five_tuple
        self.wire_bytes = wire_bytes
        if size_bytes <= 0:
            raise ConfigurationError(
                f"packet size must be positive, got {size_bytes}"
            )

    def _fields(self) -> tuple:
        return (
            self.flow_id,
            self.size_bytes,
            self.created_at,
            self.seqno,
            self.deadline,
            self.five_tuple,
            self.wire_bytes,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable, compared by value: unhashable

    @property
    def size_bits(self) -> float:
        """On-wire size in bits."""
        return self.size_bytes * 8

    def __repr__(self) -> str:  # compact for trace dumps
        return f"Packet({self.flow_id}#{self.seqno}, {self.size_bytes}B)"


def encode_packet(packet: Packet) -> dict:
    """Render *packet* as a JSON-safe dict (checkpoint codec)."""
    five_tuple = None
    if packet.five_tuple is not None:
        ft = packet.five_tuple
        five_tuple = [ft.src.value, ft.dst.value, ft.src_port, ft.dst_port, ft.protocol]
    return {
        "flow_id": packet.flow_id,
        "size_bytes": packet.size_bytes,
        "created_at": packet.created_at,
        "seqno": packet.seqno,
        "deadline": packet.deadline,
        "five_tuple": five_tuple,
        "wire_bytes": (
            packet.wire_bytes.hex() if packet.wire_bytes is not None else None
        ),
    }


def decode_packet(doc: dict) -> Packet:
    """Rebuild a packet from :func:`encode_packet` output.

    The explicit ``seqno`` bypasses the global counter, so decoding
    never burns fresh sequence numbers.
    """
    five_tuple = None
    if doc["five_tuple"] is not None:
        from .addresses import Ipv4Address

        src, dst, src_port, dst_port, protocol = doc["five_tuple"]
        five_tuple = FiveTuple(
            src=Ipv4Address(src),
            dst=Ipv4Address(dst),
            src_port=src_port,
            dst_port=dst_port,
            protocol=protocol,
        )
    return Packet(
        flow_id=doc["flow_id"],
        size_bytes=doc["size_bytes"],
        created_at=doc["created_at"],
        seqno=doc["seqno"],
        deadline=doc.get("deadline"),
        five_tuple=five_tuple,
        wire_bytes=(
            bytes.fromhex(doc["wire_bytes"]) if doc["wire_bytes"] is not None else None
        ),
    )
