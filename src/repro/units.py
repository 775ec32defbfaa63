"""Unit helpers: rates, sizes and time.

Internally the library uses SI base units everywhere:

* time — seconds (``float``)
* data — bytes (``int``) for packet sizes, bits for rates
* rate — bits per second (``float``)

These helpers exist so scenario code can say ``mbps(3)`` instead of
``3_000_000.0`` and so reports can render values readably.
"""

from __future__ import annotations

#: Bits per byte, named to avoid magic ``8`` constants in rate math.
BITS_PER_BYTE = 8

#: Conventional Ethernet MTU in bytes; default maximum packet size.
ETHERNET_MTU = 1500

#: Microseconds in one second.
US_PER_S = 1_000_000.0

#: Nanoseconds in one second.
NS_PER_S = 1_000_000_000.0


def kbps(value: float) -> float:
    """Return *value* kilobits/second in bits/second."""
    return float(value) * 1e3


def mbps(value: float) -> float:
    """Return *value* megabits/second in bits/second."""
    return float(value) * 1e6


def gbps(value: float) -> float:
    """Return *value* gigabits/second in bits/second."""
    return float(value) * 1e9


def kib(value: float) -> int:
    """Return *value* kibibytes in bytes."""
    return int(value * 1024)


def mib(value: float) -> int:
    """Return *value* mebibytes in bytes."""
    return int(value * 1024 * 1024)


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a byte count to bits."""
    return num_bytes * BITS_PER_BYTE

def bits_to_bytes(num_bits: float) -> float:
    """Convert a bit count to bytes."""
    return num_bits / BITS_PER_BYTE


def transmission_time(size_bytes: float, rate_bps: float) -> float:
    """Seconds needed to serialize ``size_bytes`` at ``rate_bps``.

    Raises :class:`ValueError` for non-positive rates because a zero
    rate would silently produce ``inf`` and hang a simulation.

    ``Interface._complete`` inlines this formula and its guard on the
    per-packet path; change the two together.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps!r}")
    return bytes_to_bits(size_bytes) / rate_bps


def format_rate(rate_bps: float) -> str:
    """Render a rate in the most natural SI unit (e.g. ``'3.00 Mb/s'``)."""
    magnitude = abs(rate_bps)
    if magnitude >= 1e9:
        return f"{rate_bps / 1e9:.2f} Gb/s"
    if magnitude >= 1e6:
        return f"{rate_bps / 1e6:.2f} Mb/s"
    if magnitude >= 1e3:
        return f"{rate_bps / 1e3:.2f} kb/s"
    return f"{rate_bps:.2f} b/s"


def format_bytes(num_bytes: float) -> str:
    """Render a byte count readably (e.g. ``'1.50 MiB'``)."""
    magnitude = abs(num_bytes)
    if magnitude >= 1024 ** 3:
        return f"{num_bytes / 1024 ** 3:.2f} GiB"
    if magnitude >= 1024 ** 2:
        return f"{num_bytes / 1024 ** 2:.2f} MiB"
    if magnitude >= 1024:
        return f"{num_bytes / 1024:.2f} KiB"
    return f"{int(num_bytes)} B"


def format_duration(seconds: float) -> str:
    """Render a duration readably (e.g. ``'2.50 us'``, ``'66.0 s'``)."""
    magnitude = abs(seconds)
    if magnitude >= 1.0:
        return f"{seconds:.1f} s"
    if magnitude >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    if magnitude >= 1e-6:
        return f"{seconds * 1e6:.2f} us"
    return f"{seconds * 1e9:.1f} ns"
