"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator` — virtual clock + event loop
* :class:`Event`, :class:`EventQueue` — scheduling primitives
* :class:`Timer`, :class:`PeriodicProcess` — common patterns
* :class:`RandomStreams` — named, seeded RNG streams
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_PRIORITY",
    "Event",
    "EventQueue",
    "PeriodicProcess",
    "RandomStreams",
    "Simulator",
    "Timer",
    "derive_seed",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".events": ("DEFAULT_PRIORITY", "Event", "EventQueue"),
    ".process": ("PeriodicProcess", "Timer"),
    ".randomness": ("RandomStreams", "derive_seed"),
    ".simulator": ("Simulator",),
})
