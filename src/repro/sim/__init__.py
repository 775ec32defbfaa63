"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator` — virtual clock + event loop
* :class:`Event`, :class:`EventQueue` — scheduling primitives
* :class:`PeriodicProcess` — periodic callbacks
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
    "derive_seed",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".events": ("DEFAULT_PRIORITY", "Event", "EventQueue"),
    ".process": ("PeriodicProcess",),
    ".randomness": ("RandomStreams", "derive_seed"),
    ".simulator": ("Simulator",),
})
