"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator` — virtual clock + event loop
* :class:`Event`, :class:`EventQueue` — scheduling primitives
* :class:`Timer`, :class:`PeriodicProcess` — common patterns
* :class:`RandomStreams` — named, seeded RNG streams
* :class:`TraceLog`, :class:`TraceRecord` — structured tracing
"""

from .events import DEFAULT_PRIORITY, Event, EventQueue
from .process import PeriodicProcess, Timer
from .randomness import RandomStreams, derive_seed
from .simulator import Simulator
from .tracing import TraceLog, TraceRecord

__all__ = [
    "DEFAULT_PRIORITY",
    "Event",
    "EventQueue",
    "PeriodicProcess",
    "RandomStreams",
    "Simulator",
    "Timer",
    "TraceLog",
    "TraceRecord",
    "derive_seed",
]
