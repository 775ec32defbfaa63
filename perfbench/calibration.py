"""Interpreter-speed probe taken around every timed sample.

Shared hosts run this benchmark at two speeds: for seconds to minutes
at a time every Python instruction runs ~1.6-2x slower (busy sibling
cores; no steal time is reported), and within the fast mode the speed
still drifts by ~10%. Either moves a run's result by more than the
regressions the benchmark must catch. Each timed sample is therefore
bracketed by :func:`probe`, a fixed 3 ms pure-Python workload of the
simulator's kind (small objects, heap pushes and pops, dict updates,
method calls), and read at the probe's reference speed:

* :func:`fast_samples` prefers the samples taken at full speed (both
  probes within :data:`FAST_FACTOR` x :data:`FULL_SPEED_PROBE_S`);
* :func:`at_reference_speed` rescales a sample by the probe's slowdown:
  in proportion inside the full-speed band, and with the exponent
  :data:`SLOW_MODE_EXPONENT` in the slow mode, where the program slows
  down slightly less than the probe.

A change to the program moves its time and not the probe's, so it
shows in full. Standard library only: ``child.py`` probes before it
imports ``repro``.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")

#: The probe's time at full speed on the host the bounds were set on
#: (2-vCPU Xeon container, Python 3.11): 6.4-7.3 ms; slow spells read
#: 10-14 ms.
FULL_SPEED_PROBE_S = 0.0065

#: A probe reading counts as full speed within this factor of
#: :data:`FULL_SPEED_PROBE_S`.
FAST_FACTOR = 1.2

#: Slow-mode samples are rescaled by ``(reference / probe) ** exponent``.
#: 0.95 gave the smallest run-to-run spread over bulk, churn and fleet
#: runs taken in both host modes (per-unit least-squares fits: 0.75-0.94).
SLOW_MODE_EXPONENT = 0.95


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return self.a + x if x & 1 else self.b - x


def _work(rounds: int = 6000) -> int:
    heap, table, total = [], {}, 0
    for i in range(rounds):
        item = _Item(i, i >> 1)
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
        key = i & 255
        table[key] = table.get(key, 0) + item.step(i)
    return total


def probe() -> float:
    """Seconds for the fixed workload, best of two back-to-back runs."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - started)
    return best


def at_reference_speed(seconds: float, probes: Sequence[float]) -> float:
    """*seconds* as they would read at :data:`FULL_SPEED_PROBE_S`."""
    ratio = FULL_SPEED_PROBE_S * len(probes) / sum(probes)
    if max(probes) > FAST_FACTOR * FULL_SPEED_PROBE_S:
        ratio **= SLOW_MODE_EXPONENT
    return seconds * ratio


def fast_samples(samples: Sequence[T], probes_of: Callable[[T], Sequence[float]]) -> List[T]:
    """The samples whose bracketing probes read full speed, else all."""
    kept = [s for s in samples if max(probes_of(s)) <= FAST_FACTOR * FULL_SPEED_PROBE_S]
    return kept or list(samples)
