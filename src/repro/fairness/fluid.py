"""Fluid (ideal bit-by-bit) max-min reference, replayed from a regime journal.

The paper evaluates miDRR by how far it "can deviate from an ideal
bit-by-bit max-min fair scheduler" (§6.2). This module *is* that ideal
scheduler. Its only input is a regime journal
(:attr:`~repro.core.engine.SchedulingEngine.regimes`): the time-ordered
``(time, kind, subject, value)`` entries the engine writes at every
edit of the weighted max-min instance. :class:`FluidSimulator` decodes
each entry into deltas on an
:class:`~repro.fairness.incremental.IncrementalMaxMinSolver`; it is the
one place that mapping lives.

An entry at time ``t`` applies from ``t``: over a window ``(start,
end]`` an entry stamped ``start`` is in force for the whole window and
one stamped ``end`` for none of it. Between entries the optimal rates
are constant, so :meth:`FluidSimulator.run` integrates them exactly,
with one solve per regime and durations taken as ``Fraction(t)``.
Compare its service against a :class:`~repro.net.sink.StatsCollector`
to bound a real scheduler's service lag at *every instant*, not just
in steady-state windows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError
from .incremental import IncrementalMaxMinSolver
from .waterfill import _as_fraction

#: One regime-journal entry: ``(time, kind, subject, value)``.
Entry = Tuple[float, str, str, Any]


class FluidSimulator:
    """The exact fluid max-min optimum of a regime journal.

    Holds one solver and a cursor into *journal*, which may still be
    growing: :meth:`advance` applies the entries appended since the
    last call (the fairness auditor's live cursor). :meth:`run` leaves
    both alone; it replays the journal into a fresh instance of its own
    and integrates the optimal service over a window.
    """

    def __init__(self, journal: Sequence[Entry]) -> None:
        self.journal = journal
        self.solver = IncrementalMaxMinSolver()
        #: Flows the journal names but the instance excludes —
        #: admission-shed, or willing to use no known interface. Their
        #: optimal rate is exactly 0.
        self.masked: Set[str] = set()
        #: Entries applied so far.
        self.cursor = 0

    def advance(self, until: float = math.inf) -> Tuple[Optional[float], List[str]]:
        """Apply the pending entries stamped at or before *until*.

        Returns the time of the last entry that changed the instance
        (``None`` if none did) and the subject of every ``"remove"``
        entry applied, in journal order.
        """
        journal = self.journal
        changed_at: Optional[float] = None
        removed: List[str] = []
        while self.cursor < len(journal) and journal[self.cursor][0] <= until:
            time, kind, subject, value = journal[self.cursor]
            self.cursor += 1
            if kind == "remove":
                removed.append(subject)
            if self._apply(kind, subject, value):
                changed_at = time
        return changed_at, removed

    def run(self, start: float, end: float) -> Dict[str, Fraction]:
        """Each flow's optimal service over ``(start, end]``, in bits.

        Replays the journal from its first entry into a private
        instance. Flows that the instance held at some point in the
        window are keys; masked flows are not. Several entries at one
        instant cost one solve.
        """
        if end <= start:
            raise ConfigurationError(
                f"fluid window ({start:g}, {end:g}] is empty"
            )
        service: Dict[str, Fraction] = {}
        FluidSimulator(self.journal)._accrue(start, end, service)
        return service

    def _accrue(
        self, start: float, end: float, service: Dict[str, Fraction]
    ) -> None:
        """Add the optimal service over ``(start, end]`` to *service*.

        The cursor must not be past *start*; on return every entry
        stamped before *end* is applied.
        """
        self.advance(start)
        journal = self.journal
        now = start
        while now < end:
            boundary = end
            if self.cursor < len(journal):
                boundary = min(end, journal[self.cursor][0])
            span = Fraction(boundary) - Fraction(now)
            for flow_id, rate in self.solver.allocation.rates.items():
                service[flow_id] = service.get(flow_id, 0) + rate * span
            now = boundary
            if now < end:
                self.advance(now)

    def _apply(self, kind: str, subject: str, value: Any) -> bool:
        """Edit the solver by one journal entry; ``True`` if it changed."""
        solver = self.solver
        if kind == "capacity":
            capacity = _as_fraction(value)
            new = not solver.has_interface(subject)
            if not new and solver.capacity(subject) == capacity:
                return False
            solver.set_capacity(subject, capacity)
            if new and self.masked:
                # A new interface may make masked flows servable: replay
                # each one's latest entry.
                past = self.journal[: self.cursor]
                latest = {name: flow for _, k, name, flow in past if k == "flow"}
                for flow_id in sorted(self.masked):
                    self._apply("flow", flow_id, latest[flow_id])
            return True
        # A masked flow is never in the solver, and vice versa.
        was_masked = subject in self.masked
        self.masked.discard(subject)
        in_solver = solver.has_flow(subject)
        if kind == "remove":
            if in_solver:
                solver.remove_flow(subject)
            return was_masked or in_solver
        weight, row, shed = value
        row = frozenset(row) if row is not None else None
        # Servability is judged against the solver's interface set,
        # which rejects rows it cannot resolve.
        known = set(solver.interface_ids)
        if shed or not known or (row is not None and not row & known):
            self.masked.add(subject)
            if in_solver:
                solver.remove_flow(subject)
            return in_solver or not was_masked
        if not in_solver:
            solver.add_flow(subject, weight, row)
            return True
        changed = False
        if solver.weight_of(subject) != _as_fraction(weight):
            solver.set_weight(subject, weight)
            changed = True
        if solver.row_of(subject) != row:
            solver.restrict_flow(subject, row)
            changed = True
        return changed


def max_service_lag(
    fluid: FluidSimulator,
    measured_cumulative: Mapping[float, Mapping[str, float]],
) -> Dict[str, float]:
    """Worst |ideal − measured| cumulative service per flow, in bytes.

    *measured_cumulative* maps sample times to per-flow byte counts
    served over ``(0, time]`` (build it from a :class:`StatsCollector`);
    the ideal service at a time ``<= 0`` is zero. One replay of
    *fluid*'s journal integrates the ideal across all sample times.
    This is the system-level analogue of the paper's Lemma 5/6 bounds:
    a correct packetized scheduler's lag stays within a few packets
    plus a quantum at every instant.
    """
    replay = FluidSimulator(fluid.journal)
    ideal: Dict[str, Fraction] = {}
    now = 0.0
    worst: Dict[str, float] = {}
    for time in sorted(measured_cumulative):
        if time > now:
            replay._accrue(now, time, ideal)
            now = time
        for flow_id, measured in measured_cumulative[time].items():
            gap = abs(float(ideal.get(flow_id, 0)) / 8 - measured)
            if gap > worst.get(flow_id, 0.0):
                worst[flow_id] = gap
    return worst
