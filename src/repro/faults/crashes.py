"""Simulated process crashes and the crash-equivalence harness.

A "crash" here is the abrupt death of the *host process* mid-run — not
a fault inside the simulated network. It is therefore injected from
outside the event loop: :class:`CrashInjector` is polled by the
driving loop (the recovery supervisor, or a test harness stepping the
simulator) and raises :class:`SimulatedCrash` when a trigger point is
passed. Keeping the injector off the event heap matters: a crash
trigger must *not* be part of the checkpointed state, or a restored
run would faithfully re-crash forever.

The crash-equivalence harness is the subsystem's acceptance test:
kill a run at an arbitrary event index, restore from the checkpoint
taken at the kill point (round-tripped through the real JSON envelope,
checksum and all), replay to the horizon, and require the scheduling
decision trace to be **byte-identical** to an uninterrupted run of the
same scenario. Any divergence — one flow picked differently, one
tie broken the other way — fails loudly with the first mismatching
decision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import FaultError
from ..sim.simulator import Simulator


class SimulatedCrash(FaultError):
    """The simulated process died abruptly at an injected point."""


class CrashInjector:
    """Raise :class:`SimulatedCrash` when trigger points are passed.

    Triggers are one-shot and consumed in order: ``at_events`` fires
    when ``sim.events_processed`` reaches the given count, ``at_times``
    when the virtual clock reaches the given instant. The injector
    lives outside the simulation — poll :meth:`check` from the driving
    loop after each dispatched event.
    """

    def __init__(
        self,
        at_events: Sequence[int] = (),
        at_times: Sequence[float] = (),
    ) -> None:
        self._event_points: List[int] = sorted(at_events)
        self._time_points: List[float] = sorted(at_times)
        self.crashes_fired = 0

    @property
    def pending(self) -> int:
        """Trigger points not yet fired."""
        return len(self._event_points) + len(self._time_points)

    def check(self, sim: Simulator) -> None:
        """Raise :class:`SimulatedCrash` if a trigger point was passed."""
        if self._event_points and sim.events_processed >= self._event_points[0]:
            point = self._event_points.pop(0)
            self.crashes_fired += 1
            raise SimulatedCrash(f"injected crash at event #{point}")
        if self._time_points and sim.now >= self._time_points[0]:
            point = self._time_points.pop(0)
            self.crashes_fired += 1
            raise SimulatedCrash(f"injected crash at t={point:g}")


@dataclass
class KillPointResult:
    """Outcome of one kill/restore/replay trial."""

    kill_index: int
    decisions_at_kill: int
    decisions_after_restore: int
    prefix_matches: bool
    suffix_matches: bool
    first_divergence: Optional[int] = None

    @property
    def equivalent(self) -> bool:
        """Both halves of the trace match the uninterrupted run."""
        return self.prefix_matches and self.suffix_matches


@dataclass
class EquivalenceReport:
    """Crash-equivalence results across every kill point."""

    scenario_name: str
    total_decisions: int
    results: List[KillPointResult] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        """True when every kill point reproduced the reference trace."""
        return all(result.equivalent for result in self.results)


def run_crash_equivalence(
    scenario,
    scheduler_factory,
    kill_indices: Sequence[int],
    extras=None,
) -> EquivalenceReport:
    """Kill/restore/replay at each event index; compare decision traces.

    For each kill index ``k``:

    1. run a fresh :class:`~repro.recovery.runner.RecoverableScenarioRun`
       for exactly ``k`` events and checkpoint it;
    2. push the checkpoint through the real envelope — ``wrap_state``,
       a JSON dump/load, ``unwrap_state`` — so serialization and the
       checksum are exercised, not just in-memory dict sharing;
    3. restore into a brand-new run and replay to the horizon;
    4. require ``prefix + suffix == reference``: the killed run's trace
       must equal the reference trace up to the kill point, and the
       restored run's trace must equal the remainder exactly.
    """
    # Imported here: repro.recovery imports this module for the
    # supervisor's crash types, so the top level must stay acyclic.
    from ..recovery.checkpoint import unwrap_state, wrap_state
    from ..recovery.runner import RecoverableScenarioRun

    reference = RecoverableScenarioRun(scenario, scheduler_factory, extras=extras)
    reference.run_to_completion()
    reference_trace = list(reference.trace.entries)

    report = EquivalenceReport(
        scenario_name=scenario.name, total_decisions=len(reference_trace)
    )
    for kill_index in kill_indices:
        run = RecoverableScenarioRun(scenario, scheduler_factory, extras=extras)
        for _ in range(kill_index):
            # Never step past the horizon: events beyond the scenario
            # duration belong to no run (run_to_completion stops there).
            if run.finished or not run.step():
                break
        state = unwrap_state(json.loads(json.dumps(wrap_state(run.checkpoint()))))
        prefix = list(run.trace.entries)
        restored = RecoverableScenarioRun.restore(
            state, scheduler_factory, extras=extras
        )
        restored.run_to_completion()
        suffix = list(restored.trace.entries)

        prefix_ok = reference_trace[: len(prefix)] == prefix
        suffix_ok = reference_trace[len(prefix) :] == suffix
        first_divergence: Optional[int] = None
        if not (prefix_ok and suffix_ok):
            stitched = prefix + suffix
            for index, (got, want) in enumerate(zip(stitched, reference_trace)):
                if got != want:
                    first_divergence = index
                    break
            else:
                first_divergence = min(len(stitched), len(reference_trace))
        report.results.append(
            KillPointResult(
                kill_index=kill_index,
                decisions_at_kill=len(prefix),
                decisions_after_restore=len(suffix),
                prefix_matches=prefix_ok,
                suffix_matches=suffix_ok,
                first_divergence=first_divergence,
            )
        )
    return report
