"""Scheduler-state invariants checked during chaos runs.

:class:`MiDrrInvariantChecker` inspects a live
:class:`~repro.schedulers.midrr.MiDrrScheduler` (optionally together
with the owning engine) and returns human-readable violation strings.
The invariants are the ones the algorithm's correctness argument leans
on — they must hold at *every* quiescent instant, including under
arbitrary interface churn:

* deficit counters never go negative;
* exclusion state stays in range: ``{0, 1}`` for the paper's boolean
  flag, ``[0, COUNTER_CAP]`` for the counter generalization;
* a drained (non-backlogged) registered flow holds zero total deficit
  (Algorithm 3.1 resets ``DC_i`` when the backlog empties);
* turn bookkeeping is consistent — an open turn names a registered
  flow;
* no stale state keys: every deficit counter and service flag belongs
  to a currently-registered flow and interface. Drained flows are
  dropped by the scheduler's deactivation path and removed flows by its
  removal hook, so surviving entries for departed flows would be a
  state leak (state growing with every flow ever served);
* quarantined flows are absent from the scheduler (no deficit accrual
  while parked — the graceful-degradation contract).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.engine import SchedulingEngine
from ..schedulers.midrr import COUNTER_CAP, MiDrrScheduler

#: Numerical slack for float deficit arithmetic.
_EPSILON = 1e-9


class MiDrrInvariantChecker:
    """Validates miDRR internal state; returns violations as strings."""

    def __init__(
        self,
        scheduler: MiDrrScheduler,
        engine: Optional[SchedulingEngine] = None,
    ) -> None:
        self._scheduler = scheduler
        self._engine = engine
        self.checks_run = 0
        self.violations: List[str] = []

    def check(self) -> List[str]:
        """Run every invariant; returns (and accumulates) violations."""
        found: List[str] = []
        scheduler = self._scheduler
        found.extend(self._check_deficits())
        found.extend(self._check_flags())
        found.extend(self._check_turns())
        found.extend(self._check_no_stale_keys())
        if self._engine is not None:
            for flow_id in self._engine.quarantined_flows:
                if scheduler.has_flow(flow_id):
                    found.append(
                        f"quarantined flow {flow_id!r} still registered "
                        "with the scheduler"
                    )
        self.checks_run += 1
        self.violations.extend(found)
        return found

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def _check_deficits(self) -> List[str]:
        found: List[str] = []
        scheduler = self._scheduler
        for key, value in scheduler.deficit_items():
            if value < -_EPSILON:
                found.append(f"negative deficit {value!r} for {key!r}")
        for flow in scheduler.flows():
            if not flow.backlogged:
                total = scheduler.deficit(flow.flow_id)
                if total > _EPSILON:
                    found.append(
                        f"drained flow {flow.flow_id!r} holds deficit {total!r}"
                    )
        return found

    def _check_flags(self) -> List[str]:
        found: List[str] = []
        scheduler = self._scheduler
        cap = 1 if scheduler.exclusion == "flag" else COUNTER_CAP
        for key, value in scheduler.flag_items():
            if not 0 <= value <= cap:
                found.append(
                    f"service flag {value!r} for {key!r} outside [0, {cap}]"
                )
        return found

    def _check_no_stale_keys(self) -> List[str]:
        found: List[str] = []
        scheduler = self._scheduler
        flow_ids = {flow.flow_id for flow in scheduler.flows()}
        interface_ids = set(scheduler.interface_ids())
        for key, _ in scheduler.flag_items():
            flow_id, interface_id = key
            if flow_id not in flow_ids or interface_id not in interface_ids:
                found.append(f"stale service-flag key {key!r} (flow departed)")
        for key, _ in scheduler.deficit_items():
            flow_id, interface_id = key
            if flow_id not in flow_ids or (
                interface_id is not None and interface_id not in interface_ids
            ):
                found.append(f"stale deficit key {key!r} (flow departed)")
        return found

    def _check_turns(self) -> List[str]:
        found: List[str] = []
        scheduler = self._scheduler
        for interface_id, flow_id in scheduler.open_turns().items():
            if not scheduler.has_flow(flow_id):
                found.append(
                    f"interface {interface_id!r} turn names unknown flow "
                    f"{flow_id!r}"
                )
        return found
