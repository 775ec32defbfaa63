"""The latency-SLO report: deadline misses vs. fairness, per scheduler.

Runs the whole scheduler family — the naive FIFO/WFQ/DRR baselines,
static splitting, the paper's miDRR, and the deadline/queue-aware
additions (EDF with admission control, QAware steering) — through the
stock chaos scenario with per-flow deadline budgets attached, and
tabulates per scheduler:

* the deadline-miss rate (missed / deadline-carrying packets sent),
* the p99 miss lateness (how far past the deadline the worst misses
  land),
* Jain's fairness index over weight-normalized flow rates,
* total delivered bytes (work conservation under faults).

Everything is derived from the simulated clock, so the report is
wall-clock-free: the same seed produces a byte-identical table — and
:meth:`SloReport.report_hash` — on every run and host (the determinism
contract ``bench smoke`` gates on).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..faults.chaos import CHAOS_BULK_FLOWS, WIRE_FLOW, ChaosRun
from ..schedulers import SCHEDULER_FAMILY

#: Per-flow packet latency budgets (seconds) for the chaos workload.
#: Tight enough that outages and fairness differences show up as
#: misses, loose enough that a healthy scheduler mostly meets them.
DEFAULT_DEADLINE_BUDGETS: Dict[str, float] = {
    "pinned": 0.060,
    "video": 0.040,
    "bulk": 0.250,
    WIRE_FLOW: 0.500,
}


def p99(values: Sequence[float]) -> float:
    """Deterministic p99 (nearest-rank); 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(0.99 * len(ordered)))
    return ordered[rank - 1]


def jain_index(rates: Mapping[str, float]) -> float:
    """Jain's fairness index over the given per-flow rates (0..1].

    Non-finite rates (a NaN or the ``inf`` from normalizing by a zero
    weight) are clamped to 0.0 — the convention of
    :func:`repro.fairness.metrics.jain_index` — so a degenerate flow
    can never leak NaN/inf into :meth:`SloRow.signature_line` and the
    report hash.
    """
    values = [v if math.isfinite(v) else 0.0 for v in rates.values()]
    if not values:
        return 1.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(value * value for value in values)
    if sum_of_squares == 0.0:
        return 1.0
    return square_of_sum / (len(values) * sum_of_squares)


@dataclass
class SloRow:
    """One scheduler's line in the report."""

    scheduler: str
    deadline_packets: int
    deadline_misses: int
    p99_miss_lateness: float
    jain_fairness: float
    bytes_total: int
    admission_rejected: int
    admission_shed: int
    alerts: int
    invariant_violations: int

    @property
    def miss_rate(self) -> float:
        """Missed / deadline-carrying packets delivered."""
        if not self.deadline_packets:
            return 0.0
        return self.deadline_misses / self.deadline_packets

    def signature_line(self) -> str:
        """The canonical wall-clock-free line hashed into the report."""
        return (
            f"{self.scheduler}:{self.deadline_packets}:{self.deadline_misses}"
            f":{self.p99_miss_lateness!r}:{self.jain_fairness!r}"
            f":{self.bytes_total}:{self.admission_rejected}"
            f":{self.admission_shed}:{self.invariant_violations}"
        )


@dataclass
class SloReport:
    """The full latency-SLO table for one (seed, duration)."""

    seed: int
    duration: float
    budgets: Dict[str, float]
    rows: List[SloRow] = field(default_factory=list)

    def report_hash(self) -> str:
        """SHA-256 over every row's canonical signature line.

        Contains only simulated-clock quantities, so it is identical
        for the same seed across runs and hosts.
        """
        digest = hashlib.sha256()
        digest.update(f"seed={self.seed}:duration={self.duration!r}\n".encode())
        for flow_id in sorted(self.budgets):
            digest.update(f"budget:{flow_id}={self.budgets[flow_id]!r}\n".encode())
        for row in self.rows:
            digest.update(row.signature_line().encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def to_text(self) -> str:
        """The human-readable table the CLI prints."""
        header = (
            f"== latency-SLO report: seed={self.seed} "
            f"duration={self.duration:g}s ==\n"
            "budgets: "
            + " ".join(
                f"{flow_id}={self.budgets[flow_id] * 1e3:g}ms"
                for flow_id in sorted(self.budgets)
            )
        )
        lines = [
            header,
            "",
            f"{'scheduler':<10} {'dl pkts':>8} {'misses':>8} {'miss %':>8} "
            f"{'p99 late ms':>12} {'jain':>7} {'MB sent':>8} {'rej':>4} {'shed':>5}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.scheduler:<10} {row.deadline_packets:>8} "
                f"{row.deadline_misses:>8} {row.miss_rate * 100:>7.2f}% "
                f"{row.p99_miss_lateness * 1e3:>12.3f} {row.jain_fairness:>7.4f} "
                f"{row.bytes_total / 1e6:>8.2f} {row.admission_rejected:>4} "
                f"{row.admission_shed:>5}"
            )
        lines.append("")
        lines.append(f"report hash: {self.report_hash()}")
        return "\n".join(lines)


def run_latency_slo(
    seed: int = 0,
    duration: float = 30.0,
    schedulers: Optional[Sequence[str]] = None,
    with_churn: bool = True,
    deadline_budgets: Optional[Mapping[str, float]] = None,
) -> SloReport:
    """Sweep the scheduler family through the chaos workload.

    *schedulers* selects a subset of :data:`SCHEDULER_FAMILY` labels
    (report order is preserved); default is the whole family.
    """
    chosen: List[Tuple[str, Callable[[], object]]] = []
    if schedulers is None:
        chosen = list(SCHEDULER_FAMILY.items())
    else:
        unknown = set(schedulers) - set(SCHEDULER_FAMILY)
        if unknown:
            raise ConfigurationError(
                f"unknown schedulers {sorted(unknown)}; "
                f"expected among {list(SCHEDULER_FAMILY)}"
            )
        chosen = [
            (label, factory)
            for label, factory in SCHEDULER_FAMILY.items()
            if label in set(schedulers)
        ]
    budgets = dict(
        deadline_budgets if deadline_budgets is not None else DEFAULT_DEADLINE_BUDGETS
    )
    report = SloReport(seed=seed, duration=duration, budgets=budgets)
    for label, factory in chosen:
        run = ChaosRun(
            seed=seed,
            duration=duration,
            with_churn=with_churn,
            scheduler_factory=factory,
            deadline_budgets=budgets,
        )
        lateness: List[float] = []
        run.engine.on_deadline_miss(
            lambda flow, packet, late: lateness.append(late)
        )
        chaos_report = run.run()
        stats = run.engine.stats
        weighted_rates = {
            flow_id: stats.rate_in_window(flow_id, 0.0, duration)
            / CHAOS_BULK_FLOWS[flow_id][0]
            for flow_id in CHAOS_BULK_FLOWS
        }
        report.rows.append(
            SloRow(
                scheduler=label,
                deadline_packets=run.engine.deadline_packets_total,
                deadline_misses=run.engine.deadline_misses_total,
                p99_miss_lateness=p99(lateness),
                jain_fairness=jain_index(weighted_rates),
                bytes_total=sum(chaos_report.bytes_by_flow.values()),
                admission_rejected=run.engine.admission_rejected_total,
                admission_shed=run.engine.admission_shed_total,
                alerts=len(chaos_report.alerts),
                invariant_violations=len(chaos_report.invariant_violations),
            )
        )
    return report
