"""The metrics-overhead bench: what does telemetry cost the hot path?

``repro.obs`` promises instrumentation that does not perturb the hot
path. This module turns that promise into a measured number: it runs
the same seeded ``bench core`` cell bare and with the full
observability stack attached (engine instrumentation, decision-latency
probe, 20 snapshot ticks) and reports the packets/s regression.

The acceptance bar (ISSUE 5, and the ``bench``-marked test) is **<5%**
packets/s overhead on the F=1000, I=8 cell, asserted on two signals:

* the **within-run telemetry share** — wall time spent inside the
  snapshot stack divided by the instrumented run's own wall time.
  Numerator and denominator experience the same machine state, so
  this ratio survives the sustained 10-30% load swings shared hosts
  exhibit; it must stay under :data:`OVERHEAD_BUDGET`.
* the **end-to-end bare-vs-instrumented delta** — the honest
  packets/s comparison, but exposed to host noise, so it is reported
  against the budget and only *asserted* against
  :data:`OVERHEAD_NOISE_CEILING`.

``midrr bench obs`` runs the comparison on the core cell of
``bench core`` (same coordinates, same packet count) and, when a
committed ``BENCH_core.json`` is present, also reports that document's
``core`` cell: the same work, measured by ``bench core``.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from .core_bench import (
    CORE_FLOWS,
    CORE_INTERFACES,
    DEFAULT_TARGET_PACKETS,
    run_cell,
)

#: The acceptance bar: instrumented packets/s must be within this
#: fraction of the bare run.
OVERHEAD_BUDGET = 0.05

#: Hard ceiling for the end-to-end wall-clock comparison. Shared/CI
#: hosts show sustained 10-30% load swings, so the bare-vs-
#: instrumented delta can read several percent either way even when
#: the within-run telemetry share (the robust signal, asserted against
#: :data:`OVERHEAD_BUDGET`) is ~1%; past this ceiling the regression
#: is real regardless of noise.
OVERHEAD_NOISE_CEILING = 0.15

#: Lockstep slices per auditor-overhead run pair: 20 s of simulated
#: chaos in 0.25 s slices, ~5-10 ms of wall time each.
AUDITOR_SLICES = 80


def run_metrics_overhead(
    num_flows: int = CORE_FLOWS,
    num_interfaces: int = CORE_INTERFACES,
    seed: int = 0,
    target_packets: int = DEFAULT_TARGET_PACKETS,
    repeats: int = 1,
) -> Dict[str, object]:
    """Run the paired bare/instrumented comparison for one cell.

    Noise handling, tuned on hosts with multi-second 10-30% load
    bursts: one untimed warmup run per variant first (a process's very
    first run is measurably faster than the plateau — a fresh heap —
    and must not land on either side of the comparison), then
    ``repeats`` ABBA rounds (bare, instrumented, instrumented, bare)
    each *averaging* the two runs per variant. Averaging keeps the
    ABBA round exactly drift-neutral — the outer and inner positions
    have the same mean timestamp, so a linear load trend cancels
    (taking the per-variant best instead would hand any monotone
    trend to the outer variant) — and the reported overhead is the
    **median of the per-round ratios**, which discards rounds a noise
    burst happened to split.
    """
    if repeats <= 0:
        raise ConfigurationError(f"repeats must be positive, got {repeats}")
    kwargs = dict(seed=seed, target_packets=target_packets)
    run_cell(num_flows, num_interfaces, **kwargs)
    run_cell(num_flows, num_interfaces, instrument=True, **kwargs)
    def timed(instrument: bool) -> Dict[str, object]:
        # Collect before every timed run: a heap full of garbage from
        # earlier work (e.g. preceding bench cells in the same
        # process) makes GC passes land mid-run, and they land harder
        # on the allocation-heavier instrumented variant.
        gc.collect()
        return run_cell(
            num_flows, num_interfaces, instrument=instrument, **kwargs
        )

    def merged(a: Dict[str, object], b: Dict[str, object]) -> Dict[str, object]:
        # Same variant, same seed: the counts are identical, so the
        # pair merges into one cell at the mean wall time.
        wall = (a["wall_seconds"] + b["wall_seconds"]) / 2
        cell = dict(a)
        cell["wall_seconds"] = round(wall, 6)
        for key in ("events", "packets", "decisions"):
            cell[f"{key}_per_sec"] = round(cell[key] / wall, 1)
        if "telemetry_seconds" in a:
            cell["telemetry_seconds"] = round(
                (a["telemetry_seconds"] + b["telemetry_seconds"]) / 2, 6
            )
        return cell

    rounds = []
    for _ in range(repeats):
        bare_a = timed(False)
        instr_a = timed(True)
        instr_b = timed(True)
        bare_b = timed(False)
        rounds.append((merged(bare_a, bare_b), merged(instr_a, instr_b)))
    # Lower median keeps an actual measured round so the reported rate
    # pair and the reported overhead come from the same round.
    rounds.sort(
        key=lambda pair: pair[1]["packets_per_sec"]
        / pair[0]["packets_per_sec"]
    )
    bare, instrumented = rounds[(len(rounds) - 1) // 2]
    if instrumented["packets"] != bare["packets"] or (
        instrumented["decisions"] != bare["decisions"]
    ):
        raise ConfigurationError(
            "instrumentation perturbed the workload: "
            f"packets {bare['packets']}→{instrumented['packets']}, "
            f"decisions {bare['decisions']}→{instrumented['decisions']}"
        )
    overhead = 1.0 - (
        instrumented["packets_per_sec"] / bare["packets_per_sec"]
    )
    # The within-run share is the host-noise-robust number: the
    # telemetry time and the run it is part of experience the same
    # machine state, so their ratio survives load swings that make the
    # bare-vs-instrumented wall-clock delta unreliable on busy hosts.
    telemetry = (
        instrumented["telemetry_seconds"] / instrumented["wall_seconds"]
    )
    return {
        "name": "obs-overhead",
        "flows": num_flows,
        "interfaces": num_interfaces,
        "seed": seed,
        "target_packets": target_packets,
        "repeats": repeats,
        "bare": bare,
        "instrumented": instrumented,
        "overhead_fraction": round(overhead, 4),
        "telemetry_fraction": round(telemetry, 4),
        "budget_fraction": OVERHEAD_BUDGET,
        "within_budget": overhead < OVERHEAD_BUDGET,
        "telemetry_within_budget": telemetry < OVERHEAD_BUDGET,
    }


def render_overhead_table(
    report: Dict[str, object],
    committed: Optional[Dict[str, object]] = None,
) -> str:
    """An ASCII summary of an overhead report (CLI output)."""
    from ..analysis.report import render_table

    bare = report["bare"]
    instrumented = report["instrumented"]
    rows: List[List[object]] = [
        [
            "bare",
            f"{bare['packets_per_sec']:,.0f}",
            f"{bare['events_per_sec']:,.0f}",
            f"{bare['wall_seconds']:.3f}",
        ],
        [
            "instrumented",
            f"{instrumented['packets_per_sec']:,.0f}",
            f"{instrumented['events_per_sec']:,.0f}",
            f"{instrumented['wall_seconds']:.3f}",
        ],
    ]
    if committed is not None:
        rows.append(
            [
                "committed baseline",
                f"{committed['packets_per_sec']:,.0f}",
                f"{committed['events_per_sec']:,.0f}",
                f"{committed['wall_seconds']:.3f}",
            ]
        )
    title = (
        f"== bench obs: F={report['flows']} I={report['interfaces']} — "
        f"overhead {report['overhead_fraction'] * 100:.2f}%, "
        f"telemetry share {report['telemetry_fraction'] * 100:.2f}% "
        f"(budget {report['budget_fraction'] * 100:.0f}%) =="
    )
    return render_table(
        ["variant", "packets/s", "events/s", "wall s"], rows, title=title
    )


def run_auditor_overhead(
    seed: int = 0,
    duration: float = 20.0,
    repeats: int = 1,
) -> Dict[str, object]:
    """Paired chaos runs without/with the inline fairness auditor.

    Shared hosts run every Python instruction up to ~2x slower for
    seconds at a time (CPU time slows down with it), which moves a
    single ~0.4 s chaos run by far more than the budget. So the two
    variants are not timed one after the other: each repeat builds a
    bare and an audited run of the same seed and advances them in
    lockstep, :data:`AUDITOR_SLICES` slices of simulated time each,
    alternating which variant goes first (ABBA at slice level). Both
    see the same host speed to within one ~10 ms slice, so drift
    cancels. A variant's time is the sum of its slices plus its
    construction, start-up and final report, so it covers everything
    a plain :meth:`~repro.faults.chaos.ChaosRun.run` does; repeats
    alternate which variant is built and reported first. One untimed
    pair warms up first, and the median repeat is reported.

    Sharing one heap does not bias the split: the 20 s chaos runs
    measured trigger only young-generation collections (no full one),
    so neither run's live objects lengthen the other's collections,
    and a cost added to the audited run shows up in full in the
    reported overhead (``tests/test_perf_bench.py::TestAuditorOverhead``).

    Every run's deterministic signature is compared as a side effect —
    the auditor must not change a single scheduling decision, so a
    signature mismatch is an error, not noise.
    """
    from time import perf_counter

    from ..faults.chaos import ChaosRun

    if repeats <= 0:
        raise ConfigurationError(f"repeats must be positive, got {repeats}")

    signatures = set()

    def paired(bare_first: bool) -> tuple:
        gc.collect()
        walls = [0.0, 0.0]  # [bare, audited]
        order = (0, 1) if bare_first else (1, 0)
        runs: Dict[int, ChaosRun] = {}
        # Construction and start-up (the auditor's journal replay)
        # count, as do the final report: everything a plain run() does.
        for which in order:
            start = perf_counter()
            run = ChaosRun(seed=seed, duration=duration, with_auditor=bool(which))
            run.start()
            walls[which] += perf_counter() - start
            runs[which] = run
        for step in range(1, AUDITOR_SLICES + 1):
            # The last slice ends exactly at `duration`, like run() does.
            until = (
                duration * step / AUDITOR_SLICES
                if step < AUDITOR_SLICES
                else duration
            )
            for which in order if step % 2 else order[::-1]:
                start = perf_counter()
                runs[which].sim.run(until=until)
                walls[which] += perf_counter() - start
        for which in order[::-1]:
            start = perf_counter()
            report = runs[which].finish()
            walls[which] += perf_counter() - start
            signatures.add(report.stats_signature() + report.fault_signature())
        return walls[0], walls[1]

    paired(True)
    rounds = sorted(
        (paired(index % 2 == 0) for index in range(repeats)),
        key=lambda pair: pair[1] / pair[0],
    )
    if len(signatures) != 1:
        raise ConfigurationError(
            "fairness auditor perturbed the chaos run: report signatures "
            "diverge between audited and bare runs"
        )
    bare_wall, audited_wall = rounds[(len(rounds) - 1) // 2]
    overhead = audited_wall / bare_wall - 1.0
    return {
        "name": "auditor-overhead",
        "seed": seed,
        "duration": duration,
        "repeats": repeats,
        "bare_wall_seconds": round(bare_wall, 6),
        "audited_wall_seconds": round(audited_wall, 6),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": OVERHEAD_BUDGET,
        "within_budget": overhead < OVERHEAD_BUDGET,
        "signatures_identical": True,
    }
