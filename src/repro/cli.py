"""Command-line interface: regenerate any paper figure from a terminal.

Usage::

    midrr fig1            # Figure 1 motivating allocations
    midrr fig6            # Figures 6 + 8 (rates and clusters)
    midrr fig7            # Figure 7 concurrency CDF
    midrr fig9            # Figure 9 scheduling overhead
    midrr fig10           # Figures 10 + 11 (HTTP proxy)
    midrr ideal           # E9: Figure 4 ideal proxy vs HTTP proxy
    midrr fct             # E13: completion times under churn
    midrr all             # every figure
    midrr chaos --seed 7 --duration 60        # seeded fault-injection run
    midrr audit --seed 7 --duration 30        # chaos + inline fairness auditing
    midrr slo --seed 7 --duration 30          # scheduler-family latency-SLO table
    midrr fleet --devices 1000 --workers 4    # sharded fleet run + merged report
    midrr bench core                          # hot-path baseline -> BENCH_core.json
    midrr bench smoke --check-regression      # fast sanity + perf gate
    midrr bench obs                           # metrics-overhead comparison
    midrr obs --flows 100 --out obs.jsonl     # instrumented run + JSONL snapshots
    midrr obs --selftest                      # registry + JSONL round-trip check
    midrr run scenario.json --scheduler wfq   # replay a stored scenario
    midrr checkpoint scenario.json --until 3 --out ckpt.json
    midrr resume ckpt.json                    # replay from the snapshot
    midrr solve --interface if1=3e6 --interface if2=10e6 \\
                --flow a:1:if1 --flow b:2:if1,if2 --flow c:1:if2
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when main() builds the first parser;
# load it with the module instead, so in-process callers timing main()
# (the figure benchmarks) do not pay for it there.
import locale  # noqa: F401
import sys
from typing import Dict, Optional, Sequence

# Only the figure commands' modules load with the CLI, so `midrr all`
# starts without compiling the rest; every other command imports its
# own subsystem when it is dispatched (docs/architecture.md, "Import
# graph").
from .analysis.report import render_comparison, render_rate_table, render_table
from .core.runner import DEFAULT_TARGET_PACKETS, EXECUTORS, run_scenario
from .core.scenario import Scenario
from .errors import ReproError
from .experiments import fig1, fig6, fig7, fig9, fig10
from .fairness.waterfill import weighted_maxmin
from .schedulers import SCHEDULER_FAMILY
from .schedulers.midrr import MiDrrScheduler
from .schedulers.per_interface import PerInterfaceScheduler, StaticSplitScheduler
from .trace import WORKLOAD_KINDS
from .units import format_rate


def _print(text: str) -> None:
    print(text)
    print()


def cmd_fig1(args: argparse.Namespace) -> None:
    """Figure 1: compare schedulers on the motivating scenarios."""
    schedulers = {
        "miDRR": MiDrrScheduler,
        "per-interface WFQ": PerInterfaceScheduler.wfq,
        "per-interface DRR": PerInterfaceScheduler.drr,
        "FIFO striping": PerInterfaceScheduler.fifo,
        "static split": StaticSplitScheduler,
    }
    for name, build in fig1.ALL_SCENARIOS.items():
        scenario = build()
        flow_order = [spec.flow_id for spec in scenario.flows]
        rates = {
            label: fig1.measured_rates(scenario, factory)
            for label, factory in schedulers.items()
        }
        reference = fig1.fluid_reference(scenario)
        rates["fluid max-min (reference)"] = {
            flow_id: reference.rate(flow_id) for flow_id in flow_order
        }
        _print(render_rate_table(rates, flow_order, title=f"== {name} =="))


def cmd_fig6(args: argparse.Namespace) -> None:
    """Figures 6 and 8: dynamic fair scheduling and clusters."""
    result = fig6.run()
    rows = []
    for phase, expected in fig6.PAPER_PHASE_RATES.items():
        measured = fig6.phase_rates(result)[phase]
        for flow_id, paper_value in expected.items():
            rows.append(
                [
                    phase,
                    flow_id,
                    f"{measured[flow_id]:.2f} Mb/s",
                    f"{paper_value:.2f} Mb/s",
                ]
            )
    _print(
        render_table(
            ["phase", "flow", "measured", "paper"], rows, title="== Figure 6(b) =="
        )
    )
    _print(
        render_table(
            ["flow", "completed (measured)", "completed (paper)"],
            [
                ["a", f"{result.completions.get('a', float('nan')):.1f} s", "66 s"],
                ["b", f"{result.completions.get('b', float('nan')):.1f} s", "85 s"],
            ],
            title="== flow completion times ==",
        )
    )
    cluster_rows = []
    for phase, clusters in fig6.phase_clusters(result).items():
        for cluster in clusters:
            cluster_rows.append(
                [
                    phase,
                    ",".join(sorted(cluster.flows)),
                    ",".join(sorted(cluster.interfaces)),
                    f"{cluster.normalized_rate / 1e6:.2f} Mb/s/weight",
                ]
            )
    _print(
        render_table(
            ["phase", "flows", "interfaces", "level"],
            cluster_rows,
            title="== Figure 8 clusters ==",
        )
    )
    if args.zoom:
        series = result.timeseries("a", bin_width=0.5)[:10]
        rows = [[f"{t:.2f}", f"{v / 1e6:.2f} Mb/s"] for t, v in series]
        _print(
            render_table(
                ["time", "flow a rate"],
                rows,
                title="== Figure 6(c): first 5 s transient ==",
            )
        )


def cmd_fig7(args: argparse.Namespace) -> None:
    """Figure 7: concurrency CDF."""
    result = fig7.run(seed=args.seed)
    rows = [[n, f"{p:.3f}"] for n, p in result.cdf() if n <= 16]
    _print(render_table(["concurrent flows N", "P[≤N | active]"], rows,
                        title="== Figure 7 CDF (truncated at 16) =="))
    _print(
        render_table(
            ["statistic", "measured", "paper"],
            [
                ["P[N ≥ 7 | active]", f"{result.fraction_7_or_more:.3f}", "0.10"],
                ["max concurrent", str(result.max_concurrent), "35"],
                ["flows generated", str(result.num_flows), "-"],
            ],
            title="== summary ==",
        )
    )


def cmd_fig9(args: argparse.Namespace) -> None:
    """Figure 9: scheduling decision overhead."""
    results = fig9.run()
    rows = [
        [
            r.num_interfaces,
            f"{r.median_us():.2f} µs",
            f"{r.p99_us():.2f} µs",
            f"{r.mean_flows_examined():.2f}",
        ]
        for r in results.values()
    ]
    _print(
        render_table(
            ["interfaces", "median decision", "p99 decision", "mean flows examined"],
            rows,
            title="== Figure 9 (Python-scale; paper: <2.5 µs in kernel C) ==",
        )
    )
    flow_sweep = fig9.flow_count_sweep()
    rows = [
        [r.num_flows, f"{r.median_us():.2f} µs"] for r in flow_sweep.values()
    ]
    _print(
        render_table(
            ["flows", "median decision"],
            rows,
            title="== independence from flow count (8 interfaces) ==",
        )
    )


def cmd_fig10(args: argparse.Namespace) -> None:
    """Figures 10 and 11: HTTP proxy goodput and clusters."""
    result = fig10.run(seed=args.seed)
    rows = []
    for phase in fig10.CAPACITY_PHASES:
        start, end, rate1, rate2 = phase
        expected = fig10.expected_rates(phase)
        for flow_id in ("a", "b", "c"):
            measured = result.goodput(flow_id, start + 2, end - 0.5)
            rows.append(
                [
                    f"{start:.0f}–{end:.0f} s",
                    f"{rate1:g}/{rate2:g}",
                    flow_id,
                    format_rate(measured),
                    format_rate(expected[flow_id]),
                ]
            )
    _print(
        render_table(
            ["phase", "if1/if2 Mb/s", "flow", "goodput", "fluid reference"],
            rows,
            title="== Figure 10 ==",
        )
    )
    cluster_rows = []
    for phase in fig10.CAPACITY_PHASES:
        start, end, _, _ = phase
        for cluster in result.clusters(start + 2, end - 0.5):
            cluster_rows.append(
                [
                    f"{start:.0f}–{end:.0f} s",
                    ",".join(sorted(cluster.flows)),
                    ",".join(sorted(cluster.interfaces)),
                    format_rate(cluster.normalized_rate),
                ]
            )
    _print(
        render_table(
            ["window", "flows", "interfaces", "level"],
            cluster_rows,
            title="== Figure 11 clusters ==",
        )
    )
    print(f"content integrity failures: {result.integrity_failures()}")


def cmd_ideal(args: argparse.Namespace) -> None:
    """E9 extension: ideal in-network proxy vs the HTTP proxy."""
    from .experiments import inbound_ideal

    result = inbound_ideal.run(seed=args.seed)
    rows = []
    for window in result.fluid:
        for flow_id in ("a", "b", "c"):
            rows.append(
                [
                    f"{window[0]:.0f}–{window[1]:.0f} s",
                    flow_id,
                    format_rate(result.fluid[window][flow_id]),
                    format_rate(result.ideal[window][flow_id]),
                    format_rate(result.http[window][flow_id]),
                ]
            )
    _print(
        render_table(
            ["window", "flow", "fluid", "ideal proxy", "HTTP proxy"],
            rows,
            title="== E9: Figure 4 ideal vs Figure 5 HTTP ==",
        )
    )
    print(
        f"worst deviation from fluid: ideal "
        f"{result.worst_deviation('ideal'):.1%}, HTTP "
        f"{result.worst_deviation('http'):.1%}"
    )


def cmd_fct(args: argparse.Namespace) -> None:
    """E13 extension: flow completion times under smartphone churn."""
    from .experiments import fct

    results = fct.run(seed=args.seed, with_elephant=not args.light)
    rows = [
        [
            label,
            f"{result.median():.2f} s",
            f"{result.p90():.2f} s",
            f"{result.completed}/{result.offered}",
        ]
        for label, result in results.items()
    ]
    regime = "light load" if args.light else "with background elephant"
    _print(
        render_table(
            ["scheduler", "median FCT", "p90 FCT", "completed"],
            rows,
            title=f"== E13: flow completion times ({regime}) ==",
        )
    )


def cmd_chaos(args: argparse.Namespace) -> None:
    """Run the seeded chaos scenario and print the fault/recovery report.

    Exits with status 2 if the invariant checker recorded any violation
    during the run — the signal CI watches for.
    """
    from .faults.chaos import run_chaos

    report = run_chaos(
        seed=args.seed, duration=args.duration, with_churn=not args.no_churn
    )
    _print(report.to_text())
    if report.invariant_violations:
        print(
            f"error: {len(report.invariant_violations)} invariant "
            "violation(s) during chaos run",
            file=sys.stderr,
        )
        raise SystemExit(2)


def cmd_audit(args: argparse.Namespace) -> None:
    """Run the chaos scenario with the inline fairness auditor attached.

    Prints the drift summary (measured rates vs the live fluid
    optimum), the solver's delta and solve counts, and any fairness
    alerts. With ``--strict`` the command exits 2 if any drift alert
    was raised. Everything printed is derived from the simulated
    clock, so the output is byte-identical for a given seed.
    """
    from .faults.chaos import ChaosRun

    run = ChaosRun(
        seed=args.seed,
        duration=args.duration,
        with_churn=not args.no_churn,
        with_auditor=True,
        audit_period=args.period,
    )
    run.run()
    auditor = run.auditor
    solver = auditor.solver
    allocation = solver.allocation
    lines = [
        f"== fairness audit: seed={args.seed} duration={args.duration:g}s "
        f"period={args.period:g}s window={auditor.window:g}s ==",
        "",
        f"ticks={auditor.ticks} audits={auditor.audits_total} "
        f"drift_last={auditor.drift_last:.4f} drift_peak={auditor.drift_peak:.4f}",
        f"solver: {solver.deltas_total} deltas, {solver.full_solves} solves, "
        f"{len(allocation.clusters)} clusters now",
        "",
        f"{'flow':<8} {'weight':>7} {'fluid Mb/s':>11} {'measured Mb/s':>14}",
    ]
    stats = run.engine.stats
    window_start = max(0.0, args.duration - auditor.window)
    for flow_id in sorted(run.engine.flows):
        expected = float(allocation.rates.get(flow_id, 0))
        measured = stats.rate_in_window(flow_id, window_start, args.duration)
        weight = run.engine.flows[flow_id].weight
        lines.append(
            f"{flow_id:<8} {weight:>7.2f} {expected / 1e6:>11.3f} "
            f"{measured / 1e6:>14.3f}"
        )
    lines.append("")
    if auditor.alerts:
        lines.append(
            f"{len(auditor.alerts)} fairness alert(s), "
            f"{auditor.alerts_suppressed} suppressed:"
        )
        lines.extend(f"  {alert}" for alert in auditor.alerts)
    else:
        lines.append("no fairness drift detected")
    _print("\n".join(lines))
    if args.strict and auditor.alerts:
        print(
            f"error: {len(auditor.alerts)} fairness drift alert(s)",
            file=sys.stderr,
        )
        raise SystemExit(2)


def cmd_slo(args: argparse.Namespace) -> None:
    """Run the latency-SLO report across the scheduler family.

    With ``--check-determinism`` the report is recomputed from the same
    seed and the command exits 2 unless both hashes are byte-identical
    — the family-wide decision-determinism gate.
    """
    from .analysis.slo import run_latency_slo

    def report():
        return run_latency_slo(
            seed=args.seed,
            duration=args.duration,
            schedulers=args.schedulers if args.schedulers else None,
            with_churn=not args.no_churn,
        )

    first = report()
    _print(first.to_text())
    if not args.check_determinism:
        return
    if report().report_hash() != first.report_hash():
        print(
            "error: SLO report hash diverges between two runs of the same seed",
            file=sys.stderr,
        )
        raise SystemExit(2)
    print("SLO report hash identical on a re-run of the same seed")


def cmd_bench_core(args: argparse.Namespace) -> None:
    """Measure the gated core and fleet cells and write BENCH_core.json.

    The cells' work (event, packet and decision counts, the fleet
    report hash) is deterministic per seed; only wall-clock rates and
    the host-speed probe readings vary between machines.
    """
    from .perf import render_bench_table, run_core_bench, write_bench_document

    document = run_core_bench(
        seed=args.seed,
        progress=lambda message: print(message, file=sys.stderr),
    )
    _print(render_bench_table(document))
    write_bench_document(document, args.out)
    print(f"wrote {args.out}")


def cmd_bench_smoke(args: argparse.Namespace) -> None:
    """Fast bench sanity plus an optional perf gate.

    Always runs a miniature bench document (a few hundred packets, two
    fleet devices) through the validator and checks that the scheduler
    family decides reproducibly (seconds of wall time). With
    ``--check-regression`` it also gates the fairness auditor's
    overhead and re-runs the baseline's core and fleet cells at the
    coordinates ``BENCH_core.json`` records, exiting 2 if a cell's
    packets/sec fell more than its threshold (20% core, 25% fleet)
    below the baseline — unless the ``MIDRR_SKIP_BENCH_REGRESSION``
    environment variable is set (CI machines with unpredictable load
    can opt out without editing the test suite).
    """
    import os

    from .analysis.slo import run_latency_slo
    from .perf import (
        CORE_ATTEMPTS,
        FLEET_ATTEMPTS,
        FLEET_REGRESSION_THRESHOLD,
        REGRESSION_THRESHOLD,
        check_regression,
        run_auditor_overhead,
        run_bracketed,
        run_cell,
        run_core_bench,
        run_fleet_cell,
        validate_bench_document,
    )
    from .trace import DeviceWorkload

    document = run_core_bench(seed=args.seed, target_packets=400, fleet_devices=2)
    problems = validate_bench_document(document)
    if problems:
        for problem in problems:
            print(f"bench smoke: {problem}", file=sys.stderr)
        raise SystemExit(2)
    print("bench smoke: miniature document ok")
    # Family-wide decision determinism: the latency-SLO report hashes
    # every scheduler's deadline/fairness outcome, so two short runs of
    # the same seed prove the whole family decides reproducibly.
    family_hashes = [
        run_latency_slo(seed=args.seed, duration=20.0).report_hash()
        for _ in range(2)
    ]
    if len(set(family_hashes)) != 1:
        print(
            "bench smoke: scheduler-family SLO hash diverges between two "
            f"runs of the same seed: {family_hashes}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    print("bench smoke: scheduler-family decisions identical on a re-run")
    if not args.check_regression:
        return
    if os.environ.get("MIDRR_SKIP_BENCH_REGRESSION"):
        print(
            "bench smoke: MIDRR_SKIP_BENCH_REGRESSION set; skipping the "
            "regression gate"
        )
        return
    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"bench smoke: cannot read {args.baseline}: {error}", file=sys.stderr)
        raise SystemExit(2)
    problems = validate_bench_document(baseline)
    if problems:
        for problem in problems:
            print(f"bench smoke: {args.baseline}: {problem}", file=sys.stderr)
        raise SystemExit(2)
    # Inline-auditor gate: attaching the fairness auditor must keep
    # the chaos run's decisions byte-identical (run_auditor_overhead
    # raises on signature divergence) and cost less than the telemetry
    # overhead budget.
    print("bench smoke: gating fairness-auditor overhead ...", file=sys.stderr)
    auditor_cell = run_auditor_overhead(seed=args.seed, repeats=3)
    if not auditor_cell["within_budget"]:
        print(
            "bench smoke: REGRESSION fairness auditor overhead "
            f"{auditor_cell['overhead_fraction']:.1%} exceeds the "
            f"{auditor_cell['budget_fraction']:.0%} telemetry budget",
            file=sys.stderr,
        )
        raise SystemExit(2)
    print(
        "bench smoke: auditor decisions identical, overhead "
        f"{auditor_cell['overhead_fraction']:.1%} within the "
        f"{auditor_cell['budget_fraction']:.0%} budget"
    )
    seed = baseline["seed"]
    core = baseline["core"]
    fleet = baseline["fleet"]
    gates = (
        (
            "core",
            f"F={core['flows']} I={core['interfaces']}",
            CORE_ATTEMPTS,
            REGRESSION_THRESHOLD,
            lambda: run_cell(
                core["flows"],
                core["interfaces"],
                seed=seed,
                target_packets=core["target_packets"],
            ),
        ),
        (
            "fleet",
            f"devices={fleet['devices']} workers={fleet['workers']}",
            FLEET_ATTEMPTS,
            FLEET_REGRESSION_THRESHOLD,
            lambda: run_fleet_cell(
                fleet["devices"],
                fleet["workers"],
                seed=seed,
                workload=DeviceWorkload.from_dict(fleet["workload"]),
                executor=fleet["executor"],
            ),
        ),
    )
    # Each attempt re-runs the baseline cell's own work between two
    # host-speed probes, the way bench core recorded it, and divides
    # the floor by how much slower the host read around that attempt.
    # A cell counts as regressed only when no attempt clears its own
    # floor: the gate measures the machine's capability, not its
    # instantaneous load.
    for section, work, attempts, threshold, run in gates:
        print(f"bench smoke: gating {section} {work} ...", file=sys.stderr)
        for _attempt in range(attempts):
            cell = run_bracketed(run)
            load_factor = (
                cell["calibration_seconds"]
                / baseline[section]["calibration_seconds"]
            )
            if load_factor > 1.05:
                print(
                    f"bench smoke: host read {load_factor:.2f}x slower than "
                    "at baseline time around this attempt; floor scaled "
                    "accordingly",
                    file=sys.stderr,
                )
            failures = check_regression(
                {section: cell},
                baseline,
                section,
                threshold=threshold,
                load_factor=load_factor,
            )
            if not failures:
                break
        if failures:
            for failure in failures:
                print(f"bench smoke: REGRESSION {failure}", file=sys.stderr)
            raise SystemExit(2)
        print(
            f"bench smoke: no {section} regression vs {args.baseline} "
            f"({cell['packets_per_sec']:,.0f} packets/s, load factor "
            f"{max(load_factor, 1.0):.2f})"
        )


def cmd_bench_obs(args: argparse.Namespace) -> None:
    """Measure the packets/s cost of attaching the full obs stack.

    Runs the core cell bare and instrumented, prints both rates plus
    the committed BENCH_core ``core`` cell (the same work) when one of
    the same seed is on disk, and — with ``--strict`` — exits 2 if the
    overhead exceeds the 5% budget.
    """
    from .perf import (
        CORE_FLOWS,
        CORE_INTERFACES,
        OVERHEAD_NOISE_CEILING,
        render_overhead_table,
        run_metrics_overhead,
    )

    print(
        f"bench obs: F={CORE_FLOWS} I={CORE_INTERFACES} "
        f"x{args.repeats} repeat(s) per variant ...",
        file=sys.stderr,
    )
    report = run_metrics_overhead(seed=args.seed, repeats=args.repeats)
    committed = None
    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if isinstance(document, dict) and document.get("seed") == args.seed:
            committed = document.get("core")
    except (OSError, ValueError):
        committed = None
    _print(render_overhead_table(report, committed))
    failed = False
    if not report["telemetry_within_budget"]:
        failed = True
        print(
            "warning: within-run telemetry share "
            f"{report['telemetry_fraction']:.1%} exceeds the "
            f"{report['budget_fraction']:.0%} budget",
            file=sys.stderr,
        )
    if not report["within_budget"]:
        # End-to-end wall-clock delta: informational on busy hosts
        # (see docs/observability.md), a hard failure only past the
        # documented noise ceiling.
        failed = failed or (
            report["overhead_fraction"] >= OVERHEAD_NOISE_CEILING
        )
        print(
            "warning: metrics overhead "
            f"{report['overhead_fraction']:.1%} exceeds the "
            f"{report['budget_fraction']:.0%} budget",
            file=sys.stderr,
        )
    if failed and args.strict:
        raise SystemExit(2)


def cmd_obs(args: argparse.Namespace) -> None:
    """Run a fully instrumented scenario and export JSONL snapshots.

    With ``--selftest`` it instead exercises the registry and the JSONL
    round-trip in isolation, exiting 2 on any problem — the CI smoke
    mode.
    """
    if args.selftest:
        from .obs.selftest import run_selftest

        problems = run_selftest(args.out or "")
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            raise SystemExit(2)
        print("obs selftest: ok")
        return
    from .health.watchdog import Watchdog
    from .obs import (
        MetricsRegistry,
        SnapshotProcess,
        instrument_engine,
        instrument_watchdog,
        render_final_report,
    )
    from .perf import build_core_scenario

    if args.scenario:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            scenario = Scenario.from_dict(json.load(handle))
    else:
        scenario = build_core_scenario(
            args.flows,
            args.interfaces,
            seed=args.seed,
            target_packets=args.target_packets,
        )
    period = args.period if args.period else scenario.duration / 20
    registry = MetricsRegistry()
    captured = {}

    def on_engine(sim, engine):
        instrumentation = instrument_engine(engine, registry)
        watchdog = Watchdog(sim, engine)
        instrument_watchdog(watchdog, registry)
        watchdog.start()
        snapshots = SnapshotProcess(
            sim,
            registry,
            period=period,
            pre_sample=[instrumentation.sample],
        )
        snapshots.start()
        captured["snapshots"] = snapshots

    run_scenario(scenario, SCHEDULER_CHOICES[args.scheduler], on_engine=on_engine)
    snapshots = captured["snapshots"]
    snapshots.sample_now()
    if args.out:
        written = snapshots.write_jsonl(args.out)
        print(f"wrote {written} snapshot(s) to {args.out}", file=sys.stderr)
    _print(
        render_final_report(
            registry,
            title=f"== obs: {scenario.name} ({len(snapshots.snapshots)} snapshots) ==",
        )
    )


def cmd_fleet(args: argparse.Namespace) -> None:
    """Simulate a sharded fleet of devices and print the merged report.

    Each of ``--devices`` devices runs an independent engine + miDRR
    scheduler with a seed derived from ``(--seed, device_id)``;
    ``--workers`` OS processes consume the shards (``--executor
    serial`` keeps everything in-process for debugging). The merged
    fleet report — population delay percentiles, per-interface
    utilization, the Jain fairness proxy and a determinism hash —
    prints as a table and optionally lands in ``--report`` (JSON) and
    ``--shard-log`` (per-shard JSONL payloads).
    """
    from .fleet import run_fleet
    from .trace import DeviceWorkload

    workload = DeviceWorkload(
        kind=args.workload,
        duration=args.duration,
        num_interfaces=args.interfaces,
        num_flows=args.flows,
    )
    report = run_fleet(
        args.devices,
        workload,
        fleet_seed=args.seed,
        workers=args.workers,
        shards=args.shards,
        executor=args.executor,
        report_path=args.report,
        shard_log_path=args.shard_log,
        progress=lambda done, total: print(
            f"fleet: {done}/{total} shard(s) done", file=sys.stderr
        ),
    )
    totals = report["totals"]
    run_info = report["run"]
    delay = report["delay"]
    rows = [
        ["devices", f"{report['fleet']['devices']:,}"],
        ["workload", workload.kind],
        ["executor", run_info["executor"]],
        ["workers", run_info["workers"]],
        ["shards", run_info["shards"]],
        ["packets", f"{totals['packets']:,}"],
        ["drops", f"{totals['drops']:,}"],
        ["flows done", f"{totals['flows_completed']:,}/{totals['flows']:,}"],
        ["wall", f"{run_info['wall_seconds']:.2f} s"],
        ["packets/s", f"{run_info['packets_per_sec']:,.0f}"],
        ["devices/s", f"{run_info['devices_per_sec']:,.1f}"],
    ]
    if delay["count"]:
        rows.extend(
            [
                ["delay p50", f"{delay['p50'] * 1000:.2f} ms"],
                ["delay p95", f"{delay['p95'] * 1000:.2f} ms"],
                ["delay p99", f"{delay['p99'] * 1000:.2f} ms"],
            ]
        )
    for interface_id, info in sorted(report["interfaces"].items()):
        rows.append(
            [f"{interface_id} util", f"{info['utilization']:.1%}"]
        )
    if report["fairness"]["jain_index"] is not None:
        rows.append(["jain index", f"{report['fairness']['jain_index']:.3f}"])
    rows.append(["report hash", report["report_hash"][:16] + "..."])
    _print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"== fleet: {report['fleet']['devices']} device(s), "
            f"seed {report['fleet']['fleet_seed']} ==",
        )
    )
    if args.report:
        print(f"wrote fleet report to {args.report}")
    if args.shard_log:
        print(f"wrote shard payloads to {args.shard_log}")


#: ``--scheduler`` choices of ``run``, ``checkpoint``, ``resume`` and
#: ``obs``: the family plus miDRR with counter exclusion.
SCHEDULER_CHOICES = {
    **SCHEDULER_FAMILY,
    "midrr-counter": lambda: MiDrrScheduler(exclusion="counter"),
}


def cmd_run(args: argparse.Namespace) -> None:
    """Run a scenario JSON document under a chosen scheduler.

    The reference is the fluid optimum of the run's own regime journal,
    averaged over the same window as the measured rates.
    """
    from .fairness.fluid import FluidSimulator

    with open(args.scenario, "r", encoding="utf-8") as handle:
        scenario = Scenario.from_dict(json.load(handle))
    factory = SCHEDULER_CHOICES[args.scheduler]
    result = run_scenario(scenario, factory)
    start = args.warmup
    end = scenario.duration
    rates = result.rates(start, end)
    service = FluidSimulator(result.engine.regimes).run(start, end)
    expected = {
        spec.flow_id: float(service.get(spec.flow_id, 0)) / (end - start)
        for spec in scenario.flows
    }
    _print(
        render_comparison(
            rates,
            expected,
            title=(
                f"== {scenario.name}: measured over ({start:g}, {end:g}] s "
                f"under {args.scheduler} vs fluid max-min =="
            ),
        )
    )
    if result.completions:
        rows = [
            [flow_id, f"{when:.2f} s"]
            for flow_id, when in sorted(result.completions.items())
        ]
        _print(render_table(["flow", "completed"], rows, title="== completions =="))


def cmd_checkpoint(args: argparse.Namespace) -> None:
    """Run a scenario partway and save a versioned checkpoint file."""
    from .recovery import RecoverableScenarioRun, save_checkpoint

    with open(args.scenario, "r", encoding="utf-8") as handle:
        scenario = Scenario.from_dict(json.load(handle))
    if args.until <= 0 or args.until > scenario.duration:
        raise SystemExit(
            f"--until must be in (0, {scenario.duration:g}], got {args.until:g}"
        )
    factory = SCHEDULER_CHOICES[args.scheduler]
    run = RecoverableScenarioRun(scenario, factory)
    while not run.finished and run.sim.now < args.until:
        if not run.step():
            break
    save_checkpoint(args.out, run.checkpoint())
    print(
        f"checkpointed {scenario.name!r} at t={run.sim.now:.3f}s "
        f"({run.sim.events_processed} events, "
        f"{run.decisions_made} scheduling decisions) -> {args.out}"
    )


def cmd_resume(args: argparse.Namespace) -> None:
    """Restore a checkpoint file and replay to the scenario horizon.

    The scheduler must match the one the checkpoint was taken under —
    restore refuses a kind mismatch, just like it refuses a corrupted
    or version-skewed file.
    """
    from .recovery import RecoverableScenarioRun, load_checkpoint

    state = load_checkpoint(args.checkpoint)
    factory = SCHEDULER_CHOICES[args.scheduler]
    run = RecoverableScenarioRun.restore(state, factory)
    resumed_at = run.sim.now
    run.run_to_completion()
    scenario = run.scenario
    print(
        f"resumed {scenario.name!r} at t={resumed_at:.3f}s, "
        f"ran to t={run.sim.now:.3f}s "
        f"({run.decisions_made} scheduling decisions total)"
    )
    rows = [
        [
            spec.flow_id,
            format_rate(
                run.engine.stats.bytes_sent(spec.flow_id) * 8 / scenario.duration
            ),
        ]
        for spec in scenario.flows
    ]
    _print(render_table(["flow", "mean rate"], rows, title="== service =="))
    if run.completions:
        rows = [
            [flow_id, f"{when:.2f} s"]
            for flow_id, when in sorted(run.completions.items())
        ]
        _print(render_table(["flow", "completed"], rows, title="== completions =="))


def cmd_solve(args: argparse.Namespace) -> None:
    """Solve a max-min instance given on the command line."""
    capacities: Dict[str, float] = {}
    for item in args.interface:
        name, _, rate = item.partition("=")
        try:
            capacities[name] = float(rate)
        except ValueError:
            raise SystemExit(f"--interface needs name=rate, got {item!r}") from None
    flows: Dict[str, tuple] = {}
    for item in args.flow:
        try:
            flow_id, weight, interfaces = item.split(":")
            willing = None if interfaces == "*" else interfaces.split(",")
            flows[flow_id] = (float(weight), willing)
        except ValueError:
            raise SystemExit(f"--flow needs id:weight:ifaces, got {item!r}") from None
    allocation = weighted_maxmin(flows, capacities)
    rows = [
        [flow_id, format_rate(allocation.rate(flow_id))] for flow_id in flows
    ]
    _print(render_table(["flow", "max-min rate"], rows, title="== allocation =="))
    cluster_rows = [
        [
            ",".join(sorted(c.flows)),
            ",".join(sorted(c.interfaces)),
            format_rate(float(c.level)),
        ]
        for c in allocation.clusters
    ]
    _print(render_table(["flows", "interfaces", "level/weight"], cluster_rows,
                        title="== clusters =="))


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="midrr",
        description="Reproduce figures from the miDRR paper (CoNEXT 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="Figure 1 motivating allocations")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig6", help="Figures 6 + 8")
    p.add_argument("--zoom", action="store_true", help="include the 6(c) transient")
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("fig7", help="Figure 7 concurrency CDF")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fig7)

    p = sub.add_parser("fig9", help="Figure 9 overhead CDF")
    p.set_defaults(func=cmd_fig9)

    p = sub.add_parser("fig10", help="Figures 10 + 11 (HTTP proxy)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser("ideal", help="E9: ideal proxy vs HTTP proxy")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("fct", help="E13: completion times under churn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--light", action="store_true", help="omit the elephant")
    p.set_defaults(func=cmd_fct)

    p = sub.add_parser("chaos", help="seeded fault-injection run + report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument(
        "--no-churn", action="store_true", help="disable weight churn"
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "audit", help="chaos run with inline fairness-drift auditing"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument(
        "--period", type=float, default=1.0, help="audit tick period (s)"
    )
    p.add_argument("--no-churn", action="store_true")
    p.add_argument(
        "--strict", action="store_true",
        help="exit 2 if any fairness drift alert was raised",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "slo", help="latency-SLO report: scheduler family under chaos"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument(
        "--scheduler",
        dest="schedulers",
        action="append",
        choices=sorted(SCHEDULER_FAMILY),
        metavar="NAME",
        help="restrict the family (repeatable; default: all of "
        f"{', '.join(SCHEDULER_FAMILY)})",
    )
    p.add_argument("--no-churn", action="store_true")
    p.add_argument(
        "--check-determinism",
        action="store_true",
        help="re-run the same seed and exit 2 unless the report hashes "
        "are byte-identical",
    )
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser("bench", help="reproducible performance baselines")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    core = bench_sub.add_parser(
        "core", help="hot-path macro-benchmark (writes BENCH_core.json)"
    )
    core.add_argument("--seed", type=int, default=0)
    core.add_argument("--out", default="BENCH_core.json")
    core.set_defaults(func=cmd_bench_core)
    smoke = bench_sub.add_parser(
        "smoke", help="fast bench sanity + optional perf regression gate"
    )
    smoke.add_argument("--seed", type=int, default=0)
    smoke.add_argument(
        "--check-regression", action="store_true",
        help="fail (exit 2) when the baseline's core or fleet cell loses "
        "more packets/s than its threshold (set "
        "MIDRR_SKIP_BENCH_REGRESSION to skip)",
    )
    smoke.add_argument("--baseline", default="BENCH_core.json")
    smoke.set_defaults(func=cmd_bench_smoke)
    obs_bench = bench_sub.add_parser(
        "obs", help="metrics-overhead comparison (bare vs instrumented)"
    )
    obs_bench.add_argument("--seed", type=int, default=0)
    obs_bench.add_argument(
        "--repeats", type=int, default=5,
        help="paired rounds; the median round's ratio is reported",
    )
    obs_bench.add_argument("--baseline", default="BENCH_core.json")
    obs_bench.add_argument(
        "--strict", action="store_true",
        help="exit 2 when overhead exceeds the budget",
    )
    obs_bench.set_defaults(func=cmd_bench_obs)

    p = sub.add_parser(
        "fleet", help="sharded multi-device fleet simulation + merged report"
    )
    p.add_argument("--devices", type=int, default=1000)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the merged fleet report JSON here")
    p.add_argument(
        "--shard-log", help="write per-shard result payloads as JSONL here"
    )
    p.add_argument(
        "--executor", choices=list(EXECUTORS), default="process",
        help="'serial' runs every shard in-process (debugging/tests)",
    )
    p.add_argument(
        "--shards", type=int, default=0,
        help="shard count override (default: automatic, workers-independent)",
    )
    p.add_argument(
        "--workload", choices=list(WORKLOAD_KINDS), default="smartphone"
    )
    p.add_argument(
        "--duration", type=float, default=30.0,
        help="simulated seconds per device",
    )
    p.add_argument("--interfaces", type=int, default=2)
    p.add_argument(
        "--flows", type=int, default=8,
        help="flows per device (bulk workload only)",
    )
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "obs", help="instrumented run with JSONL snapshots + final report"
    )
    p.add_argument(
        "--selftest", action="store_true",
        help="registry + JSONL round-trip self-check (exit 2 on problems)",
    )
    p.add_argument("--scenario", help="Scenario JSON file (default: seeded bench cell)")
    p.add_argument("--scheduler", choices=sorted(SCHEDULER_CHOICES), default="midrr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flows", type=int, default=100)
    p.add_argument("--interfaces", type=int, default=4)
    p.add_argument(
        "--target-packets", type=int, default=DEFAULT_TARGET_PACKETS
    )
    p.add_argument(
        "--period", type=float, default=0.0,
        help="snapshot period in virtual seconds (default: duration/20)",
    )
    p.add_argument("--out", help="write snapshots to this JSONL file")
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser("run", help="run a scenario JSON file")
    p.add_argument("scenario", help="path to a Scenario.to_dict() JSON document")
    p.add_argument(
        "--scheduler",
        choices=sorted(SCHEDULER_CHOICES),
        default="midrr",
    )
    p.add_argument("--warmup", type=float, default=2.0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "checkpoint", help="run a scenario partway and save a checkpoint"
    )
    p.add_argument("scenario", help="path to a Scenario.to_dict() JSON document")
    p.add_argument(
        "--scheduler", choices=sorted(SCHEDULER_CHOICES), default="midrr"
    )
    p.add_argument(
        "--until", type=float, required=True,
        help="virtual time to stop and checkpoint at",
    )
    p.add_argument("--out", default="checkpoint.json")
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser(
        "resume", help="restore a checkpoint and replay to the horizon"
    )
    p.add_argument("checkpoint", help="path to a checkpoint file")
    p.add_argument(
        "--scheduler", choices=sorted(SCHEDULER_CHOICES), default="midrr",
        help="must match the scheduler the checkpoint was taken under",
    )
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("all", help="run every figure")
    p.set_defaults(func=cmd_all)

    p = sub.add_parser("solve", help="solve a max-min instance")
    p.add_argument("--interface", action="append", default=[], metavar="NAME=RATE")
    p.add_argument(
        "--flow", action="append", default=[], metavar="ID:WEIGHT:IF1,IF2|*"
    )
    p.set_defaults(func=cmd_solve)
    return parser


def cmd_all(args: argparse.Namespace) -> None:
    """Run every figure in sequence."""
    namespace = argparse.Namespace(zoom=True, seed=0)
    for command in (cmd_fig1, cmd_fig6, cmd_fig7, cmd_fig9, cmd_fig10):
        command(namespace)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``midrr`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
