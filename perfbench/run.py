"""Run one benchmark workload, check its outputs and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-f1000-i8 --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Each sample is taken in a fresh interpreter (``child.py``), one after
another, until ``--seconds`` of timed window have been measured and at
least :data:`MIN_INTERPRETERS` interpreters have run. ``--trace 1``
instead runs one untraced and one traced interpreter on a shorter
window and reports the per-layer split.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count checked output units (served samples,
flows, invariant checks, repeated work counts, ...), so their ratio is
the workload's ``failed_share``. Everything measured, with sample
counts, is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from calibration import (  # noqa: E402  (stdlib only)
    FAST_FACTOR,
    FULL_SPEED_PROBE_S,
    at_reference_speed,
    fast_samples,
)
from tracer import parse_importtime  # noqa: E402  (stdlib only)

WORKLOAD_NAMES = ("bulk-f1000-i8", "churn-monitored-i8", "fleet-smartphone", "paper-figures")

#: The seed tuning was done on, and a held-out seed to re-check claims on.
DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 2

#: ``setup_s`` is a median over at least this many fresh interpreters.
MIN_INTERPRETERS = 3

#: No interpreter is started once the run could no longer end in time.
RUN_BUDGET_S = 165.0

END_TO_END = (
    ("packets_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.events", "count"),
    ("sim.queue_ops", "count"),
    ("sim.pending_max", "count"),
    ("sim.self_s", "s"),
    ("schedulers.select_calls", "count"),
    ("schedulers.select_self_s", "s"),
    ("schedulers.select_p50_us", "us"),
    ("schedulers.select_p99_us", "us"),
    ("schedulers.flows_examined_mean", "flows"),
    ("schedulers.idle_select_share", "ratio"),
    ("net.flow.calls", "count"),
    ("net.flow.self_s", "s"),
    ("net.flow.drops", "count"),
    ("net.sources.packets_created", "count"),
    ("net.sources.self_s", "s"),
    ("net.interface.self_s", "s"),
    ("core.engine.self_s", "s"),
    ("net.sink.self_s", "s"),
    ("net.sink.query_calls", "count"),
    ("fairness.solver_calls", "count"),
    ("fairness.full_solve_share", "ratio"),
    ("fairness.solver_share", "ratio"),
    ("fairness.fluid_share", "ratio"),
    ("health.ticks", "count"),
    ("health.share", "ratio"),
    ("obs.share", "ratio"),
    ("fleet.payload_bytes", "bytes"),
    ("fleet.worker_busy_share", "ratio"),
    ("fleet.merge_share", "ratio"),
    ("fleet.shard_imbalance", "ratio"),
    ("trace.build_share", "ratio"),
    ("experiments.fig1_share", "ratio"),
    ("experiments.fig6_share", "ratio"),
    ("experiments.fig7_share", "ratio"),
    ("experiments.fig9_share", "ratio"),
    ("experiments.fig10_share", "ratio"),
    ("analysis.share", "ratio"),
    ("httpproxy.share", "ratio"),
    ("import.repro_s", "s"),
    ("import.third_party_share", "ratio"),
    ("tracing.overhead_share", "ratio"),
    ("tracing.unattributed_share", "ratio"),
)


class ChildFailed(RuntimeError):
    """A measured interpreter exited non-zero or ran out of time."""


def spawn(workload: str, seed: int, mode: str, first: bool, deadline: float,
          importtime: bool = False) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its result."""
    out = os.path.join(OUT, f"child-{os.getpid()}-{mode}-{time.monotonic_ns()}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [
        os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--first", str(int(first)), "--out", out,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} ({mode}) ran past the run's time budget") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildFailed(f"{workload} ({mode}) exited {proc.returncode}:\n{tail}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(out)
    result["elapsed_s"] = time.monotonic() - spawned
    if importtime:
        result["import_s"] = parse_importtime(proc.stderr)
    return result


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def counts_check(results: List[dict], label: str) -> dict:
    """Work counts must repeat exactly between interpreters of one seed."""
    reference = results[0]["counts"]
    differing = [r["counts"] for r in results[1:] if r["counts"] != reference]
    detail = "" if not differing else f"first differs: {differing[0]} vs {reference}"
    return {"name": label, "attempted": len(results) - 1, "failed": len(differing),
            "detail": detail}


def window_units(result: dict) -> List[tuple]:
    """``(packets, seconds, probes)`` per unit of one interpreter's window."""
    return [(p, s, (b, a)) for p, s, b, a in result["samples"]]


def measure_plain(workload: str, seed: int, seconds: float, started: float) -> dict:
    deadline = started + RUN_BUDGET_S
    results: List[dict] = []
    while True:
        results.append(spawn(workload, seed, "plain", not results, deadline))
        measured = sum(r["window_s"] for r in results)
        if len(results) >= MIN_INTERPRETERS and measured >= seconds:
            break
        slowest = max(r["elapsed_s"] for r in results)
        if time.monotonic() + slowest > deadline:
            if len(results) < MIN_INTERPRETERS:
                raise ChildFailed(f"{workload}: too slow for {MIN_INTERPRETERS} interpreters")
            break
    first = results[0]
    units = [window_units(r) for r in results]
    # A window is a fixed sequence of units (sub-windows, fleet calls,
    # figures) that do identical work in every interpreter of the run.
    # Each unit's time is the median, over the interpreters' full-speed
    # samples (all samples, when none ran at full speed), of its time at
    # the reference probe speed; the window's time is the sum over units.
    run_s = 0.0
    kept_samples = 0
    for unit in zip(*units):
        kept = fast_samples(unit, lambda sample: sample[2])
        kept_samples += len(kept)
        run_s += statistics.median(at_reference_speed(sample[1], sample[2]) for sample in kept)
    # Paper-figures counts its packets once, in the first interpreter's
    # extra pass; the other workloads carry them in their units.
    packets = first["packets"] if workload == "paper-figures" else sum(
        sample[0] for sample in units[0]
    )
    per_interpreter = [packets / sum(sample[1] for sample in u) for u in units]
    probes = [p for u in units for sample in u for p in sample[2]]
    sample_note = (
        f"{kept_samples} kept of {len(units) * len(units[0])} samples, "
        f"{len(units[0])} units x {len(units)} interpreters; quartiles per interpreter"
    )
    checks = [c for r in results for c in r["checks"]]
    checks.append(counts_check(results, "work_counts_repeat"))
    setups = [
        at_reference_speed(seconds, probes) for seconds, probes in fast_samples(
            [(r["setup_s"], r["setup_probe_s"]) for r in results], lambda sample: sample[1]
        )
    ]
    rss = [r["peak_rss_mb"] for r in results]
    return {
        "interpreters": len(results),
        "metrics": {
            "packets_per_s": packets / run_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        },
        "spread": {
            "packets_per_s": quartiles(per_interpreter),
            "setup_s": quartiles(setups),
            "peak_rss_mb": quartiles(rss),
        },
        "samples": {"packets_per_s": sample_note, "setup_s": len(setups),
                    "peak_rss_mb": len(rss)},
        "report": {
            "run_s": run_s,
            "setup_s_all": [r["setup_s"] for r in results],
            "probe_s": probes,
            "delay_p50_ms": first.get("delay_p50_ms"),
            "delay_p99_ms": first.get("delay_p99_ms"),
            "delay_samples": first.get("delay_samples"),
            "fidelity": first.get("fidelity", {}),
            "counts": first["counts"],
            "window_s": [r["window_s"] for r in results],
            "units": units,
        },
        "checks": checks,
    }


def measure_traced(workload: str, seed: int, started: float) -> dict:
    deadline = started + RUN_BUDGET_S
    baseline = spawn(workload, seed, "baseline", False, deadline)
    traced = spawn(workload, seed, "traced", False, deadline, importtime=True)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(traced["layers"]["metrics"])
    shards = baseline.get("shard_profile")
    if shards:
        metrics["fleet.payload_bytes"] = shards["fleet.payload_bytes"]
        metrics["fleet.worker_busy_share"] = shards["fleet.worker_busy_share"]
        metrics["fleet.merge_share"] = shards["fleet.merge_s"] / shards["fleet.pool_wall_s"]
        metrics["fleet.shard_imbalance"] = shards["fleet.shard_max_s"] / shards["fleet.shard_p50_s"]
    imports = traced["import_s"]
    metrics["import.repro_s"] = imports["repro"]
    program_imports = imports["repro"] + imports["third_party"] + imports["stdlib"]
    metrics["import.third_party_share"] = imports["third_party"] / max(program_imports, 1e-12)
    metrics["tracing.overhead_share"] = (
        (traced["window_s"] - baseline["window_s"]) / traced["window_s"]
    )
    checks = baseline["checks"] + traced["checks"]
    checks.append(counts_check([baseline, traced], "tracing_keeps_work_counts"))
    return {
        "metrics": metrics,
        "report": {
            "baseline_window_s": baseline["window_s"],
            "traced_window_s": traced["window_s"],
            "detail": traced["layers"]["detail"],
            "shard_profile": shards,
            "import_s": imports,
            "counts": traced["counts"],
        },
        "checks": checks,
    }


def render(workload: str, seed: int, trace: bool, outcome: dict, units: Dict[str, str]) -> str:
    lines = [f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}) =="]
    for name, value in outcome["metrics"].items():
        note = ""
        if "spread" in outcome:
            q1, _, q3 = outcome["spread"][name]
            note = f"  [p25 {q1:.6g}, p75 {q3:.6g}; n = {outcome['samples'][name]}]"
        lines.append(f"{name:32s} {value:>16.6g} {units[name]}{note}")
    report = outcome["report"]
    if not trace:
        lines.append(f"{'run_s':32s} {report['run_s']:>16.6g} s  (one window: sum of the units' times)")
        probes = report["probe_s"]
        slow = sum(1 for p in probes if p > FAST_FACTOR * FULL_SPEED_PROBE_S)
        lines.append(f"{'speed probe':32s} {statistics.median(probes) * 1e3:>16.6g} ms  "
                     f"[min {min(probes) * 1e3:.4g}, max {max(probes) * 1e3:.4g}; "
                     f"{slow} of {len(probes)} read slow]")
        if report["delay_samples"]:
            lines.append(
                f"{'delay_p50_ms':32s} {report['delay_p50_ms']:>16.6g} sim_ms  "
                f"(simulated clock; n = {report['delay_samples']})"
            )
            lines.append(f"{'delay_p99_ms':32s} {report['delay_p99_ms']:>16.6g} sim_ms")
        for name, value in report["fidelity"].items():
            lines.append(f"{name:32s} {value:>16.6g} ratio")
    else:
        detail = report["detail"]
        for name in ("fairness.solve_p99_ms", "fairness.solver_self_s", "health.self_s",
                     "obs.self_s", "trace.build_s", "analysis.self_s", "httpproxy.self_s"):
            lines.append(f"{name:32s} {detail[name]:>16.6g}")
        lines.append(f"{'select samples':32s} {detail['select_samples']:>16d}")
        lines.append(f"{'solver samples':32s} {detail['solve_samples']:>16d}")
        if report["shard_profile"]:
            for name, value in report["shard_profile"].items():
                lines.append(f"{name:32s} {value:>16.6g}")
        lines.append("layer self time (s): " + ", ".join(
            f"{layer} {seconds:.4f}" for layer, seconds in detail["layers_self_s"].items()))
    lines.append("work counts: " + ", ".join(
        f"{key}={value}" for key, value in report["counts"].items()
        if not isinstance(value, list)))
    for item in outcome["checks"]:
        if item["failed"] or item["name"] in ("work_counts_repeat", "tracing_keeps_work_counts"):
            lines.append(f"check {item['name']}: {item['failed']}/{item['attempted']} failed "
                         f"{item['detail']}".rstrip())
    attempted = sum(c["attempted"] for c in outcome["checks"])
    failed = sum(c["failed"] for c in outcome["checks"])
    lines.append(f"{'failed_share':32s} {failed / max(attempted, 1):>16.6g} ratio  "
                 f"({failed} of {attempted} checked units)")
    return "\n".join(lines)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    if trace:
        outcome = measure_traced(workload, seed, started)
        units = dict(PER_LAYER)
    else:
        outcome = measure_plain(workload, seed, seconds, started)
        units = dict(END_TO_END)
    attempted = sum(c["attempted"] for c in outcome["checks"])
    failed = sum(c["failed"] for c in outcome["checks"])
    document = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "development_seed": DEVELOPMENT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "attempted": attempted,
        "failed": failed,
        **outcome,
    }
    path = os.path.join(OUT, f"results-{workload}-s{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(render(workload, seed, trace, outcome, units))
    print(f"results: {os.path.relpath(path, ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": units[name]}
            for name in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="miDRR reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEVELOPMENT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        line = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, outcome in outcomes.items()
                for metric, value in outcome["metrics"].items()
            },
        }
    else:
        line = outcomes[args.workload]
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
