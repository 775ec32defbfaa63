"""One measured interpreter of a benchmark run.

``run.py`` starts this file in a fresh interpreter per sample, so
``setup_s`` includes interpreter start and imports exactly as a user
pays them. The child builds one workload, times its window, runs the
output checks and writes one JSON result to ``--out``.

Modes:

* ``plain``    — full-size window, untraced (the end-to-end numbers);
* ``baseline`` — traced-size window, untraced (the overhead reference);
* ``traced``   — traced-size window with every span wrapper installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

from calibration import probe

# Taken before ``repro`` is imported, so the set-up is bracketed too.
START_PROBE_S = probe()

from workloads import WORKLOADS, percentile  # noqa: E402  (imports repro)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    peak_kb = 0
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kb = int(line.split()[1])
    except OSError:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(peak_kb, children_kb) / 1024.0


def layer_metrics(tracer, wall_s: float, workload) -> dict:
    """The per-layer split of one traced window."""
    layers = tracer.layer_self_s()
    counters = tracer.counters
    select = tracer.group_durations("select")
    solves = tracer.group_durations("solver")
    select_calls = tracer.group_calls("select")
    solver_calls = tracer.group_calls("solver")
    examined_decisions = counters.get("schedulers.examined_decisions", 0)

    def share(seconds: float) -> float:
        return seconds / wall_s

    metrics = {
        "sim.events": tracer.group_calls("fire"),
        "sim.queue_ops": tracer.group_calls("queue"),
        "sim.pending_max": counters.get("sim.pending_max", 0),
        "sim.self_s": layers.get("sim", 0.0),
        "schedulers.select_calls": select_calls,
        "schedulers.select_self_s": layers.get("schedulers", 0.0),
        "schedulers.select_p50_us": percentile(select, 0.50) * 1e6 if select else 0.0,
        "schedulers.select_p99_us": percentile(select, 0.99) * 1e6 if select else 0.0,
        "schedulers.flows_examined_mean": (
            counters.get("schedulers.flows_examined", 0) / examined_decisions
            if examined_decisions else 0.0
        ),
        "schedulers.idle_select_share": (
            counters.get("schedulers.idle_selects", 0) / select_calls if select_calls else 0.0
        ),
        "net.flow.calls": tracer.group_calls("flow"),
        "net.flow.self_s": layers.get("net.flow", 0.0),
        "net.flow.drops": counters.get("net.flow.drops", 0),
        "net.sources.packets_created": tracer.group_calls("offer"),
        "net.sources.self_s": layers.get("net.sources", 0.0),
        "net.interface.self_s": layers.get("net.interface", 0.0),
        "core.engine.self_s": layers.get("core.engine", 0.0),
        "net.sink.self_s": layers.get("net.sink", 0.0),
        "net.sink.query_calls": counters.get("net.sink.query_calls", 0),
        "fairness.solver_calls": solver_calls,
        "fairness.full_solve_share": (
            counters.get("fairness.full_solves", 0) / solver_calls if solver_calls else 0.0
        ),
        "fairness.solver_share": share(sum(solves)),
        "fairness.fluid_share": share(tracer.group_total_s("fluid")),
        "health.ticks": tracer.group_calls("periodic", layer="health"),
        "health.share": share(layers.get("health", 0.0)),
        "obs.share": share(layers.get("obs", 0.0)),
        "trace.build_share": share(layers.get("trace", 0.0)),
        "analysis.share": share(layers.get("analysis", 0.0)),
        "httpproxy.share": share(layers.get("httpproxy", 0.0)),
        "tracing.unattributed_share": share(wall_s - sum(layers.values())),
    }
    for figure in getattr(workload, "FIGURES", ()):
        metrics[f"experiments.{figure}_share"] = share(workload.figure_s.get(figure, 0.0))
    # Absolute seconds and sample counts, for the report (not the JSON line).
    detail = {
        "layers_self_s": dict(sorted(layers.items())),
        "select_samples": len(select),
        "solve_samples": len(solves),
        "fairness.solve_p99_ms": percentile(solves, 0.99) * 1e3 if solves else 0.0,
        "fairness.solver_self_s": layers.get("fairness", 0.0),
        "fairness.fluid_s": tracer.group_total_s("fluid"),
        "health.self_s": layers.get("health", 0.0),
        "obs.self_s": layers.get("obs", 0.0),
        "trace.build_s": layers.get("trace", 0.0),
        "analysis.self_s": layers.get("analysis", 0.0),
        "httpproxy.self_s": layers.get("httpproxy", 0.0),
        "spans_kept": len(tracer.span_start),
        "spans_dropped": tracer.spans_dropped,
    }
    return {"metrics": metrics, "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--mode", choices=("plain", "baseline", "traced"), required=True)
    parser.add_argument("--first", type=int, default=0,
                        help="1: also run the checks made once per run")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, traced=args.mode != "plain")
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, install, install_fleet

        tracer = Tracer()
        install(tracer)
        install_fleet(tracer)
    workload.setup()
    if tracer is not None:
        tracer.reset()

    on_figure = None
    if tracer is not None and hasattr(workload, "FIGURES"):
        def on_figure(figure, main, argv):
            return tracer.span(tracer.name_id("experiments", figure), main, argv)

    window_open = time.monotonic()
    setup_probe_s = (START_PROBE_S, probe())
    started = time.perf_counter()
    if on_figure is not None:
        workload.run_window(on_figure=on_figure)
    else:
        workload.run_window()
    window_s = time.perf_counter() - started

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": window_open - args.spawned,
        "setup_probe_s": setup_probe_s,
        "window_s": window_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, window_s, workload)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}.tsv")
        result["layers"]["detail"]["spans_file"] = os.path.basename(spans_path)
        tracer.write_spans(spans_path)
    elif args.mode == "baseline" and hasattr(workload, "shard_profile"):
        # Untraced on purpose: forked pool workers inherit every class
        # wrapper of a traced interpreter.
        result["shard_profile"] = workload.shard_profile(out_dir)
    result.update(workload.measure())
    if args.first:
        result["checks"] = result["checks"] + workload.extra_checks()
        result.update(getattr(workload, "counted", {}))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
