"""Extension — deviation from the ideal bit-by-bit scheduler (§6.2).

The paper: "miDRR provides weighted max-min fair scheduling, but it
can deviate from an ideal bit-by-bit max-min fair scheduler. To test
how far it can deviate, we check the performance of miDRR in a
simulation..." — Figure 6 then shows steady rates plus a transient.

This bench measures the deviation *continuously*: the exact fluid
trajectory (``repro.fairness.fluid``) is integrated from each run's own
regime journal over the Figure 6 setup, and miDRR's cumulative service
is compared against it at half-second checkpoints. The worst gap, in
bytes, is the system-level counterpart of the paper's Lemma 5/6
per-pair bounds.

Run: pytest benchmarks/bench_ext_fluid_deviation.py --benchmark-only
"""

import pytest

from conftest import banner, emit

from repro.analysis.report import render_table
from repro.core.runner import run_scenario
from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario
from repro.fairness.fluid import FluidSimulator, max_service_lag
from repro.schedulers.midrr import MiDrrScheduler
from repro.schedulers.per_interface import PerInterfaceScheduler
from repro.units import mbps

DURATION = 30.0


def _scenario() -> Scenario:
    return Scenario(
        name="fluid-deviation",
        interfaces=(InterfaceSpec("if1", mbps(3)), InterfaceSpec("if2", mbps(10))),
        flows=(
            FlowSpec("a", weight=1.0, interfaces=("if1",)),
            FlowSpec("b", weight=2.0),
            FlowSpec("c", weight=1.0, interfaces=("if2",)),
        ),
        duration=DURATION,
    )


def _deviation(scheduler_factory):
    scenario = _scenario()
    packet_result = run_scenario(scenario, scheduler_factory)
    fluid = FluidSimulator(packet_result.engine.regimes)
    checkpoints = [0.5 * k for k in range(1, int(DURATION * 2) + 1)]
    measured = {
        t: {
            spec.flow_id: packet_result.stats.service_in_window(spec.flow_id, 0.0, t)
            for spec in scenario.flows
        }
        for t in checkpoints
    }
    return max_service_lag(fluid, measured)


def test_fluid_deviation(benchmark):
    lags = benchmark.pedantic(
        lambda: {
            "miDRR": _deviation(MiDrrScheduler),
            "per-if DRR": _deviation(PerInterfaceScheduler.drr),
        },
        rounds=1,
        iterations=1,
    )

    banner("Deviation from the ideal bit-by-bit scheduler (worst gap, bytes)")
    rows = []
    for label, by_flow in lags.items():
        for flow_id, gap in sorted(by_flow.items()):
            rows.append([label, flow_id, f"{gap:,.0f}", f"{gap / 1500:.1f}"])
    emit(render_table(["scheduler", "flow", "bytes", "≈ packets"], rows))

    # miDRR: bounded by a handful of packets at every checkpoint (the
    # Lemma 5/6 story, measured at system level).
    for flow_id, gap in lags["miDRR"].items():
        assert gap < 6 * 1500 + 3000, f"miDRR {flow_id} gap {gap}"
    # The naive baseline's gap grows with time — by t=30 s it is tens
    # of packets off the ideal trajectory for the wronged flow a.
    assert lags["per-if DRR"]["a"] > 20 * 1500
