"""The benchmark's span tracer still finds what it wraps.

``perfbench/tracer.py`` wraps ``repro`` entry points by name and skips
a name it cannot find, so deleting one fails only as a silent hole in a
traced benchmark run. This test installs the tracer the way a traced
run does and requires every wrapped entry point of the event queue,
the run loop, the fleet and the fluid reference to be there and a
small miDRR run to record calls in the ``select`` group and the
``sim`` layer.

``install()`` patches classes globally, so the run happens in a fresh
interpreter.
"""

import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:3]

from tracer import Tracer, install, install_fleet

from repro.core.engine import SchedulingEngine
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net.sources import BulkSource
from repro.schedulers.midrr import MiDrrScheduler
from repro.sim.process import PeriodicProcess
from repro.sim.simulator import Simulator

tracer = Tracer()
install(tracer)
install_fleet(tracer)

sim = Simulator()
engine = SchedulingEngine(sim, MiDrrScheduler())
for name, rate in (("wifi", 2e6), ("cell", 1e6)):
    engine.add_interface(Interface(sim, name, rate))
for index, allowed in enumerate((None, ("wifi",), ("cell",))):
    flow = Flow(f"f{index}", allowed_interfaces=allowed)
    BulkSource(sim, flow)
    engine.add_flow(flow)
ticks = []
PeriodicProcess(sim, 0.1, ticks.append).start()
engine.start()
sim.run(until=0.5)

sim_calls = sum(
    calls for calls, layer in zip(tracer.calls, tracer.layers) if layer == "sim"
)
print(json.dumps({
    "names": tracer.names,
    "select_calls": tracer.group_calls("select"),
    "sim_calls": sim_calls,
    "periodic_calls": tracer.group_calls("periodic"),
    "ticks": len(ticks),
}))
"""

#: Entry points the tracer wraps by name; each must still exist.
WRAPPED = (
    "repro.sim.events.EventQueue.push",
    "repro.sim.events.EventQueue.pop_ready",
    "repro.sim.simulator.Simulator.run",
    "repro.schedulers.midrr.MiDrrScheduler.select",
    "repro.net.flow.Flow.offer",
    "repro.net.flow.Flow.pull",
    "repro.fleet.coordinator.run_shard",
    "repro.fleet.device.build_device_scenario",
    "repro.fairness.fluid.FluidSimulator.run",
    "repro.fairness.incremental.IncrementalMaxMinSolver.add_flow",
    "repro.fairness.incremental.IncrementalMaxMinSolver.remove_flow",
    "repro.fairness.incremental.IncrementalMaxMinSolver.set_weight",
    "repro.fairness.incremental.IncrementalMaxMinSolver.restrict_flow",
    "repro.fairness.incremental.IncrementalMaxMinSolver.set_capacity",
)


def test_tracer_installs_and_records():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            _PROBE,
            str(REPO_ROOT / "perfbench"),
            str(REPO_ROOT / "src"),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    missing = [name for name in WRAPPED if name not in report["names"]]
    assert missing == [], f"the tracer no longer finds {missing}"
    assert report["select_calls"] > 0
    assert report["sim_calls"] > 0
    assert report["ticks"] == 5
    assert report["periodic_calls"] == report["ticks"]
