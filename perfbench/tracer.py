"""Span tracing of the ``repro`` package, installed from outside it.

Nothing under ``src/`` knows about this module. :func:`install` wraps
public entry points at class level (and the two fleet functions the
coordinator and device modules call by module-global name), so every
call through them opens a span. A span carries a name, start, end and
parent; its layer is the ``repro`` module that owns the wrapped code.
Self time is a span's duration minus the time its child spans cover.

Aggregates (calls, self time, inclusive time) are kept exactly for
every span. Full span records are kept in memory up to
:data:`SPAN_CAP` and written out by :meth:`Tracer.write_spans` when the
run ends, so a traced run's memory stays bounded on long windows.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

#: Full span records kept per traced window; aggregates stay exact past it.
SPAN_CAP = 200_000

#: This directory's modules, as they appear to the interpreter.
BENCHMARK_MODULES = frozenset({"calibration", "child", "tracer", "workloads"})

#: ``repro.net`` modules and the layer each belongs to.
_NET_LAYERS = {
    "flow": "net.flow",
    "queueing": "net.flow",
    "packet": "net.flow",
    "sources": "net.sources",
    "interface": "net.interface",
    "sink": "net.sink",
}


def layer_of(module: Optional[str]) -> str:
    """The layer a module belongs to (``repro.net.sink`` -> ``net.sink``)."""
    if not module:
        return "other"
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "workload" if parts[0] in BENCHMARK_MODULES | {"__main__"} else "other"
    if parts[1] == "net":
        return _NET_LAYERS.get(parts[2] if len(parts) > 2 else "", "net")
    if parts[1] == "core":
        return "core.engine"
    return parts[1]


def _describe(func: Callable) -> tuple:
    """``(layer, label)`` for any callable: function, bound method, partial."""
    target = getattr(func, "__func__", func)
    target = getattr(target, "func", target)  # functools.partial
    module = getattr(target, "__module__", None)
    if module is None:
        module = type(target).__module__
    qualname = getattr(target, "__qualname__", None) or type(target).__qualname__
    return layer_of(module), f"{module}.{qualname}"


class Tracer:
    """In-memory span store with exact per-name aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        # Inclusive durations of the names whose percentiles are reported.
        self.durations: Dict[int, array] = {}
        self.stack: List[list] = []
        self.counters: Dict[str, float] = {}
        # Named sets of span ids ("fire", "select", ...) that metrics sum over.
        self.groups: Dict[str, set] = {}
        self._reset_spans()

    def _reset_spans(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0

    def reset(self) -> None:
        """Forget everything recorded so far (called as the window opens)."""
        for index in range(len(self.names)):
            self.calls[index] = 0
            self.self_s[index] = 0.0
            self.total_s[index] = 0.0
        for durations in self.durations.values():
            del durations[:]
        self.counters.clear()
        self._reset_spans()

    def name_id(self, layer: str, label: str, keep_durations: bool = False,
                group: Optional[str] = None) -> int:
        """Intern a span name; its layer is fixed at first use."""
        key = f"{layer}|{label}"
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(label)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        if keep_durations and nid not in self.durations:
            self.durations[nid] = array("d")
        if group is not None:
            self.groups.setdefault(group, set()).add(nid)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, nid: int, func: Callable, *args, **kwargs):
        """Run ``func(*args, **kwargs)`` inside a span named *nid*."""
        stack = self.stack
        clock = time.perf_counter
        parent = stack[-1][1] if stack else -1
        if len(self.span_start) < SPAN_CAP:
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            index = -1
            self.spans_dropped += 1
        frame = [0.0, index]
        stack.append(frame)
        start = clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            self.calls[nid] += 1
            self.total_s[nid] += duration
            self.self_s[nid] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            if index >= 0:
                self.span_start[index] = start
                self.span_end[index] = end
            durations = self.durations.get(nid)
            if durations is not None:
                durations.append(duration)

    def wrap_callable(self, func: Callable, group: Optional[str] = None) -> Callable:
        """A span-opening proxy for a listener or callback."""
        layer, label = _describe(func)
        nid = self.name_id(layer, label, group=group)
        span = self.span

        def traced(*args, **kwargs):
            return span(nid, func, *args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for nid, layer in enumerate(self.layers):
            totals[layer] = totals.get(layer, 0.0) + self.self_s[nid]
        return totals

    def group_calls(self, group: str, layer: Optional[str] = None) -> int:
        return sum(
            self.calls[nid]
            for nid in self.groups.get(group, ())
            if layer is None or self.layers[nid] == layer
        )

    def group_total_s(self, group: str) -> float:
        return sum(self.total_s[nid] for nid in self.groups.get(group, ()))

    def group_durations(self, group: str) -> List[float]:
        values: List[float] = []
        for nid in self.groups.get(group, ()):
            values.extend(self.durations.get(nid, ()))
        values.sort()
        return values

    def write_spans(self, path: str) -> int:
        """Write the kept spans as TSV (name, layer, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tlayer\tname\tstart_s\tend_s\tparent\n")
            for index in range(len(self.span_start)):
                nid = self.span_name[index]
                handle.write(
                    f"{index}\t{self.layers[nid]}\t{self.names[nid]}\t"
                    f"{self.span_start[index]:.9f}\t{self.span_end[index]:.9f}\t"
                    f"{self.span_parent[index]}\n"
                )
        return len(self.span_start)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _wrap_method(tracer: Tracer, cls: type, name: str, layer: str, after=None,
                 keep_durations: bool = False, group: Optional[str] = None) -> None:
    """Replace ``cls.name`` with a span-opening wrapper (if it exists).

    *after*, when given, is called as ``after(obj, None, True)`` before
    the call (its return value is the state) and as
    ``after(obj, result, state)`` after it.
    """
    original = cls.__dict__.get(name)
    if (
        original is None
        or not callable(original)
        or isinstance(original, (type, staticmethod, classmethod))
    ):
        return
    nid = tracer.name_id(layer, f"{cls.__module__}.{cls.__qualname__}.{name}",
                         keep_durations=keep_durations, group=group)
    span = tracer.span
    if after is None:
        def wrapper(self, *args, **kwargs):
            return span(nid, original, self, *args, **kwargs)
    else:
        def wrapper(self, *args, **kwargs):
            state = after(self, None, True)
            result = span(nid, original, self, *args, **kwargs)
            after(self, result, state)
            return result
    wrapper.__wrapped__ = original
    setattr(cls, name, wrapper)


def _wrap_registration(tracer: Tracer, cls: type, name: str, position: int = 0,
                       group: Optional[str] = None) -> None:
    """Wrap the callable handed to ``cls.name`` before it is stored."""
    original = cls.__dict__.get(name)
    if original is None:
        return
    wrap = tracer.wrap_callable

    def register(self, *args, **kwargs):
        if len(args) > position and args[position] is not None:
            args = list(args)
            args[position] = wrap(args[position], group=group)
        return original(self, *args, **kwargs)

    register.__wrapped__ = original
    setattr(cls, name, register)


def _subclasses(base: type) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _public_classes(package: str) -> List[type]:
    """Classes defined in the modules of a ``repro`` subpackage."""
    import importlib
    import pkgutil

    root = importlib.import_module(package)
    classes = []
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        module = importlib.import_module(info.name)
        classes.extend(
            member for member in vars(module).values()
            if isinstance(member, type) and member.__module__ == info.name
        )
    return classes


def install(tracer: Tracer) -> None:
    """Wrap the repro entry points the per-layer split is built from."""
    import repro.schedulers  # noqa: F401  (registers every scheduler class)
    from repro.core.engine import SchedulingEngine
    from repro.fairness.fluid import FluidSimulator
    from repro.fairness.incremental import IncrementalMaxMinSolver
    from repro.net.flow import Flow
    from repro.net.interface import Interface
    from repro.net.sink import StatsCollector
    from repro.schedulers.base import MultiInterfaceScheduler, SingleInterfaceScheduler
    from repro.sim import events, process
    from repro.sim.simulator import Simulator

    # Event dispatch: one span per fired event, named after its callback.
    # Keyed by code object, so per-call lambdas share one entry.
    fire_ids: Dict[object, int] = {}
    span = tracer.span

    def fire(self):
        callback = self.callback
        target = getattr(callback, "__func__", callback)
        key = getattr(target, "__code__", target)
        nid = fire_ids.get(key)
        if nid is None:
            nid = fire_ids[key] = tracer.name_id(*_describe(callback), group="fire")
        return span(nid, callback, *self.args)

    events.Event.fire = fire

    queue_cls = type(Simulator().queue)

    def after_push(queue, result, state):
        if state is True:
            return None
        pending = len(queue)
        if pending > tracer.counters.get("sim.pending_max", 0):
            tracer.counters["sim.pending_max"] = pending
        return None

    _wrap_method(tracer, queue_cls, "push", "sim", after=after_push, group="queue")
    _wrap_method(tracer, queue_cls, "pop_ready", "sim", group="queue")
    # The dispatch loop's own bytecodes, wherever the run is called from.
    _wrap_method(tracer, Simulator, "run", "sim")

    # Scheduler decisions: count idle selects and flows examined.
    def after_select(scheduler, result, state):
        examined = getattr(scheduler, "decision_flows_examined", None)
        if state is True:
            return len(examined) if examined is not None else None
        if result is None:
            tracer.count("schedulers.idle_selects")
        if examined is not None and state is not None and len(examined) > state:
            tracer.count("schedulers.examined_decisions", len(examined) - state)
            tracer.count("schedulers.flows_examined", sum(examined[state:]))
        return None

    for cls in _subclasses(MultiInterfaceScheduler):
        _wrap_method(tracer, cls, "select", "schedulers", after=after_select,
                     keep_durations=True, group="select")
    for cls in _subclasses(SingleInterfaceScheduler):
        _wrap_method(tracer, cls, "next_packet", "schedulers")

    for name in ("offer", "pull", "record_sent"):
        _wrap_method(tracer, Flow, name, "net.flow", group="flow")
    tracer.groups["offer"] = {
        nid for nid in tracer.groups["flow"] if tracer.names[nid].endswith(".offer")
    }

    # Listeners and callbacks stored at wiring time, labelled by owner.
    for name in ("on_arrival", "on_dequeue", "on_drop"):
        _wrap_registration(tracer, Flow, name)
    for name in ("on_sent", "attach_source"):
        _wrap_registration(tracer, Interface, name)
    _wrap_registration(tracer, SchedulingEngine, "set_decision_probe")
    _wrap_registration(tracer, process.PeriodicProcess, "__init__", position=2,
                       group="periodic")

    def after_drop(stats, result, state):
        if state is not True:
            tracer.count("net.flow.drops")

    _wrap_method(tracer, StatsCollector, "record_drop", "net.sink", after=after_drop)

    # Sink reads: count outermost calls only (queries call each other).
    depth = [0]

    def after_query(stats, result, state):
        if state is True:
            depth[0] += 1
            return None
        depth[0] -= 1
        if depth[0] == 0:
            tracer.count("net.sink.query_calls")
        return None

    for name, member in list(vars(StatsCollector).items()):
        if callable(member) and not name.startswith("_") and name not in (
            "watch", "record", "record_drop", "snapshot_state", "restore_state"
        ):
            _wrap_method(tracer, StatsCollector, name, "net.sink", after=after_query)

    def after_delta(solver, result, state):
        if state is True:
            return solver.full_solves
        tracer.count("fairness.full_solves", solver.full_solves - state)
        return None

    for name in ("add_flow", "remove_flow", "set_weight", "restrict_flow",
                 "set_capacity"):
        _wrap_method(tracer, IncrementalMaxMinSolver, name, "fairness",
                     after=after_delta, keep_durations=True, group="solver")
    _wrap_method(tracer, FluidSimulator, "run", "fairness", group="fluid")

    # Analysis helpers and the HTTP proxy substrate: every public method.
    for package, layer in (("repro.analysis", "analysis"), ("repro.httpproxy", "httpproxy")):
        for cls in _public_classes(package):
            for name in list(vars(cls)):
                if not name.startswith("_"):
                    _wrap_method(tracer, cls, name, layer)


def install_fleet(tracer: Tracer) -> None:
    """Spans around shard runs and per-device scenario generation.

    These two are plain functions the fleet modules call through their
    own module globals, so the wrapper replaces those globals.
    """
    from repro.fleet import coordinator, device

    for module, name, layer in (
        (coordinator, "run_shard", "fleet"),
        (device, "build_device_scenario", "trace"),
    ):
        original = getattr(module, name, None)
        if original is None:
            continue
        nid = tracer.name_id(layer, f"{module.__name__}.{name}")
        span = tracer.span

        def wrapper(*args, _original=original, _nid=nid, **kwargs):
            return span(_nid, _original, *args, **kwargs)

        setattr(module, name, wrapper)


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Self import time by origin from ``python -X importtime`` output.

    Returns seconds for ``repro`` (the package's own modules),
    ``third_party`` (anything else outside the standard library),
    ``stdlib`` and ``benchmark`` (this directory's modules).
    """
    totals = {"repro": 0.0, "third_party": 0.0, "stdlib": 0.0, "benchmark": 0.0}
    stdlib = getattr(sys, "stdlib_module_names", frozenset())
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top == "repro":
            totals["repro"] += self_us / 1e6
        elif top in BENCHMARK_MODULES:
            totals["benchmark"] += self_us / 1e6
        elif top in stdlib or top.startswith("_"):
            totals["stdlib"] += self_us / 1e6
        else:
            totals["third_party"] += self_us / 1e6
    return totals
