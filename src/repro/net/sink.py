"""Measurement sinks.

:class:`StatsCollector` records per-flow, per-interface service: the
scheduling engine appends one sample per delivered packet, and
:meth:`StatsCollector.watch` subscribes it to interfaces used without
an engine. It answers the questions the paper's figures ask: achieved
rate per flow over time (Figure 6/10), total service per flow
(fairness metrics), and the flow→interface service matrix ``r_ij``
used to extract rate clusters (Figure 8/11).

Log on read, index on first indexed query
-----------------------------------------
Recording a sample appends one raw ``(time, flow_id, interface_id,
size_bytes, delay)`` tuple to :attr:`StatsCollector.pending`; nothing
else happens per packet. Every read drains that log first, so a query
always sees every sample recorded before it, and a run that is only
queried at the end pays for ingestion after its timed loop.

The drain (``_flush``) is one loop with no per-sample method calls:
each raw tuple becomes a :class:`ServiceSample` (a named tuple, built
from the raw tuple without a keyword call) in the flat log, and its
bytes land in the per-interface total. Reads that need nothing else —
:attr:`~StatsCollector.samples` and
:meth:`~StatsCollector.interface_bytes` — stop there. The per-flow and
per-pair indexes are built only when an indexed query asks
(``_index``): one more loop carries them forward from a cursor into
the log, so a run whose only reader scans the log (a fleet device's
digest) never builds them, and a run that queries them does the same
work as building them at ingest.

Indexing
--------
Completion times are the simulator clock, which never runs backwards,
so every per-flow and per-pair sequence arrives time-sorted. Each
index holds a ``times`` list and an ``array('q')`` of prefix sums with
a leading zero: the bytes in a half-open window ``(start, end]`` are
the difference of two prefix sums found by bisection, O(log S) per
query, and the last prefix sum is the key's total. Only the flow index
also keeps its samples, for the queries that need sizes or delays
(``service_timeseries``, ``delays``); the pair index keeps nothing
else. Direct
:meth:`StatsCollector.record` calls may arrive out of time order;
those samples are inserted in place and the later prefix sums shifted.

Measured with ``tracemalloc`` over 100,000 samples (100 flows, 8
interfaces, CPython 3.11), the collector retains 239 bytes per sample
with a frozen-dataclass sample, two per-key sample lists and boxed
prefix sums, and 141 bytes with the layout above.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..sim.simulator import Simulator
from .interface import Interface
from .packet import Packet


class ServiceSample(NamedTuple):
    """One completed transmission: who, where, how much, when.

    ``delay`` is the packet's queueing + transmission delay (completion
    time minus arrival into the system); ``None`` for service recorded
    without packet context (e.g. HTTP chunk deliveries).
    """

    time: float
    flow_id: str
    interface_id: str
    size_bytes: int
    delay: Optional[float] = None


class _ServiceIndex:
    """Time-sorted service for one flow or (flow, interface) pair.

    ``cumulative[k]`` is the byte total of the first *k* samples in
    time order (``cumulative[0] == 0``), so ``cumulative[-1]`` is the
    key's total and the bytes inside any half-open window
    ``(start, end]`` are a difference of two bisections. A flow's
    index also keeps its ``samples`` in time order, for the queries
    that need sizes or delays; a pair's index keeps ``None``.
    """

    __slots__ = ("times", "cumulative", "samples")

    def __init__(self, samples: Optional[List[ServiceSample]] = None) -> None:
        self.times: List[float] = []
        self.cumulative = array("q", (0,))
        self.samples = samples

    def insert(self, sample: ServiceSample) -> None:
        """Place a sample older than the newest one.

        The simulator clock never produces this; direct ``record()``
        calls may. Every later prefix sum grows by the sample's size.
        """
        size_bytes = sample.size_bytes
        position = bisect_right(self.times, sample.time)
        self.times.insert(position, sample.time)
        if self.samples is not None:
            self.samples.insert(position, sample)
        cumulative = self.cumulative
        cumulative.insert(position + 1, cumulative[position] + size_bytes)
        for k in range(position + 2, len(cumulative)):
            cumulative[k] += size_bytes

    def bytes_between(self, start: float, end: float) -> int:
        """Total bytes with ``start < time <= end``."""
        low = bisect_right(self.times, start)
        high = bisect_right(self.times, end)
        if high <= low:
            return 0
        return self.cumulative[high] - self.cumulative[low]


class StatsCollector:
    """Records every completed transmission in the system."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._samples: List[ServiceSample] = []
        # Samples before this position in the log are in the indexes.
        self._indexed = 0
        self._flow_index: Dict[str, _ServiceIndex] = {}
        self._pair_index: Dict[Tuple[str, str], _ServiceIndex] = {}
        self._bytes_by_interface: Dict[str, int] = defaultdict(int)
        self._drops_by_flow: Dict[str, int] = defaultdict(int)
        self._drop_bytes_by_flow: Dict[str, int] = defaultdict(int)
        # Producers append raw ``(time, flow_id, interface_id,
        # size_bytes, delay)`` tuples (timestamp captured at record
        # time); every read-side entry point drains them through
        # _flush() first. The list is never rebound (drains and
        # restores empty it in place), so the engine's sent handler
        # holds its ``append``.
        self.pending: List[tuple] = []

    def watch(self, *interfaces: Interface) -> "StatsCollector":
        """Subscribe to the given interfaces' completion events."""
        for interface in interfaces:
            interface.on_sent(self._record)
        return self

    def _record(self, interface: Interface, packet: Packet) -> None:
        now = self._sim.now
        self.pending.append(
            (
                now,
                packet.flow_id,
                interface.interface_id,
                packet.size_bytes,
                now - packet.created_at,
            )
        )

    def record(
        self,
        flow_id: str,
        interface_id: str,
        size_bytes: int,
        delay: Optional[float] = None,
    ) -> None:
        """Record one unit of service directly.

        The scheduling engine records every delivered packet itself,
        and :meth:`watch` subscribes to interfaces directly; substrates
        that deliver service by other means (e.g. the HTTP proxy's
        range responses) call it themselves. *size_bytes* must be an
        integer.
        """
        self.pending.append(
            (self._sim.now, flow_id, interface_id, size_bytes, delay)
        )

    def _flush(self) -> None:
        """Ingest every pending raw record into the log and byte totals."""
        pending = self.pending
        if not pending:
            return
        log = self._samples.append
        by_interface = self._bytes_by_interface
        new_sample = tuple.__new__
        try:
            for raw in pending:
                log(new_sample(ServiceSample, raw))
                by_interface[raw[2]] += raw[3]
        finally:
            pending.clear()

    def _index(self) -> None:
        """Bring the per-flow and per-pair indexes up to the log's end."""
        self._flush()
        samples = self._samples
        if self._indexed == len(samples):
            return
        flow_index = self._flow_index
        pair_index = self._pair_index
        for sample in samples[self._indexed:]:
            time, flow_id, interface_id, size_bytes, _ = sample
            index = flow_index.get(flow_id)
            if index is None:
                index = flow_index[flow_id] = _ServiceIndex([])
            times = index.times
            if times and time < times[-1]:
                index.insert(sample)
            else:
                times.append(time)
                index.samples.append(sample)
                cumulative = index.cumulative
                cumulative.append(cumulative[-1] + size_bytes)
            key = (flow_id, interface_id)
            index = pair_index.get(key)
            if index is None:
                index = pair_index[key] = _ServiceIndex()
            times = index.times
            if times and time < times[-1]:
                index.insert(sample)
            else:
                times.append(time)
                cumulative = index.cumulative
                cumulative.append(cumulative[-1] + size_bytes)
        self._indexed = len(samples)

    def record_drop(self, flow_id: str, size_bytes: int) -> None:
        """Account one packet discarded before service (queue overflow).

        Chaos reports read these counters to attribute loss per flow;
        the engine feeds them from every flow's drop hook.
        """
        self._drops_by_flow[flow_id] += 1
        self._drop_bytes_by_flow[flow_id] += size_bytes

    def dropped_packets(self, flow_id: str) -> int:
        """Packets discarded from *flow_id*'s backlog so far."""
        return self._drops_by_flow.get(flow_id, 0)

    def dropped_bytes(self, flow_id: str) -> int:
        """Bytes discarded from *flow_id*'s backlog so far."""
        return self._drop_bytes_by_flow.get(flow_id, 0)

    def drops_by_flow(self) -> Dict[str, int]:
        """Per-flow dropped-packet counts (flows with no drops absent)."""
        return dict(self._drops_by_flow)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Sample log and drop accounting as a JSON-safe dict.

        Samples serialize as ``[time, flow_id, interface_id,
        size_bytes, delay]`` records; the indexes are derived data,
        rebuilt from the restored log by the first indexed query.
        """
        self._flush()
        return {
            "samples": [list(sample) for sample in self._samples],
            "drops_by_flow": dict(self._drops_by_flow),
            "drop_bytes_by_flow": dict(self._drop_bytes_by_flow),
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the collector from :meth:`snapshot_state` output."""
        self._samples = []
        self._indexed = 0
        self._flow_index = {}
        self._pair_index = {}
        self._bytes_by_interface = defaultdict(int)
        self._drops_by_flow = defaultdict(int, state["drops_by_flow"])
        self._drop_bytes_by_flow = defaultdict(int, state["drop_bytes_by_flow"])
        self.pending.clear()
        self.pending.extend(map(tuple, state["samples"]))
        self._flush()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def samples(self) -> Sequence[ServiceSample]:
        """Every recorded transmission, in ingestion order."""
        self._flush()
        return self._samples

    def bytes_sent(self, flow_id: str) -> int:
        """Total bytes served to *flow_id* so far."""
        self._index()
        index = self._flow_index.get(flow_id)
        return 0 if index is None else index.cumulative[-1]

    def interface_bytes(self, interface_id: str) -> int:
        """Total bytes transmitted by *interface_id* so far."""
        self._flush()
        return self._bytes_by_interface.get(interface_id, 0)

    def service_matrix(self) -> Dict[Tuple[str, str], int]:
        """``r_ij`` in bytes: service of flow *i* on interface *j*."""
        self._index()
        return {
            pair: index.cumulative[-1] for pair, index in self._pair_index.items()
        }

    def flow_ids(self) -> List[str]:
        """Flows that received any service, sorted."""
        self._index()
        return sorted(self._flow_index)

    # ------------------------------------------------------------------
    # Windowed queries (figures plot rates over time)
    # ------------------------------------------------------------------
    def service_in_window(
        self,
        flow_id: str,
        start: float,
        end: float,
        interface_id: Optional[str] = None,
    ) -> int:
        """Bytes served to *flow_id* in ``(start, end]``.

        ``S_i(t1, t2)`` from the paper's Definition 3. O(log S) via the
        per-key cumulative index.
        """
        self._index()
        if interface_id is not None:
            index = self._pair_index.get((flow_id, interface_id))
        else:
            index = self._flow_index.get(flow_id)
        if index is None:
            return 0
        return index.bytes_between(start, end)

    def rate_in_window(self, flow_id: str, start: float, end: float) -> float:
        """Average service rate (bits/s) of *flow_id* over ``(start, end]``."""
        if end <= start:
            return 0.0
        return self.service_in_window(flow_id, start, end) * 8 / (end - start)

    def service_timeseries(
        self,
        flow_id: str,
        bin_width: float,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> List[Tuple[float, float, int]]:
        """Binned byte totals: ``[(bin_center, bin_span, bytes), ...]``.

        Bins are left-closed (``[edge, edge + width)``); when the
        horizon is not an exact multiple of ``bin_width`` the final
        bin is **partial**, spanning only up to the horizon, and a
        sample landing exactly at the horizon is counted in the last
        bin. Every sample with ``start <= time <= horizon`` lands in
        exactly one bin, so the bin totals conserve measured bytes
        (the property the hypothesis suite pins). The pre-fix
        implementation dropped both the trailing partial bin and any
        sample whose float-divided index equalled the bin count —
        silently truncating figure tails.
        """
        self._index()
        horizon = end if end is not None else self._sim.now
        if bin_width <= 0 or horizon <= start:
            return []
        span = horizon - start
        num_full = int(span / bin_width + 1e-9)
        remainder = span - num_full * bin_width
        if remainder <= bin_width * 1e-9:
            remainder = 0.0
        num_bins = num_full + (1 if remainder else 0)
        if num_bins == 0:
            # Horizon closer than one bin: everything is one partial bin.
            num_bins, remainder = 1, span
        totals = [0] * num_bins
        index = self._flow_index.get(flow_id)
        if index is not None:
            low = bisect_left(index.times, start)
            high = bisect_right(index.times, horizon)
            for sample in index.samples[low:high]:
                position = int((sample.time - start) / bin_width)
                if position >= num_bins:
                    position = num_bins - 1
                totals[position] += sample.size_bytes
        series: List[Tuple[float, float, int]] = []
        for i in range(num_bins):
            width = (
                remainder if (remainder and i == num_bins - 1) else bin_width
            )
            center = start + i * bin_width + width / 2
            series.append((center, width, totals[i]))
        return series

    def rate_timeseries(
        self,
        flow_id: str,
        bin_width: float,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Per-bin average rates: ``[(bin_center_time, rate_bps), ...]``.

        This is the series the Figure 6 and Figure 10 plots show. Each
        bin is normalized by its *actual* width, so the trailing
        partial bin (see :meth:`service_timeseries`) reports a true
        rate rather than being dropped or diluted.
        """
        return [
            (center, total * 8 / width)
            for center, width, total in self.service_timeseries(
                flow_id, bin_width, start=start, end=end
            )
        ]

    def delays(
        self,
        flow_id: str,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> List[float]:
        """Per-packet delays for *flow_id* over ``(start, end]``.

        Queueing + transmission delay per delivered packet; samples
        without delay context are skipped. Use with
        :class:`repro.analysis.cdf.EmpiricalCdf` for percentiles — the
        latency view behind the paper's "VoIP prefers WiFi because 3G
        latency is higher" motivation.
        """
        self._index()
        horizon = end if end is not None else self._sim.now
        index = self._flow_index.get(flow_id)
        if index is None:
            return []
        low = bisect_right(index.times, start)
        high = bisect_right(index.times, horizon)
        return [
            sample.delay
            for sample in index.samples[low:high]
            if sample.delay is not None
        ]

    def pair_service_in_window(
        self, start: float, end: float
    ) -> Dict[Tuple[str, str], int]:
        """The ``r_ij`` matrix restricted to ``(start, end]`` (bytes)."""
        self._index()
        matrix: Dict[Tuple[str, str], int] = {}
        for pair, index in self._pair_index.items():
            total = index.bytes_between(start, end)
            if total:
                matrix[pair] = total
        return matrix
