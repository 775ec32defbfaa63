"""Measurement sinks.

:class:`StatsCollector` records per-flow, per-interface service: the
scheduling engine appends one sample per delivered packet, and
substrates that deliver service by other means call
:meth:`StatsCollector.record`. It answers the questions the paper's
figures ask: achieved rate per flow over time (Figure 6/10), total
service per flow (fairness metrics), and the flow→interface service
matrix ``r_ij`` used to extract rate clusters (Figure 8/11).

Log layout
----------
Recording a sample extends :attr:`StatsCollector.pending` by five
scalars, ``time, flow_id, interface_id, size_bytes, delay``, in
:class:`ServiceSample` field order; nothing else happens per packet.
The list holds no container per sample: floats, ints and interned id
strings are not tracked by the cyclic garbage collector, so a sample
waiting for the drain does not count toward a collection (see
``docs/architecture.md``, "Nothing on the per-packet path outlives its
packet"). Once :data:`DRAIN_CHUNK` samples are pending the producer
(the scheduling engine or :meth:`~StatsCollector.record`) calls
:meth:`StatsCollector.drain`, and every read drains first. A query
therefore sees every sample recorded before it, and the raw log never
holds more than one chunk.

The drain moves a chunk into five typed ``array`` columns: time
(``'d'``), flow code and interface code (``'I'``), size (``'q'``) and
delay (``'d'``). Flow and interface ids are interned: a column holds
small integer codes, and a table per column maps them back to the ids,
which are coded in order of first appearance. A missing delay
(``None``) is stored as NaN and counted; while that count is nonzero,
reads map NaN back to ``None``, so a log that mixes ``None`` and NaN
delays reads both back as ``None``. The drain reads each field as a
strided slice of the flat list (``pending[k::SAMPLE_WIDTH]``) and
converts it with C-level ``map`` and ``array`` passes, with no
per-sample Python loop. :attr:`StatsCollector.samples` is a read-only
:class:`ServiceLog` view that decodes rows into :class:`ServiceSample`
tuples on access; :meth:`ServiceLog.columns` reads the fields without
building them.

Time order
----------
The log is in time order: every producer stamps the simulator clock,
which never runs backwards. :meth:`StatsCollector.restore_state` is
the one way a log can enter from outside, and it refuses a sample list
that is out of time order. A window ``(start, end]`` is therefore a
range of rows, found by bisecting the time column.

Derived data
------------
Each kind of derived data is carried forward from its own cursor into
the columns, and only when a query needs it:

* per-flow and per-interface byte totals (``bytes_sent``,
  ``interface_bytes``): one loop adds each new row's size to two lists
  indexed by code;
* the per-flow index (windows, ``service_timeseries``, ``delays``):
  per flow, an ``array('I')`` of its row numbers and an ``array('q')``
  of prefix sums with a leading zero. A window's bytes are the
  difference of two prefix sums, found by bisecting the flow's rows on
  the window's row bounds, O(log S) per query; the last prefix sum is
  the flow's total.

The per-(flow, interface) queries (``service_matrix``,
``pair_service_in_window``, windows on one interface) keep no index:
each is one pass over the rows in its window. The figures read a few
such windows per run.

Measured with ``tracemalloc`` over 100,000 samples (100 flows, 8
interfaces, CPython 3.11), recorded into ``pending`` and drained every
:data:`DRAIN_CHUNK` samples as the engine does, the collector retains
35 bytes per sample, the undrained tail included and no index built
(``test_sample_log_bytes_budget``), and 46 once the per-flow index is
built (``test_indexed_log_bytes_budget``). A tuple per pending sample
read 36 and 48: the tail held a container per sample. One tuple per
sample retained 136 bytes in ``pending`` and 146 once drained into
:class:`ServiceSample` tuples; a frozen-dataclass sample with per-key
sample lists and boxed prefix sums retained 239.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import compress, count, filterfalse, islice, repeat
from math import isnan, nan
from operator import and_, eq, getitem, gt, itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import CheckpointError
from ..sim.simulator import Simulator

#: Raw samples a producer lets accumulate in
#: :attr:`StatsCollector.pending` before it drains them into the columns.
DRAIN_CHUNK = 4096

#: Scalars per sample in :attr:`StatsCollector.pending` (the
#: :class:`ServiceSample` fields). A producer drains once the list holds
#: ``DRAIN_CHUNK * SAMPLE_WIDTH`` items.
SAMPLE_WIDTH = 5

# ``map(_NAN_FOR_NONE, delays, delays)`` stores a missing delay as NaN.
_NAN_FOR_NONE = {None: nan}.get


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


def _intern(table: Dict[str, int], names: List[str], ids: Sequence[str]) -> array:
    """Codes of *ids*, giving each id not yet in *table* the next code.

    The passes are C-level, so coding a new id costs no Python call.
    """
    try:
        codes = itemgetter(*ids)(table)
    except KeyError:
        new = list(filterfalse(table.__contains__, dict.fromkeys(ids)))
        table.update(zip(new, count(len(names))))
        names.extend(new)
        codes = itemgetter(*ids)(table)
    # One id makes the getter return its code, not a tuple.
    return array("I", codes if len(ids) > 1 else (codes,))


# One flow's service: a ``(rows, cumulative)`` tuple. ``rows`` are the
# flow's row numbers in the collector's columns, ascending, hence in
# time order; ``cumulative[k]`` is the byte total of the first *k* rows
# (``cumulative[0] == 0``), so ``cumulative[-1]`` is the flow's total.
# A tuple of two arrays is built without a Python-level call.
_ServiceIndex = Tuple[array, array]


class ServiceLog:
    """Read-only view of a collector's samples, in ingestion order.

    Supports ``len``, indexing, slicing and iteration, each yielding
    :class:`ServiceSample` tuples; every access drains the collector's
    pending samples first. :meth:`columns` reads the fields without
    building a tuple per row.
    """

    __slots__ = ("_stats",)

    def __init__(self, stats: "StatsCollector") -> None:
        self._stats = stats

    def __len__(self) -> int:
        stats = self._stats
        if stats.pending:
            stats.drain()
        return len(stats._times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._stats.pending:
                self._stats.drain()
            return list(
                map(tuple.__new__, repeat(ServiceSample), zip(*self._columns(index)))
            )
        row = range(len(self))[index]
        return tuple.__new__(
            ServiceSample, next(zip(*self._columns(slice(row, row + 1))))
        )

    def __iter__(self) -> Iterator[ServiceSample]:
        return map(tuple.__new__, repeat(ServiceSample), zip(*self.columns()))

    def columns(self, start: int = 0, stop: Optional[int] = None) -> Tuple[Iterable, ...]:
        """Iterables over rows ``start:stop`` of each field, in
        :class:`ServiceSample` field order."""
        if self._stats.pending:
            self._stats.drain()
        return self._columns(
            slice(start, stop) if start or stop is not None else None
        )

    def _columns(self, window: Optional[slice]) -> Tuple[Iterable, ...]:
        """Decoded fields over *window* (``None``: every row, uncopied)."""
        stats = self._stats
        times, flows, interfaces, sizes, delays = (
            stats._times,
            stats._flow_codes,
            stats._interface_codes,
            stats._sizes,
            stats._delays,
        )
        if window is not None:
            times, flows, interfaces, sizes, delays = (
                times[window],
                flows[window],
                interfaces[window],
                sizes[window],
                delays[window],
            )
        delays = (
            map(getitem, zip(delays, repeat(None)), map(isnan, delays))
            if stats._missing_delays
            else iter(delays)
        )
        return (
            iter(times),
            map(stats._flow_names.__getitem__, flows),
            map(stats._interface_names.__getitem__, interfaces),
            iter(sizes),
            delays,
        )


class StatsCollector:
    """Records every completed transmission in the system."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        # Producers extend this flat list by the five fields of each
        # sample (timestamp captured at record time) and drain it every
        # DRAIN_CHUNK samples; every read drains it first. The list is
        # never rebound (drains and restores empty it in place), so the
        # engine's sent handler holds its ``extend``.
        self.pending: List[object] = []
        self._drops_by_flow: Dict[str, int] = defaultdict(int)
        self._drop_bytes_by_flow: Dict[str, int] = defaultdict(int)
        self._reset()

    def _reset(self) -> None:
        """Empty the columns, the intern tables and the derived data."""
        self._times = array("d")
        self._flow_codes = array("I")
        self._interface_codes = array("I")
        self._sizes = array("q")
        self._delays = array("d")
        # Rows whose delay is None (stored as NaN).
        self._missing_delays = 0
        self._flow_code: Dict[str, int] = {}
        self._flow_names: List[str] = []
        self._interface_code: Dict[str, int] = {}
        self._interface_names: List[str] = []
        # Derived data: rows before each cursor are accounted for.
        self._totalled = 0
        self._flow_bytes: List[int] = []
        self._interface_bytes: List[int] = []
        self._flows_indexed = 0
        self._flow_index: Dict[int, _ServiceIndex] = {}

    def record(
        self,
        flow_id: str,
        interface_id: str,
        size_bytes: int,
        delay: Optional[float] = None,
    ) -> None:
        """Record one unit of service directly.

        The scheduling engine records every delivered packet itself;
        substrates that deliver service by other means (e.g. the HTTP
        proxy's range responses) call this. The sample is stamped with
        the simulator clock. *size_bytes* must be an integer.
        """
        pending = self.pending
        pending.extend((self._sim.now, flow_id, interface_id, size_bytes, delay))
        if len(pending) >= DRAIN_CHUNK * SAMPLE_WIDTH:
            self.drain()

    def drain(self) -> None:
        """Move every pending raw sample into the columns.

        Producers call this once :data:`DRAIN_CHUNK` samples are
        pending, and every read calls it first.
        """
        pending = self.pending
        if pending:
            try:
                self._ingest(
                    pending[0::SAMPLE_WIDTH],
                    pending[1::SAMPLE_WIDTH],
                    pending[2::SAMPLE_WIDTH],
                    pending[3::SAMPLE_WIDTH],
                    pending[4::SAMPLE_WIDTH],
                )
            finally:
                pending.clear()

    def _ingest(self, times, flow_ids, interface_ids, sizes, delays) -> None:
        """Append samples, given as five equal-length field sequences in
        :class:`ServiceSample` field order, to the columns.

        The columns that can reject a value are converted before any
        column grows, so a bad sample leaves the log as it was.
        """
        times = array("d", times)
        sizes = array("q", sizes)
        try:
            delays = array("d", delays)
        except TypeError:
            missing = delays.count(None)
            delays = array("d", map(_NAN_FOR_NONE, delays, delays))
            self._missing_delays += missing
        flow_codes = _intern(self._flow_code, self._flow_names, flow_ids)
        interface_codes = _intern(
            self._interface_code, self._interface_names, interface_ids
        )
        self._flow_codes.extend(flow_codes)
        self._interface_codes.extend(interface_codes)
        self._times.extend(times)
        self._sizes.extend(sizes)
        self._delays.extend(delays)

    def _count_totals(self) -> None:
        """Bring the per-flow and per-interface byte totals to the log's end."""
        if self.pending:
            self.drain()
        cursor = self._totalled
        if cursor == len(self._sizes):
            return
        flow_bytes = self._flow_bytes
        interface_bytes = self._interface_bytes
        flow_bytes.extend(repeat(0, len(self._flow_names) - len(flow_bytes)))
        interface_bytes.extend(
            repeat(0, len(self._interface_names) - len(interface_bytes))
        )
        for flow, interface, size in zip(
            self._flow_codes[cursor:],
            self._interface_codes[cursor:],
            self._sizes[cursor:],
        ):
            flow_bytes[flow] += size
            interface_bytes[interface] += size
        self._totalled = len(self._sizes)

    def _index_flows(self) -> Dict[int, _ServiceIndex]:
        """The per-flow index, brought to the log's end."""
        if self.pending:
            self.drain()
        indexes = self._flow_index
        cursor = self._flows_indexed
        for row, flow, size in zip(
            count(cursor), self._flow_codes[cursor:], self._sizes[cursor:]
        ):
            index = indexes.get(flow)
            if index is None:
                index = indexes[flow] = (array("I"), array("q", (0,)))
            rows, cumulative = index
            rows.append(row)
            cumulative.append(cumulative[-1] + size)
        self._flows_indexed = len(self._times)
        return indexes

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
        size_bytes, delay]`` records; the derived data is rebuilt from
        the restored log by the first query that needs it.
        """
        return {
            "samples": list(map(list, zip(*self.samples.columns()))),
            "drops_by_flow": dict(self._drops_by_flow),
            "drop_bytes_by_flow": dict(self._drop_bytes_by_flow),
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the collector from :meth:`snapshot_state` output.

        Raises :class:`~repro.errors.CheckpointError`, leaving the
        collector as it was, if the samples are out of time order.
        """
        samples = state["samples"]
        times = list(map(itemgetter(0), samples))
        if any(map(gt, times, times[1:])):
            raise CheckpointError("stats snapshot samples are out of time order")
        self._reset()
        self._drops_by_flow = defaultdict(int, state["drops_by_flow"])
        self._drop_bytes_by_flow = defaultdict(int, state["drop_bytes_by_flow"])
        self.pending.clear()
        if samples:
            self._ingest(*zip(*samples))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def samples(self) -> ServiceLog:
        """Every recorded transmission, in time (and ingestion) order.

        A new view on each access: a view kept here would hold the
        collector in a reference cycle.
        """
        return ServiceLog(self)

    def bytes_sent(self, flow_id: str) -> int:
        """Total bytes served to *flow_id* so far."""
        self._count_totals()
        code = self._flow_code.get(flow_id)
        return 0 if code is None else self._flow_bytes[code]

    def bytes_by_flow(self) -> Dict[str, int]:
        """Per-flow bytes served so far (flows with no samples absent)."""
        self._count_totals()
        return dict(zip(self._flow_names, self._flow_bytes))

    def interface_bytes(self, interface_id: str) -> int:
        """Total bytes transmitted by *interface_id* so far."""
        self._count_totals()
        code = self._interface_code.get(interface_id)
        return 0 if code is None else self._interface_bytes[code]

    def service_matrix(self) -> Dict[Tuple[str, str], int]:
        """``r_ij`` in bytes: service of flow *i* on interface *j*
        (pairs served only zero-byte samples included)."""
        if self.pending:
            self.drain()
        return self._pair_bytes(0, None)

    def flow_ids(self) -> List[str]:
        """Flows that received any service, sorted."""
        if self.pending:
            self.drain()
        return sorted(self._flow_names)

    # ------------------------------------------------------------------
    # Windowed queries (figures plot rates over time)
    # ------------------------------------------------------------------
    def _rows_between(
        self, start: float, end: float, closed: bool = False
    ) -> Tuple[int, int]:
        """Row bounds ``(low, high)`` of ``(start, end]``, or of
        ``[start, end]`` if *closed*; ``high < low`` if ``end < start``."""
        times = self._times
        low = (bisect_left if closed else bisect_right)(times, start)
        return low, bisect_right(times, end)

    def _flow_rows(
        self, flow_id: str, start: float, end: float, closed: bool = False
    ) -> Optional[Tuple[_ServiceIndex, int, int]]:
        """*flow_id*'s index and the positions in it of its rows in
        the window (see :meth:`_rows_between`), or ``None`` if the flow
        has no samples."""
        indexes = self._index_flows()
        code = self._flow_code.get(flow_id)
        if code is None:
            return None
        index = indexes[code]
        rows = index[0]
        low, high = self._rows_between(start, end, closed)
        return index, bisect_left(rows, low), bisect_left(rows, high)

    def _pair_bytes(
        self, low: int, high: Optional[int]
    ) -> Dict[Tuple[str, str], int]:
        """Bytes per ``(flow_id, interface_id)`` pair over rows
        ``low:high``, pairs in order of first appearance.

        The columns are read through ``islice``, not copied: a window
        can span most of the log.
        """
        flows = islice(self._flow_codes, low, high)
        interfaces = islice(self._interface_codes, low, high)
        pairs = zip(
            map(self._flow_names.__getitem__, flows),
            map(self._interface_names.__getitem__, interfaces),
        )
        totals: Dict[Tuple[str, str], int] = {}
        get = totals.get
        for pair, size in zip(pairs, islice(self._sizes, low, high)):
            totals[pair] = get(pair, 0) + size
        return totals

    def service_in_window(
        self,
        flow_id: str,
        start: float,
        end: float,
        interface_id: Optional[str] = None,
    ) -> int:
        """Bytes served to *flow_id* in ``(start, end]``.

        ``S_i(t1, t2)`` from the paper's Definition 3: O(log S) via
        the per-flow prefix sums, or one pass over the window's rows
        when restricted to *interface_id*.
        """
        if interface_id is not None:
            if self.pending:
                self.drain()
            flow = self._flow_code.get(flow_id)
            interface = self._interface_code.get(interface_id)
            if flow is None or interface is None:
                return 0
            low, high = self._rows_between(start, end)
            matches = map(
                and_,
                map(eq, islice(self._flow_codes, low, high), repeat(flow)),
                map(eq, islice(self._interface_codes, low, high), repeat(interface)),
            )
            return sum(compress(islice(self._sizes, low, high), matches))
        found = self._flow_rows(flow_id, start, end)
        if found is None:
            return 0
        (_, cumulative), low, high = found
        return cumulative[high] - cumulative[low] if high > low else 0

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
        found = self._flow_rows(flow_id, start, horizon, closed=True)
        if found is not None:
            (rows, _), low, high = found
            times = self._times
            sizes = self._sizes
            for row in rows[low:high]:
                position = int((times[row] - start) / bin_width)
                if position >= num_bins:
                    position = num_bins - 1
                totals[position] += sizes[row]
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
        horizon = end if end is not None else self._sim.now
        found = self._flow_rows(flow_id, start, horizon)
        if found is None:
            return []
        (rows, _), low, high = found
        delays = map(self._delays.__getitem__, rows[low:high])
        if self._missing_delays:
            return list(filterfalse(isnan, delays))
        return list(delays)

    def pair_service_in_window(
        self, start: float, end: float
    ) -> Dict[Tuple[str, str], int]:
        """The ``r_ij`` matrix restricted to ``(start, end]`` (bytes),
        pairs with no bytes in the window left out."""
        if self.pending:
            self.drain()
        matrix = self._pair_bytes(*self._rows_between(start, end))
        return {pair: total for pair, total in matrix.items() if total}
