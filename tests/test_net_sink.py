"""Unit tests for the stats collector."""

import json
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import SchedulingEngine
from repro.errors import CheckpointError
from repro.net.flow import Flow
from repro.net.interface import Interface
from repro.net import sink
from repro.net.packet import Packet
from repro.net.sink import StatsCollector
from repro.schedulers.midrr import MiDrrScheduler
from repro.sim.simulator import Simulator


class TestDirectRecording:
    def test_bytes_by_flow(self, sim):
        stats = StatsCollector(sim)
        stats.record("a", "if1", 100)
        stats.record("a", "if2", 200)
        stats.record("b", "if1", 50)
        assert stats.bytes_sent("a") == 300
        assert stats.bytes_sent("b") == 50
        assert stats.bytes_sent("missing") == 0

    def test_interface_bytes(self, sim):
        stats = StatsCollector(sim)
        stats.record("a", "if1", 100)
        stats.record("b", "if1", 100)
        assert stats.interface_bytes("if1") == 200

    def test_service_matrix(self, sim):
        stats = StatsCollector(sim)
        stats.record("a", "if1", 100)
        stats.record("a", "if1", 100)
        stats.record("a", "if2", 40)
        assert stats.service_matrix() == {("a", "if1"): 200, ("a", "if2"): 40}

    def test_flow_ids_sorted(self, sim):
        stats = StatsCollector(sim)
        stats.record("z", "if1", 1)
        stats.record("a", "if1", 1)
        assert stats.flow_ids() == ["a", "z"]


class TestWindows:
    def _collect(self, sim):
        stats = StatsCollector(sim)
        for t, flow, size in [(1.0, "a", 100), (2.0, "a", 100), (3.0, "b", 300)]:
            sim.schedule(t, stats.record, flow, "if1", size)
        sim.run()
        return stats

    def test_service_in_window_half_open(self, sim):
        stats = self._collect(sim)
        # (1.0, 3.0] excludes the t=1.0 sample, includes t=2.0 and 3.0.
        assert stats.service_in_window("a", 1.0, 3.0) == 100
        assert stats.service_in_window("b", 1.0, 3.0) == 300

    def test_service_filtered_by_interface(self, sim):
        stats = StatsCollector(sim)
        stats.record("a", "if1", 100)
        stats.record("a", "if2", 50)
        assert stats.service_in_window("a", -1, 1, interface_id="if2") == 50

    def test_rate_in_window(self, sim):
        stats = self._collect(sim)
        # 200 B over (0, 2] → 800 b/s.
        assert stats.rate_in_window("a", 0.0, 2.0) == pytest.approx(800.0)

    def test_rate_empty_window(self, sim):
        stats = self._collect(sim)
        assert stats.rate_in_window("a", 5.0, 5.0) == 0.0

    def test_pair_service_in_window(self, sim):
        stats = self._collect(sim)
        matrix = stats.pair_service_in_window(0.0, 2.5)
        assert matrix == {("a", "if1"): 200}


class TestTimeseries:
    def test_binning(self, sim):
        stats = StatsCollector(sim)
        for t in (0.2, 0.7, 1.2):
            sim.schedule(t, stats.record, "a", "if1", 125)
        sim.run(until=2.0)
        series = stats.rate_timeseries("a", bin_width=1.0, end=2.0)
        assert len(series) == 2
        # Bin 0 has 250 B → 2000 b/s, bin 1 has 125 B → 1000 b/s.
        assert series[0] == (0.5, pytest.approx(2000.0))
        assert series[1] == (1.5, pytest.approx(1000.0))

    def test_empty_inputs(self, sim):
        stats = StatsCollector(sim)
        assert stats.rate_timeseries("a", bin_width=0) == []
        assert stats.rate_timeseries("a", bin_width=1.0, start=5.0, end=5.0) == []

    def test_trailing_partial_bin_emitted(self, sim):
        # Regression: a 2.5 s horizon with 1 s bins yields THREE bins;
        # the pre-fix implementation truncated to two, silently
        # dropping the 125 B served in (2.0, 2.5).
        stats = StatsCollector(sim)
        for t in (0.5, 1.5, 2.25):
            sim.schedule(t, stats.record, "a", "if1", 125)
        sim.run(until=2.5)
        series = stats.service_timeseries("a", bin_width=1.0, end=2.5)
        assert [(c, w) for c, w, _ in series] == [
            (0.5, 1.0),
            (1.5, 1.0),
            (pytest.approx(2.25), pytest.approx(0.5)),
        ]
        assert [total for _, _, total in series] == [125, 125, 125]

    def test_partial_bin_rate_uses_actual_width(self, sim):
        stats = StatsCollector(sim)
        sim.schedule(2.25, stats.record, "a", "if1", 125)
        sim.run(until=2.5)
        series = stats.rate_timeseries("a", bin_width=1.0, end=2.5)
        # 125 B over the 0.5 s partial bin = 2000 b/s, not 1000 b/s.
        assert series[-1] == (pytest.approx(2.25), pytest.approx(2000.0))

    def test_sample_at_exact_horizon_counted(self, sim):
        # Regression: a sample landing exactly at the horizon indexed
        # one past the final bin and was discarded pre-fix.
        stats = StatsCollector(sim)
        sim.schedule(2.0, stats.record, "a", "if1", 125)
        sim.run(until=2.0)
        series = stats.service_timeseries("a", bin_width=1.0, end=2.0)
        assert len(series) == 2
        assert series[-1][2] == 125

    def test_horizon_shorter_than_one_bin(self, sim):
        stats = StatsCollector(sim)
        sim.schedule(0.2, stats.record, "a", "if1", 100)
        sim.run(until=0.25)
        series = stats.service_timeseries("a", bin_width=1.0, end=0.25)
        assert series == [
            (pytest.approx(0.125), pytest.approx(0.25), 100)
        ]


class TestByteConservation:
    """Hypothesis: binning never loses or double-counts service."""

    @staticmethod
    def _replay(events):
        sim = Simulator()
        stats = StatsCollector(sim)
        for t, size in events:
            sim.schedule(t, stats.record, "a", "if1", size)
        sim.run()
        return stats

    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
                st.integers(1, 10_000),
            ),
            min_size=1,
            max_size=40,
        ),
        bin_width=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
        slack=st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
    )
    def test_bin_totals_conserve_bytes(self, events, bin_width, slack):
        stats = self._replay(events)
        horizon = max(t for t, _ in events) + slack
        assume(horizon > 0)  # a zero-span window has no bins at all
        series = stats.service_timeseries(
            "a", bin_width=bin_width, end=horizon
        )
        assert sum(total for _, _, total in series) == stats.bytes_sent("a")

    @settings(max_examples=30, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
                st.integers(1, 10_000),
            ),
            min_size=1,
            max_size=40,
        ),
        bin_width=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
    )
    def test_bin_spans_cover_horizon(self, events, bin_width):
        stats = self._replay(events)
        horizon = max(t for t, _ in events)
        assume(horizon > 0)
        series = stats.service_timeseries(
            "a", bin_width=bin_width, end=horizon
        )
        assert sum(width for _, width, _ in series) == pytest.approx(horizon)


class TestEngineIntegration:
    def test_engine_records_transmissions(self, sim):
        engine = SchedulingEngine(sim, MiDrrScheduler())
        engine.add_interface(Interface(sim, "if1", 12_000))
        flow = Flow("a")
        engine.add_flow(flow)
        engine.start()
        flow.offer(Packet(flow_id="a", size_bytes=1500))
        sim.run()
        stats = engine.stats
        assert stats.bytes_sent("a") == 1500
        assert stats.samples[0].time == pytest.approx(1.0)
        assert stats.samples[0].interface_id == "if1"


class TestServiceLog:
    """``samples`` is a read-only sequence view over the columns."""

    RECORDS = [
        (0.5, "a", "if1", 1500, 0.25),
        (0.75, "a", "if2", 576, 0.125),
        (1.0, "b", "if2", 40, None),
        (2.0, "b", "if1", 1500, 3.0),
    ]

    def _stats(self):
        clock = _Clock()
        stats = StatsCollector(clock)
        for now, flow_id, interface_id, size, delay in self.RECORDS:
            clock.now = now
            stats.record(flow_id, interface_id, size, delay=delay)
        return stats

    def test_len_index_slice_and_iteration(self):
        log = self._stats().samples
        assert len(log) == 4
        assert list(log) == self.RECORDS
        assert [log[i] for i in range(-4, 4)] == self.RECORDS * 2
        assert log[1:3] == self.RECORDS[1:3]
        assert log[::-2] == self.RECORDS[::-2]
        assert log[3].time == 2.0 and log[2].delay is None
        with pytest.raises(IndexError):
            log[4]

    def test_columns_decode_fields(self):
        stats = self._stats()
        columns = [list(column) for column in stats.samples.columns(1, 3)]
        assert columns == [list(field) for field in zip(*self.RECORDS[1:3])]

    def test_delays_read_back_exactly(self):
        stats = self._stats()
        assert [s.delay for s in stats.samples] == [r[4] for r in self.RECORDS]
        assert stats.delays("a", 0.0, 5.0) == [0.25, 0.125]
        assert stats.delays("b", 0.0, 5.0) == [3.0]

    def test_view_sees_samples_recorded_after_it_was_taken(self):
        stats = self._stats()
        log = stats.samples
        stats.record("c", "if3", 7)
        assert len(log) == 5 and log[-1][1:] == ("c", "if3", 7, None)


class TestCheckpointFormat:
    """A fixed log snapshots to the same JSON bytes the tuple-per-sample
    collector wrote, so checkpoints written by it restore here."""

    SNAPSHOT = (
        '{"drop_bytes_by_flow": {"a": 1500}, "drops_by_flow": {"a": 1}, '
        '"samples": [[0.5, "a", "if1", 1500, 0.25], [0.75, "a", "if2", 576, 0.125], '
        '[1.0, "b", "if2", 40, null], [2.0, "b", "if1", 1500, 3.0], '
        '[2.0, "a", "if1", 1500, 1e-06]]}'
    )

    def _stats(self):
        clock = _Clock()
        stats = StatsCollector(clock)
        for now, flow_id, interface_id, size, delay in [
            (0.5, "a", "if1", 1500, 0.25),
            (0.75, "a", "if2", 576, 0.125),
            (1.0, "b", "if2", 40, None),
            (2.0, "b", "if1", 1500, 3.0),
            (2.0, "a", "if1", 1500, 1e-06),
        ]:
            clock.now = now
            stats.record(flow_id, interface_id, size, delay=delay)
        stats.record_drop("a", 1500)
        return stats

    def test_snapshot_bytes_are_pinned(self):
        assert json.dumps(self._stats().snapshot_state(), sort_keys=True) == (
            self.SNAPSHOT
        )

    def test_pinned_snapshot_restores(self):
        restored = StatsCollector(_Clock())
        restored.restore_state(json.loads(self.SNAPSHOT))
        original = self._stats()
        assert list(restored.samples) == list(original.samples)
        assert restored.service_matrix() == original.service_matrix()
        assert restored.delays("b", 0.0, 5.0) == [3.0]
        assert restored.dropped_bytes("a") == 1500
        assert json.dumps(restored.snapshot_state(), sort_keys=True) == self.SNAPSHOT

    def test_out_of_order_snapshot_refused(self):
        """A sample list out of time order is refused and the collector,
        its pending samples included, answers as before."""
        stats = self._stats()
        stats.record("c", "if1", 7)

        def answers():
            return (
                list(stats.samples),
                stats.service_matrix(),
                stats.pair_service_in_window(0.0, 1.0),
                stats.service_in_window("a", 0.5, 2.0),
                stats.service_in_window("a", 0.0, 2.0, interface_id="if2"),
                stats.delays("a"),
                stats.dropped_bytes("a"),
            )

        before = answers()
        state = json.loads(self.SNAPSHOT)
        samples = state["samples"]
        samples[1], samples[2] = samples[2], samples[1]
        state["drop_bytes_by_flow"] = {}
        with pytest.raises(CheckpointError, match="time order"):
            stats.restore_state(state)
        assert answers() == before


class _Clock:
    """A settable stand-in for the simulator clock; the collector only
    reads ``now``. Like the simulator's, it is only moved forward."""

    def __init__(self) -> None:
        self.now = 0.0


_FLOWS = ("a", "b", "c")
_INTERFACES = ("if1", "if2", "if3")
_GRID = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.75, 4.0, 9.0])

_RECORD = st.tuples(
    # Clock step before the record: mostly forward, sometimes none
    # (repeated timestamps).
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
    st.sampled_from(_FLOWS),
    st.sampled_from(_INTERFACES),
    st.sampled_from([0, 1, 40, 1500]),
    st.one_of(st.none(), st.sampled_from([0.0, 0.125, 0.5, 3.0])),
    # Producer: record(), or the engine's way — the sample's five fields
    # through the ``pending.extend`` held since the collector was built,
    # drained once a chunk is pending.
    st.sampled_from(["record", "extend"]),
    # Read the collector after this record, or not (None). Log-only
    # reads drain the pending log mid-stream; windowed reads also bring
    # the per-flow index up to date, so later records land on a partly
    # built index. "restore" snapshots the collector and restores the
    # snapshot into it mid-chunk.
    st.sampled_from(
        [None, None, "samples", "interface_bytes", "bytes_sent", "window", "restore"]
    ),
)


def _interleaved_read(stats, kind, flow_id, interface_id, now):
    """One mid-stream read of the given kind."""
    if kind == "samples":
        return [tuple(s) for s in stats.samples]
    if kind == "interface_bytes":
        return stats.interface_bytes(interface_id)
    if kind == "bytes_sent":
        return stats.bytes_sent(flow_id)
    if kind == "restore":
        stats.restore_state(json.loads(json.dumps(stats.snapshot_state())))
        return [tuple(s) for s in stats.samples]
    return stats.service_in_window(flow_id, now - 1.0, now)


def _interleaved_expected(records, kind, flow_id, interface_id, now):
    """The same read answered by a scan of *records*."""
    if kind in ("samples", "restore"):
        return list(records)
    if kind == "interface_bytes":
        return sum(r[3] for r in records if r[2] == interface_id)
    if kind == "bytes_sent":
        return sum(r[3] for r in records if r[1] == flow_id)
    return sum(
        r[3] for r in records if r[1] == flow_id and now - 1.0 < r[0] <= now
    )


class TestCollectorMatchesBruteForce:
    """Hypothesis: every answer equals a brute-force scan of the log."""

    @staticmethod
    def _answers(stats, windows, bin_width):
        flows = _FLOWS + ("missing",)
        answers = {
            "samples": [
                (s.time, s.flow_id, s.interface_id, s.size_bytes, s.delay)
                for s in stats.samples
            ],
            "bytes_sent": [stats.bytes_sent(f) for f in flows],
            "interface_bytes": [
                stats.interface_bytes(i) for i in _INTERFACES + ("missing",)
            ],
            "service_matrix": stats.service_matrix(),
            "bytes_by_flow": stats.bytes_by_flow(),
            "flow_ids": stats.flow_ids(),
        }
        for start, end in windows:
            answers[("window", start, end)] = (
                [stats.service_in_window(f, start, end) for f in flows],
                [
                    stats.service_in_window(f, start, end, interface_id=i)
                    for f in flows
                    for i in _INTERFACES
                ],
                stats.pair_service_in_window(start, end),
                [stats.service_timeseries(f, bin_width, start, end) for f in flows],
                [stats.delays(f, start, end) for f in flows],
            )
        answers["open_ended"] = (
            [stats.service_timeseries(f, bin_width) for f in flows],
            [stats.delays(f) for f in flows],
        )
        return answers

    @staticmethod
    def _expected(records, windows, bin_width, now):
        flows = _FLOWS + ("missing",)

        def total(predicate):
            return sum(r[3] for r in records if predicate(r))

        def series(flow, start, end):
            horizon = end if end is not None else now
            if bin_width <= 0 or horizon <= start:
                return []
            span = horizon - start
            num_full = int(span / bin_width + 1e-9)
            remainder = span - num_full * bin_width
            if remainder <= bin_width * 1e-9:
                remainder = 0.0
            num_bins = num_full + (1 if remainder else 0)
            if num_bins == 0:
                num_bins, remainder = 1, span
            totals = [0] * num_bins
            for time, flow_id, _, size, _ in records:
                if flow_id == flow and start <= time <= horizon:
                    position = min(int((time - start) / bin_width), num_bins - 1)
                    totals[position] += size
            return [
                (
                    start
                    + i * bin_width
                    + (remainder if remainder and i == num_bins - 1 else bin_width)
                    / 2,
                    remainder if remainder and i == num_bins - 1 else bin_width,
                    totals[i],
                )
                for i in range(num_bins)
            ]

        def delays(flow, start, end):
            horizon = end if end is not None else now
            in_time_order = sorted(
                (r for r in records if r[1] == flow), key=lambda r: r[0]
            )
            return [
                r[4]
                for r in in_time_order
                if start < r[0] <= horizon and r[4] is not None
            ]

        pairs = {(r[1], r[2]) for r in records}
        expected = {
            "samples": list(records),
            "bytes_sent": [total(lambda r: r[1] == f) for f in flows],
            "interface_bytes": [
                total(lambda r: r[2] == i) for i in _INTERFACES + ("missing",)
            ],
            "service_matrix": {
                pair: total(lambda r: (r[1], r[2]) == pair) for pair in pairs
            },
            "bytes_by_flow": {
                f: total(lambda r: r[1] == f) for f in {r[1] for r in records}
            },
            "flow_ids": sorted({r[1] for r in records}),
        }
        for start, end in windows:

            def inside(r):
                return start < r[0] <= end

            matrix = {
                pair: total(lambda r: inside(r) and (r[1], r[2]) == pair)
                for pair in pairs
            }
            expected[("window", start, end)] = (
                [total(lambda r: inside(r) and r[1] == f) for f in flows],
                [
                    total(lambda r: inside(r) and r[1] == f and r[2] == i)
                    for f in flows
                    for i in _INTERFACES
                ],
                {pair: bytes_ for pair, bytes_ in matrix.items() if bytes_},
                [series(f, start, end) for f in flows],
                [delays(f, start, end) for f in flows],
            )
        expected["open_ended"] = (
            [series(f, 0.0, None) for f in flows],
            [delays(f, 0.0, None) for f in flows],
        )
        return expected

    @settings(max_examples=150, deadline=None)
    @given(
        stream=st.lists(_RECORD, max_size=40),
        windows=st.lists(st.tuples(_GRID, _GRID), min_size=1, max_size=4),
        bin_width=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
        # Small chunks make producers drain mid-stream, so records cross
        # chunk boundaries; the real chunk leaves them all pending.
        chunk=st.sampled_from([1, 2, 3, 7, sink.DRAIN_CHUNK]),
    )
    def test_queries_match_a_scan_of_the_log(self, stream, windows, bin_width, chunk):
        with mock.patch.object(sink, "DRAIN_CHUNK", chunk):
            self._check_stream(stream, windows, bin_width)

    def _check_stream(self, stream, windows, bin_width):
        clock = _Clock()
        stats = StatsCollector(clock)
        extend = stats.pending.extend
        limit = sink.DRAIN_CHUNK * sink.SAMPLE_WIDTH
        records = []
        for step, flow_id, interface_id, size, delay, producer, read in stream:
            clock.now += step
            if producer == "record":
                stats.record(flow_id, interface_id, size, delay=delay)
            else:
                extend((clock.now, flow_id, interface_id, size, delay))
                if len(stats.pending) >= limit:
                    stats.drain()
            assert len(stats.pending) < limit
            records.append((clock.now, flow_id, interface_id, size, delay))
            if read is not None:
                assert _interleaved_read(
                    stats, read, flow_id, interface_id, clock.now
                ) == _interleaved_expected(
                    records, read, flow_id, interface_id, clock.now
                )
        expected = self._expected(records, windows, bin_width, clock.now)
        assert self._answers(stats, windows, bin_width) == expected

        snapshot = stats.snapshot_state()
        restored = StatsCollector(clock)
        restored.restore_state(json.loads(json.dumps(snapshot)))
        assert self._answers(restored, windows, bin_width) == expected
        # Restoring over a collector whose indexes are already built.
        stats.restore_state(json.loads(json.dumps(snapshot)))
        assert self._answers(stats, windows, bin_width) == expected
        assert json.dumps(restored.snapshot_state(), sort_keys=True) == json.dumps(
            snapshot, sort_keys=True
        )
