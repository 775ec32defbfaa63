"""Unit tests for the stats collector."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net.interface import Interface
from repro.net.packet import Packet
from repro.net.sink import StatsCollector
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


class TestInterfaceIntegration:
    def test_watch_records_transmissions(self, sim):
        stats = StatsCollector(sim)
        interface = Interface(sim, "if1", 12_000)
        packets = [Packet(flow_id="a", size_bytes=1500)]
        interface.attach_source(lambda i: packets.pop(0) if packets else None)
        stats.watch(interface)
        interface.kick()
        sim.run()
        assert stats.bytes_sent("a") == 1500
        assert stats.samples[0].time == pytest.approx(1.0)
        assert stats.samples[0].interface_id == "if1"


class _Clock:
    """A settable stand-in for the simulator clock.

    The collector only reads ``now``; moving it backwards drives the
    out-of-order path that direct :meth:`StatsCollector.record` calls
    may take.
    """

    def __init__(self) -> None:
        self.now = 0.0


_FLOWS = ("a", "b", "c")
_INTERFACES = ("if1", "if2", "if3")
_GRID = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.75, 4.0, 9.0])

_RECORD = st.tuples(
    # Clock step before the record: mostly forward, sometimes none
    # (repeated timestamps), sometimes backwards (out of order).
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, -0.75, -2.0]),
    st.sampled_from(_FLOWS),
    st.sampled_from(_INTERFACES),
    st.sampled_from([0, 1, 40, 1500]),
    st.one_of(st.none(), st.sampled_from([0.0, 0.125, 0.5, 3.0])),
    # Read the collector after this record (drains the pending log
    # mid-stream, so later records land on built indexes).
    st.booleans(),
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

    @settings(max_examples=80, deadline=None)
    @given(
        stream=st.lists(_RECORD, max_size=40),
        windows=st.lists(st.tuples(_GRID, _GRID), min_size=1, max_size=4),
        bin_width=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    )
    def test_queries_match_a_scan_of_the_log(self, stream, windows, bin_width):
        import json

        clock = _Clock()
        stats = StatsCollector(clock)
        records = []
        for step, flow_id, interface_id, size, delay, read in stream:
            clock.now += step
            stats.record(flow_id, interface_id, size, delay=delay)
            records.append((clock.now, flow_id, interface_id, size, delay))
            if read:
                stats.bytes_sent(flow_id)
        expected = self._expected(records, windows, bin_width, clock.now)
        assert self._answers(stats, windows, bin_width) == expected

        snapshot = stats.snapshot_state()
        restored = StatsCollector(clock)
        restored.restore_state(json.loads(json.dumps(snapshot)))
        assert self._answers(restored, windows, bin_width) == expected
        assert json.dumps(restored.snapshot_state(), sort_keys=True) == json.dumps(
            snapshot, sort_keys=True
        )
