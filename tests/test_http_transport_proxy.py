"""Unit + integration tests for the downlink channel and the proxy."""

import pytest

from repro.errors import ConfigurationError
from repro.httpproxy.client import RepeatingDownloader
from repro.httpproxy.http11 import Headers, HttpRequest
from repro.httpproxy.proxy import SchedulingHttpProxy
from repro.httpproxy.server import HttpOriginServer, synthetic_body
from repro.httpproxy.transport import RESPONSE_OVERHEAD_BYTES, DownlinkChannel
from repro.net.interface import CapacityStep
from repro.schedulers.midrr import MiDrrScheduler
from repro.units import mbps


def make_server(size=256 * 1024, url="/obj"):
    server = HttpOriginServer()
    server.put_synthetic(url, size)
    return server


def ranged_get(url, start, end):
    return HttpRequest(
        method="GET", target=url, headers=Headers({"Range": f"bytes={start}-{end}"})
    )


class TestDownlinkChannel:
    def test_response_delivered_after_rtt_and_serialization(self, sim):
        server = make_server(size=100_000)
        channel = DownlinkChannel(sim, "if1", server, rate_bps=80_000, rtt=0.5)
        done = []
        channel.issue(
            ranged_get("/obj", 0, 9_999),
            lambda ch, req, resp: done.append(sim.now),
        )
        sim.run()
        expected = 0.5 + (10_000 + RESPONSE_OVERHEAD_BYTES) * 8 / 80_000
        assert done == [pytest.approx(expected)]

    def test_pipelined_responses_in_order(self, sim):
        server = make_server()
        channel = DownlinkChannel(sim, "if1", server, rate_bps=mbps(1), rtt=0.01)
        order = []
        for index in range(3):
            channel.issue(
                ranged_get("/obj", index * 100, index * 100 + 99),
                lambda ch, req, resp, i=index: order.append(i),
            )
        sim.run()
        assert order == [0, 1, 2]

    def test_pipeline_capacity(self, sim):
        server = make_server()
        channel = DownlinkChannel(
            sim, "if1", server, rate_bps=mbps(1), pipeline_depth=2
        )
        channel.issue(ranged_get("/obj", 0, 99), lambda *a: None)
        channel.issue(ranged_get("/obj", 100, 199), lambda *a: None)
        assert not channel.has_slot
        with pytest.raises(ConfigurationError, match="full"):
            channel.issue(ranged_get("/obj", 200, 299), lambda *a: None)

    def test_slot_listener_fires(self, sim):
        server = make_server()
        channel = DownlinkChannel(sim, "if1", server, rate_bps=mbps(1))
        freed = []
        channel.on_slot_free(lambda ch: freed.append(sim.now))
        channel.issue(ranged_get("/obj", 0, 99), lambda *a: None)
        sim.run()
        assert len(freed) == 1

    def test_rate_change_applies(self, sim):
        server = make_server(size=1_000_000)
        channel = DownlinkChannel(sim, "if1", server, rate_bps=mbps(8), rtt=0.0)
        channel.apply_capacity_schedule([CapacityStep(1.0, mbps(2))])
        done = []
        sim.schedule(
            2.0,
            lambda: channel.issue(
                ranged_get("/obj", 0, 99_999), lambda *a: done.append(sim.now)
            ),
        )
        sim.run()
        expected = 2.0 + (100_000 + RESPONSE_OVERHEAD_BYTES) * 8 / mbps(2)
        assert done == [pytest.approx(expected, rel=1e-6)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_bps": 0},
            {"pipeline_depth": 0},
            {"rtt": -0.1},
        ],
    )
    def test_invalid_params(self, sim, kwargs):
        defaults = dict(rate_bps=mbps(1))
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            DownlinkChannel(sim, "if1", make_server(), **defaults)


class TestTimeoutsAndRetries:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_timeout": 0},
            {"read_timeout": -1.0},
            {"max_retries": -1},
            {"backoff_base": 0},
            {"backoff_base": 3.0, "backoff_cap": 1.0},
        ],
    )
    def test_invalid_params(self, sim, kwargs):
        with pytest.raises(ConfigurationError):
            DownlinkChannel(sim, "if1", make_server(), rate_bps=mbps(1), **kwargs)

    def test_no_timeout_waits_through_outage(self, sim):
        # Legacy default (read_timeout=None): the outage abandons the
        # in-flight serialization, bring_up restarts it from scratch.
        server = make_server(size=100_000)
        channel = DownlinkChannel(sim, "if1", server, rate_bps=80_000, rtt=0.0)
        done = []
        channel.issue(
            ranged_get("/obj", 0, 9_999), lambda ch, req, resp: done.append(sim.now)
        )
        sim.schedule(0.5, channel.bring_down)
        sim.schedule(1.0, channel.bring_up)
        sim.run()
        expected = 1.0 + (10_000 + RESPONSE_OVERHEAD_BYTES) * 8 / 80_000
        assert done == [pytest.approx(expected)]
        assert channel.timeouts == 0
        assert channel.responses_delivered == 1

    def test_timeout_retry_succeeds_after_recovery(self, sim):
        server = make_server(size=100_000)
        channel = DownlinkChannel(
            sim,
            "if1",
            server,
            rate_bps=80_000,
            rtt=0.0,
            read_timeout=1.0,
            max_retries=2,
            backoff_base=0.1,
        )
        done = []
        channel.bring_down()
        channel.issue(
            ranged_get("/obj", 0, 999), lambda ch, req, resp: done.append(sim.now)
        )
        sim.schedule(1.55, channel.bring_up)
        sim.run()
        # First attempt times out at 1.0 (channel down), the retry is
        # reissued at 1.1 and serializes once the channel recovers.
        assert channel.timeouts == 1
        assert channel.retries == 1
        assert channel.failed_requests == 0
        expected = 1.55 + (1_000 + RESPONSE_OVERHEAD_BYTES) * 8 / 80_000
        assert done == [pytest.approx(expected)]
        assert channel.has_slot

    def test_retries_exhausted_reports_failure(self, sim):
        server = make_server(size=100_000)
        channel = DownlinkChannel(
            sim,
            "if1",
            server,
            rate_bps=80_000,
            rtt=0.0,
            read_timeout=0.5,
            max_retries=2,
            backoff_base=0.1,
        )
        channel.bring_down()  # never recovers
        done, failures = [], []
        channel.on_failure(lambda ch, req: failures.append((sim.now, req)))
        request = ranged_get("/obj", 0, 999)
        channel.issue(request, lambda ch, req, resp: done.append(resp))
        sim.run()
        assert done == []
        assert channel.timeouts == 3  # the initial attempt + 2 retries
        assert channel.retries == 2
        assert channel.failed_requests == 1
        assert len(failures) == 1
        assert failures[0][1] is request
        # Deadlines: 0.5; retry at 0.6 -> 1.1; retry at 1.3 -> 1.8.
        assert failures[0][0] == pytest.approx(1.8)
        assert channel.has_slot

    def test_deadline_aborts_slow_serialization(self, sim):
        # 10 160 B at 80 kb/s needs 1.016 s, past the 0.5 s deadline:
        # the transfer is abandoned mid-flight.
        server = make_server(size=100_000)
        channel = DownlinkChannel(
            sim,
            "if1",
            server,
            rate_bps=80_000,
            rtt=0.0,
            read_timeout=0.5,
            max_retries=0,
        )
        done = []
        channel.issue(ranged_get("/obj", 0, 9_999), lambda *a: done.append(sim.now))
        sim.run()
        assert done == []
        assert channel.timeouts == 1
        assert channel.failed_requests == 1
        assert channel.outstanding == 0

    def test_backoff_is_capped(self, sim):
        server = make_server(size=100_000)
        channel = DownlinkChannel(
            sim,
            "if1",
            server,
            rate_bps=80_000,
            rtt=0.0,
            read_timeout=0.5,
            max_retries=4,
            backoff_base=0.4,
            backoff_cap=1.0,
        )
        channel.bring_down()
        failures = []
        channel.on_failure(lambda ch, req: failures.append(sim.now))
        channel.issue(ranged_get("/obj", 0, 999), lambda *a: None)
        sim.run()
        # Backoffs 0.4, 0.8 then capped at 1.0, 1.0:
        # deadlines 0.5 | 0.9->1.4 | 2.2->2.7 | 3.7->4.2 | 5.2->5.7.
        assert channel.retries == 4
        assert failures == [pytest.approx(5.7)]

    def test_timeout_of_queued_transfer_spares_the_head(self, sim):
        server = make_server(size=1_000_000)
        channel = DownlinkChannel(
            sim,
            "if1",
            server,
            rate_bps=80_000,
            rtt=0.0,
            read_timeout=2.0,
            max_retries=0,
        )
        done = []
        for start, end in ((0, 14_999), (15_000, 24_999)):
            channel.issue(
                ranged_get("/obj", start, end),
                lambda ch, req, resp: done.append(len(resp.body)),
            )
        sim.run()
        # The head serializes for 1.516 s and lands inside its deadline;
        # the queued transfer starts at 1.516 s, needs another 1.016 s,
        # and its own deadline fires at 2.0 s without disturbing the head.
        assert channel.timeouts == 1
        assert channel.failed_requests == 1
        assert done == [15_000]


class TestProxy:
    def _proxy(self, sim, server, rates=(mbps(8), mbps(4)), chunk=16 * 1024):
        proxy = SchedulingHttpProxy(
            sim, scheduler=MiDrrScheduler(quantum_base=chunk), chunk_bytes=chunk
        )
        for index, rate in enumerate(rates, start=1):
            proxy.add_channel(
                DownlinkChannel(sim, f"if{index}", server, rate, rtt=0.01)
            )
        return proxy

    def test_single_fetch_content_integrity(self, sim):
        server = make_server(size=200_000)
        proxy = self._proxy(sim, server)
        proxy.add_flow("a")
        completed = []
        proxy.fetch("a", "/obj", server, on_complete=completed.append)
        sim.run()
        assert len(completed) == 1
        fetch = completed[0]
        assert fetch.body == synthetic_body("/obj", 200_000)
        assert fetch.completed_at is not None
        assert fetch.goodput_bps() > 0

    def test_fetch_uses_both_interfaces(self, sim):
        server = make_server(size=500_000)
        proxy = self._proxy(sim, server)
        proxy.add_flow("a")
        proxy.fetch("a", "/obj", server)
        sim.run()
        matrix = proxy.stats.service_matrix()
        assert matrix.get(("a", "if1"), 0) > 0
        assert matrix.get(("a", "if2"), 0) > 0

    def test_interface_preference_respected(self, sim):
        server = make_server(size=200_000)
        proxy = self._proxy(sim, server)
        proxy.add_flow("a", interfaces=["if2"])
        proxy.fetch("a", "/obj", server)
        sim.run()
        matrix = proxy.stats.service_matrix()
        assert ("a", "if1") not in matrix

    def test_unknown_flow_rejected(self, sim):
        server = make_server()
        proxy = self._proxy(sim, server)
        with pytest.raises(ConfigurationError, match="unknown flow"):
            proxy.fetch("ghost", "/obj", server)

    def test_double_fetch_rejected(self, sim):
        server = make_server(size=1_000_000)
        proxy = self._proxy(sim, server)
        proxy.add_flow("a")
        proxy.fetch("a", "/obj", server)
        with pytest.raises(ConfigurationError, match="active fetch"):
            proxy.fetch("a", "/obj", server)

    def test_missing_object_rejected(self, sim):
        server = make_server()
        proxy = self._proxy(sim, server)
        proxy.add_flow("a")
        from repro.errors import HttpError

        with pytest.raises(HttpError):
            proxy.fetch("a", "/nope", server)

    def test_weighted_sharing(self, sim):
        server = HttpOriginServer()
        server.put_synthetic("/big", 4 * 1024 * 1024)
        proxy = self._proxy(sim, server, rates=(mbps(8),))
        proxy.add_flow("heavy", weight=3.0)
        proxy.add_flow("light", weight=1.0)
        RepeatingDownloader(sim, proxy, server, "heavy", "/big").start()
        RepeatingDownloader(sim, proxy, server, "light", "/big").start()
        sim.run(until=20.0)
        heavy = proxy.stats.rate_in_window("heavy", 2, 20)
        light = proxy.stats.rate_in_window("light", 2, 20)
        assert heavy / light == pytest.approx(3.0, rel=0.2)


class TestRepeatingDownloader:
    def test_loops_and_verifies(self, sim):
        server = make_server(size=100_000)
        proxy = SchedulingHttpProxy(sim, chunk_bytes=16 * 1024)
        proxy.add_channel(DownlinkChannel(sim, "if1", server, mbps(8), rtt=0.005))
        proxy.add_flow("a")
        downloader = RepeatingDownloader(sim, proxy, server, "a", "/obj")
        downloader.start()
        sim.run(until=10.0)
        assert downloader.downloads_completed >= 5
        assert downloader.integrity_failures == 0
        assert downloader.bytes_downloaded == downloader.downloads_completed * 100_000

    def test_verifies_against_stored_content(self, sim):
        """An object stored with ``put_object`` is checked against the
        bytes the server holds, not a synthetic body for its url."""
        server = HttpOriginServer()
        server.put_object("/x", bytes(range(256)) * 800)
        proxy = SchedulingHttpProxy(sim, chunk_bytes=16 * 1024)
        proxy.add_channel(DownlinkChannel(sim, "if1", server, mbps(10), rtt=0.005))
        proxy.add_flow("a")
        downloader = RepeatingDownloader(sim, proxy, server, "a", "/x")
        downloader.start()
        sim.run(until=2.0)
        assert downloader.downloads_completed >= 5
        assert downloader.integrity_failures == 0

    def test_corrupted_range_counts_as_failure(self, sim):
        """One byte flipped in one ranged response fails exactly the
        download it belongs to."""

        class CorruptingServer(HttpOriginServer):
            corrupted = False

            def handle(self, request):
                response = super().handle(request)
                if response.status == 206 and not self.corrupted:
                    self.corrupted = True
                    body = bytearray(response.body)
                    body[len(body) // 2] ^= 0xFF
                    response.body = bytes(body)
                return response

        server = CorruptingServer()
        server.put_object("/x", bytes(range(256)) * 800)
        proxy = SchedulingHttpProxy(sim, chunk_bytes=16 * 1024)
        proxy.add_channel(DownlinkChannel(sim, "if1", server, mbps(10), rtt=0.005))
        proxy.add_flow("a")
        downloader = RepeatingDownloader(sim, proxy, server, "a", "/x")
        downloader.start()
        sim.run(until=2.0)
        assert server.corrupted
        assert downloader.downloads_completed >= 5
        assert downloader.integrity_failures == 1

    def test_stop_time(self, sim):
        server = make_server(size=50_000)
        proxy = SchedulingHttpProxy(sim, chunk_bytes=16 * 1024)
        proxy.add_channel(DownlinkChannel(sim, "if1", server, mbps(8), rtt=0.005))
        proxy.add_flow("a")
        downloader = RepeatingDownloader(
            sim, proxy, server, "a", "/obj", stop_time=1.0
        )
        downloader.start()
        sim.run(until=10.0)
        count_at_stop = downloader.downloads_completed
        sim2_count = downloader.downloads_completed
        assert count_at_stop == sim2_count
        assert downloader.downloads_completed < 20  # bounded by stop


class TestAbort:
    def test_abort_stops_service(self, sim):
        server = make_server(size=2_000_000)
        proxy = SchedulingHttpProxy(sim, chunk_bytes=16 * 1024)
        proxy.add_channel(DownlinkChannel(sim, "if1", server, mbps(4), rtt=0.01))
        proxy.add_flow("a")
        proxy.fetch("a", "/obj", server)
        sim.run(until=1.0)
        assert proxy.abort("a")
        served_at_abort = proxy.stats.bytes_sent("a")
        sim.run(until=5.0)
        # At most the in-flight pipeline drains after the abort.
        assert proxy.stats.bytes_sent("a") <= served_at_abort + 4 * 16 * 1024

    def test_abort_nothing_active(self, sim):
        server = make_server()
        proxy = SchedulingHttpProxy(sim, chunk_bytes=16 * 1024)
        proxy.add_channel(DownlinkChannel(sim, "if1", server, mbps(4)))
        proxy.add_flow("a")
        assert not proxy.abort("a")

    def test_refetch_after_abort(self, sim):
        server = make_server(size=200_000)
        proxy = SchedulingHttpProxy(sim, chunk_bytes=16 * 1024)
        proxy.add_channel(DownlinkChannel(sim, "if1", server, mbps(8), rtt=0.005))
        proxy.add_flow("a")
        proxy.fetch("a", "/obj", server)
        sim.run(until=0.05)
        proxy.abort("a")
        done = []
        proxy.fetch("a", "/obj", server, on_complete=done.append)
        sim.run(until=10.0)
        assert len(done) == 1
        assert done[0].body == synthetic_body("/obj", 200_000)

    def test_abort_frees_capacity_for_peer(self, sim):
        server = make_server(size=4_000_000)
        proxy = SchedulingHttpProxy(sim, chunk_bytes=16 * 1024)
        proxy.add_channel(DownlinkChannel(sim, "if1", server, mbps(4), rtt=0.01))
        proxy.add_flow("a")
        proxy.add_flow("b")
        proxy.fetch("a", "/obj", server)
        proxy.fetch("b", "/obj", server)
        sim.schedule(2.0, proxy.abort, "a")
        sim.run(until=6.0)
        late_b = proxy.stats.rate_in_window("b", 3.0, 6.0)
        assert late_b == pytest.approx(mbps(4), rel=0.15)
