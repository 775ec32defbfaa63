"""Application-side helpers for driving the HTTP proxy in experiments.

:class:`RepeatingDownloader` keeps a flow persistently busy by starting
a new download of the same object every time the previous one finishes
— the HTTP analogue of a continuously backlogged flow, used by the
Figure 10 reproduction where goodput is measured over minutes while
interface rates fluctuate.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.simulator import Simulator
from .proxy import HttpFetch, SchedulingHttpProxy
from .server import HttpOriginServer


class RepeatingDownloader:
    """Re-fetches an object in a loop to keep a flow backlogged."""

    def __init__(
        self,
        sim: Simulator,
        proxy: SchedulingHttpProxy,
        server: HttpOriginServer,
        flow_id: str,
        url: str,
        stop_time: Optional[float] = None,
        verify_content: bool = True,
    ) -> None:
        self._sim = sim
        self._proxy = proxy
        self._server = server
        self.flow_id = flow_id
        self.url = url
        self._stop_time = stop_time
        self._verify = verify_content
        self._expected: Optional[bytes] = None
        self.downloads_completed = 0
        self.bytes_downloaded = 0
        self.integrity_failures = 0

    def start(self) -> None:
        """Begin the first download."""
        if self._verify:
            body = self._server.object_body(self.url)
            if body is not None and len(body) <= 4 * 1024 * 1024:
                # Check every download against the content the server
                # serves; objects over 4 MiB are not checked.
                self._expected = body
        self._begin_fetch()

    def _begin_fetch(self) -> None:
        if self._stop_time is not None and self._sim.now >= self._stop_time:
            return
        self._proxy.fetch(
            self.flow_id, self.url, self._server, on_complete=self._finished
        )

    def _finished(self, fetch: HttpFetch) -> None:
        self.downloads_completed += 1
        self.bytes_downloaded += fetch.total_bytes
        if self._expected is not None and fetch.body != self._expected:
            self.integrity_failures += 1
        self._sim.call_now(self._begin_fetch)
