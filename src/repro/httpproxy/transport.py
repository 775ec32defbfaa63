"""Simulated per-interface HTTP transport.

A :class:`DownlinkChannel` models one wireless interface as seen by the
HTTP proxy: requests go upstream instantly (they are tens of bytes),
the origin's response becomes ready after a fixed round-trip latency,
and response bodies are then serialized *in order* over the interface's
time-varying downlink rate — HTTP/1.1 pipelining semantics. The proxy
keeps up to ``pipeline_depth`` requests outstanding per channel so the
downlink never idles while work remains, exactly the paper's
"request pipelining ... making sure that all the available capacity is
utilized".

Robustness (``docs/fault_model.md``): channels can be taken down and
up (``bring_down`` / ``bring_up``), and an optional ``read_timeout``
arms a deadline per issued request. A request whose response has not
landed by its deadline is abandoned and reissued with capped
exponential backoff (``min(backoff_cap, backoff_base · 2^attempt)``)
up to ``max_retries`` times before being reported failed. When a
seeded ``rng`` is supplied the backoff is multiplied by a jitter
factor in ``[0.5, 1.0)`` drawn from that stream — never from the
module-level ``random`` — so retry timing stays reproducible under a
fixed scenario seed. The default ``read_timeout=None`` keeps the
legacy wait-forever behaviour.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence

from ..errors import ConfigurationError
from ..net.interface import CapacityStep
from ..sim.events import Event
from ..sim.simulator import Simulator
from .http11 import HttpRequest, HttpResponse
from .server import HttpOriginServer

#: Called with the channel and the completed response.
ResponseHandler = Callable[["DownlinkChannel", HttpRequest, HttpResponse], None]

#: Called with the channel and the request that exhausted its retries.
FailureHandler = Callable[["DownlinkChannel", HttpRequest], None]

#: Serialized header overhead added to each response body, bytes.
RESPONSE_OVERHEAD_BYTES = 160


@dataclass
class _PendingTransfer:
    request: HttpRequest
    response: HttpResponse
    ready_at: float
    on_response: ResponseHandler
    attempts: int = 0
    deadline_event: Optional[Event] = field(default=None, repr=False)
    finish_event: Optional[Event] = field(default=None, repr=False)


class DownlinkChannel:
    """One interface's pipelined request/response path to the origin."""

    def __init__(
        self,
        sim: Simulator,
        channel_id: str,
        server: HttpOriginServer,
        rate_bps: float,
        rtt: float = 0.05,
        pipeline_depth: int = 4,
        read_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_bps}")
        if pipeline_depth <= 0:
            raise ConfigurationError(
                f"pipeline_depth must be positive, got {pipeline_depth}"
            )
        if rtt < 0:
            raise ConfigurationError(f"rtt must be non-negative, got {rtt}")
        if read_timeout is not None and read_timeout <= 0:
            raise ConfigurationError(
                f"read_timeout must be positive, got {read_timeout}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {max_retries}"
            )
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ConfigurationError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"base={backoff_base}, cap={backoff_cap}"
            )
        self._sim = sim
        self.channel_id = channel_id
        self._server = server
        self._rate_bps = float(rate_bps)
        self._rtt = rtt
        self.pipeline_depth = pipeline_depth
        self._read_timeout = read_timeout
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = rng
        self._transfers: Deque[_PendingTransfer] = deque()
        self._transferring = False
        self._start_event: Optional[Event] = None
        self._up = True
        self._slot_listeners: List[Callable[["DownlinkChannel"], None]] = []
        self._failure_listeners: List[FailureHandler] = []
        self.bytes_delivered = 0
        self.responses_delivered = 0
        self.timeouts = 0
        self.retries = 0
        self.failed_requests = 0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def rate_bps(self) -> float:
        """Current downlink rate."""
        return self._rate_bps

    def set_rate(self, rate_bps: float) -> None:
        """Change the downlink rate (affects the next transfer)."""
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_bps}")
        self._rate_bps = float(rate_bps)

    def apply_capacity_schedule(self, steps: Sequence[CapacityStep]) -> None:
        """Schedule future rate changes."""
        for step in steps:
            self._sim.schedule(step.time, self.set_rate, step.rate_bps)

    # ------------------------------------------------------------------
    # Administrative state
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        """``True`` while the channel can start transfers."""
        return self._up

    def bring_down(self) -> None:
        """Take the channel down (outage).

        The transfer currently serializing is abandoned mid-flight (its
        bytes are lost, unlike a link-layer interface whose in-flight
        frame completes) and its deadline keeps running, so with a
        ``read_timeout`` configured it will be retried — on this channel
        once it recovers, which is exactly how a stalled HTTP connection
        behaves. Queued transfers simply wait.
        """
        if not self._up:
            return
        self._up = False
        if self._transferring:
            head = self._transfers[0]
            if head.finish_event is not None:
                head.finish_event.cancel()
                head.finish_event = None
            self._abort_pending_start()
            self._transferring = False

    def bring_up(self) -> None:
        """Restore the channel and restart the pipeline."""
        if self._up:
            return
        self._up = True
        for transfer in self._transfers:
            # Responses readied during the outage start serializing now.
            transfer.ready_at = max(transfer.ready_at, self._sim.now)
        self._maybe_start()

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Requests issued whose responses are not yet delivered.

        The transfer currently serializing stays in the queue until it
        finishes, so the queue length is the full count.
        """
        return len(self._transfers)

    @property
    def has_slot(self) -> bool:
        """Can another request be pipelined right now?"""
        return self.outstanding < self.pipeline_depth

    def on_slot_free(self, listener: Callable[["DownlinkChannel"], None]) -> None:
        """Register a callback fired whenever a pipeline slot frees."""
        self._slot_listeners.append(listener)

    def on_failure(self, listener: FailureHandler) -> None:
        """Register a callback fired when a request exhausts its retries."""
        self._failure_listeners.append(listener)

    def issue(self, request: HttpRequest, on_response: ResponseHandler) -> None:
        """Send *request*; *on_response* fires when its body lands."""
        if not self.has_slot:
            raise ConfigurationError(
                f"channel {self.channel_id!r} pipeline is full"
            )
        self._enqueue(request, on_response, attempts=0)
        self._maybe_start()

    def _enqueue(
        self, request: HttpRequest, on_response: ResponseHandler, attempts: int
    ) -> None:
        response = self._server.handle(request)
        transfer = _PendingTransfer(
            request=request,
            response=response,
            ready_at=self._sim.now + self._rtt,
            on_response=on_response,
            attempts=attempts,
        )
        if self._read_timeout is not None:
            transfer.deadline_event = self._sim.call_later(
                self._read_timeout, self._deadline_expired, transfer
            )
        self._transfers.append(transfer)

    def _maybe_start(self) -> None:
        if self._transferring or not self._up or not self._transfers:
            return
        head = self._transfers[0]
        delay = max(0.0, head.ready_at - self._sim.now)
        self._transferring = True
        self._start_event = self._sim.call_later(delay, self._start_transfer)

    def _abort_pending_start(self) -> None:
        if self._start_event is not None:
            self._start_event.cancel()
            self._start_event = None

    def _start_transfer(self) -> None:
        self._start_event = None
        head = self._transfers[0]
        size = len(head.response.body) + RESPONSE_OVERHEAD_BYTES
        duration = size * 8 / self._rate_bps
        head.finish_event = self._sim.call_later(duration, self._finish_transfer)

    def _finish_transfer(self) -> None:
        transfer = self._transfers.popleft()
        transfer.finish_event = None
        if transfer.deadline_event is not None:
            transfer.deadline_event.cancel()
            transfer.deadline_event = None
        self._transferring = False
        self.bytes_delivered += len(transfer.response.body)
        self.responses_delivered += 1
        transfer.on_response(self, transfer.request, transfer.response)
        # Wake the pipeline before notifying slot listeners so listeners
        # observe a consistent outstanding count.
        self._maybe_start()
        for listener in self._slot_listeners:
            listener(self)

    # ------------------------------------------------------------------
    # Timeouts and retries
    # ------------------------------------------------------------------
    def _deadline_expired(self, transfer: _PendingTransfer) -> None:
        if transfer not in self._transfers:
            return
        self.timeouts += 1
        serializing = self._transferring and self._transfers[0] is transfer
        if transfer.finish_event is not None:
            transfer.finish_event.cancel()
            transfer.finish_event = None
        self._transfers.remove(transfer)
        if serializing:
            self._abort_pending_start()
            self._transferring = False
        if transfer.attempts < self._max_retries:
            self.retries += 1
            backoff = min(
                self._backoff_cap, self._backoff_base * 2**transfer.attempts
            )
            if self._rng is not None:
                # Jitter drawn from the run's seeded stream, never from
                # the module-level random — retries stay reproducible.
                backoff *= 0.5 + 0.5 * self._rng.random()
            self._sim.call_later(
                backoff,
                self._enqueue_retry,
                transfer.request,
                transfer.on_response,
                transfer.attempts + 1,
            )
        else:
            self.failed_requests += 1
            for listener in self._failure_listeners:
                listener(self, transfer.request)
        # The abandoned slot can serve the next queued response.
        self._maybe_start()
        for listener in self._slot_listeners:
            listener(self)

    def _enqueue_retry(
        self, request: HttpRequest, on_response: ResponseHandler, attempts: int
    ) -> None:
        self._enqueue(request, on_response, attempts=attempts)
        self._maybe_start()
