"""Simulated HTTP origin server.

Serves synthetic objects (deterministic pseudo-random content so the
splicing proxy's integrity checks are meaningful) and implements GET
with RFC 7233 single-range support — 200 for full requests, 206 with
``Content-Range`` for ranged ones, 404/416 error paths included.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from ..errors import HttpError
from .http11 import (
    ByteRange,
    Headers,
    HttpRequest,
    HttpResponse,
    parse_range_header,
)


def synthetic_body(url: str, size: int) -> bytes:
    """Deterministic content for *url*: repeated SHA-256 keystream.

    Two servers (or two runs) produce identical bytes for the same url
    and size, so spliced downloads can be verified end to end.
    """
    if size < 0:
        raise HttpError(f"size must be non-negative, got {size}")
    blocks = []
    produced = 0
    counter = 0
    while produced < size:
        block = hashlib.sha256(f"{url}:{counter}".encode("utf-8")).digest()
        blocks.append(block)
        produced += len(block)
        counter += 1
    return b"".join(blocks)[:size]


class HttpOriginServer:
    """An in-simulation origin holding named objects."""

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}
        self.requests_served = 0

    def put_object(self, url: str, body: bytes) -> None:
        """Store explicit content at *url*."""
        self._objects[url] = body

    def put_synthetic(self, url: str, size: int) -> bytes:
        """Store a deterministic synthetic object; returns its body."""
        body = synthetic_body(url, size)
        self._objects[url] = body
        return body

    def object_body(self, url: str) -> Optional[bytes]:
        """The content stored at *url*, or ``None``."""
        return self._objects.get(url)

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Process one request, returning the full response."""
        self.requests_served += 1
        if request.method == "HEAD":
            body = self._objects.get(request.target)
            if body is None:
                return HttpResponse(status=404)
            response = HttpResponse(status=200)
            # HEAD advertises the entity's length without a body.
            response.headers.set("Content-Length", str(len(body)))
            response.headers.set("Accept-Ranges", "bytes")
            return response
        if request.method != "GET":
            return HttpResponse(status=400, headers=Headers({"Allow": "GET, HEAD"}))
        body = self._objects.get(request.target)
        if body is None:
            return HttpResponse(status=404)
        range_value = request.headers.get("range")
        if range_value is None:
            response = HttpResponse(status=200, body=body)
            response.headers.set("Accept-Ranges", "bytes")
            return response
        try:
            byte_range = parse_range_header(range_value, len(body))
        except HttpError:
            response = HttpResponse(status=416)
            response.headers.set("Content-Range", f"bytes */{len(body)}")
            return response
        chunk = body[byte_range.start: byte_range.end + 1]
        response = HttpResponse(status=206, body=chunk)
        response.headers.set("Content-Range", byte_range.content_range(len(body)))
        response.headers.set("Accept-Ranges", "bytes")
        return response
