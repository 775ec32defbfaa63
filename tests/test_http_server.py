"""Unit tests for the simulated origin server."""

import pytest

from repro.httpproxy.http11 import Headers, HttpRequest
from repro.httpproxy.server import HttpOriginServer, synthetic_body


class TestSyntheticBody:
    def test_deterministic(self):
        assert synthetic_body("/x", 1000) == synthetic_body("/x", 1000)

    def test_distinct_urls_distinct_content(self):
        assert synthetic_body("/x", 100) != synthetic_body("/y", 100)

    def test_exact_size(self):
        for size in (0, 1, 31, 32, 33, 1000):
            assert len(synthetic_body("/x", size)) == size

    def test_prefix_stability(self):
        # Smaller size is a prefix of larger (same keystream).
        assert synthetic_body("/x", 100) == synthetic_body("/x", 200)[:100]

    def test_negative_size_rejected(self):
        from repro.errors import HttpError

        with pytest.raises(HttpError):
            synthetic_body("/x", -1)


class TestServer:
    def _server(self):
        server = HttpOriginServer()
        server.put_synthetic("/obj", 1000)
        return server

    def _get(self, target, range_value=None):
        headers = Headers()
        if range_value:
            headers.set("Range", range_value)
        return HttpRequest(method="GET", target=target, headers=headers)

    def test_full_get(self):
        server = self._server()
        response = server.handle(self._get("/obj"))
        assert response.status == 200
        assert len(response.body) == 1000
        assert response.headers.get("accept-ranges") == "bytes"

    def test_range_get(self):
        server = self._server()
        response = server.handle(self._get("/obj", "bytes=100-199"))
        assert response.status == 206
        assert response.body == synthetic_body("/obj", 1000)[100:200]
        assert response.headers.get("content-range") == "bytes 100-199/1000"

    def test_404(self):
        server = self._server()
        assert server.handle(self._get("/missing")).status == 404

    def test_416_unsatisfiable(self):
        server = self._server()
        response = server.handle(self._get("/obj", "bytes=5000-6000"))
        assert response.status == 416
        assert response.headers.get("content-range") == "bytes */1000"

    def test_non_get_rejected(self):
        server = self._server()
        response = server.handle(HttpRequest(method="DELETE", target="/obj"))
        assert response.status == 400

    def test_put_object_explicit(self):
        server = HttpOriginServer()
        server.put_object("/direct", b"abcdef")
        response = server.handle(self._get("/direct", "bytes=2-3"))
        assert response.body == b"cd"

    def test_object_body(self):
        server = self._server()
        assert server.object_body("/obj") == synthetic_body("/obj", 1000)
        assert server.object_body("/missing") is None

    def test_request_counter(self):
        server = self._server()
        server.handle(self._get("/obj"))
        server.handle(self._get("/obj"))
        assert server.requests_served == 2


class TestHeadMethod:
    def _server(self):
        server = HttpOriginServer()
        server.put_synthetic("/obj", 1000)
        return server

    def test_head_reports_length_without_body(self):
        server = self._server()
        response = server.handle(HttpRequest(method="HEAD", target="/obj"))
        assert response.status == 200
        assert response.headers.get("content-length") == "1000"
        assert response.body == b""
        assert response.headers.get("accept-ranges") == "bytes"

    def test_head_missing_object(self):
        server = self._server()
        response = server.handle(HttpRequest(method="HEAD", target="/none"))
        assert response.status == 404

    def test_allow_header_mentions_head(self):
        server = self._server()
        response = server.handle(HttpRequest(method="PUT", target="/obj"))
        assert "HEAD" in response.headers.get("allow", "")
