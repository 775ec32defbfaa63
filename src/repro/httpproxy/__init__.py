"""HTTP/1.1 proxy substrate: messages, byte-range splitting/splicing,
simulated transports and the inbound miDRR scheduling proxy
(the paper's Figure 5)."""

from .._lazy import lazy_exports

__all__ = [
    "ByteRange",
    "DEFAULT_CHUNK_BYTES",
    "DownlinkChannel",
    "Headers",
    "HttpFetch",
    "HttpOriginServer",
    "HttpRequest",
    "HttpResponse",
    "RepeatingDownloader",
    "SchedulingHttpProxy",
    "Splicer",
    "parse_content_range",
    "parse_range_header",
    "split_ranges",
    "synthetic_body",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".client": ("RepeatingDownloader",),
    ".http11": (
        "ByteRange",
        "Headers",
        "HttpRequest",
        "HttpResponse",
        "parse_content_range",
        "parse_range_header",
    ),
    ".proxy": ("HttpFetch", "SchedulingHttpProxy"),
    ".ranges": ("DEFAULT_CHUNK_BYTES", "Splicer", "split_ranges"),
    ".server": ("HttpOriginServer", "synthetic_body"),
    ".transport": ("DownlinkChannel",),
})
