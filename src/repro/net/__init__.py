"""Network substrate: packets, flows, queues, interfaces, sources, stats."""

from .._lazy import lazy_exports

__all__ = [
    "BulkSource",
    "CapacityStep",
    "CbrSource",
    "ETHERTYPE_IPV4",
    "EthernetHeader",
    "FiveTuple",
    "Flow",
    "FlowQueue",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "Interface",
    "Ipv4Address",
    "Ipv4Header",
    "MAC_BROADCAST",
    "MacAddress",
    "OnOffSource",
    "Packet",
    "PoissonSource",
    "ServiceSample",
    "StatsCollector",
    "TcpHeader",
    "TraceSource",
    "UdpHeader",
    "internet_checksum",
    "sized_transfer",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".addresses": ("MAC_BROADCAST", "Ipv4Address", "MacAddress"),
    ".flow": ("Flow",),
    ".headers": (
        "ETHERTYPE_IPV4",
        "IPPROTO_TCP",
        "IPPROTO_UDP",
        "EthernetHeader",
        "Ipv4Header",
        "TcpHeader",
        "UdpHeader",
        "internet_checksum",
    ),
    ".interface": ("CapacityStep", "Interface"),
    ".packet": ("FiveTuple", "Packet"),
    ".queueing": ("FlowQueue",),
    ".sink": ("ServiceSample", "StatsCollector"),
    ".sources": (
        "BulkSource",
        "CbrSource",
        "OnOffSource",
        "PoissonSource",
        "TraceSource",
        "sized_transfer",
    ),
})
