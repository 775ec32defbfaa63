"""Virtual-interface bridge: classifier, NAT rewriting and the bridge
engine (the paper's Linux kernel bridge, Figure 3)."""

from .._lazy import lazy_exports

__all__ = [
    "FlowClassifier",
    "MatchRule",
    "MiDrrBridge",
    "NatBinding",
    "NatTable",
    "VirtualInterface",
    "parse_five_tuple",
    "rewrite_inbound",
    "rewrite_outbound",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".bridge": ("MiDrrBridge", "VirtualInterface"),
    ".classifier": ("FlowClassifier", "MatchRule", "parse_five_tuple"),
    ".nat": ("NatBinding", "NatTable", "rewrite_inbound", "rewrite_outbound"),
})
