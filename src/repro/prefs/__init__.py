"""User preference model: Π matrix, rate weights, and policy builders."""

from .._lazy import lazy_exports

__all__ = [
    "AnyInterface",
    "AppPolicy",
    "DevicePolicy",
    "Except",
    "FlowPreference",
    "InterfaceRule",
    "Only",
    "Prefer",
    "PreferenceSet",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".policy": (
        "AnyInterface",
        "AppPolicy",
        "DevicePolicy",
        "Except",
        "InterfaceRule",
        "Only",
        "Prefer",
    ),
    ".preferences": ("FlowPreference", "PreferenceSet"),
})
