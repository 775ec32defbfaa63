"""Lazy package re-exports (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
would, written as ``from .x import Name``, import every submodule (and
their dependency chains) whenever anything under the package is
imported. :func:`lazy_exports` instead resolves each re-exported name
on first attribute access, so ``import repro.core.engine`` runs only
``repro.core.engine``'s own imports. ``__all__``, ``dir()`` and
``from package import *`` behave as with eager imports.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return a package's module ``__getattr__`` and ``__dir__``.

    *namespace* is the package's ``globals()``; *exports* maps each
    submodule, relative to the package (``".engine"``), to the names
    the package re-exports from it. A resolved name is stored in the
    package namespace, so later lookups bypass ``__getattr__``. A
    public name that is not re-exported resolves to the submodule of
    that name, if there is one, as it would once that submodule was
    imported.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
