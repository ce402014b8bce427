"""Package exports that resolve on first access (PEP 562).

``repro``, ``repro.serve`` and ``repro.serve.http`` re-export names from
their submodules.  Importing them eagerly would make every light import --
the HTTP client, the error types -- load the engine, NumPy and SciPy too, so
each package hands its name -> module map to :func:`lazy_exports` instead.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, names)`` for a package re-exporting ``exports``.

    ``exports`` maps each defining module to the names the package takes
    from it.  A name is imported when first read (``from package import
    name`` included) and then kept in the package's namespace.
    """
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(module_of))

    return __getattr__, __dir__, list(module_of)
