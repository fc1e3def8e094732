"""Load-on-use package exports (PEP 562).

A package ``__init__`` that only re-exports names declares which module
defines each of them and hands that table to :func:`lazy_exports`; the
defining module is imported the first time one of its names is looked
up, so importing one module of the library no longer imports every
sibling its package re-exports.  Subpackages and submodules resolve on
attribute access too (``repro.cluster`` after a bare ``import repro``).

Nothing is cached into the package's globals: every lookup goes back to
the defining module.  A function patched on its defining module (a test
``monkeypatch``, a tracing wrapper) is therefore seen through the
package as well, and is gone again as soon as the original is restored.

Packages whose import *is* their behaviour stay eager: importing
:mod:`repro.core.backend` and :mod:`repro.solvers` registers the built-in
backends and solvers.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, names)`` for ``package``.

    ``table`` maps each defining module's absolute name to the names the
    package re-exports from it; ``names`` lists them all, in table
    order, for the package's ``__all__``.
    """
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is not None:
            return getattr(importlib.import_module(module), name)
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
