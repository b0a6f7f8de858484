"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports its submodules to re-export their
names makes importing any one submodule load them all: reading
``repro.hymm.config`` would pull numpy and the cycle engine in through
``repro.hymm``.  The package inits instead say where each name lives
and load it on first attribute access.  A ``TYPE_CHECKING`` block
beside the call keeps the names visible to type checkers and to the
analyzer, which both read the import statements.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``.

    ``exports`` maps each module to the names the package re-exports
    from it.  A name that is the module's own last component (the
    package's submodule of that name) is the module itself.  A loaded
    name is stored in ``namespace``, so only its first access runs the
    hook.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(module)
        value = loaded if module == f"{package}.{name}" else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
