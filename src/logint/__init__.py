"""Closed-form and quadrature evaluation of I(n) = int_0^inf ln(x)/(x^n+1) dx.

Three closed-form routes (trig, trigamma, differentiated gamma product)
plus a direct exp-sinh quadrature oracle, built on a from-scratch special
function layer and a deterministic double-exponential quadrature engine;
the identity chain behind the closed form is re-executed numerically by
the verify_* procedures.

The package serves the ``__all__`` of ``specfun``, ``quadrature`` and
``routes`` lazily, from those modules (see ``_lazy_exports``).
"""

from __future__ import annotations

from typing import Callable


def _lazy_exports(home: dict, sources: dict[str, str]) -> Callable[[str], object]:
    """The PEP 562 ``__getattr__`` of the module whose globals are ``home``.

    ``sources`` maps each lazily served name to the module that defines it.
    The first access imports that module and binds the value in ``home``,
    where every later access finds it without calling the hook.  Any other
    name raises the AttributeError of a module without the hook, which
    ``from . import verify`` inside the package meets before it imports the
    submodule.  So ``import logint`` loads only ``specfun``, ``quadrature``
    and ``routes``, which serve the names of ``special``,
    ``quadrature_maps`` and ``verify`` without loading them, and each
    command loads only what it runs.  Hot callers bind names directly:
    CPython does not specialize attribute loads on a module with this hook.
    """

    def __getattr__(name: str) -> object:
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {home['__name__']!r} has no attribute {name!r}")
        # from <source> import <name>, by the import statement's own path,
        # which -X importtime reports and importlib.import_module bypasses
        value = home[name] = getattr(__import__(source, fromlist=(name,)), name)
        return value

    return __getattr__


from . import quadrature, routes, specfun  # noqa: E402 - they use the helper above

__version__ = "0.1.0"

_EXPORTS = {
    name: module.__name__ for module in (specfun, quadrature, routes) for name in module.__all__
}
__all__ = [*_EXPORTS, "__version__"]
__getattr__ = _lazy_exports(globals(), _EXPORTS)
