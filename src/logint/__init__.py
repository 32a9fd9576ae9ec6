"""Closed-form and quadrature evaluation of I(n) = int_0^inf ln(x)/(x^n+1) dx.

Three closed-form routes (trig, trigamma, differentiated gamma product)
plus a direct exp-sinh quadrature oracle, built on a from-scratch special
function layer and a deterministic double-exponential quadrature engine;
the identity chain behind the closed form is re-executed numerically by
the verify_* procedures.

The package exports the ``__all__`` of ``specfun``, ``quadrature`` and
``routes``.  Importing them loads only what ``logint eval`` runs: each
export is bound here on first access (PEP 562), so that the verifiers
(``verify``), the public special functions (``special``) and the finite and
bilateral quadrature entry points (``quadrature_maps``), which ``routes``,
``specfun`` and ``quadrature`` resolve lazily in turn, load only when asked
for.
"""

from . import quadrature, routes, specfun

__version__ = "0.1.0"

_MODULES = (specfun, quadrature, routes)

__all__ = [*(name for module in _MODULES for name in module.__all__), "__version__"]


def __getattr__(name: str) -> object:
    """Bind an export from the module that lists it; import nothing else.

    ``from . import verify`` inside the package asks for ``verify`` here
    first, finds no export of that name and then imports the submodule.
    """
    for module in _MODULES:
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
