"""The two changes of variables on the exp-sinh engine: ``integrate_bilateral``
and ``integrate_finite``.

No route and no verifier calls either of them, so they live apart from the
engine, and ``quadrature`` serves both lazily from here (see
``logint._lazy_exports``): a cold ``logint`` command never compiles them.
Both look the engine up as ``quadrature.integrate_semi_infinite`` at call
time, where a caller, a test or the benchmark's tracer may replace it.
"""

from __future__ import annotations

import math
from typing import Callable

from . import quadrature
from .quadrature import _DEFAULT_TOL, QuadratureOutcome, _check_tol, _finite
from .quadrature import _MAPS as __all__


def integrate_bilateral(
    f: Callable[[float], float],
    tol: float = _DEFAULT_TOL,
) -> QuadratureOutcome:
    """Integrate f over the whole real line, folded at zero.

    Implemented as one half-line integral of f(t) + f(-t), so a removable
    singularity at 0 never gets sampled; the caller supplies the
    limit-safe integrand.  The error estimate is the folded integral's
    own.  The evaluation count is in calls of f, two per node.
    """
    folded = quadrature.integrate_semi_infinite(lambda t: f(t) + f(-t), 0.0, tol)
    return folded._replace(evaluations=2 * folded.evaluations)


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = _DEFAULT_TOL,
) -> QuadratureOutcome:
    """Integrate f over the open interval (a, b), with a, b and b - a finite.

    Implemented as one exp-sinh integral over u in (0, inf) by the change
    of variables x = a + (b - a) u^2/(1 + u^2), which yields the tanh-sinh
    nodes and weights.  u <= 1 maps onto the left half as offsets from a;
    u > 1 maps onto the right half through r = 1/u as offsets from b, so
    no precision is lost next to either endpoint.  Integrable endpoint
    singularities of log or inverse-power type need no special casing.
    The endpoints themselves are never passed to f: a node whose offset
    rounds away entirely contributes 0 and is not counted, so the
    evaluation count is in calls of f.

    The stop rule is the exp-sinh one: each side (toward a, toward b)
    ends after two consecutive contributions at most eps times the running
    sum of |contribution| over the level's pass.  The limit: mass behind a
    gap of two nodes that are negligible on that scale is missed, such as
    the mass of a piecewise integrand behind a zero plateau next to the
    midpoint.
    """
    _check_tol(tol)
    span = b - a if _finite(a) and _finite(b) else math.nan
    if not (a < b and _finite(span)):
        raise ValueError(f"need finite a < b with finite b - a, got a={a!r}, b={b!r}")
    skipped = 0

    def mapped(u: float) -> float:
        nonlocal skipped
        if u <= 1.0:
            s = u * u
            x = a + span * (s / (1.0 + s))
            slope = 2.0 * u
        else:
            r = 1.0 / u
            s = r * r
            x = b - span * (s / (1.0 + s))
            slope = 2.0 * r * s
        if not a < x < b:
            skipped += 1
            return 0.0
        return span * (slope / ((1.0 + s) * (1.0 + s))) * f(x)

    outcome = quadrature.integrate_semi_infinite(mapped, 0.0, tol)
    return outcome._replace(evaluations=outcome.evaluations - skipped)
