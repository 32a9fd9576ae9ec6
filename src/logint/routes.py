"""The integral I(n) = int_0^inf ln(x) / (x^n + 1) dx for n > 1, computed by
four mutually independent routes: the paper's Result line.

``evaluate_all_routes`` compares the trig form, the trigamma combination,
the differentiated gamma product and direct quadrature.  Route
independence is deliberate and load-bearing: ``numeric_I`` never touches
the special functions or their kernels, and the closed forms never touch
the quadrature engine, so agreement between routes is genuine evidence
that both are right.  Routes 2 and 3 call only their private paired
kernels in ``specfun``, never its public special functions (defined in
``special``, which these routes never load).  n is a plain float
throughout, checked on entry by ``_check_n``.

The numeric re-execution of the identity chain (the sec/csc form, the
lemma1 integrands, ``verify_lemma1`` to ``verify_theorem`` and their
default grids and tolerances) lives in ``verify``.  Its public names are
listed once, in ``_VERIFIERS``, which is ``verify``'s ``__all__`` and ends
this module's; they are served lazily from ``verify`` (see
``logint._lazy_exports``).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import _lazy_exports

# bound by name: CPython does not specialize attribute loads on a module
# with a lazy-export hook, as quadrature and specfun have, and a closed form
# takes a few microseconds
from .quadrature import _DEFAULT_TOL, QuadratureOutcome, integrate_semi_infinite
from .specfun import _gamma_pairs, _trigamma_pairs

_VERIFIERS = (
    "Subject",
    "VerificationReport",
    "intermediate_form",
    "lemma1_integrand",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_theorem",
    "DEFAULT_LEMMA1_GRID",
    "DEFAULT_LEMMA2_GRID",
    "DEFAULT_LEMMA3_GRID",
    "DEFAULT_THEOREM_GRID",
    "DEFAULT_LEMMA1_TOL",
    "DEFAULT_LEMMA2_TOL",
    "DEFAULT_LEMMA3_TOL",
    "DEFAULT_THEOREM_TOL",
)

__all__ = [
    "EvaluationRow",
    "closed_form_trig",
    "closed_form_trigamma",
    "closed_form_gamma_derivative",
    "numeric_I",
    "evaluate_all_routes",
    "limit_probe",
    *_VERIFIERS,
]
__getattr__ = _lazy_exports(globals(), dict.fromkeys(_VERIFIERS, "logint.verify"))

_HALF_PI = math.pi / 2.0
_PI_SQUARED = math.pi * math.pi
_SPREAD_THRESHOLD = 1e-6  # eval's, table's and verify_theorem's default for _route_deviation


def _check_n(n: float) -> float:
    """The exponent of x**n + 1 as a float; the tail integral needs n > 1.

    An int beyond the double range, such as 10**400, is refused as not
    finite, as inf is, instead of letting float() raise OverflowError.
    """
    try:
        v = float(n)
    except OverflowError:
        v = math.inf if n > 0 else -math.inf
    if 1.0 < v < math.inf:
        return v
    if not math.isfinite(v):
        raise ValueError(f"exponent must be finite, got {v!r}")
    raise ValueError(
        "n must exceed 1: for n <= 1 the integrand decays like ln(x)/x "
        f"or slower and the integral diverges (got {v!r})"
    )


class EvaluationRow(NamedTuple):
    """All four routes to I(n) side by side, with their worst disagreement."""

    n: float
    trig_form: float
    trigamma_form: float
    gamma_derivative_form: float
    quadrature: QuadratureOutcome
    max_pairwise_spread: float


def closed_form_trig(n: float) -> float:
    """-(pi^2/n^2) cot(pi/n) csc(pi/n), the fully collapsed closed form.

    cos(pi/n) is taken as sin(pi/2 - pi/n) = -sin((pi/2)(2-n)/n), with
    2 - n exact for n in [1, 4], because cos cancels as pi/n -> pi/2, where
    I -> 0 at n -> 2; n = 2 gives exactly 0.0.  For n < 2 the sine is taken
    at pi - pi/n = pi (n-1)/n, with n - 1 exact, because pi/n itself rounds
    next to pi as n -> 1 and sin(pi/n) is lost.  Where n*n overflows
    (n > 1.3e154) it is -cos x (x / sin x)^2, x = pi/n.
    """
    v = _check_n(n)
    c = math.sin(_HALF_PI * ((2.0 - v) / v))  # -cos(pi/n)
    s = math.sin(math.pi * ((v - 1.0) / v)) if v < 2.0 else math.sin(math.pi / v)
    vv = v * v
    if vv == math.inf:
        r = (math.pi / v) / s
        return c * (r * r)
    return _PI_SQUARED / vv * c / (s * s)


def closed_form_trigamma(n: float) -> float:
    """The four-term trigamma combination the derivation reaches first.

    (1/4n^2) [psi'(1/2 - 1/2n) + psi'(1/2 + 1/2n)
              - psi'(1 - 1/2n) - psi'(1/2n)]
    All four arguments are positive for n > 1.  Uses the paired trigamma kernel
    only: no trig and no quadrature.  With h = 1/2n and
    delta = (1/2)(n-2)/n, the arguments pair up as 1/2 - h = h + delta and
    1 - h = (1/2 + h) + delta, so the bracket is
    [psi'(1/2 - h) - psi'(h)] - [psi'(1 - h) - psi'(1/2 + h)], which the
    paired kernel sums with delta as a factor of every term: it keeps full
    relative accuracy as n -> 2, where I -> 0, and gives exactly 0.0 at 2.
    The four arguments are passed as themselves, not as h + delta, which
    would cancel as n -> 1; for n < 2 the first is formed as (1/2)(n-1)/n,
    with n - 1 exact, because 1/2 - h cancels there too.  Where 4n*n
    overflows (n > 6.7e153), so does psi'(x) ~ 1/x^2 at x = h.  There the
    last term is psi'(1+x) + 1/x^2; divided by 4n^2, psi'(1+x) and the
    other three O(1) terms vanish, and (1/x^2)/4n^2 is formed as
    ((1/x)/2n)^2, written 0.5/(x n) so that neither 1/x nor 2n overflows.
    """
    v = _check_n(n)
    half = 0.5 / v
    vv4 = 4.0 * v * v
    if vv4 == math.inf:
        r = 0.5 / (half * v)
        return -(r * r)
    low = 0.5 * ((v - 1.0) / v) if v < 2.0 else 0.5 - half
    delta = 0.5 * ((v - 2.0) / v)
    combo = _trigamma_pairs(low, half, 1.0 - half, 0.5 + half, delta)
    return combo / vv4


def closed_form_gamma_derivative(n: float) -> float:
    """-d/dn [Gamma(1 - 1/n) Gamma(1/n)], differentiated exactly.

    With a = 1 - 1/n, b = 1/n and psi = Gamma'/Gamma, the chain rule gives
    -Gamma(a) Gamma(b) [psi(a) - psi(b)] / n^2; the product goes through
    its log.  For n < 2, a is formed as (n-1)/n, with n - 1 exact, as in
    closed_form_trig.  Gamma(b) = Gamma(1+b)/b and psi(x) = psi(1+x) - 1/x
    turn it into
    [e^(lgamma(a) + lgamma(1+b))/(bn)] [(psi(1+b) - psi(1+a))/n + (1/a - 1/b)/n]
    with (1/a - 1/b)/n = ((2-n)/n)/(a bn), bn = b*n ~ 1, so neither 1/b
    nor Gamma(b) ~ n stands alone: every intermediate stays finite up to
    the largest double, where 1/b overflows, and n = 2, where a = b, gives
    exactly 0.0.  The paired gamma kernel takes lgamma(a) + lgamma(1+b) and
    psi(1+b) - psi(1+a) in one shift loop, with a - b = (n-2)/n passed in
    exactly as a factor of every digamma term, so the bracket keeps full
    relative accuracy as n -> 2, where I -> 0.  Uses that kernel and exp
    only: no quadrature and none of the trigamma route's code.
    """
    v = _check_n(n)
    b = 1.0 / v
    a = (v - 1.0) / v if v < 2.0 else 1.0 - b
    bn = b * v
    c = (2.0 - v) / v  # b - a, with 2 - n exact; +0.0 at n = 2 keeps I(2) = +0.0
    lg, psi = _gamma_pairs(a, b, -c)
    return (math.exp(lg) / bn) * (psi / v + c / (a * bn))


def numeric_I(n: float, quad_tol: float = _DEFAULT_TOL) -> QuadratureOutcome:
    """Direct quadrature of the defining integral; the oracle route.

    x = e^(-s) on (0, 1) and x = e^s on (1, inf) fold both halves onto
    int_0^inf s [e^(-(n-1)s) - e^(-s)] / (1 + e^(-ns)) ds, one smooth
    exp-sinh integral.  No exponent is positive, so nothing overflows, and
    the slow decay as n -> 1, where |I| grows like 1/(n-1)^2, is followed
    rather than cut off.  With E = e^(-min(n-1, 1)s) and
    D = expm1(-|n-2|s), the bracket is E*D (or -E*D for n < 2) and
    e^(-ns) = E^2 (1 + D), so the difference never cancels, even as n -> 2
    where I -> 0.  No special-function code is involved.

    exp-sinh centres its nodes at unit scale, but for n < 2 the mass sits
    near s ~ 1/(n-1), so the ladder would walk far out for it (1605
    evaluations at n = 1 + 1e-15).  The integral is therefore taken in
    u = s/c, c = 1/(n-1) for n < 2 and c = 1 otherwise:
    c^2 int_0^inf u e^(-u) D / (1 + e^(-2u) (1 + D)) du with
    D = expm1(-|n-2| c u), negated for n < 2.  Every n then needs at most
    96 evaluations at the default tolerance.  For n >= 2 this is the
    s-integral bit for bit: c = 1 and the factor is exactly 1.0.  The
    factor is applied last: c^2 reaches 2e31, and c^2 u would overflow
    far out before e^(-u) reached zero.

    Two rewrites save work per call and move no bit: -rate is negated
    once, outside the closure, as -rate * u was (-rate) * u already; and
    for n >= 2, where the factor is exactly 1.0 and x * 1.0 is x for every
    double x, the closure leaves the multiplication out.
    """
    v = _check_n(n)
    if v < 2.0:
        scale = 1.0 / (v - 1.0)
        factor = -scale * scale
        decay = -(abs(v - 2.0) * scale)

        def integrand(u: float) -> float:
            e = math.exp(-u)
            d = math.expm1(decay * u)
            return u * e * d / (1.0 + e * e * (1.0 + d)) * factor
    else:
        decay = -abs(v - 2.0)  # -0.0 at n = 2, as -(0.0 * 1.0) was

        def integrand(u: float) -> float:
            e = math.exp(-u)
            d = math.expm1(decay * u)
            return u * e * d / (1.0 + e * e * (1.0 + d))

    return integrate_semi_infinite(integrand, 0.0, quad_tol)


def evaluate_all_routes(n: float, quad_tol: float = _DEFAULT_TOL) -> EvaluationRow:
    """The paper's Result line, route by route, and their widest disagreement.

    Routes: the trig form, the trigamma combination, the differentiated
    gamma product and direct quadrature.
    """
    v = _check_n(n)
    quad = numeric_I(v, quad_tol)
    values = (
        closed_form_trig(v),
        closed_form_trigamma(v),
        closed_form_gamma_derivative(v),
        quad.value,
    )
    return EvaluationRow(v, values[0], values[1], values[2], quad, max(values) - min(values))


def _route_deviation(quad: QuadratureOutcome, spread: float) -> float:
    """The spread a threshold judges, or inf where quadrature did not converge."""
    return spread if quad.converged else math.inf


def limit_probe(n_list: Sequence[float]) -> list[tuple[float, float, float]]:
    """Closed-form values along an ascending n list, with residual I(n) + 1.

    The values tend to the limit -1, and the residuals decay like 1/n^2
    toward 0; the CLI's ``limit`` command checks only that they strictly
    decrease.
    """
    ns = [_check_n(n) for n in n_list]
    if not ns:
        raise ValueError("n_list must not be empty")
    for prev, cur in zip(ns, ns[1:]):
        if cur <= prev:
            raise ValueError(
                f"n_list must be strictly ascending, got {prev!r} before {cur!r}"
            )
    rows = []
    for v in ns:
        value = closed_form_trig(v)
        rows.append((v, value, value + 1.0))
    return rows
