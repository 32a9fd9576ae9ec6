"""Numeric re-execution of the identity chain that produces the closed
form of I(n) = int_0^inf ln(x) / (x^n + 1) dx.

The verification subjects follow the derivation chain:

* lemma1 - the bilateral integral of t^m e^(-zt) / (1 - e^(-t)) equals a
  two-term polygamma combination; it is integrated folded at zero, as one
  half-line integral at the integrand's own scale, one call per node;
* lemma2 - that combination equals a power of pi times a derivative of
  cot (the reflection identity, differentiated);
* lemma3 - the plain trig identity sec^2 x - csc^2 x = -4 cot 2x csc 2x;
* theorem - the derivation chain agrees with itself at each n: direct
  quadrature, the trigamma combination, the sec/csc form at pi/(2n) and
  the collapsed cot*csc form.

``routes.evaluate_all_routes`` compares a different four: the paper's
Result line, with the differentiated gamma product in place of the sec/csc
form.  ``routes`` serves every public name here lazily (see
``logint._lazy_exports``); ``__all__`` is ``routes._VERIFIERS``, where the
names are listed once.  Each verifier looks the routes, the engine and the
paired kernel up through their modules once per call (``routes.numeric_I``
and the other forms, ``quadrature.integrate_semi_infinite``,
``specfun._polygamma_pair``), where a caller, a test or the benchmark's
tracer may replace them, and binds them for its grid: CPython does not
specialize attribute loads on these lazily exporting modules.  lemma1 and
lemma2 take their polygamma side from the paired kernel
``_polygamma_pair``, one shift loop over both arguments, and only they
load ``special``, where it is defined.  lemma2's cot side is Horner's rule
over float copies of the exact ``CotPolynomial`` coefficients
(``_cot_rows``), not a ``specfun.cot_derivative`` call.

Each verifier is a per-point ``check`` over its grid; every (point,
deviation) pair passes through ``_make_report``, the one loop that judges
the points and builds the report.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from . import quadrature, routes, specfun
from .quadrature import _shown
from .routes import _VERIFIERS as __all__

_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0
_SQRT_TWO = math.sqrt(2.0)

# (-1)^m pi^(m+1), lemma2's right-side factor, by order: the same doubles
# as -1.0 * math.pi ** (m + 1) and 1.0 * math.pi ** (m + 1)
_LEMMA2_PI_POWERS = (None, -math.pi**2, math.pi**3, -math.pi**4)


@functools.cache
def _cot_rows() -> tuple[tuple[float, ...], ...]:
    """lemma2's cot side: the exact d^m cot polynomials in c = cot x, m = 0..3,
    as float coefficients, highest power first.

    The coefficients are small ints, so each float is exact and every
    Horner step rounds as ``CotPolynomial.__call__``'s does, bit for bit.
    Built from ``specfun.cot_derivative_poly`` on first use, which loads
    ``special``, as lemma2's polygamma side does.
    """
    return tuple(
        tuple(map(float, reversed(specfun.cot_derivative_poly(m).coeffs))) for m in range(4)
    )


# Taylor guard for the removable singularity of t/(1 - e^(-t)); four terms
# keep the relative error under 1e-16 at this radius.
_SERIES_RADIUS = 1e-4


class Subject(Enum):
    """Which link of the identity chain a report certifies."""

    LEMMA1 = "lemma1"
    LEMMA2 = "lemma2"
    LEMMA3 = "lemma3"
    THEOREM1 = "theorem"


class _VerificationFields(NamedTuple):
    subject: Subject
    grid: tuple[tuple[float, ...], ...]
    max_abs_deviation: float
    tolerance: float
    passed: bool
    worst_point: tuple[float, ...]


class VerificationReport(_VerificationFields):
    """Outcome of checking one identity over a grid of probe points."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> VerificationReport:
        self = super().__new__(cls, *args, **kwargs)
        if not self.grid:
            raise ValueError("verification grid must not be empty")
        if not (self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.passed != (self.max_abs_deviation <= self.tolerance):
            raise ValueError("pass flag inconsistent with deviation and tolerance")
        return self


def _make_report(
    subject: Subject,
    checks: Iterable[tuple[tuple[float, ...], float]],
    tolerance: float,
) -> VerificationReport:
    """One pass over (point, deviation) pairs in grid order; a nan deviation
    counts as inf, and the first of equal worst deviations is the worst point.
    """
    points = []
    worst, worst_point = -1.0, ()  # empty grid: the report raises
    for point, dev in checks:
        points.append(point)
        if dev != dev:  # nan
            dev = math.inf
        if dev > worst:
            worst, worst_point = dev, point
    # positional, in _VerificationFields' order
    return VerificationReport(
        subject, tuple(points), worst, tolerance, worst <= tolerance, worst_point
    )


def intermediate_form(n: float) -> float:
    """(pi^2/4n^2) [sec^2(pi/2n) - csc^2(pi/2n)].

    The halfway-collapsed form; the double-angle identity (lemma3 subject)
    turns it into closed_form_trig exactly.  With x = pi/2n, c = cos x and
    s = sin x, the bracket 1/c^2 - 1/s^2 is taken as (s - c)(s + c)/(sc)^2
    with s - c = sqrt(2) sin(x - pi/4) = sqrt(2) sin((pi/4)(2-n)/n), 2 - n
    exact for n in [1, 4], because the bracket cancels at x = pi/4, where
    I -> 0 at n -> 2; n = 2 gives exactly 0.0.  For n < 2, c and s are taken
    as sin y and cos y, y = pi/2 - x = (pi/2)(n-1)/n, as in closed_form_trig.
    The whole is (x/(sc))^2 (s - c)(s + c), which stays finite up to the
    largest double.
    """
    v = routes._check_n(n)
    x = _HALF_PI / v
    if v < 2.0:
        y = _HALF_PI * ((v - 1.0) / v)
        c, s = math.sin(y), math.cos(y)
    else:
        c, s = math.cos(x), math.sin(x)
    r = x / (s * c)
    return r * r * (_SQRT_TWO * math.sin(_QUARTER_PI * ((2.0 - v) / v))) * (s + c)


def _check_lemma1(m: int, z: float) -> None:
    """Refuse an order other than the int 1, 2 or 3, or z outside (0, 1)."""
    if not isinstance(m, int) or isinstance(m, bool) or not (1 <= m <= 3):
        raise specfun.UnsupportedOrderError(f"order must be 1, 2 or 3, got {_shown(m)}")
    if not (0.0 < z < 1.0):
        raise specfun.DomainError(f"z must lie strictly inside (0, 1), got {_shown(z)}")


def lemma1_integrand(m: int, z: float) -> Callable[[float], float]:
    """t -> t^m e^(-zt) / (1 - e^(-t)) with the t = 0 gap filled by series.

    Orders 1..3 only, and z strictly inside (0, 1): outside that strip the
    negative-t branch is not integrable.  Far from the origin the value is
    formed through its logarithm so neither factor can overflow on its own.
    This is the whole-line form; ``verify_lemma1`` integrates a folded and
    rescaled one, and the tests hold them against each other.
    """
    _check_lemma1(m, z)
    flip = 1.0 if m % 2 else -1.0  # (-1)^(m+1), from mirroring t -> -t

    def integrand(t: float) -> float:
        if abs(t) < _SERIES_RADIUS:
            # t / (1 - e^(-t)) = 1 + t/2 + t^2/12 - t^4/720 + O(t^6)
            smooth = 1.0 + t * (0.5 + t / 12.0) - t**4 / 720.0
            return t ** (m - 1) * math.exp(-z * t) * smooth
        if t > 0.0:
            return _one_sided(m, z, t)
        return flip * _one_sided(m, 1.0 - z, -t)

    return integrand


def _one_sided(m: int, w: float, u: float) -> float:
    # u^m e^(-wu) underflows (in exact arithmetic) long before u^m alone
    # could overflow; checking the combined exponent first keeps inf out
    if m * math.log(u) - w * u < -745.0:
        return 0.0
    return u**m * math.exp(-w * u) / (1.0 - math.exp(-u))


def _lemma1_scaled(m: int, z: float) -> Callable[[float], float]:
    """u -> c g(c u), g the folded lemma1 integrand, c = 2 / min(z, 1-z).

    g decays like t^m e^(-lo t), lo = min(z, 1-z), so its mass sits near
    t ~ 1/lo while exp-sinh centres its nodes at unit scale; in u = t/c
    the slower exponential is E = e^(-2u).  The faster one is written
    E (1 + D), D = expm1(-2 rate u), rate = |(1-z) - z| / lo, so the
    bracket e^(-zt) +- e^(-(1-z)t) is E (2 + D) for odd m and -+E D for
    even m: the even-order difference never cancels, and at z = 1/2 it is
    exactly 0.  Forming c z and c (1-z) apart instead would round them
    separately and lose about 1/|1 - 2z| of the bracket's precision.  c^m
    is applied last, by multiplication, so no intermediate overflows and
    nothing raises; where E is 0 the value is 0.  u^(m-1) is multiplied
    out rather than taken by pow: for m = 3, u * u equals u**2 on every
    node of the cached levels, though not on every double.

    Each order has its own closure, so no call tests m.  Three rewrites
    of the one-closure form save work per call and move no bit on any
    double u: the odd bracket is E (2 + D), as 1.0 * D is D; the even one
    keeps 0.0 + slope D, as the sum turns a -0.0 slope D, where -2 rate u
    underflows, into +0.0; and the ratio t / (1 - e^(-t)), t = c u, is
    s / expm1(s), s = (-c) u, which is -t exactly, as rounding is
    symmetric in sign, and so is division.  Every product keeps its order.
    """
    _check_lemma1(m, z)
    w = 1.0 - z
    lo = min(z, w)
    scale = 2.0 / lo
    rate = abs(w - z) / lo
    factor = math.prod((scale,) * m)  # scale**m would raise OverflowError
    decay = -2.0 * rate
    neg_scale = -scale

    if m == 1:
        def scaled(u: float) -> float:
            e = math.exp(-2.0 * u)
            if e == 0.0:
                return 0.0
            t = neg_scale * u
            bracket = e * (2.0 + math.expm1(decay * u))
            return t / math.expm1(t) * bracket * factor
    elif m == 2:
        slope = -1.0 if z <= 0.5 else 1.0

        def scaled(u: float) -> float:
            e = math.exp(-2.0 * u)
            if e == 0.0:
                return 0.0
            t = neg_scale * u
            bracket = e * (0.0 + slope * math.expm1(decay * u))
            return u * (t / math.expm1(t)) * bracket * factor
    else:
        def scaled(u: float) -> float:
            e = math.exp(-2.0 * u)
            if e == 0.0:
                return 0.0
            t = neg_scale * u
            bracket = e * (2.0 + math.expm1(decay * u))
            return u * u * (t / math.expm1(t)) * bracket * factor

    return scaled


DEFAULT_LEMMA1_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)
DEFAULT_LEMMA2_GRID = tuple(0.15 + 0.0875 * i for i in range(9))
DEFAULT_LEMMA3_GRID = tuple(0.08 + 1.41 * i / 99.0 for i in range(100))
DEFAULT_THEOREM_GRID = (1.5, 2.0, math.e, 3.0, 4.0, 10.0, 100.0)

# Each default tolerance is set by the weakest route involved: quadrature
# for lemma1 and the theorem, closed forms elsewhere.
DEFAULT_LEMMA1_TOL = 1e-6
DEFAULT_LEMMA2_TOL = 1e-9
DEFAULT_LEMMA3_TOL = 1e-12
DEFAULT_THEOREM_TOL = routes._SPREAD_THRESHOLD


def verify_lemma1(
    m: int,
    z_grid: Sequence[float] = DEFAULT_LEMMA1_GRID,
    quad_tol: float = quadrature._DEFAULT_TOL,
    tol: float = DEFAULT_LEMMA1_TOL,
) -> VerificationReport:
    """Quadrature of the lemma1 integral vs. the polygamma side.

    The polygamma side psi^(m)(1-z) + (-1)^(m+1) psi^(m)(z) is one call
    of the paired kernel ``specfun._polygamma_pair``.  The whole-line
    integral is folded at zero onto one exp-sinh integral
    over t > 0 of f(t) + f(-t), one closure call per node, and taken at
    the integrand's own scale: in u = min(z, 1-z) t / 2 the slower
    exponential is e^(-2u) at every z (``_lemma1_scaled``).  At the default
    ``quad_tol`` that takes at most 105 evaluations for z from 1e-5 to
    1 - 1e-5.  Quadrature non-convergence surfaces as an infinite
    deviation.
    """
    integrate = quadrature.integrate_semi_infinite
    pair = specfun._polygamma_pair

    def check(z: float) -> tuple[tuple[float, ...], float]:
        outcome = integrate(_lemma1_scaled(m, z), 0.0, quad_tol)
        rhs = pair(m, z)
        dev = abs(outcome.value - rhs) if outcome.converged else math.inf
        return (float(m), float(z)), dev

    return _make_report(Subject.LEMMA1, map(check, z_grid), tol)


def verify_lemma2(
    m_max: int = 3,
    z_grid: Sequence[float] = DEFAULT_LEMMA2_GRID,
    tol: float = DEFAULT_LEMMA2_TOL,
) -> VerificationReport:
    """Polygamma reflection vs. the exact cot-derivative polynomials.

    Compares psi^(m)(1-z) + (-1)^(m+1) psi^(m)(z), taken in one call of
    the paired kernel ``specfun._polygamma_pair``, which uses no reflection
    formula and no trig function, against (-1)^m pi^(m+1) (d^m cot)(pi z);
    the pi^m chain-rule factor is what turns the z-derivative of cot(pi z)
    into the plain cot derivative.  (d^m cot)(pi z) is Horner's rule over
    ``_cot_rows`` at c = cos(pi z)/sin(pi z): bit for bit
    ``specfun.cot_derivative(m, pi * z)`` without its per-call checks,
    which the z check here makes moot (|sin pi z| > 0.15).
    Deviations are relative to the right side, floored at magnitude 1 so
    the symmetric zero at z = 1/2 (even m) is not compared as 0/0.
    """
    if not isinstance(m_max, int) or isinstance(m_max, bool) or not (1 <= m_max <= 3):
        raise specfun.UnsupportedOrderError(
            f"m_max must be 1, 2 or 3, got {_shown(m_max)}"
        )
    pair = specfun._polygamma_pair
    rows = _cot_rows()

    def check(m: int, z: float) -> tuple[tuple[float, ...], float]:
        if not (0.05 < z < 0.95):
            raise ValueError(f"z grid must stay inside (0.05, 0.95), got {_shown(z)}")
        lhs = pair(m, z)
        x = math.pi * z
        c = math.cos(x) / math.sin(x)
        cot = 0.0
        for coeff in rows[m]:
            cot = cot * c + coeff
        rhs = _LEMMA2_PI_POWERS[m] * cot
        # |rhs| floored at 1, without abs: no sign of a zero reaches the divisor
        size = rhs if rhs > 1.0 else -rhs if rhs < -1.0 else 1.0
        return (float(m), float(z)), abs(lhs - rhs) / size

    z_grid = tuple(z_grid)  # one pass per order, so an iterator must not run dry
    checks = (check(m, z) for m in range(1, m_max + 1) for z in z_grid)
    return _make_report(Subject.LEMMA2, checks, tol)


def verify_lemma3(
    x_grid: Sequence[float] = DEFAULT_LEMMA3_GRID,
    tol: float = DEFAULT_LEMMA3_TOL,
) -> VerificationReport:
    """sec^2 x - csc^2 x vs. -4 cot 2x csc 2x, pointwise on the grid."""
    def check(x: float) -> tuple[tuple[float, ...], float]:
        try:
            x2 = 2.0 * x
            s2 = math.sin(x2)
        except (OverflowError, ValueError):  # inf, or an int past the double range
            raise ValueError(f"grid point {_shown(x)} is not finite") from None
        if -1e-6 <= s2 <= 1e-6:
            raise ValueError(f"grid point {x!r} is too close to a pole of the identity")
        c, s = math.cos(x), math.sin(x)
        lhs = 1.0 / (c * c) - 1.0 / (s * s)
        rhs = -4.0 * math.cos(x2) / (s2 * s2)
        # |rhs| floored at 1; the deviation keeps abs, where -0.0 would reach the report
        size = rhs if rhs > 1.0 else -rhs if rhs < -1.0 else 1.0
        return (float(x),), abs(lhs - rhs) / size

    return _make_report(Subject.LEMMA3, map(check, x_grid), tol)


def verify_theorem(
    n_grid: Sequence[float] = DEFAULT_THEOREM_GRID,
    quad_tol: float = quadrature._DEFAULT_TOL,
    tol: float = DEFAULT_THEOREM_TOL,
) -> VerificationReport:
    """Spread across the derivation chain's four forms of I(n), per grid point.

    Covers the whole chain at once: direct quadrature, the trigamma
    combination, the sec/csc intermediate, and the collapsed trig form.
    The sec/csc form stands where ``evaluate_all_routes`` has the gamma
    product, so lemma3's collapse is checked at every grid point.
    """
    check_n, numeric_I, deviation = routes._check_n, routes.numeric_I, routes._route_deviation
    trigamma_form, sec_csc_form = routes.closed_form_trigamma, routes.intermediate_form
    trig_form = routes.closed_form_trig

    def check(n: float) -> tuple[tuple[float, ...], float]:
        v = check_n(n)
        quad = numeric_I(v, quad_tol)
        values = (quad.value, trigamma_form(v), sec_csc_form(v), trig_form(v))
        return (v,), deviation(quad, max(values) - min(values))

    return _make_report(Subject.THEOREM1, map(check, n_grid), tol)
