"""The integral I(n) = int_0^inf ln(x) / (x^n + 1) dx for n > 1, computed by
four mutually independent routes, plus numeric re-execution of the identity
chain that produces the closed form.

Route independence is deliberate and load-bearing: ``numeric_I`` never
touches the special-function module, and the closed forms never touch the
quadrature engine, so agreement between routes is genuine evidence that
both are right.

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

``evaluate_all_routes`` compares a different four: the paper's Result
line, with the differentiated gamma product in place of the sec/csc form.
n is a plain float throughout, checked on entry.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from . import specfun
from .quadrature import QuadratureOutcome, integrate_semi_infinite

__all__ = [
    "Subject",
    "VerificationReport",
    "EvaluationRow",
    "closed_form_trig",
    "closed_form_trigamma",
    "closed_form_gamma_derivative",
    "intermediate_form",
    "numeric_I",
    "evaluate_all_routes",
    "lemma1_integrand",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_theorem",
    "limit_probe",
    "DEFAULT_LEMMA1_GRID",
    "DEFAULT_LEMMA2_GRID",
    "DEFAULT_LEMMA3_GRID",
    "DEFAULT_THEOREM_GRID",
    "DEFAULT_LEMMA1_TOL",
    "DEFAULT_LEMMA2_TOL",
    "DEFAULT_LEMMA3_TOL",
    "DEFAULT_THEOREM_TOL",
]

_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0
_SQRT_TWO = math.sqrt(2.0)

# Taylor guard for the removable singularity of t/(1 - e^(-t)); four terms
# keep the relative error under 1e-16 at this radius.
_SERIES_RADIUS = 1e-4


def _check_n(n: float) -> float:
    """The exponent of x**n + 1 as a float; the tail integral needs n > 1."""
    v = float(n)
    if not math.isfinite(v):
        raise ValueError(f"exponent must be finite, got {v!r}")
    if v <= 1.0:
        raise ValueError(
            "n must exceed 1: for n <= 1 the integrand decays like ln(x)/x "
            f"or slower and the integral diverges (got {v!r})"
        )
    return v


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
    points: Sequence[tuple[float, ...]],
    deviations: Sequence[float],
    tolerance: float,
) -> VerificationReport:
    worst_i = 0
    worst = -1.0
    for i, dev in enumerate(deviations):
        if math.isnan(dev):
            dev = math.inf
        if dev > worst:
            worst, worst_i = dev, i
    return VerificationReport(
        subject=subject,
        grid=tuple(points),
        max_abs_deviation=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
        worst_point=points[worst_i] if points else (),  # empty grid: the report raises
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
    if math.isinf(v * v):
        r = (math.pi / v) / s
        return c * (r * r)
    return (math.pi * math.pi) / (v * v) * c / (s * s)


def closed_form_trigamma(n: float) -> float:
    """The four-term trigamma combination the derivation reaches first.

    (1/4n^2) [psi'(1/2 - 1/2n) + psi'(1/2 + 1/2n)
              - psi'(1 - 1/2n) - psi'(1/2n)]
    All four arguments are positive for n > 1.  Uses specfun arithmetic
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
    if math.isinf(4.0 * v * v):
        r = 0.5 / (half * v)
        return -(r * r)
    low = 0.5 * ((v - 1.0) / v) if v < 2.0 else 0.5 - half
    delta = 0.5 * ((v - 2.0) / v)
    combo = specfun._trigamma_pairs(low, half, 1.0 - half, 0.5 + half, delta)
    return combo / (4.0 * v * v)


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
    v = _check_n(n)
    x = _HALF_PI / v
    if v < 2.0:
        y = _HALF_PI * ((v - 1.0) / v)
        c, s = math.sin(y), math.cos(y)
    else:
        c, s = math.cos(x), math.sin(x)
    r = x / (s * c)
    return r * r * (_SQRT_TWO * math.sin(_QUARTER_PI * ((2.0 - v) / v))) * (s + c)


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
    exactly 0.0.  specfun's paired kernel takes lgamma(a) + lgamma(1+b) and
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
    lg, psi = specfun._gamma_pairs(a, b, -c)
    return (math.exp(lg) / bn) * (psi / v + c / (a * bn))


def numeric_I(n: float, quad_tol: float = 1e-10) -> QuadratureOutcome:
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
    """
    v = _check_n(n)
    if v < 2.0:
        scale = 1.0 / (v - 1.0)
        factor = -scale * scale
    else:
        scale = factor = 1.0
    rate = abs(v - 2.0) * scale

    def integrand(u: float) -> float:
        e = math.exp(-u)
        d = math.expm1(-rate * u)
        return u * e * d / (1.0 + e * e * (1.0 + d)) * factor

    return integrate_semi_infinite(integrand, 0.0, quad_tol)


def evaluate_all_routes(n: float, quad_tol: float = 1e-10) -> EvaluationRow:
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
    return EvaluationRow(
        n=v,
        trig_form=values[0],
        trigamma_form=values[1],
        gamma_derivative_form=values[2],
        quadrature=quad,
        max_pairwise_spread=max(values) - min(values),
    )


def _check_lemma1(m: int, z: float) -> None:
    """Refuse an order other than the int 1, 2 or 3, or z outside (0, 1)."""
    if not isinstance(m, int) or isinstance(m, bool) or not (1 <= m <= 3):
        raise specfun.UnsupportedOrderError(f"order must be 1, 2 or 3, got {m!r}")
    if not (0.0 < z < 1.0):
        raise specfun.DomainError(f"z must lie strictly inside (0, 1), got {z!r}")


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
    nothing raises; where E is 0 the value is 0.
    """
    _check_lemma1(m, z)
    w = 1.0 - z
    lo = min(z, w)
    scale = 2.0 / lo
    rate = abs(w - z) / lo
    power = m - 1
    # the bracket is E (base + slope D)
    if m % 2:
        base, slope = 2.0, 1.0
    else:
        base, slope = 0.0, (-1.0 if z <= 0.5 else 1.0)
    factor = math.prod((scale,) * m)  # scale**m would raise OverflowError
    decay = -2.0 * rate

    def scaled(u: float) -> float:
        e = math.exp(-2.0 * u)
        if e == 0.0:
            return 0.0
        t = scale * u
        bracket = e * (base + slope * math.expm1(decay * u))
        return u**power * (t / -math.expm1(-t)) * bracket * factor

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
DEFAULT_THEOREM_TOL = 1e-6


def verify_lemma1(
    m: int,
    z_grid: Sequence[float] = DEFAULT_LEMMA1_GRID,
    quad_tol: float = 1e-10,
    tol: float = DEFAULT_LEMMA1_TOL,
) -> VerificationReport:
    """Quadrature of the lemma1 integral vs. the polygamma side.

    The whole-line integral is folded at zero onto one exp-sinh integral
    over t > 0 of f(t) + f(-t), one closure call per node, and taken at
    the integrand's own scale: in u = min(z, 1-z) t / 2 the slower
    exponential is e^(-2u) at every z (``_lemma1_scaled``).  At the default
    ``quad_tol`` that takes at most 105 evaluations for z from 1e-5 to
    1 - 1e-5.  Quadrature non-convergence surfaces as an infinite
    deviation.
    """
    sign = 1.0 if m % 2 else -1.0
    points: list[tuple[float, ...]] = []
    deviations: list[float] = []
    for z in z_grid:
        outcome = integrate_semi_infinite(_lemma1_scaled(m, z), 0.0, quad_tol)
        rhs = specfun.polygamma(m, 1.0 - z) + sign * specfun.polygamma(m, z)
        deviations.append(abs(outcome.value - rhs) if outcome.converged else math.inf)
        points.append((float(m), float(z)))
    return _make_report(Subject.LEMMA1, points, deviations, tol)


def verify_lemma2(
    m_max: int = 3,
    z_grid: Sequence[float] = DEFAULT_LEMMA2_GRID,
    tol: float = DEFAULT_LEMMA2_TOL,
) -> VerificationReport:
    """Polygamma reflection vs. the exact cot-derivative polynomials.

    Compares psi^(m)(1-z) + (-1)^(m+1) psi^(m)(z) against
    (-1)^m pi^(m+1) (d^m cot)(pi z); the pi^m chain-rule factor is what
    turns the z-derivative of cot(pi z) into the plain cot derivative.
    Deviations are relative to the right side, floored at magnitude 1 so
    the symmetric zero at z = 1/2 (even m) is not compared as 0/0.
    """
    if not isinstance(m_max, int) or isinstance(m_max, bool) or not (1 <= m_max <= 3):
        raise specfun.UnsupportedOrderError(f"m_max must be 1, 2 or 3, got {m_max!r}")
    points: list[tuple[float, ...]] = []
    deviations: list[float] = []
    for m in range(1, m_max + 1):
        sign = 1.0 if m % 2 else -1.0
        cot_sign = -1.0 if m % 2 else 1.0
        pi_power = math.pi ** (m + 1)
        for z in z_grid:
            if not (0.05 < z < 0.95):
                raise ValueError(f"z grid must stay inside (0.05, 0.95), got {z!r}")
            lhs = specfun.polygamma(m, 1.0 - z) + sign * specfun.polygamma(m, z)
            rhs = cot_sign * pi_power * specfun.cot_derivative(m, math.pi * z)
            deviations.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
            points.append((float(m), float(z)))
    return _make_report(Subject.LEMMA2, points, deviations, tol)


def verify_lemma3(
    x_grid: Sequence[float] = DEFAULT_LEMMA3_GRID,
    tol: float = DEFAULT_LEMMA3_TOL,
) -> VerificationReport:
    """sec^2 x - csc^2 x vs. -4 cot 2x csc 2x, pointwise on the grid."""
    points: list[tuple[float, ...]] = []
    deviations: list[float] = []
    for x in x_grid:
        s2 = math.sin(2.0 * x)
        if abs(s2) <= 1e-6:
            raise ValueError(f"grid point {x!r} is too close to a pole of the identity")
        c = math.cos(x)
        s = math.sin(x)
        lhs = 1.0 / (c * c) - 1.0 / (s * s)
        rhs = -4.0 * math.cos(2.0 * x) / (s2 * s2)
        deviations.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
        points.append((float(x),))
    return _make_report(Subject.LEMMA3, points, deviations, tol)


def verify_theorem(
    n_grid: Sequence[float] = DEFAULT_THEOREM_GRID,
    quad_tol: float = 1e-10,
    tol: float = DEFAULT_THEOREM_TOL,
) -> VerificationReport:
    """Spread across the derivation chain's four forms of I(n), per grid point.

    Covers the whole chain at once: direct quadrature, the trigamma
    combination, the sec/csc intermediate, and the collapsed trig form.
    The sec/csc form stands where ``evaluate_all_routes`` has the gamma
    product, so lemma3's collapse is checked at every grid point.
    """
    points: list[tuple[float, ...]] = []
    deviations: list[float] = []
    for n in n_grid:
        v = _check_n(n)
        quad = numeric_I(v, quad_tol)
        values = (
            quad.value,
            closed_form_trigamma(v),
            intermediate_form(v),
            closed_form_trig(v),
        )
        spread = max(values) - min(values) if quad.converged else math.inf
        deviations.append(spread)
        points.append((v,))
    return _make_report(Subject.THEOREM1, points, deviations, tol)


def limit_probe(n_list: Sequence[float]) -> list[tuple[float, float, float]]:
    """Closed-form values along an ascending n list, with residual I(n) + 1.

    The residuals decay like 1/n^2 toward the limit value -1; callers
    check positivity and monotone decrease.
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
