"""Real-argument special functions built directly on double precision.

Log-gamma, digamma and polygamma share one scheme: shift the argument
upward by recurrence until the asymptotic (de Moivre / Stirling) series in
Bernoulli numbers applies, then sum that series by Horner's rule.  The
log-gamma shift multiplies (x+1)(x+2)... together and takes one log of the
product beside ln x; digamma adds its shift terms 1/y into one running sum.

The trigamma route's private kernel ``_trigamma_pairs`` takes the
combination [psi'(x1) - psi'(y1)] - [psi'(x2) - psi'(y2)] where both pairs
differ by the same delta, passed in exactly: for I(n), delta = (1/2)(n-2)/n
and the pairs are (1/2 - 1/2n, 1/2n) and (1 - 1/2n, 1/2 + 1/2n), the first
arguments formed as the route forms them, not as y + delta.  It shifts all
four arguments together in one loop and carries delta as a factor of every
shift term and every series term (A&S 6.4.12), so the combination keeps
full relative accuracy as delta -> 0, where I(n) -> 0.  The public
``trigamma`` is polygamma(1, x) with its own domain message; no route
calls it.

The gamma-derivative route's private kernel ``_gamma_pairs`` takes
lgamma(a) + lgamma(1+b) and psi(1+b) - psi(1+a) for a = 1 - 1/n, b = 1/n
and delta = a - b = (n-2)/n, again passed in exactly.  One loop shifts a
and b together to a + 12 and b + 12, feeding both log-gamma shift products
and the digamma shift sum, and the digamma difference carries delta as a
factor of every term (A&S 6.1.40, 6.3.18), so it too keeps full relative
accuracy as n -> 2.  No route calls the public ``lgamma`` or ``digamma``.

Derivatives of cot are kept exact as integer-coefficient polynomials in
c = cot x.

Every function here is a pure function of its arguments; there is no
shared mutable state, so concurrent callers need no coordination.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "DomainError",
    "UnsupportedOrderError",
    "MAX_DERIVATIVE_ORDER",
    "CotPolynomial",
    "lgamma",
    "gamma_reflection_defect",
    "digamma",
    "polygamma",
    "trigamma",
    "cot_derivative_poly",
    "cot_derivative",
]


class DomainError(ValueError):
    """Argument lies outside the real domain of the requested function."""


class UnsupportedOrderError(ValueError):
    """Requested derivative order is outside the supported range."""


#: Highest derivative order served by polygamma and the cot machinery.
#: Order 12 keeps every CotPolynomial coefficient well inside 64-bit range.
MAX_DERIVATIVE_ORDER = 12

# Bernoulli numbers B_2k, k = 1..8, as exact (numerator, denominator) pairs
# (OEIS A027641 / A027642).  Each series constant below is one int / int
# division, which Python rounds correctly.
_BERNOULLI = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
)

_HALF_LN_TWO_PI = 0.9189385332046727  # ln(2*pi)/2

# Arguments below this are raised by recurrence before the asymptotic
# series is applied; at 12 the last retained term is already ~1e-18.
_ASYMPTOTIC_START = 12.0

# Each series below is stored highest k first, as Horner's rule reads it.

# ln Gamma(x) ~ (x - 1/2) ln x - x + ln(2 pi)/2 + sum_k c_k x^(1-2k)
# with c_k = B_2k / (2k (2k-1)).
_LGAMMA_SERIES = tuple(
    num / (den * 2 * k * (2 * k - 1))
    for k, (num, den) in reversed(tuple(enumerate(_BERNOULLI, start=1)))
)

# psi(x) ~ ln x - 1/(2x) - sum_k d_k x^(-2k) with d_k = B_2k / (2k).
_DIGAMMA_SERIES = tuple(
    num / (den * 2 * k)
    for k, (num, den) in reversed(tuple(enumerate(_BERNOULLI[:7], start=1)))
)

# psi^(m)(x) ~ (-1)^(m+1) [(m-1)!/x^m + m!/(2x^(m+1)) + sum_k e_mk x^(-2k-m)]
# with e_mk = B_2k (2k+m-1)! / (2k)! (A&S 6.4.11); row m-1 serves order m.
_POLYGAMMA_SERIES = tuple(
    tuple(
        num * math.factorial(2 * k + m - 1) / (den * math.factorial(2 * k))
        for k, (num, den) in reversed(tuple(enumerate(_BERNOULLI, start=1)))
    )
    for m in range(1, MAX_DERIVATIVE_ORDER + 1)
)

# psi'(x) ~ 1/x + 1/(2x^2) + sum_k B_2k x^(-2k-1) (A&S 6.4.12): the order-1
# row above, B_2k itself, read lowest k first by the paired kernel below.
_TRIGAMMA_SERIES = _POLYGAMMA_SERIES[0][::-1]

# The paired trigamma kernel raises its arguments, all in (0, 1], by these
# unit steps to at least 10, where the series above is good to ~1e-17.
_PAIR_SHIFTS = tuple(float(k) for k in range(10))

# The paired gamma kernel shifts a, b in (0, 1] by k = 1..11 to a + 12 and
# b + 12, as lgamma and digamma do, and reads the digamma series lowest k first.
_GAMMA_SHIFTS = tuple(float(k) for k in range(1, 12))
_DIGAMMA_PAIR_SERIES = _DIGAMMA_SERIES[::-1]

# Below this |sin x| a double-precision cot carries no information.
_COT_POLE_GUARD = 1e-12


def _require_positive(x: float, where: str) -> None:
    if not (0.0 < x < math.inf):  # also rejects nan
        raise DomainError(f"{where} requires a finite argument > 0, got {x!r}")


def _check_order(m: int, low: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or not (low <= m <= MAX_DERIVATIVE_ORDER):
        raise UnsupportedOrderError(
            f"derivative order must be an integer in [{low}, {MAX_DERIVATIVE_ORDER}], got {m!r}"
        )


def lgamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0."""
    _require_positive(x, "lgamma")
    shift = 0.0
    y = x
    if y < _ASYMPTOTIC_START:
        # ln x stays apart so that a tiny or subnormal x loses nothing; the
        # rest of the shift is one log of a product below 12!
        shift = math.log(y)
        y += 1.0
        product = 1.0
        while y < _ASYMPTOTIC_START:
            product *= y
            y += 1.0
        shift += math.log(product)
    r = 1.0 / (y * y)
    series = 0.0
    for c in _LGAMMA_SERIES:
        series = series * r + c
    series /= y
    return (y - 0.5) * math.log(y) - y + _HALF_LN_TWO_PI + series - shift


def gamma_reflection_defect(z: float) -> float:
    """lgamma(z) + lgamma(1-z) - ln(pi / sin(pi z)), zero in exact arithmetic.

    Computing both sides independently makes this a direct numeric probe
    of the reflection formula; callers assert it is ~0.
    """
    if not (0.0 < z < 1.0):
        raise DomainError(f"reflection defect is defined on (0, 1), got {z!r}")
    rhs = math.log(math.pi) - math.log(math.sin(math.pi * z))
    return lgamma(z) + lgamma(1.0 - z) - rhs


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for finite x > 0.

    Below x ~ 5.6e-309, where psi(x) ~ -1/x passes the largest double,
    OverflowError is raised, as polygamma and math.gamma do.
    """
    _require_positive(x, "digamma")
    y = x
    shift = 0.0
    while y < _ASYMPTOTIC_START:
        shift += 1.0 / y
        y += 1.0
    if shift == math.inf:  # 1/x overflowed
        raise OverflowError(f"digamma({x!r}) is past the largest double")
    r = 1.0 / (y * y)
    series = 0.0
    for d in _DIGAMMA_SERIES:
        series = series * r + d
    return math.log(y) - 0.5 / y - series * r - shift


def polygamma(m: int, x: float) -> float:
    """psi^(m)(x) for 1 <= m <= 12 and finite x > 0.

    x is raised by psi^(m)(x) = psi^(m)(x+1) + (-1)^(m+1) m! x^(-m-1) to at
    least 8 + 2m, as the series terms grow like (2k+m-1)!.  One fsum adds
    the shift terms, the leading (m-1)!/y^m and the rest of the series.
    Once |psi^(m)(x)| ~ m!/x^(m+1) passes the largest double, OverflowError
    is raised, as math.gamma does.
    """
    _check_order(m, low=1)
    _require_positive(x, "polygamma")
    fact = math.factorial(m)
    terms, y = [], x
    append, power, start = terms.append, -(m + 1), 8.0 + 2 * m
    while y < start:
        append(fact * y**power)
        y += 1.0
    r = 1.0 / (y * y)
    series = 0.0
    for e in _POLYGAMMA_SERIES[m - 1]:
        series = series * r + e
    p = y**-m  # not 1/y**m: y**m raises OverflowError past 1.8e308
    terms += (fact // m) * p, p * (0.5 * fact / y + series * r)
    value = math.fsum(terms)
    if value == math.inf:  # m! x^(-m-1) overflowed, though x^(-m-1) did not
        raise OverflowError(f"polygamma({m}, {x!r}) is past the largest double")
    return value if m % 2 else -value


def trigamma(x: float) -> float:
    """psi'(x), bit for bit polygamma(1, x).

    Raises OverflowError below x ~ 7.5e-155, where 1/x^2 passes the largest double.
    """
    _require_positive(x, "trigamma")
    return polygamma(1, x)


def _trigamma_pairs(x1: float, y1: float, x2: float, y2: float, delta: float) -> float:
    """[psi'(x1) - psi'(y1)] - [psi'(x2) - psi'(y2)] where x1 - y1 = x2 - y2 = delta.

    For four arguments in (0, 1] and their common difference delta, passed
    in exactly rather than recovered by subtraction.  Every term carries
    delta, so nothing cancels as delta -> 0, and delta = 0 gives exactly
    0.0.  With psi'(x) = psi'(x+1) + 1/x^2, each of ten unit shifts of a
    pair (x, y) takes 1/y^2 - 1/x^2 = delta (x + y)/(xy)^2 off its psi'
    difference, formed as (delta/p)((x + y)/p), p = xy, so that no (xy)^2
    goes subnormal; x + k is formed from x in one rounding.  At the
    shifted pair (u, v), u, v >= 10, the difference of A&S 6.4.12 is
    -sum_p c_p w_p with a = 1/u, b = 1/v and w_p = b^p - a^p, which obey
    w_1 = delta a b, w_2 = (a + b) w_1 and w_(p+2) = b^2 w_p + a^p w_2, so
    only the odd powers the Bernoulli terms need are formed.
    """
    acc = 0.0
    for k in _PAIR_SHIFTS:
        u1, v1, u2, v2 = x1 + k, y1 + k, x2 + k, y2 + k
        p, q = u1 * v1, u2 * v2
        acc += (delta / q) * ((u2 + v2) / q) - (delta / p) * ((u1 + v1) / p)
    a1, b1 = 1.0 / (x1 + 10.0), 1.0 / (y1 + 10.0)
    a2, b2 = 1.0 / (x2 + 10.0), 1.0 / (y2 + 10.0)
    w1, w2 = delta * a1 * b1, delta * a2 * b2  # w_1 of each pair
    e1, e2 = (a1 + b1) * w1, (a2 + b2) * w2  # w_2
    tail = (w2 - w1) + 0.5 * (e2 - e1)
    aa1, bb1, aa2, bb2 = a1 * a1, b1 * b1, a2 * a2, b2 * b2
    pa1, pa2 = a1, a2  # a^(2k-1)
    for c in _TRIGAMMA_SERIES:
        w1 = bb1 * w1 + pa1 * e1  # w_(2k+1)
        w2 = bb2 * w2 + pa2 * e2
        tail += c * (w2 - w1)
        pa1 *= aa1
        pa2 *= aa2
    return acc + tail


def _gamma_pairs(a: float, b: float, delta: float) -> tuple[float, float]:
    """(lgamma(a) + lgamma(1+b), psi(1+b) - psi(1+a)) where a - b = delta.

    For a, b in (0, 1] and their difference delta, passed in exactly rather
    than recovered by subtraction.  One loop forms a + k and b + k, k = 1..11,
    in one rounding each and feeds both log-gamma shift products and the
    digamma shift sum: psi(1+b) - psi(1+a) loses
    1/(b+k) - 1/(a+k) = delta/((a+k)(b+k)) per step, so the sum is taken
    of 1/((a+k)(b+k)) and multiplied by delta once.  ln a stays apart, so
    that a tiny a loses nothing, and each product is logged on its own:
    a single log of the product of every (a+k)(b+k) measured less accurate.
    At u = a + 12, v = b + 12 the two
    Stirling series are summed, and the digamma difference of A&S 6.3.18 is
    -log1p(delta/v) - w_1/2 - sum_k d_k w_2k with w_p = v^-p - u^-p, which
    obey w_1 = delta/(uv), w_2 = (1/u + 1/v) w_1 and
    w_(p+2) = v^-2 w_p + u^-p w_2, as in ``_trigamma_pairs``.  Every
    digamma term carries delta, so nothing cancels as delta -> 0, and
    delta = 0 gives a zero difference.
    """
    pa = pb = 1.0
    s = 0.0
    for k in _GAMMA_SHIFTS:
        ak, bk = a + k, b + k
        pa *= ak
        pb *= bk
        s += 1.0 / (ak * bk)
    u, v = a + _ASYMPTOTIC_START, b + _ASYMPTOTIC_START
    iu, iv = 1.0 / u, 1.0 / v
    ru, rv = iu * iu, iv * iv
    su = sv = 0.0
    for c in _LGAMMA_SERIES:
        su = su * ru + c
        sv = sv * rv + c
    # lgamma(1+a) and lgamma(1+b), near 0 as a or b nears 0 or 1: each
    # product's log comes off (x - 1/2) ln x first, before -x and the constants
    lu = ((u - 0.5) * math.log(u) - math.log(pa)) - u + _HALF_LN_TWO_PI + su * iu
    lv = ((v - 0.5) * math.log(v) - math.log(pb)) - v + _HALF_LN_TWO_PI + sv * iv
    lg = (lu + lv) - math.log(a)
    w1 = delta * iu * iv
    w2 = (iu + iv) * w1
    w, pu, tail = w2, 1.0, 0.0  # w_2k and u^-(2k-2)
    for d in _DIGAMMA_PAIR_SERIES:
        tail += d * w
        pu *= ru
        w = rv * w + pu * w2
    return lg, -delta * s - math.log1p(delta / v) - 0.5 * w1 - tail


class _CotPolynomialFields(NamedTuple):
    order: int
    coeffs: tuple[int, ...]


class CotPolynomial(_CotPolynomialFields):
    """d^order/dx^order cot x written as an integer polynomial in c = cot x.

    ``coeffs[k]`` is the coefficient of c**k.  The polynomial for order m
    has degree exactly m + 1 and contains only powers whose parity
    matches m + 1; both facts are enforced at construction time.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CotPolynomial:
        self = super().__new__(cls, *args, **kwargs)
        degree = len(self.coeffs) - 1
        if degree != self.order + 1 or self.coeffs[-1] == 0:
            raise ValueError(
                f"order-{self.order} polynomial must have degree {self.order + 1}"
            )
        for k, coeff in enumerate(self.coeffs):
            if coeff != 0 and (degree - k) % 2 != 0:
                raise ValueError(
                    f"parity violation at c^{k} in the order-{self.order} polynomial"
                )
        return self

    def __call__(self, c: float) -> float:
        acc = 0.0
        for coeff in reversed(self.coeffs):
            acc = acc * c + coeff
        return acc


def _build_cot_polynomials() -> tuple[CotPolynomial, ...]:
    polys = [CotPolynomial(0, (0, 1))]
    for _ in range(MAX_DERIVATIVE_ORDER):
        prev = polys[-1].coeffs
        # dc/dx = -(1 + c^2), so if P represents the current derivative the
        # next one is -(1 + c^2) P'(c)
        deriv = [k * prev[k] for k in range(1, len(prev))]
        nxt = [0] * (len(deriv) + 2)
        for i, q in enumerate(deriv):
            nxt[i] -= q
            nxt[i + 2] -= q
        polys.append(CotPolynomial(polys[-1].order + 1, tuple(nxt)))
    return tuple(polys)


_COT_POLYNOMIALS = _build_cot_polynomials()


def cot_derivative_poly(m: int) -> CotPolynomial:
    """Exact polynomial (in cot x) form of the m-th derivative of cot."""
    _check_order(m, low=0)
    return _COT_POLYNOMIALS[m]


def cot_derivative(m: int, x: float) -> float:
    """m-th derivative of cot at x; x must stay clear of the poles of cot."""
    poly = cot_derivative_poly(m)
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"cot_derivative requires finite x, got {x!r}")
    s = math.sin(x)
    if abs(s) < _COT_POLE_GUARD:
        raise DomainError(f"x = {x!r} is within {_COT_POLE_GUARD} of a pole of cot")
    return poly(math.cos(x) / s)
