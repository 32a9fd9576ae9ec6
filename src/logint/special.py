"""The public special functions of ``specfun``, defined here and served
lazily as ``specfun.<name>`` (see ``logint._lazy_exports``): log-gamma,
digamma, polygamma, trigamma and the derivatives of cot.

Each shifts its argument upward by recurrence until the asymptotic series
in ``specfun``'s Bernoulli constants applies; log-gamma on [1/2, 5/2], around
its zeros at 1 and 2, sums the A&S 6.1.33 series instead.  The log-gamma shift
multiplies (x+1)(x+2)... together and takes one log of the product beside
ln x; digamma adds its shift terms 1/y into one running sum.  ``trigamma``
is polygamma(1, x) with its own domain message.  No route calls any of
them: routes 2 and 3 use the paired kernels in ``specfun``, and only the
verifiers and library callers load this module.

The lemma1 and lemma2 verifiers take their polygamma side from the private
kernel ``_polygamma_pair``, reached as ``specfun._polygamma_pair``: the
reflection sum psi^(m)(1-z) + (-1)^(m+1) psi^(m)(z) in one shift loop over
both arguments, summed into polygamma's own asymptotic row.  It uses no
reflection formula and no trig function, so lemma2 never checks the cot
side against itself.

Derivatives of cot are kept exact as integer-coefficient polynomials in
c = cot x.

Every function here is a pure function of its arguments; there is no
shared mutable state, so concurrent callers need no coordination.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .quadrature import _finite, _shown
from .specfun import (
    _ASYMPTOTIC_START,
    _BERNOULLI,
    _DIGAMMA_SERIES,
    _HALF_LN_TWO_PI,
    _LGAMMA_SERIES,
    __all__,
)


class DomainError(ValueError):
    """Argument lies outside the real domain of the requested function."""


class UnsupportedOrderError(ValueError):
    """Requested derivative order is outside the supported range."""


#: Highest derivative order served by polygamma and the cot machinery.
#: Order 12 keeps every CotPolynomial coefficient well inside 64-bit range.
MAX_DERIVATIVE_ORDER = 12

# psi^(m)(x) ~ (-1)^(m+1) [(m-1)!/x^m + m!/(2x^(m+1)) + sum_k e_mk x^(-2k-m)]
# with e_mk = B_2k (2k+m-1)! / (2k)! (A&S 6.4.11); row m-1 serves order m.
_POLYGAMMA_SERIES = tuple(
    tuple(
        num * math.factorial(2 * k + m - 1) / (den * math.factorial(2 * k))
        for k, (num, den) in reversed(tuple(enumerate(_BERNOULLI, start=1)))
    )
    for m in range(1, MAX_DERIVATIVE_ORDER + 1)
)
# polygamma raises its argument by unit steps to at least 8 + 2m before the
# row above applies, as its terms grow like (2k+m-1)!; the paired kernel
# adds 8 + 2m to its arguments in (0, 1), so the two read one start per order.
_POLYGAMMA_STARTS = tuple(8.0 + 2 * m for m in range(1, MAX_DERIVATIVE_ORDER + 1))
# The paired kernel's unit steps for orders 1..3, largest first, so that
# its shift terms are summed smallest first.
_PAIR_STEPS = tuple(
    tuple(float(k) for k in reversed(range(int(start)))) for start in _POLYGAMMA_STARTS[:3]
)
# Below this z the paired kernel takes the two polygamma calls, which raise
# OverflowError where psi^(m)(z) ~ m!/z^(m+1) passes the largest double
# (z < 1.4e-77 for m = 3, lower for m = 1 and 2).
_PAIR_TINY = 1e-60

# ln Gamma(1+z) = -ln(1+z) + z(1 - gamma) + sum_k (-1)^k (zeta(k) - 1) z^k / k
# for |z| < 2 (A&S 6.1.33); the terms k = 28 down to 2, from mpmath at 40
# digits, leave under 1e-18 for |z| <= 1/2.
_ONE_MINUS_EULER = 0.42278433509846713
_LGAMMA_NEAR_ZEROS = (
    1.330476437424449e-10, -2.7595228851242334e-10, 5.731367241678862e-10,
    -1.1921401405860912e-09, 2.4836745438024785e-09, -5.183475041970047e-09,
    1.0838659214896955e-08, -2.2711094608943164e-08, 4.7698101693639804e-08,
    -1.0043224823968099e-07, 2.1207184805554665e-07, -4.492469198764566e-07,
    9.55141213040742e-07, -2.039215753801366e-06, 4.374866789907488e-06,
    -9.439488275268397e-06, 2.050721277567069e-05, -4.492623673813314e-05,
    9.945751278180853e-05, -0.00022315475845357939, 0.0005096695247430425,
    -0.001192753911703261, 0.0028905103307415234, -0.007385551028673986,
    0.020580808427784546, -0.0673523010531981, 0.3224670334241132,
)

# Below this |sin x| a double-precision cot carries no information.
_COT_POLE_GUARD = 1e-12


def _require_positive(x: float, where: str) -> float:
    """x as a double, so that an int gives its double's bits; x must be finite and > 0."""
    # an int compares with a double exactly: 10**400 < inf, but not <= the largest double
    if not (0.0 < x <= 1.7976931348623157e308):  # also rejects nan
        raise DomainError(f"{where} requires a finite argument > 0, got {_shown(x)}")
    return float(x)


def _check_order(m: int, low: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or not (low <= m <= MAX_DERIVATIVE_ORDER):
        raise UnsupportedOrderError(
            f"derivative order must be an integer in [{low}, {MAX_DERIVATIVE_ORDER}],"
            f" got {_shown(m)}"
        )


def lgamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0.

    Past x ~ 2.5600e305, where ln Gamma(x) passes the largest double,
    OverflowError is raised, as math.lgamma does.  From x ~ 2.5563e305 the
    product (x - 1/2) ln x overflows first; there the head of the series
    is taken as x (ln x - 1) - (ln x)/2, which does not, and every value
    below that band keeps the product form.
    """
    x = _require_positive(x, "lgamma")
    if 0.5 <= x < 2.5:
        # around the zeros at 1 and 2 the shifted sum below cancels terms
        # near 17 and keeps ~1e-14 absolute error; the series in z = x - 1
        # or x - 2 (both exact) keeps it relative.  Near 2 the log drops
        # out: ln Gamma(2+z) = ln(1+z) + ln Gamma(1+z).
        z = x - 2.0 if x >= 1.5 else x - 1.0
        series = 0.0
        for c in _LGAMMA_NEAR_ZEROS:
            series = series * z + c
        value = z * (_ONE_MINUS_EULER + z * series)
        return value if x >= 1.5 else value - math.log1p(z)
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
    log_y = math.log(y)
    head = (y - 0.5) * log_y
    if head == math.inf:  # y = x > 2.5e305, so shift is 0
        value = y * (log_y - 1.0) - 0.5 * log_y + _HALF_LN_TWO_PI + series
        if value == math.inf:
            raise OverflowError(f"lgamma({x!r}) is past the largest double")
        return value
    return head - y + _HALF_LN_TWO_PI + series - shift


def gamma_reflection_defect(z: float) -> float:
    """lgamma(z) + lgamma(1-z) - ln(pi / sin(pi z)), zero in exact arithmetic.

    Computing both sides independently makes this a direct numeric probe
    of the reflection formula; callers assert it is ~0.
    """
    if not (0.0 < z < 1.0):
        raise DomainError(f"reflection defect is defined on (0, 1), got {_shown(z)}")
    rhs = math.log(math.pi) - math.log(math.sin(math.pi * z))
    return lgamma(z) + lgamma(1.0 - z) - rhs


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for finite x > 0.

    Below x ~ 5.6e-309, where psi(x) ~ -1/x passes the largest double,
    OverflowError is raised, as polygamma and math.gamma do.
    """
    x = _require_positive(x, "digamma")
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
    least 8 + 2m, as the series terms grow like (2k+m-1)!; each shifted
    argument x + k is formed from x in one rounding.  The series is summed
    at y = x + K as rounded, and r m!/y^(m+1) comes off it, where
    r = (x + K) - y is the rounding, taken exactly (TwoSum): without it a
    shift that rounds across a power of two cost up to (m+1)/2 ulp.  One
    fsum adds the shift terms, the leading (m-1)!/y^m and the rest of the
    series.  Once |psi^(m)(x)| ~ m!/x^(m+1) passes the largest double,
    OverflowError is raised, as math.gamma does.
    """
    _check_order(m, low=1)
    x = _require_positive(x, "polygamma")
    fact = math.factorial(m)
    terms, k, y = [], 0.0, x
    append, power, start = terms.append, -(m + 1), _POLYGAMMA_STARTS[m - 1]
    while y < start:
        append(fact * y**power)
        k += 1.0
        y = x + k
    t = y - k
    r = (x - t) + (k - (y - t))  # (x + k) - y exactly
    r2 = 1.0 / (y * y)
    series = 0.0
    for e in _POLYGAMMA_SERIES[m - 1]:
        series = series * r2 + e
    p = y**-m  # not 1/y**m: y**m raises OverflowError past 1.8e308
    terms += (fact // m) * p, p * (0.5 * fact / y + series * r2), -r * fact * p / y
    value = math.fsum(terms)
    if value == math.inf:  # m! x^(-m-1) overflowed, though x^(-m-1) did not
        raise OverflowError(f"polygamma({m}, {x!r}) is past the largest double")
    return value if m % 2 else -value


def _polygamma_pair(m: int, z: float) -> float:
    """psi^(m)(1-z) + (-1)^(m+1) psi^(m)(z) for m = 1, 2, 3 and z in (0, 1).

    The callers check m and z.  With x = 1 - z, one loop forms x + k and
    z + k in one rounding each, for the k of polygamma's own shift to
    8 + 2m, and the asymptotic row of polygamma is summed at x + 8 + 2m and
    z + 8 + 2m.  For odd m both shift terms m!/(x+k)^(m+1) and
    m!/(z+k)^(m+1) are added, smallest first.  For m = 2 each pair is one
    term that carries delta = x - z as a factor:
    1/(z+k)^3 - 1/(x+k)^3 = delta a b (a^2 + ab + b^2), a = 1/(x+k),
    b = 1/(z+k), so nothing cancels as z -> 1/2, and z = 1/2 gives exactly
    0.0.  Below z = 1e-60 the two polygamma calls are taken, so that
    OverflowError is raised exactly where they raise it.  No reflection
    formula and no trig function is used.
    """
    if z < _PAIR_TINY:
        return polygamma(m, 1.0 - z) + (polygamma(m, z) if m % 2 else -polygamma(m, z))
    x = 1.0 - z
    acc = 0.0
    if m == 1:
        for k in _PAIR_STEPS[0]:
            u, v = x + k, z + k
            acc += 1.0 / u / u + 1.0 / v / v
    elif m == 2:
        d = x - z
        for k in _PAIR_STEPS[1]:
            a, b = 1.0 / (x + k), 1.0 / (z + k)
            acc += (d * a * b) * (a * a + a * b + b * b)
    else:
        for k in _PAIR_STEPS[2]:
            u, v = x + k, z + k
            a, b = 1.0 / u / u, 1.0 / v / v
            acc += a * a + b * b
    start = _POLYGAMMA_STARTS[m - 1]
    iu, iv = 1.0 / (x + start), 1.0 / (z + start)
    ru, rv = iu * iu, iv * iv
    su = sv = 0.0
    for e in _POLYGAMMA_SERIES[m - 1]:
        su = su * ru + e
        sv = sv * rv + e
    fact = math.factorial(m)
    # (m-1)!/y^m + m!/(2 y^(m+1)) + the row, at y = x + start and z + start
    pu, pv = (iu, iv) if m == 1 else (ru, rv) if m == 2 else (ru * iu, rv * iv)
    tu = (fact // m) * pu + pu * (0.5 * fact * iu + su * ru)
    tv = (fact // m) * pv + pv * (0.5 * fact * iv + sv * rv)
    if m == 2:
        return fact * acc + (tv - tu)
    return (tu + tv) + fact * acc


def trigamma(x: float) -> float:
    """psi'(x), bit for bit polygamma(1, x).

    Raises OverflowError below x ~ 7.5e-155, where 1/x^2 passes the largest double.
    """
    return polygamma(1, _require_positive(x, "trigamma"))


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
    if not _finite(x):  # also an int past the double range, such as 10**400
        raise DomainError(f"cot_derivative requires finite x, got {_shown(x)}")
    s = math.sin(x)
    if abs(s) < _COT_POLE_GUARD:
        raise DomainError(f"x = {x!r} is within {_COT_POLE_GUARD} of a pole of cot")
    return poly(math.cos(x) / s)
