"""Real-argument special functions built directly on double precision.

Log-gamma, digamma and polygamma share one scheme: shift the argument
upward by recurrence until the asymptotic (de Moivre / Stirling) series in
Bernoulli numbers applies, then sum that series by Horner's rule.

This module holds what the closed-form routes run on: the Bernoulli series
constants and the two private paired kernels of routes 2 and 3.  The
public functions in ``__all__`` (lgamma, digamma, polygamma, trigamma, the
cot-derivative polynomials and the two exceptions) are defined in
``special``, which takes its series constants and ``__all__`` from here,
so each table and the list of names exist once.  They and the lemma
verifiers' private kernel ``_polygamma_pair`` are served lazily from
``special`` (see ``logint._lazy_exports``).  No route calls a public
special function.

The trigamma route's kernel ``_trigamma_pairs`` takes the combination
[psi'(x1) - psi'(y1)] - [psi'(x2) - psi'(y2)] where both pairs differ by
the same delta, passed in exactly: for I(n), delta = (1/2)(n-2)/n and the
pairs are (1/2 - 1/2n, 1/2n) and (1 - 1/2n, 1/2 + 1/2n), the first
arguments formed as the route forms them, not as y + delta.  It shifts all
four arguments together in one loop and carries delta as a factor of every
shift term and every series term (A&S 6.4.12), so the combination keeps
full relative accuracy as delta -> 0, where I(n) -> 0.

The gamma-derivative route's kernel ``_gamma_pairs`` takes
lgamma(a) + lgamma(1+b) and psi(1+b) - psi(1+a) for a = 1 - 1/n, b = 1/n
and delta = a - b = (n-2)/n, again passed in exactly.  One loop shifts a
and b together to a + 12 and b + 12, feeding both log-gamma shift products
and the digamma shift sum, and the digamma difference carries delta as a
factor of every term (A&S 6.1.40, 6.3.18), so it too keeps full relative
accuracy as n -> 2.

Every function here is a pure function of its arguments; there is no
shared mutable state, so concurrent callers need no coordination.
"""

from __future__ import annotations

import math

from . import _lazy_exports

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

__getattr__ = _lazy_exports(
    globals(), dict.fromkeys([*__all__, "_polygamma_pair"], "logint.special")
)


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

# psi'(x) ~ 1/x + 1/(2x^2) + sum_k B_2k x^(-2k-1) (A&S 6.4.12), read lowest
# k first by the paired kernel below; the same doubles as the order-1 row
# of the polygamma series in ``special``, whose (2k)!/(2k)! cancels exactly.
_TRIGAMMA_SERIES = tuple(num / den for num, den in _BERNOULLI)

# The paired trigamma kernel raises its arguments, all in (0, 1], by these
# unit steps to at least 10, where the series above is good to ~1e-17.
_PAIR_SHIFTS = tuple(float(k) for k in range(10))

# The paired gamma kernel shifts a, b in (0, 1] by k = 1..11 to a + 12 and
# b + 12, as lgamma and digamma do, and reads the digamma series lowest k first.
_GAMMA_SHIFTS = tuple(float(k) for k in range(1, 12))
_DIGAMMA_PAIR_SERIES = _DIGAMMA_SERIES[::-1]


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
    # one name per statement: a multiple assignment would build and unpack a
    # tuple on every step
    acc = 0.0
    for k in _PAIR_SHIFTS:
        u1 = x1 + k
        v1 = y1 + k
        u2 = x2 + k
        v2 = y2 + k
        p = u1 * v1
        q = u2 * v2
        acc += (delta / q) * ((u2 + v2) / q) - (delta / p) * ((u1 + v1) / p)
    a1 = 1.0 / (x1 + 10.0)
    b1 = 1.0 / (y1 + 10.0)
    a2 = 1.0 / (x2 + 10.0)
    b2 = 1.0 / (y2 + 10.0)
    w1 = delta * a1 * b1  # w_1 of each pair
    w2 = delta * a2 * b2
    e1 = (a1 + b1) * w1  # w_2
    e2 = (a2 + b2) * w2
    tail = (w2 - w1) + 0.5 * (e2 - e1)
    aa1 = a1 * a1
    bb1 = b1 * b1
    aa2 = a2 * a2
    bb2 = b2 * b2
    pa1 = a1  # a^(2k-1)
    pa2 = a2
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
