"""Independent reference computations used to pin expected test values.

Everything here but ``lemma1_folded``, ``reference_pass``,
``reference_integrate`` and ``route4_integrand`` deliberately avoids the
algorithms used inside the package: brute partial sums with a midpoint
tail integral, finite differences, stdlib math, and mpmath at 50 digits.
Oracle accuracy is noted next to each helper so tests can budget their
tolerances.

``lemma1_folded`` is a stated exception: the lemma1 integrand folded at
zero in t-space, a link between the bilateral engine and the rescaled fold
that ``verify_lemma1`` integrates.  It shares the package's argument checks
and is itself measured against mpmath in the tests.
``reference_pass`` is the other: the exp-sinh engine's earlier one-loop
pass, which the engine's ``_pass`` must match bit for bit.  It reads the
package's node rows, and tests run it inside the package's level loop by
putting it in place of ``quadrature._pass``; only the pass is its own.
``reference_integrate`` is the level loop's: the engine's earlier
``integrate_semi_infinite``, which calls builtins for every abs, min, max
and finiteness test, driven by ``reference_pass``.
``route4_integrand`` is the fourth: ``routes.numeric_I``'s integrand as one
closure for every n, whose outcome the route's must match bit for bit.
"""

import math
from typing import Callable

import pytest

from logint import quadrature
from logint.verify import _check_lemma1


def euler_gamma(n_terms: int = 20_000) -> float:
    """Euler-Mascheroni constant from H_N - ln N, midpoint-corrected.

    Error is about 1/(120 N^4), far below 1e-15 at the default N.
    """
    harmonic = math.fsum(1.0 / k for k in range(1, n_terms + 1))
    return harmonic - math.log(n_terms) - 0.5 / n_terms + 1.0 / (12.0 * n_terms**2)


def zeta_partial(s: float, a: float = 1.0, n_terms: int = 40_000) -> float:
    """sum_{k>=0} (k+a)^(-s) by brute partial summation plus a tail integral.

    The tail uses the midpoint rule int_{N-1/2}^inf (x+a)^(-s) dx, whose
    error ~ s(s+1)/24 * N^(-s-1) stays below 1e-14 for s >= 2 at the
    default N.  No Bernoulli machinery, so it is independent of any
    Euler-Maclaurin implementation it may be used to check.
    """
    head = math.fsum((k + a) ** -s for k in range(n_terms))
    tail = (n_terms + a - 0.5) ** (1.0 - s) / (s - 1.0)
    return head + tail


def nested_central_diff(f, x: float, h: float, order: int) -> float:
    """order-fold nested central difference of f at x with step h."""
    if order == 0:
        return f(x)
    return (
        nested_central_diff(f, x + h, h, order - 1)
        - nested_central_diff(f, x - h, h, order - 1)
    ) / (2.0 * h)


def reference_I(n: float):
    """I(n) = -(pi/n)^2 cot(pi/n) csc(pi/n) as a 50-digit mpmath number.

    Skips the calling test when mpmath is not installed.  The result keeps
    its 50 digits whatever the caller's working precision, and mpmath
    rounds each operation once, so form(n) - reference_I(n) is the error
    of form(n) to within a rounding of the error itself.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.pi / mpmath.mpf(n)
        return -(x * x) * mpmath.cot(x) / mpmath.sin(x)


def lemma1_folded(m: int, z: float) -> Callable[[float], float]:
    """t -> f(t) + f(-t) on t > 0, f the lemma1 integrand, in one call.

    With f(-t) mirrored as in ``lemma1_integrand`` the pair is
    t^(m-1) (t / (1 - e^(-t))) (e^(-zt) + (-1)^(m+1) e^(-(1-z)t)).
    expm1 keeps t / (1 - e^(-t)) accurate at every t > 0, so no series
    branch is needed.  t^(m-1) times that ratio, not t^m divided by
    1 - e^(-t): for m = 3, t^m alone is 0 below t ~ 1e-108, where the pair,
    about 2t^2, is still a normal double.  Where both exponentials are 0
    the value is 0, returned before t^(m-1) could overflow.  Same (m, z)
    checks as ``lemma1_integrand``.  Integrated by exp-sinh it agrees with
    ``integrate_bilateral`` to 1e-15, but at m = 1, z = 0.4478 and 0.5523
    it claims an error of 1.6e-14 and 2.5e-14 and is 3.5e-13 off.
    """
    _check_lemma1(m, z)
    flip = 1.0 if m % 2 else -1.0
    power = m - 1
    w = 1.0 - z

    def folded(t: float) -> float:
        near = math.exp(-z * t)
        mirrored = math.exp(-w * t)
        if near == 0.0 and mirrored == 0.0:
            return 0.0
        return t**power * (t / -math.expm1(-t)) * (near + flip * mirrored)

    return folded


def reference_pass(g: Callable[[float], float], a: float, level: int) -> tuple[float, int]:
    """``quadrature._pass`` as one loop that range-tests every node.

    The exp-sinh pass as it was before the node table recorded each
    level's range ends: every row tests both sides for range and for life.
    g takes the offset from a, as the engine's pass does.  Kept verbatim
    as the bit-identity reference for the engine's pass.
    """
    used = 0
    total = 0.0
    comp = 0.0  # Kahan compensation; addition order is part of the contract
    near_alive = True  # t < 0, x slides down to a
    far_alive = True  # t > 0, x runs to infinity
    l1 = 0.0  # sum of |contribution| over the pass, both sides
    # The tail past a cut holds twice as many terms per level; halving
    # the bound from _MIN_LEVEL on keeps the mass it drops from growing.
    cut = quadrature._EPS * 0.5 ** max(0, level - quadrature._MIN_LEVEL)
    near_tiny = 0
    far_tiny = 0
    for far_w, grow, near_w, decay in quadrature._exp_sinh_level(level)[0]:
        contribution = 0.0
        if far_alive:
            x = a + grow
            if not (math.isfinite(far_w) and math.isfinite(x)):
                far_alive = False  # beyond representable range
            else:
                used += 1
                c = far_w * g(grow)
                size = abs(c)
                l1 += size
                if size <= cut * l1:
                    far_tiny += 1
                    if far_tiny >= 2:
                        far_alive = False
                else:
                    far_tiny = 0
                contribution += c
        if near_alive:
            x = a + decay
            if x <= a or near_w == 0.0:
                near_alive = False  # node rounded onto the endpoint
            else:
                used += 1
                c = near_w * g(decay)
                size = abs(c)
                l1 += size
                if size <= cut * l1:
                    near_tiny += 1
                    if near_tiny >= 2:
                        near_alive = False
                else:
                    near_tiny = 0
                contribution += c
        if not (near_alive or far_alive):
            break
        term = contribution - comp
        fresh = total + term
        comp = (fresh - total) - term
        total = fresh
    return total, used


def reference_integrate(
    f: Callable[[float], float],
    a: float,
    tol: float = quadrature._DEFAULT_TOL,
) -> quadrature.QuadratureOutcome:
    """``quadrature.integrate_semi_infinite`` as it was before its level
    loop traded builtin calls for comparisons, over ``reference_pass``.

    Kept verbatim, but for the package names it reads, as the bit-identity
    reference for the engine's level loop, including its nan, inf and -0.0
    handling.  It shares the argument checks and the node rows.
    """
    q = quadrature
    q._check_tol(tol)
    center = a + 1.0 if q._finite(a) else math.inf
    if not a < center < math.inf:  # a + 1 rounding onto a would sample a
        raise ValueError(f"lower limit must be finite with a + 1 > a, got {a!r}")

    g = f if a == 0.0 else lambda x: f(a + x)
    value = q._HALF_PI * f(center)  # evaluation 1, before level 0's pass
    partial, used = reference_pass(g, a, 0)
    value, used = value + partial, used + 1
    err = math.inf
    before = last = math.nan  # d_-1 and d_0; nan until two differences exist
    h = 1.0
    for level in range(1, q._MAX_LEVEL + 1):
        h *= 0.5
        partial, calls = reference_pass(g, a, level)
        used += calls
        refined = 0.5 * value + h * partial
        diff = abs(refined - value)
        err = diff
        if 0.0 < last < before < math.inf:
            err = diff * min(1.0, 10.0 * max(diff / last, (last / before) ** 2))
        before, last = last, diff
        value = refined
        scale = max(1.0, abs(value))
        err = max(err, q._EPS * scale)
        if not (math.isfinite(value) and math.isfinite(err)):
            return q.QuadratureOutcome(value, err, used, False)
        if err <= tol * scale and level >= q._MIN_LEVEL:
            return q.QuadratureOutcome(value, err, used, True)
    return q.QuadratureOutcome(value, err, used, False)


def route4_integrand(n: float) -> Callable[[float], float]:
    """``routes.numeric_I``'s integrand as one closure for every n > 1.

    It negates rate and multiplies by the factor, 1.0 for n >= 2, on every
    call, where the route forms -rate once and leaves the 1.0 out.  Kept
    as the bit-identity reference for the route's two closures.
    """
    v = float(n)
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

    return integrand
