"""Reference values from mpmath, computed independently of logint.

The integral has the closed form I(n) = -(pi/n)^2 cot(pi/n) csc(pi/n),
which mpmath evaluates here at 40 significant digits; the benchmark's tests
check it against mpmath's own quadrature of the defining integral.  The lemma1
references are the polygamma side of that identity, also at 40 digits.
logint never imports mpmath; only this module does.
"""

from __future__ import annotations

import mpmath

DIGITS = 40


def integral(n: float) -> float:
    with mpmath.workdps(DIGITS):
        x = mpmath.pi / mpmath.mpf(n)
        return float(-(x * x) * mpmath.cot(x) / mpmath.sin(x))


def lemma1(m: int, z: float) -> float:
    """psi^(m)(1-z) + (-1)^(m+1) psi^(m)(z), the closed side of lemma1."""
    with mpmath.workdps(DIGITS):
        z_mp = mpmath.mpf(z)
        sign = 1 if m % 2 else -1
        return float(mpmath.psi(m, 1 - z_mp) + sign * mpmath.psi(m, z_mp))


def references(exponents: list[float], lemma1_points: list[tuple[int, float]]) -> dict:
    """Reference tables keyed by repr of the input, as the worker looks them up."""
    return {
        "I": {repr(n): integral(n) for n in exponents},
        "lemma1": {f"{m}:{z!r}": lemma1(m, z) for m, z in lemma1_points},
    }
