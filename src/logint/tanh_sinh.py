"""The tanh-sinh transform for finite intervals.

``integrate_finite`` maps (a, b) onto the real line by
x = mid + halfspan * tanh((pi/2) sinh t), which soaks up integrable
endpoint singularities (ln x, inverse square roots) without any
subdivision logic.  It shares the level-doubling loop, the error estimate,
the ``tol`` rule and the level cap with the exp-sinh engine in
``quadrature``, and keeps its own node table, cached for levels 0 to
``quadrature._LAST_CACHED_LEVEL`` like the exp-sinh one.  Each side of a
level's ladder ends once its abscissa rounds onto the endpoint.

No route calls this engine, so ``logint eval`` and ``logint table`` never
load this module: ``quadrature.integrate_finite`` imports it on first
access (PEP 562).
"""

from __future__ import annotations

import math
from itertools import count
from typing import Callable

from .quadrature import (
    _HALF_PI,
    _LAST_CACHED_LEVEL,
    QuadratureOutcome,
    _check_tol,
    _refine,
    _Row,
)

__all__ = ["integrate_finite"]

# Node tables by level, laid out as ``quadrature._EXP_SINH`` is.
_TANH_SINH: dict[int, list[_Row]] = {}


def _tanh_sinh_level(level: int) -> list[_Row]:
    """Rows (cosh t, q, (1+q)^2, 2q/(1+q) = 1 - |tanh|), up to the first q == 0."""
    table = _TANH_SINH.get(level)
    if table is not None:
        return table
    h = 0.5**level
    rows = []
    for k in count(1, 2 if level else 1):
        t = k * h
        y = _HALF_PI * math.sinh(t)
        q = math.exp(-2.0 * y)
        if q == 0.0:
            break  # weights underflow from here on
        one_plus = 1.0 + q
        rows.append((math.cosh(t), q, one_plus * one_plus, 2.0 * q / one_plus))
    return rows if level > _LAST_CACHED_LEVEL else _TANH_SINH.setdefault(level, rows)


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> QuadratureOutcome:
    """Integrate f over the open interval (a, b), both endpoints finite.

    The endpoints themselves are never passed to f: abscissas are built as
    offsets from the nearer endpoint, and a node whose offset rounds away
    entirely is dropped (its transform weight is negligible by then).
    Integrable endpoint singularities of log or inverse-power type are
    handled without any special casing.
    """
    _check_tol(tol)
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError(f"need finite a < b, got a={a!r}, b={b!r}")
    halfspan = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    scale = halfspan * _HALF_PI

    def pair_sum(level: int, used: int) -> tuple[float, int]:
        total = 0.0
        comp = 0.0  # Kahan compensation; addition order is part of the contract
        left_alive = True
        right_alive = True
        for ch, q, opsq, r in _tanh_sinh_level(level):
            w = scale * ch * 4.0 * q / opsq
            offset = halfspan * r
            contribution = 0.0
            if left_alive:
                x = a + offset
                if x <= a:
                    left_alive = False  # node rounded onto the endpoint
                else:
                    used += 1
                    contribution += w * f(x)
            if right_alive:
                x = b - offset
                if x >= b:
                    right_alive = False
                else:
                    used += 1
                    contribution += w * f(x)
            if not (left_alive or right_alive):
                break
            term = contribution - comp
            fresh = total + term
            comp = (fresh - total) - term
            total = fresh
        return total, used

    return _refine(scale * f(mid), pair_sum, tol)
