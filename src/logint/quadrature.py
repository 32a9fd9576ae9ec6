"""Deterministic double-exponential quadrature on plain Python floats.

``integrate_semi_infinite`` applies the exp-sinh transform, which soaks up
an integrable singularity at the lower limit and the unbounded tail
without any subdivision logic, and ``integrate_bilateral`` folds the real
line at zero into one half-line integral of f(t) + f(-t).  Every route
integral runs on these two.  ``integrate_finite``, the tanh-sinh analogue
for finite intervals, is defined in ``tanh_sinh``, which no route calls:
``__getattr__`` imports it on first access and binds the name here, so
``quadrature.integrate_finite`` works as ever while ``logint eval`` and
``logint table`` never compile it.  Both transforms share the
level-doubling loop, the error estimate and the ``tol`` rule below.

Refinement halves the trapezoid step once per level.  The nodes of a level
do not depend on the interval, so each transform keeps one list of row
tuples per level, and only the products with the interval (weight scale,
abscissa offset) are formed per call.  Levels 0 to _LAST_CACHED_LEVEL = 5
are built on first use and cached (about 73 kB for both transforms): every
route integral (numeric_I, the lemma1 integrals) converges by level 5 at
any tol from 1e-6 to 1e-15.  A finer level is built again on each pass
that asks for it, 10 to 14 ms per call for levels 6 to 12 together, a
cost only calls that walk past level 5 pay.  Nodes are visited in a fixed
center-outward order, abscissas are formed as offsets from the nearest
endpoint (so no precision is lost next to a singularity), partial sums use
compensated (Kahan) accumulation in that same order, and the error
estimate extrapolates from the last three level-to-level differences,
floored at machine precision of max(1, |value|).  Identical inputs
therefore produce bit-identical outcomes, whether or not a level was
cached.  A non-finite value or error estimate is never reported as
converged.

Each side of a level's node ladder ends on its own: a tanh-sinh side once
its abscissa rounds onto the endpoint, an exp-sinh side once two
consecutive contributions fall to eps times the pass's running sum of
|contribution|, a bound that halves per level from level _MIN_LEVEL on (or
once the far abscissa overflows, or the near one rounds onto a).  Mass
that lies behind such a gap, past two nodes that are negligible on that
scale, is missed.

The one setting is ``tol``: a call converges once its error estimate is
at most tol * max(1, |value|), from level _MIN_LEVEL on.  Refinement stops
at level _MAX_LEVEL, which also bounds the evaluation count.
"""

from __future__ import annotations

import math
import sys
from itertools import count
from typing import Callable, NamedTuple

__all__ = [
    "QuadratureOutcome",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_bilateral",
]


def __getattr__(name: str) -> object:
    """Import ``tanh_sinh`` for ``integrate_finite`` and bind it here.

    The only name in ``__all__`` that this module does not define; any
    other missing name is an AttributeError, as usual.
    """
    if name != "integrate_finite":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .tanh_sinh import integrate_finite

    globals()[name] = integrate_finite
    return integrate_finite


_EPS = sys.float_info.epsilon
_HALF_PI = math.pi / 2.0

# The first level that may claim convergence, the first with three level
# differences behind its error estimate.
_MIN_LEVEL = 3

# The finest level, h = 2^-12.  It bounds the evaluations of every call.
_MAX_LEVEL = 12

# The finest level whose nodes are cached; finer ones are built per pass.
_LAST_CACHED_LEVEL = _MIN_LEVEL + 2


class QuadratureOutcome(NamedTuple):
    """Result of one integration: value, error claim, and effort spent."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# Node tables, one per level; the tanh-sinh one is ``tanh_sinh._TANH_SINH``.
# Level 0 holds k = 1, 2, ... at h = 1; level L >= 1 holds the odd k at
# h = 2^-L.  A table is a list of row tuples of what does not depend on the
# interval, so a pass walks it without boxing a new float per node.
# Threads that race to build a level build identical tables, so setdefault
# is all the locking needed.
_Row = tuple[float, float, float, float]
_EXP_SINH: dict[int, list[_Row]] = {}


def _exp_sinh_level(level: int) -> list[_Row]:
    """Rows (base*grow, grow, base*decay, decay), up to where both die.

    Past y = 709 exp(y) would overflow, so grow is stored as inf there and
    the far side stops on its non-finite weight; the table ends where the
    near weight underflows to zero as well.
    """
    table = _EXP_SINH.get(level)
    if table is not None:
        return table
    h = 0.5**level
    rows = []
    for k in count(1, 2 if level else 1):
        t = k * h
        y = _HALF_PI * math.sinh(t)
        base = _HALF_PI * math.cosh(t)
        grow = math.exp(y) if y <= 709.0 else math.inf
        decay = math.exp(-y)
        if base * decay == 0.0 and not math.isfinite(base * grow):
            break
        rows.append((base * grow, grow, base * decay, decay))
    return rows if level > _LAST_CACHED_LEVEL else _EXP_SINH.setdefault(level, rows)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"quadrature tolerance must be finite and > 0, got {tol!r}")


def _refine(
    center: float,
    pair_sum: Callable[[int, int], tuple[float, int]],
    tol: float,
) -> QuadratureOutcome:
    """Shared level-doubling loop: halve h, reuse the previous sum.

    ``pair_sum(level, used)`` walks one level's nodes and returns their
    weighted sum and the evaluation count so far.  The loop stops, not
    converged, on a non-finite value or error estimate, or after level
    _MAX_LEVEL.  It claims convergence only from level _MIN_LEVEL on, once
    three level differences exist: one difference alone can be far too
    small at a coarse level.

    The error estimate extrapolates from the last three level-to-level
    differences d_-1, d_0, d_1 (after Borwein, Bailey and Girgensohn):
    once they shrink, it is d_1 * min(1, 10 * max(d_1/d_0, (d_0/d_-1)^2)),
    otherwise d_1 itself.  A DE rule at best squares its convergence ratio
    per level, so a drop faster than (d_0/d_-1)^2 is a lucky cancellation
    and is not trusted.  No estimate is claimed below roundoff on the stop
    rule's own scale, eps * max(1, |value|): an integrand that cancels
    carries noise of order eps times its terms, not eps times its sum.
    """
    partial, used = pair_sum(0, 1)  # the center was evaluation 1
    value = center + partial
    err = math.inf
    before = last = math.nan  # d_-1 and d_0; nan until two differences exist
    h = 1.0
    for level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        partial, used = pair_sum(level, used)
        refined = 0.5 * value + h * partial
        diff = abs(refined - value)
        err = diff
        if 0.0 < last < before < math.inf:
            err = diff * min(1.0, 10.0 * max(diff / last, (last / before) ** 2))
        before, last = last, diff
        value = refined
        scale = max(1.0, abs(value))
        if err < _EPS * scale:
            err = _EPS * scale
        if not (math.isfinite(value) and math.isfinite(err)):
            return QuadratureOutcome(value, err, used, False)
        if err <= tol * scale and level >= _MIN_LEVEL:
            return QuadratureOutcome(value, err, used, True)
    return QuadratureOutcome(value, err, used, False)


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    tol: float = 1e-10,
) -> QuadratureOutcome:
    """Integrate f over (a, inf); f must decay fast enough to be integrable.

    The exp-sinh change of variables x = a + exp((pi/2) sinh t) compresses
    both the approach to a and the unbounded tail double-exponentially.
    An integrable singularity at a is fine; a is never sampled.

    Within a level each side walks outward until two consecutive
    contributions are at most eps times the running sum of |contribution|
    over the level's pass, both sides counted: below that they cannot
    change the rounded sum.  From level _MIN_LEVEL on that bound halves
    per level, so the tail a cut drops does not grow as the nodes get
    denser.  A single such contribution, an exact zero of f say, does not
    end a side.  The limit: mass behind a gap of two nodes that are
    negligible on that scale is missed.
    """
    _check_tol(tol)
    if not math.isfinite(a):
        raise ValueError(f"lower limit must be finite, got {a!r}")

    def pair_sum(level: int, used: int) -> tuple[float, int]:
        total = 0.0
        comp = 0.0  # Kahan compensation; addition order is part of the contract
        near_alive = True  # t < 0, x slides down to a
        far_alive = True  # t > 0, x runs to infinity
        l1 = 0.0  # sum of |contribution| over the pass, both sides
        # The tail past a cut holds twice as many terms per level; halving
        # the bound from _MIN_LEVEL on keeps the mass it drops from growing.
        cut = _EPS * 0.5 ** max(0, level - _MIN_LEVEL)
        near_tiny = 0
        far_tiny = 0
        for far_w, grow, near_w, decay in _exp_sinh_level(level):
            contribution = 0.0
            if far_alive:
                x = a + grow
                if not (math.isfinite(far_w) and math.isfinite(x)):
                    far_alive = False  # beyond representable range
                else:
                    used += 1
                    c = far_w * f(x)
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
                    c = near_w * f(x)
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

    return _refine(_HALF_PI * f(a + 1.0), pair_sum, tol)


def integrate_bilateral(
    f: Callable[[float], float],
    tol: float = 1e-10,
) -> QuadratureOutcome:
    """Integrate f over the whole real line, folded at zero.

    Implemented as one half-line integral of f(t) + f(-t), so a removable
    singularity at 0 never gets sampled; the caller supplies the
    limit-safe integrand.  The error estimate is the folded integral's
    own.  The evaluation count is in calls of f, two per node.
    """
    folded = integrate_semi_infinite(lambda t: f(t) + f(-t), 0.0, tol)
    return folded._replace(evaluations=2 * folded.evaluations)
