"""Deterministic double-exponential quadrature on plain Python floats.

There is one engine: ``integrate_semi_infinite`` applies the exp-sinh
transform, which soaks up an integrable singularity at the lower limit
and the unbounded tail without any subdivision logic.  The two other
entry points are changes of variables on it.  ``integrate_bilateral``
folds the real line at zero into one half-line integral of f(t) + f(-t).
``integrate_finite`` maps (0, inf) onto (a, b) by
x = a + (b - a) u^2/(1 + u^2); on the exp-sinh nodes u = exp((pi/2) sinh t)
that gives x = mid + halfspan * tanh((pi/2) sinh t) and the tanh-sinh
weights, so it is the tanh-sinh rule walked on the exp-sinh ladder.  The
quadrature route ``numeric_I`` and the lemma1 verifier call
``integrate_semi_infinite`` itself; nothing in the package calls the other
two entry points, so they live in ``quadrature_maps``.  Their names, listed
once in ``_MAPS``, end this module's ``__all__`` and are served lazily from
``quadrature_maps`` (see ``logint._lazy_exports``).

Refinement halves the trapezoid step once per level:
``integrate_semi_infinite`` runs the level loop, and ``_pass`` walks one
level's nodes and returns their weighted sum and its integrand calls.  The
nodes of a level do not depend on the integrand, so the engine keeps one
list of row tuples per level, and with it where each side's range ends over
a lower limit of 0 (the row where the far weight stops being finite and the
row where the near weight reaches 0) and the stop cut, all found while the
level is built.  A pass walks the rows where both sides are in range with no
range tests, then the side still going alone, in place.  A lower limit
a != 0 walks the same rows and shifts the integrand to x -> f(a + x); its
near side ends sooner, at the first row where a + x rounds onto a.  Levels 0
to _LAST_CACHED_LEVEL = 5 are built on first use and cached (about 40 kB):
every route integral (numeric_I, the lemma1 integrals) converges by level 5
at any tol from 1e-6 to 1e-15.  A finer level is built again on each pass
that asks for it, a cost only calls that walk past level 5 pay.  Nodes are
visited in a fixed center-outward order, abscissas are formed as offsets
from the nearest endpoint (so no precision is lost next to a singularity),
partial sums use compensated (Kahan) accumulation in that same order, and
the error estimate extrapolates from the last three level-to-level
differences, floored at machine precision of max(1, |value|).  Identical
inputs therefore produce bit-identical outcomes, whether or not a level was
cached.  A non-finite value or error estimate is never reported as
converged.

Each side of a level's node ladder ends on its own, by ``_pass``'s stop
rule, or once the far abscissa overflows or the near one rounds onto the
lower limit.  For ``integrate_finite`` the sides run from the midpoint to
a and to b, so the mass of a piecewise integrand behind a zero plateau
next to the midpoint can be missed.

The one setting is ``tol``: a call converges once its error estimate is
at most tol * max(1, |value|), from level _MIN_LEVEL on.  Refinement stops
at level _MAX_LEVEL, which also bounds the evaluation count.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from itertools import count
from operator import length_hint
from typing import Callable, NamedTuple

from . import _lazy_exports

# The entry points that quadrature_maps defines, served lazily.
_MAPS = ("integrate_finite", "integrate_bilateral")

__all__ = [
    "QuadratureOutcome",
    "integrate_semi_infinite",
    *_MAPS,
]
__getattr__ = _lazy_exports(globals(), dict.fromkeys(_MAPS, "logint.quadrature_maps"))

_EPS = sys.float_info.epsilon
_HALF_PI = math.pi / 2.0
_DEFAULT_TOL = 1e-10  # also the routes', the verifiers' and --quad-tol's default

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


# The node table, one record per level.  Level 0 holds k = 1, 2, ... at
# h = 1; level L >= 1 holds the odd k at h = 2^-L.  A record is a list of
# row tuples of what does not depend on the integrand, so a pass walks it
# without boxing a new float per node, the two range ends of a pass with
# lower limit 0 (the far side runs over rows[:far_end], the near side over
# rows[:near_end]) and the pass's stop cut.  Every lower limit reads these
# rows; a != 0 only cuts the near side shorter.
# Threads that race to build a level build identical tables, so setdefault
# is all the locking needed.
_Row = tuple[float, float, float, float]
_Level = tuple[list[_Row], list[_Row], int, int, float]
_EXP_SINH: dict[int, _Level] = {}


def _exp_sinh_level(level: int) -> _Level:
    """Rows (base*grow, grow, base*decay, decay), each side's end, and the cut.

    Past y = 709 exp(y) would overflow, so grow is stored as inf there; the
    far side ends at the first row whose weight base*grow is not finite.
    The near side ends at the first row whose weight base*decay is 0: there
    decay, its abscissa over a lower limit of 0, has underflowed.  The table
    ends where both sides have.  The rows hold offsets from the lower limit,
    so they serve every a; the pass over a != 0 finds its own near end.
    """
    table = _EXP_SINH.get(level)
    if table is not None:
        return table
    h = 0.5**level
    rows = []
    far_end = near_end = -1
    for k in count(1, 2 if level else 1):
        t = k * h
        y = _HALF_PI * math.sinh(t)
        base = _HALF_PI * math.cosh(t)
        grow = math.exp(y) if y <= 709.0 else math.inf
        decay = math.exp(-y)
        far_w = base * grow
        near_w = base * decay
        if far_end < 0 and not math.isfinite(far_w):
            far_end = len(rows)
        if near_end < 0 and near_w == 0.0:
            near_end = len(rows)
        if far_end >= 0 and near_end >= 0:
            break
        rows.append((far_w, grow, near_w, decay))
    cut = _EPS * 0.5 ** (level - _MIN_LEVEL) if level > _MIN_LEVEL else _EPS
    table = (rows, rows[: min(far_end, near_end)], far_end, near_end, cut)
    return table if level > _LAST_CACHED_LEVEL else _EXP_SINH.setdefault(level, table)


def _finite(x: float) -> bool:
    """math.isfinite, but False for an int beyond the double range, not OverflowError."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_tol(tol: float) -> None:
    if not (_finite(tol) and tol > 0.0):
        raise ValueError(f"quadrature tolerance must be finite and > 0, got {tol!r}")


def _pass(g: Callable[[float], float], a: float, level: int) -> tuple[float, int]:
    """One level's weighted sum of g over its nodes, and the calls of g made.

    g is the integrand as a function of the offset x from the lower limit a.
    Within a level each side walks outward until two consecutive
    contributions are at most eps times the running sum of |contribution|
    over the pass, both sides counted: below that they cannot change the
    rounded sum.  From level _MIN_LEVEL on that bound halves per level, so
    the tail a cut drops does not grow as the nodes get denser.  A single
    such contribution, an exact zero of g say, does not end a side.  The
    limit: mass behind a gap of two nodes that are negligible on that scale
    is missed.  The bound is the level record's cut; the side that goes on
    alone walks the record's rows in place.
    """
    rows, both, far_end, near_end, cut = _exp_sinh_level(level)
    if a != 0.0:  # a + decay falls with the row, so bisect finds its end
        near_end = bisect_left(rows, True, hi=near_end, key=lambda row: a + row[3] <= a)
        both = both[:near_end]
    total = 0.0
    comp = 0.0  # Kahan compensation; addition order is part of the contract
    l1 = 0.0  # sum of |contribution| over the pass, both sides
    far_tiny = 0  # t > 0, x runs to infinity
    near_tiny = 0  # t < 0, x slides down to a
    # Both sides, until one of them goes quiet or runs out of range.  A
    # size is |c| without a call; for c = -0.0 or a nan it may keep the
    # sign, which no comparison sees.
    walk = iter(both)
    for far_w, far_x, near_w, near_x in walk:
        c = far_w * g(far_x)
        size = c if c >= 0.0 else -c
        l1 += size
        if size <= cut * l1:
            far_tiny += 1
        else:
            far_tiny = 0
        d = near_w * g(near_x)
        size = d if d >= 0.0 else -d
        l1 += size
        if size <= cut * l1:
            near_tiny += 1
        else:
            near_tiny = 0
        if far_tiny >= 2 and near_tiny >= 2:
            break  # both stop on this row, and it is dropped
        term = (c + d) - comp
        fresh = total + term
        comp = (fresh - total) - term
        total = fresh
        if far_tiny >= 2 or near_tiny >= 2:
            break
    start = len(both) - length_hint(walk)  # rows walked, the last included
    # Then the side still going, alone, up to its own range end.
    if far_tiny < 2 and far_end > start:
        side, end, tiny = 0, far_end, far_tiny
    elif near_tiny < 2 and near_end > start:
        side, end, tiny = 2, near_end, near_tiny
    else:
        return total, 2 * start
    for i in range(start, end):
        row = rows[i]
        c = row[side] * g(row[side + 1])
        size = c if c >= 0.0 else -c
        l1 += size
        if size <= cut * l1:
            tiny += 1
            if tiny >= 2:
                return total, start + i + 1  # the last side stops: its row is dropped
        else:
            tiny = 0
        term = c - comp
        fresh = total + term
        comp = (fresh - total) - term
        total = fresh
    return total, start + end


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    tol: float = _DEFAULT_TOL,
) -> QuadratureOutcome:
    """Integrate f over (a, inf); f must decay fast enough to be integrable.

    The exp-sinh change of variables x = a + exp((pi/2) sinh t) compresses
    both the approach to a and the unbounded tail double-exponentially.
    An integrable singularity at a is fine; a is never sampled.  So a must
    be finite with a + 1 > a, that is -2^53 <= a < 2^53: beyond, the
    center node a + 1 rounds onto a, and ValueError is raised before f is
    called.  Every a walks the same cached nodes: the pass integrates
    x -> f(a + x) over (0, inf), and its near side ends at the first node
    where a + x rounds onto a.  The far side ends where it does over 0:
    x <= e^709 and |a| <= 2^53, so a + x is finite wherever the weight is.
    No double lies within half an ulp above a, so the mass f holds there
    is missed, and the error estimate does not see it: 2 sqrt(ulp(a)/2),
    about 3e-8 at a = 2.5, for 1/sqrt(x - a).

    Each level halves h and reuses the previous sum.  The loop stops, not
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
    _check_tol(tol)
    center = a + 1.0 if _finite(a) else math.inf
    if not a < center < math.inf:  # a + 1 rounding onto a would sample a
        raise ValueError(f"lower limit must be finite with a + 1 > a, got {a!r}")

    g = f if a == 0.0 else lambda x: f(a + x)
    value = _HALF_PI * f(center)  # evaluation 1, before level 0's pass
    partial, used = _pass(g, a, 0)
    value, used = value + partial, used + 1
    isfinite = math.isfinite
    before = last = math.nan  # d_-1 and d_0; nan until two differences exist
    h = 1.0
    for level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        partial, calls = _pass(g, a, level)
        used += calls
        refined = 0.5 * value + h * partial
        diff = refined - value
        if not isfinite(diff):  # refined or value is nan or inf; so is err
            return QuadratureOutcome(refined, abs(diff), used, False)
        if diff <= 0.0:
            diff = 0.0 - diff  # abs(diff), +0.0 for either zero
        err = diff
        if 0.0 < last < before:  # every difference kept is finite
            ratio = diff / last
            square = (last / before) ** 2
            ratio = 10.0 * (square if square > ratio else ratio)
            if ratio < 1.0:
                err = diff * ratio
        before, last = last, diff
        value = refined
        scale = value if value > 1.0 else -value if value < -1.0 else 1.0
        floor = _EPS * scale
        if err < floor:
            err = floor
        if err <= tol * scale and level >= _MIN_LEVEL:
            return QuadratureOutcome(value, err, used, True)
    return QuadratureOutcome(value, err, used, False)
