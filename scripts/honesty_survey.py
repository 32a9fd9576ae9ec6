#!/usr/bin/env python3
"""Survey the quadrature engine's error claims against 40-digit mpmath.

For each family of integrals and each tolerance it prints the mean and
the largest evaluation count, how many outcomes converged, how many of
those are dishonest (|value - ref| > 10 * error estimate) and the worst
ratio |value - ref| / error estimate.  The families are:

* sweep/<seed> - numeric_I at n - 1 log-uniform on [10^-1.3, 10^2.7],
  drawn stratified exactly as perfbench draws the `sweep` pool of a seed;
* full/<seed> - the same on [1e-3, 1e4], perfbench's full-range probe;
* lemma1 - the lemma1 integral for m = 1, 2, 3 on an even z grid over
  [0.1, 0.9], as ``verify_lemma1`` integrates it: folded at zero and
  taken in u = min(z, 1-z) t / 2 (one call of the scaled integrand per
  node);
* known - twelve integrals with closed-form values, on all three entry
  points (the bilateral one through three of them).

It exits 1 if any converged outcome is dishonest.  Needs mpmath.

    python scripts/honesty_survey.py                      # the full survey
    python scripts/honesty_survey.py --count 64 --tols 1e-4 1e-10
"""

import argparse
import math
import random
import sys

import mpmath

from logint.quadrature import integrate_bilateral, integrate_finite, integrate_semi_infinite
from logint.routes import numeric_I
from logint.verify import _lemma1_scaled

DISHONEST_FACTOR = 10.0
TOLS = [10.0**-k for k in range(4, 16)]


def exponents(name, seed, count, lo, hi):
    """perfbench's stratified log-uniform draw of n - 1 for one seed."""
    rng = random.Random(f"{name}/{seed}")
    return [1.0 + 10.0 ** (lo + (hi - lo) * (i + rng.random()) / count) for i in range(count)]


def trig_reference(n):
    x = mpmath.pi / mpmath.mpf(n)
    return -(x**2) * mpmath.cot(x) / mpmath.sin(x)


def lemma1_reference(m, z):
    w = mpmath.mpf(z)
    return mpmath.polygamma(m, 1 - w) + (-1) ** (m + 1) * mpmath.polygamma(m, w)


def half_exponential(t):
    """t e^(-t/2) / (1 - e^(-t)), symmetric in t, series-patched at 0."""
    if abs(t) < 1e-4:
        return math.exp(-0.5 * t) * (1.0 + t * (0.5 + t / 12.0) - t**4 / 720.0)
    u = abs(t)
    return u * math.exp(-0.5 * u) / (1.0 - math.exp(-u))


def known_cases():
    """(run(tol), reference) for twelve integrals with closed forms."""
    return [
        (lambda c: integrate_finite(math.log, 0.0, 1.0, c), -1),
        (lambda c: integrate_finite(math.sin, 0.0, math.pi, c), 2),
        (lambda c: integrate_finite(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, c), 2),
        (lambda c: integrate_finite(lambda x: x**3, 0.0, 1.0, c), mpmath.mpf(1) / 4),
        (lambda c: integrate_finite(lambda x: 1.0 / (1.0 + x * x), 0.0, 2.0, c), mpmath.atan(2)),
        (lambda c: integrate_semi_infinite(lambda x: math.exp(-x), 0.0, c), 1),
        (lambda c: integrate_semi_infinite(lambda x: math.exp(-x * x), 0.0, c), mpmath.sqrt(mpmath.pi) / 2),
        (lambda c: integrate_semi_infinite(lambda x: x * math.exp(-x), 0.0, c), 1),
        (lambda c: integrate_semi_infinite(lambda x: 1.0 / (x * x), 1.0, c), 1),
        (lambda c: integrate_bilateral(lambda t: math.exp(-t * t), c), mpmath.sqrt(mpmath.pi)),
        (lambda c: integrate_bilateral(lambda t: t * math.exp(-t * t), c), 0),
        (lambda c: integrate_bilateral(half_exponential, c), mpmath.pi**2),
    ]


def families(seeds, count, lemma1_z):
    """name -> list of (run(tol), reference)."""
    out = {}
    for label, name, lo, hi in (("sweep", "sweep", -1.3, 2.7), ("full", "sweep/probe", -3.0, 4.0)):
        for seed in seeds:
            out[f"{label}/{seed}"] = [
                (lambda c, n=n: numeric_I(n, c), trig_reference(n))
                for n in exponents(name, seed, count, lo, hi)
            ]
    zs = [0.1 + 0.8 * i / (lemma1_z - 1) for i in range(lemma1_z)] if lemma1_z > 1 else [0.5]
    out["lemma1"] = [
        (lambda c, m=m, z=z: integrate_semi_infinite(_lemma1_scaled(m, z), 0.0, c), lemma1_reference(m, z))
        for m in (1, 2, 3)
        for z in zs
    ]
    out["known"] = known_cases()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--count", type=int, default=1024, help="exponents per sweep/full pool")
    parser.add_argument("--lemma1-z", type=int, default=41, help="z points per lemma1 order")
    parser.add_argument("--tols", type=float, nargs="+", default=TOLS)
    args = parser.parse_args()
    mpmath.mp.dps = 40

    print(f"{'family':>8s} {'tol':>8s} {'outcomes':>8s} {'converged':>9s} "
          f"{'mean evals':>10s} {'max evals':>9s} {'dishonest':>9s} {'worst ratio':>11s}")
    total = 0
    for name, cases in families(args.seeds, args.count, args.lemma1_z).items():
        for tol in args.tols:
            evals = most = converged = dishonest = 0
            worst = 0.0
            for run, ref in cases:
                outcome = run(tol)
                evals += outcome.evaluations
                most = max(most, outcome.evaluations)
                if not outcome.converged:
                    continue
                converged += 1
                miss = float(abs(outcome.value - ref))
                if not miss <= DISHONEST_FACTOR * outcome.error_estimate:
                    dishonest += 1
                worst = max(worst, miss / outcome.error_estimate)
            total += dishonest
            print(f"{name:>8s} {tol:8.0e} {len(cases):8d} {converged:9d} "
                  f"{evals / len(cases):10.1f} {most:9d} {dishonest:9d} {worst:11.3g}")
    print(f"\ndishonest outcomes: {total}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
