#!/usr/bin/env python3
"""Fit the scaled residual (I(n) + 1) n^2 along decades of n.

The residual decays like C/n^2; printing C per decade shows it settling
near pi^2/6 = trigamma(1), the leading curvature of the closed form.
From n ~ 1e5 on the fits drift from pi^2/6 far beyond the 1/n^2 trend
(by 2e-6 at n = 1e5 and 2e-2 at 1e7): ``limit_probe`` forms the residual
as I(n) + 1.0, which cancels to rounding noise there.  That cancellation
is the known residual defect of ``limit_probe`` (ROADMAP item 3), not a
property of the limit; the last decades print the defect, not C.
"""

import math

from logint.routes import limit_probe


def main() -> None:
    rows = limit_probe([10.0**k for k in range(1, 8)])
    reference = math.pi**2 / 6.0
    print(f"{'n':>12s} {'I(n)+1':>14s} {'fit C':>18s} {'C - pi^2/6':>14s}")
    for n, _, residual in rows:
        fit = residual * n * n
        print(f"{n:12.0f} {residual:14.6e} {fit:18.12f} {fit - reference:14.3e}")
    print("\nratios of successive fits:")
    fits = [r * n * n for n, _, r in rows]
    for (n, _, _), a, b in zip(rows[1:], fits, fits[1:]):
        print(f"  up to n = {n:<10.0f} ratio {b / a:.8f}")


if __name__ == "__main__":
    main()
