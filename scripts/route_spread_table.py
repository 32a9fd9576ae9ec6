#!/usr/bin/env python3
"""Sweep a log-spaced n grid and report how far the four routes drift apart.

A quick way to see which n make the routes disagree most (the spread is
absolute, so it grows with |I| as n -> 1) and how the quadrature cost
scales with n.
"""

import argparse

from logint.cli_table import _grid
from logint.routes import evaluate_all_routes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min", type=float, default=1.1)
    parser.add_argument("--max", type=float, default=1e3)
    parser.add_argument("--steps", type=int, default=25)
    args = parser.parse_args()

    grid = _grid(args.min, args.max, args.steps, "log")

    print(f"{'n':>12s} {'I(n)':>22s} {'spread':>12s} {'quad evals':>11s} {'converged':>10s}")
    worst = (0.0, None)
    for n in grid:
        row = evaluate_all_routes(n)
        if row.max_pairwise_spread > worst[0]:
            worst = (row.max_pairwise_spread, n)
        print(
            f"{n:12.5g} {row.trig_form:22.15g} {row.max_pairwise_spread:12.3e}"
            f" {row.quadrature.evaluations:11d} {str(row.quadrature.converged):>10s}"
        )
    print(f"\nworst spread {worst[0]:.3e} at n = {worst[1]:.5g}")


if __name__ == "__main__":
    main()
