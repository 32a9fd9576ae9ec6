"""The ``table`` command of the command-line front end: its grid and handler.

``cli`` imports this module only when ``table`` runs, so a cold ``logint
eval``, ``verify`` or ``limit`` never compiles it.  The handler reaches the
shared output path, the row and number formatting, the field list and the
exit codes through the ``cli`` module (``cli._emit``, ``cli._row_dict``,
``cli._fmt10``, ``cli.EXIT_OK``), where a caller or a test may replace them.
"""

from __future__ import annotations

import argparse
import math

from . import cli, routes

# The most rows one ``table`` builds; the whole grid is held in memory.
_MAX_TABLE_STEPS = 1_000_000


def _grid(n_min: float, n_max: float, steps: int, spacing: str) -> list[float]:
    for flag, value in (("--min", n_min), ("--max", n_max)):
        if not math.isfinite(value):  # an infinite span puts nan or inf in the grid
            raise ValueError(f"{flag}: exponent must be finite, got {value!r}")
    if not (n_min > 1.0 and n_max > n_min):
        raise ValueError(
            f"need 1 < min < max, got min={n_min!r}, max={n_max!r}"
        )
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps!r}")
    if steps > _MAX_TABLE_STEPS:
        raise ValueError(f"--steps: at most {_MAX_TABLE_STEPS} rows, got {steps!r}")
    if spacing == "log":
        ratio, last = n_max / n_min, steps - 1
        # n_min * ratio**1.0 can round past n_max, even to inf; end on n_max
        return [n_min * ratio ** (i / last) for i in range(last)] + [n_max]
    span, last = n_max - n_min, steps - 1
    # where span * i overflows, scale first; elsewhere keep the pinned grid.
    # n_min + span can round off n_max by an ulp; end on n_max
    return [n_min + (span * i / last if math.isfinite(span * i) else span * (i / last))
            for i in range(last)] + [n_max]


def _run_table(args: argparse.Namespace) -> int:
    grid = _grid(args.min, args.max, args.steps, args.spacing)
    rows = [routes.evaluate_all_routes(n, args.quad_tol) for n in grid]

    def human() -> None:
        print(f"{'n':>14s} {'I(n)':>20s} {'spread':>12s}")
        for row in rows:
            print(
                f"{cli._fmt10(row.n):>14s} {cli._fmt10(row.trig_form):>20s}"
                f" {row.max_pairwise_spread:>12.3e}"
            )

    dicts = [cli._row_dict(row) for row in rows]
    cli._emit(args, dicts, cli.EVAL_FIELDS, dicts, human)
    threshold = routes._SPREAD_THRESHOLD if args.tol is None else args.tol
    deviations = (routes._route_deviation(r.quadrature, r.max_pairwise_spread) for r in rows)
    return cli.EXIT_NO_CONVERGENCE if any(d > threshold for d in deviations) else cli.EXIT_OK
