"""Every command of the command-line front end but ``eval``: the ``table``
grid and handler and the ``verify`` and ``limit`` handlers.

The rule: ``cli`` holds what ``eval`` runs, and this module holds every
other command.  ``cli`` imports it in one place, when ``table``, ``verify``
or ``limit`` runs, so a cold ``logint eval`` never compiles it.  The
handlers reach the shared output path, the formatting helpers, ``eval``'s
field list and the exit codes through the ``cli`` module (``cli._emit``,
``cli._row_dict``, ``cli._fmt10``, ``cli.EXIT_OK``), where a caller or a
test may replace them; the ``verify`` and ``limit`` field lists are here.
"""

from __future__ import annotations

import argparse
import math

from . import cli, routes

# The most rows one ``table`` builds; the whole grid is held in memory.
_MAX_TABLE_STEPS = 1_000_000

VERIFY_FIELDS = ("subject", "max_abs_deviation", "tolerance", "pass", "worst_point")
LIMIT_FIELDS = ("n", "value", "residual", "residual_n2")


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


def _collect_reports(
    subject: str, quad_tol: float, tol: float | None
) -> list[routes.VerificationReport]:
    from . import verify  # only the verify command loads the verifiers

    given = {} if tol is None else {"tol": tol}  # else each verifier's default
    reports = []
    if subject in ("lemma1", "all"):
        for m in (1, 2, 3):
            reports.append(verify.verify_lemma1(m, quad_tol=quad_tol, **given))
    if subject in ("lemma2", "all"):
        reports.append(verify.verify_lemma2(**given))
    if subject in ("lemma3", "all"):
        reports.append(verify.verify_lemma3(**given))
    if subject in ("theorem", "all"):
        reports.append(verify.verify_theorem(quad_tol=quad_tol, **given))
    return reports


def _report_dict(report: routes.VerificationReport) -> dict:
    return dict(zip(VERIFY_FIELDS, (
        report.subject.value, report.max_abs_deviation, report.tolerance,
        report.passed, list(report.worst_point),
    )))


def _run_verify(args: argparse.Namespace) -> int:
    reports = _collect_reports(args.subject, args.quad_tol, args.tol)

    def human() -> None:
        for r in reports:
            state = "PASS" if r.passed else "FAIL"
            point = ", ".join(cli._fmt10(p) for p in r.worst_point)
            print(
                f"{r.subject.value:12s} {state}"
                f"  max deviation {r.max_abs_deviation:.3e}"
                f" (tol {r.tolerance:g}) worst at ({point})"
            )

    payload = [_report_dict(r) for r in reports]
    rows = [
        {**d, "pass": "true" if r.passed else "false",
         "worst_point": ";".join(cli._fmt17(p) for p in r.worst_point)}
        for d, r in zip(payload, reports)
    ]
    cli._emit(args, payload, VERIFY_FIELDS, rows, human)
    if any(math.isinf(r.max_abs_deviation) for r in reports):
        return cli.EXIT_NO_CONVERGENCE
    if any(not r.passed for r in reports):
        return cli.EXIT_VERIFICATION_FAILED
    return cli.EXIT_OK


def _parse_n_list(text: str) -> list[float]:
    try:
        values = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ValueError(f"could not parse n list {text!r}") from None
    if not values:
        raise ValueError("n list is empty")
    return values


def _run_limit(args: argparse.Namespace) -> int:
    probe = routes.limit_probe(_parse_n_list(args.n_list))
    rows = [dict(zip(LIMIT_FIELDS, (n, value, residual, residual * n * n)))
            for n, value, residual in probe]

    def human() -> None:
        print(f"{'n':>14s} {'I(n)':>20s} {'I(n)+1':>14s} {'(I(n)+1)*n^2':>14s}")
        for row in rows:
            print(
                f"{cli._fmt10(row['n']):>14s} {cli._fmt10(row['value']):>20s}"
                f" {row['residual']:>14.6e} {row['residual_n2']:>14.10f}"
            )

    cli._emit(args, rows, LIMIT_FIELDS, rows, human)
    residuals = [row["residual"] for row in rows]
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    return cli.EXIT_OK if decreasing else cli.EXIT_VERIFICATION_FAILED
