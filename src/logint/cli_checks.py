"""The ``verify`` and ``limit`` commands of the command-line front end.

``cli`` imports this module only when one of the two runs, so a cold
``logint eval`` or ``logint table`` never compiles it; ``table``'s own
handler lives in ``cli_table``, loaded the same way.  The handlers reach
the shared output path, the formatting helpers, the field lists and the
exit codes through the ``cli`` module (``cli._emit``, ``cli._write_csv``,
``cli._fmt17``, ``cli.EXIT_OK``), where a caller or a test may replace them.
"""

from __future__ import annotations

import argparse
import math

from . import cli, routes


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
    return dict(zip(cli.VERIFY_FIELDS, (
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
    cli._emit(args, payload, cli.VERIFY_FIELDS, rows, human)
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
    rows = [dict(zip(cli.LIMIT_FIELDS, (n, value, residual, residual * n * n)))
            for n, value, residual in probe]

    def human() -> None:
        print(f"{'n':>14s} {'I(n)':>20s} {'I(n)+1':>14s} {'(I(n)+1)*n^2':>14s}")
        for row in rows:
            print(
                f"{cli._fmt10(row['n']):>14s} {cli._fmt10(row['value']):>20s}"
                f" {row['residual']:>14.6e} {row['residual_n2']:>14.10f}"
            )

    cli._emit(args, rows, cli.LIMIT_FIELDS, rows, human)
    residuals = [row["residual"] for row in rows]
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    return cli.EXIT_OK if decreasing else cli.EXIT_VERIFICATION_FAILED
