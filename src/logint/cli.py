"""Command-line front end: evaluate the integral, tabulate it over a grid,
verify the identity chain, and probe the n -> infinity limit.

This module holds the command table that the parser is built from, the
one output path ``_emit`` that every handler prints through, the helpers
behind it and the ``eval`` handler.  The ``table`` grid and handler live in
``cli_table``, the ``verify`` and ``limit`` handlers in ``cli_checks``; the
thin entries here import each only when its command runs, so a cold
``logint eval`` compiles neither.

Exit codes: 0 success / all checks pass, 1 verification failure (or stdout
closed before the payload was written, as by ``| head``), 2 usage or domain
error, 3 quadrature non-convergence (or an eval/table spread above
``--tol``, by default ``routes._SPREAD_THRESHOLD``, which is also
``verify.DEFAULT_THEOREM_TOL``; or an arithmetic error inside a route).  CSV
and JSON payloads are stable machine formats; ``--quiet`` silences the human
rendering and nothing else.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Sequence

from . import routes
from .quadrature import _DEFAULT_TOL, _check_tol

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

EVAL_FIELDS = (
    "n",
    "trig_form",
    "trigamma_form",
    "gamma_derivative_form",
    "quadrature_value",
    "quadrature_error",
    "spread",
)
VERIFY_FIELDS = ("subject", "max_abs_deviation", "tolerance", "pass", "worst_point")
LIMIT_FIELDS = ("n", "value", "residual", "residual_n2")


def _fmt17(value: float) -> str:
    # 17 significant digits round-trip any double exactly
    return format(float(value), ".17g")


def _fmt10(value: float) -> str:
    return format(float(value), ".10g")


def _finite_or_null(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return None  # RFC 8259 has no Infinity or NaN
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value


def _print_json(payload: dict | list) -> None:
    import json  # only JSON output pays for this import
    print(json.dumps(_finite_or_null(payload)))


def _write_csv(fields: Sequence[str], rows: Sequence[dict]) -> None:
    # no field holds a comma, a quote or a line break (numbers, "true",
    # "false", subject names, ";"-joined points), so these joined lines are
    # the bytes csv.writer(lineterminator="\n") writes, without its import
    write = sys.stdout.write
    write(",".join(fields) + "\n")
    for row in rows:
        write(",".join(
            _fmt17(row[key]) if isinstance(row[key], float) else str(row[key])
            for key in fields
        ) + "\n")


def _emit(args: argparse.Namespace, payload: dict | list, fields: Sequence[str],
          rows: Sequence[dict], human: Callable[[], None]) -> None:
    """Print one command's output: ``payload`` as JSON, ``rows`` as CSV, or
    the prose that ``human()`` prints, unless ``--quiet`` is set."""
    if args.fmt == "json":
        _print_json(payload)
    elif args.fmt == "csv":
        _write_csv(fields, rows)
    elif not args.quiet:
        human()


def _row_dict(row: routes.EvaluationRow) -> dict:
    quad = row.quadrature
    return dict(zip(EVAL_FIELDS, (
        row.n, row.trig_form, row.trigamma_form, row.gamma_derivative_form,
        quad.value, quad.error_estimate, row.max_pairwise_spread,
    )))


def _run_eval(args: argparse.Namespace) -> int:
    row = routes.evaluate_all_routes(args.n, args.quad_tol)
    quad, spread = row.quadrature, row.max_pairwise_spread
    threshold = routes._SPREAD_THRESHOLD if args.tol is None else args.tol

    def human() -> None:
        print(f"I(n) for n = {_fmt10(row.n)}")
        print(f"  trig closed form       {_fmt10(row.trig_form)}")
        print(f"  trigamma closed form   {_fmt10(row.trigamma_form)}")
        print(f"  gamma derivative       {_fmt10(row.gamma_derivative_form)}")
        print(
            f"  quadrature             {_fmt10(quad.value)}"
            f"  (error estimate {quad.error_estimate:.3e},"
            f" {quad.evaluations} evaluations,"
            f" {'converged' if quad.converged else 'NOT converged'})"
        )
        verdict = "ok" if spread <= threshold else "EXCEEDED"
        print(
            f"  max route spread       {spread:.3e}"
            f"  [threshold {threshold:g}: {verdict}]"
        )

    payload = _row_dict(row)
    _emit(args, payload, EVAL_FIELDS, [payload], human)
    return EXIT_NO_CONVERGENCE if routes._route_deviation(quad, spread) > threshold else EXIT_OK


def _run_table(args: argparse.Namespace) -> int:
    from . import cli_table  # only table compiles its grid and handler

    return cli_table._run_table(args)


def _run_verify(args: argparse.Namespace) -> int:
    from . import cli_checks  # only verify and limit compile their handlers

    return cli_checks._run_verify(args)


def _run_limit(args: argparse.Namespace) -> int:
    from . import cli_checks

    return cli_checks._run_limit(args)


# Each shared flag's keywords, written once for every command that takes it.
_OUTPUT_FLAGS = (
    ("--format", {"dest": "fmt", "choices": ("human", "csv", "json"), "default": "human",
                  "help": "output format (default: human)"}),
    ("--quiet", {"action": "store_true", "help": "suppress human-readable prose"}),
)
_TOLERANCE_FLAGS = (
    ("--tol", {"type": float, "default": None,
               "help": "pass/fail threshold (finite, > 0); never changes quadrature internals"}),
    ("--quad-tol", {"type": float, "default": _DEFAULT_TOL, "help": (
        "quadrature tolerance: converged once the error estimate is at most"
        " QUAD_TOL * max(1, |I|); finite and > 0 (default: %(default)g)"
    )}),
)

# command -> (help line, handler, flags in the order its --help lists them)
_COMMANDS = {
    "eval": ("evaluate all routes at one n", _run_eval, (
        ("--n", {"type": float, "required": True, "help": "exponent, must exceed 1"}),
        *_OUTPUT_FLAGS, *_TOLERANCE_FLAGS,
    )),
    "table": ("tabulate all routes over an n grid", _run_table, (
        ("--min", {"type": float, "required": True}),
        ("--max", {"type": float, "required": True}),
        ("--steps", {"type": int, "required": True}),
        ("--spacing", {"choices": ("linear", "log"), "default": "linear"}),
        *_OUTPUT_FLAGS, *_TOLERANCE_FLAGS,
    )),
    "verify": ("re-run the identity checks", _run_verify, (
        ("--subject", {"choices": ("lemma1", "lemma2", "lemma3", "theorem", "all"),
                       "default": "all"}),
        *_OUTPUT_FLAGS, *_TOLERANCE_FLAGS,
    )),
    "limit": ("probe the n -> infinity limit", _run_limit, (
        ("--n-list", {"required": True, "help": "comma-separated, strictly ascending exponents"}),
        *_OUTPUT_FLAGS,
    )),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it is given."""
    parser = argparse.ArgumentParser(
        prog="logint",
        description=(
            "Evaluate I(n) = integral of ln(x)/(x^n + 1) over (0, inf) by four "
            "independent routes and verify the identity chain behind the closed form."
        ),
    )
    # with one command registered, usage errors still name all four; with all
    # four, no metavar, which would rename "command" in argparse's messages
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name in _COMMANDS if command is None else (command,):
        help_line, handler, flags = _COMMANDS[name]
        command_parser = sub.add_parser(name, help=help_line)
        for flag, keywords in flags:
            command_parser.add_argument(flag, **keywords)
        command_parser.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command builds its own parser only
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        if "quad_tol" in args:  # eval, table and verify; limit takes neither flag
            _check_tol(args.quad_tol)  # even where no quadrature runs
            if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
                raise ValueError(f"--tol: tolerance must be finite and > 0, got {args.tol!r}")
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone (e.g. `| head`); point stdout at devnull so the
        # interpreter's final flush cannot fail again (Python docs, "Note on
        # SIGPIPE"), and exit 1 as that note does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFICATION_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # e.g. an overflow inside a route
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
