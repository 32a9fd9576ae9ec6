"""CLI contract: exit codes, CSV/JSON schemas, round-trips, --quiet."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import logint
from logint import cli, cli_table, routes

EVAL_KEYS = set(cli.EVAL_FIELDS)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(token):
    raise AssertionError(f"{token} is not RFC 8259 JSON")


# -------------------------------------------------------------- exit codes

def test_eval_success(capsys):
    code, out, _ = run_cli(["eval", "--n", "3"], capsys)
    assert code == cli.EXIT_OK
    assert "-0.7310818075" in out


def test_eval_domain_error(capsys):
    code, out, err = run_cli(["eval", "--n", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "n must exceed 1" in err
    assert out == ""


def test_eval_spread_threshold_failure(capsys):
    for args in (
        # |I| ~ 1e14 here, so the routes' rounding alone spreads them by ~0.4,
        # far above the default 1e-6 gate
        ["--n", "1.0000001"],
        # converged routes that agree to 7e-16 still exceed a threshold below it
        ["--n", "3", "--tol", "1e-30"],
    ):
        code, out, _ = run_cli(["eval", *args], capsys)
        assert code == cli.EXIT_NO_CONVERGENCE, args
        assert "converged)" in out and "NOT converged" not in out, args
        assert "EXCEEDED" in out, args


def test_eval_quadrature_nonconvergence(capsys):
    # a tolerance below the roundoff floor can never be certified; the spread
    # alone is within the threshold, and non-convergence alone sets exit 3
    code, out, _ = run_cli(["eval", "--n", "3", "--quad-tol", "1e-16"], capsys)
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "NOT converged" in out
    # eval's default threshold is the theorem verifier's default tolerance
    assert f"[threshold {routes.verify_theorem().tolerance:g}: ok]" in out
    assert "[threshold 1e-06: ok]" in out


def test_eval_arithmetic_error_is_no_convergence(capsys, monkeypatch):
    # an arithmetic error inside a route is reported without a traceback
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(routes, "numeric_I", overflow)
    code, out, err = run_cli(["eval", "--n", "3"], capsys)
    assert code == cli.EXIT_NO_CONVERGENCE
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert out == ""


def test_eval_near_one_prints_a_finite_quadrature_value(capsys):
    # |I| ~ 1e4 at n = 1.01; quadrature and the exact gamma derivative both
    # follow it, and every route stays inside the 1e-6 spread gate
    code, out, _ = run_cli(["eval", "--n", "1.01", "--format", "csv"], capsys)
    assert code == cli.EXIT_OK
    row = next(csv.DictReader(io.StringIO(out)))
    quad = float(row["quadrature_value"])
    trig = float(row["trig_form"])
    assert math.isfinite(quad)
    assert abs(quad - trig) <= 1e-10 * abs(trig)
    assert abs(float(row["gamma_derivative_form"]) - trig) <= 1e-13 * abs(trig)


def test_table_spread_threshold_failure(capsys):
    # the same ~0.4 rounding spread as eval --n 1.0000001, on every row
    args = ["table", "--min", "1.0000001", "--max", "1.0000002", "--steps", "2",
            "--format", "csv"]
    code, out, _ = run_cli(args, capsys)
    assert code == cli.EXIT_NO_CONVERGENCE
    assert run_cli(args + ["--tol", "1e-300"], capsys)[:2] == (cli.EXIT_NO_CONVERGENCE, out)
    assert run_cli(args + ["--tol", "10"], capsys)[:2] == (cli.EXIT_OK, out)
    spreads = [float(row["spread"]) for row in csv.DictReader(io.StringIO(out))]
    assert len(spreads) == 2 and min(spreads) > 1e-6


def test_table_linear_grid_reaches_the_largest_exponents(capsys):
    # (max - min) * i overflowed here, though every grid point is finite
    args = ["table", "--min", "1.0000001", "--max", "1.7e308", "--steps", "3",
            "--format", "csv"]
    code, out, err = run_cli(args, capsys)
    assert err == ""
    assert code == cli.EXIT_NO_CONVERGENCE  # the n -> 1 row's rounding spread
    ns = [float(row["n"]) for row in csv.DictReader(io.StringIO(out))]
    assert ns == [1.0000001, 0.5 * 1.7e308, 1.7e308]


@pytest.mark.parametrize(
    "n_min, n_max, steps",
    [(2.0, 4.0, 3), (1.0000001, 1.0000002, 2), (1.5, 10.0, 3), (1.01, 1e4, 200),
     (1.5, 96.0, 5), (1.1, 1e300, 4)],
)
def test_table_linear_grid_is_unchanged_where_it_never_overflowed(n_min, n_max, steps):
    # every grid that printed before keeps every bit
    pinned = [n_min + (n_max - n_min) * i / (steps - 1) for i in range(steps)]
    assert cli_table._grid(n_min, n_max, steps, "linear") == pinned


def test_table_linear_grid_ends_on_max():
    # n_min + span * 6 / 6 rounded an ulp past --max here, to 4.316447105998781e+291
    n_min, n_max, steps = 16.523391142139793, 4.31644710599878e+291, 7
    grid = cli_table._grid(n_min, n_max, steps, "linear")
    assert grid[:-1] == [n_min + (n_max - n_min) * i / (steps - 1) for i in range(steps - 1)]
    assert grid[-1] == n_max


def test_table_log_grid_ends_on_max(capsys):
    # n_min * ratio**1.0 rounded past the largest double here, to inf
    args = ["table", "--min", "1.5", "--max", "1.7976931348623157e308", "--steps", "2",
            "--spacing", "log", "--format", "csv"]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(row["n"]) for row in rows] == [1.5, sys.float_info.max]
    for key in ("trig_form", "trigamma_form", "gamma_derivative_form", "quadrature_value"):
        assert float(rows[-1][key]) == pytest.approx(-1.0, abs=1e-14), key


@pytest.mark.parametrize(
    "n_min, n_max, steps", [(1.5, 96.0, 5), (1.1, 1e300, 4), (1.01, 1e4, 200), (2.0, 3.0, 7)]
)
def test_table_log_grid_keeps_its_interior_and_ends_on_max(n_min, n_max, steps):
    grid = cli_table._grid(n_min, n_max, steps, "log")
    ratio = n_max / n_min
    assert grid[:-1] == [n_min * ratio ** (i / (steps - 1)) for i in range(steps - 1)]
    assert grid[-1] == n_max


def test_table_bad_ranges(capsys):
    assert run_cli(["table", "--min", "1", "--max", "4", "--steps", "3"], capsys)[0] == cli.EXIT_USAGE
    assert run_cli(["table", "--min", "3", "--max", "2", "--steps", "3"], capsys)[0] == cli.EXIT_USAGE
    assert run_cli(["table", "--min", "2", "--max", "4", "--steps", "1"], capsys)[0] == cli.EXIT_USAGE


def test_table_steps_one_above_the_bound_is_refused_before_any_row(capsys, monkeypatch):
    def evaluated(*args):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(routes, "evaluate_all_routes", evaluated)
    steps = str(cli_table._MAX_TABLE_STEPS + 1)
    code, out, err = run_cli(["table", "--min", "1.5", "--max", "4", "--steps", steps], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: --steps: at most 1000000 rows") and out == ""


@pytest.mark.parametrize("spacing", ["linear", "log"])
@pytest.mark.parametrize(
    "bounds, flag",
    [(["--min", "1.5", "--max", "inf"], "--max"), (["--min=nan", "--max", "4"], "--min"),
     (["--min=-inf", "--max", "4"], "--min")],
)
def test_table_non_finite_bound_names_its_flag(bounds, flag, spacing, capsys):
    # an infinite span once reached the routes as n = nan (inf * 0) or inf
    code, out, err = run_cli(["table", *bounds, "--steps", "3", "--spacing", spacing], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: {flag}: ") and "finite" in err
    assert out == ""


def test_table_steps_above_the_bound_exit_2_at_once():
    # the grid is built whole before any row is printed: without a bound
    # this allocates until it is killed, so the child gets 1 GiB of address
    # space and fails fast instead
    src = os.path.dirname(os.path.dirname(logint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "logint", "table", "--min", "1.5", "--max", "4",
         "--steps", "100000000000"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --steps: ") and str(cli_table._MAX_TABLE_STEPS) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_all_passes(capsys):
    code, _, _ = run_cli(["verify", "--subject", "all", "--quiet"], capsys)
    assert code == cli.EXIT_OK


def test_verify_single_subjects(capsys):
    for subject in ("lemma1", "lemma2", "lemma3", "theorem"):
        code, _, _ = run_cli(["verify", "--subject", subject, "--quiet"], capsys)
        assert code == cli.EXIT_OK, subject


def test_verify_impossible_tolerance_reports_failure(capsys):
    code, _, _ = run_cli(
        ["verify", "--subject", "lemma3", "--tol", "1e-30", "--quiet"], capsys
    )
    assert code == cli.EXIT_VERIFICATION_FAILED


def test_limit_exit_codes(capsys):
    assert run_cli(["limit", "--n-list", "10,100,1000"], capsys)[0] == cli.EXIT_OK
    assert run_cli(["limit", "--n-list", "100,10"], capsys)[0] == cli.EXIT_USAGE
    assert run_cli(["limit", "--n-list", "0.5,2"], capsys)[0] == cli.EXIT_USAGE
    assert run_cli(["limit", "--n-list", "abc"], capsys)[0] == cli.EXIT_USAGE
    code, out, err = run_cli(["limit", "--n-list", ","], capsys)
    assert code == cli.EXIT_USAGE
    assert "n list is empty" in err and out == ""


def test_eval_past_n_squared_overflow(capsys):
    code, out, err = run_cli(["eval", "--n", "1e155", "--format", "csv"], capsys)
    assert code == cli.EXIT_OK, err
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["trigamma_form"]) == pytest.approx(-1.0, abs=2e-15)


@pytest.mark.parametrize("n", ["1.7976931348623153e308", "1.7976931348623157e308"])
def test_eval_at_the_largest_doubles(n, capsys):
    # psi(1/n) ~ -n passes the largest double here; route 3 never forms it
    code, out, err = run_cli(["eval", "--n", n, "--format", "csv"], capsys)
    assert code == cli.EXIT_OK, err
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["gamma_derivative_form"]) == pytest.approx(-1.0, abs=1.9e-14)


def test_limit_past_n_squared_overflow(capsys):
    code, out, _ = run_cli(["limit", "--n-list", "10,1e155", "--format", "csv"], capsys)
    assert code == cli.EXIT_OK
    assert next(csv.reader(io.StringIO(out.splitlines()[2])))[1] == "-1"


@pytest.mark.parametrize("flag", [["--quad-tol", "-1"], ["--tol", "nan"]])
def test_limit_takes_no_tolerance_flags(flag, capsys):
    # limit runs no quadrature and no pass/fail threshold
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["limit", "--n-list", "10,100"] + flag)
    out, err = capsys.readouterr()
    assert exit_info.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--quad-tol", "--tol"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--n", "3"],
        ["table", "--min", "2", "--max", "4", "--steps", "3"],
        ["verify", "--subject", "theorem"],
        ["verify", "--subject", "lemma2"],  # runs no quadrature, rejects anyway
    ],
)
def test_bad_tolerance_is_usage_error(command, value, flag, capsys):
    code, out, err = run_cli(command + [f"{flag}={value}"], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and "tolerance" in err
    assert "Traceback" not in err
    assert out == ""


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "argument command: invalid choice: 'frobnicate'" in err
    assert all(f"'{name}'" in err for name in ("eval", "table", "verify", "limit"))


# Each xfail below is a known defect that the ROADMAP item in its reason
# names.  A fix turns it into an unexpected pass, which fails the run until
# the mark is removed.

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the absolute spread gate refuses routes that agree to 4.9e-15 of |I|"))
def test_eval_passes_where_the_routes_agree_relative_to_the_integral(capsys):
    code, out, _ = run_cli(["eval", "--n", "1.00003", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["spread"] <= 1e-14 * abs(payload["trig_form"])
    assert code == cli.EXIT_OK


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: the residual I + 1 cancels to rounding noise past n = 1e7"))
def test_limit_residual_n2_tends_to_pi_squared_over_six(capsys):
    code, out, _ = run_cli(
        ["limit", "--n-list", "1e4,1e6,1e7,1e8,1e9,1e10", "--format", "json"], capsys
    )
    target = math.pi**2 / 6.0
    assert all(abs(row["residual_n2"] - target) <= 1e-6 * target for row in json.loads(out))
    assert code == cli.EXIT_OK


# ----------------------------------------------------------------- parser

def parse_counting_parsers(argv, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setenv("COLUMNS", "80")  # one help line per command
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    monkeypatch.undo()
    captured = capsys.readouterr()
    return len(built), code, captured.out, captured.err


COMMAND_HELP = {
    "eval": "evaluate all routes at one n",
    "table": "tabulate all routes over an n grid",
    "verify": "re-run the identity checks",
    "limit": "probe the n -> infinity limit",
}


@pytest.mark.parametrize("argv, parsers", [
    (["eval", "--n", "3"], 2),  # the top-level parser and eval's own
    (["limit", "--n-list", "2,10", "--format", "csv"], 2),
    (["eval", "--n", "3", "extra"], 2),
    (["--help"], 5),
    (["frobnicate"], 5),
    ([], 5),
])
def test_a_known_command_builds_only_its_own_parser(argv, parsers, monkeypatch, capsys):
    assert parse_counting_parsers(argv, monkeypatch, capsys)[0] == parsers


def test_an_extra_argument_names_every_command_in_the_usage_line(monkeypatch, capsys):
    _, code, out, err = parse_counting_parsers(["eval", "--n", "3", "extra"], monkeypatch, capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("usage: logint ")
    assert "{eval,table,verify,limit}" in err.splitlines()[0]
    assert "unrecognized arguments: extra" in err


def test_top_level_help_lists_every_command_with_its_help_line(monkeypatch, capsys):
    _, code, out, err = parse_counting_parsers(["--help"], monkeypatch, capsys)
    assert code == cli.EXIT_OK and err == ""
    rows = [line.split(None, 1) for line in out.splitlines()]
    listed = {row[0]: row[1] for row in rows if len(row) == 2 and row[0] in COMMAND_HELP}
    assert listed == COMMAND_HELP


def test_no_command_still_reports_the_command_as_required(monkeypatch, capsys):
    _, code, out, err = parse_counting_parsers([], monkeypatch, capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert "required: command" in err


# ------------------------------------------------------------------- JSON

def test_eval_json_schema_and_values(capsys):
    code, out, _ = run_cli(["eval", "--n", "4", "--format", "json"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert set(payload) == EVAL_KEYS  # no extras without a version bump
    # deterministic engine: recomputing gives bit-identical floats
    row = routes.evaluate_all_routes(4.0)
    assert payload["n"] == 4.0
    assert payload["trig_form"] == row.trig_form
    assert payload["trigamma_form"] == row.trigamma_form
    assert payload["gamma_derivative_form"] == row.gamma_derivative_form
    assert payload["quadrature_value"] == row.quadrature.value
    assert payload["quadrature_error"] == row.quadrature.error_estimate
    assert payload["spread"] == row.max_pairwise_spread


def test_table_json_is_an_array(capsys):
    code, out, _ = run_cli(
        ["table", "--min", "2", "--max", "4", "--steps", "3", "--format", "json"],
        capsys,
    )
    assert code == cli.EXIT_OK
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [2.0, 3.0, 4.0]
    assert all(set(r) == EVAL_KEYS for r in rows)


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        ["verify", "--subject", "theorem", "--format", "json"], capsys
    )
    assert code == cli.EXIT_OK
    reports = json.loads(out)
    assert len(reports) == 1
    report = reports[0]
    assert set(report) == set(cli.VERIFY_FIELDS)
    assert report["subject"] == "theorem"
    assert report["pass"] is True
    assert isinstance(report["worst_point"], list)


DEFAULT_TOLS = {
    "lemma1": routes.DEFAULT_LEMMA1_TOL,
    "lemma2": routes.DEFAULT_LEMMA2_TOL,
    "lemma3": routes.DEFAULT_LEMMA3_TOL,
    "theorem": routes.DEFAULT_THEOREM_TOL,
}


@pytest.mark.parametrize("subject", ["lemma1", "lemma2", "lemma3", "theorem", "all"])
def test_verify_tolerance_is_each_verifiers_default_or_the_given_tol(subject, capsys):
    _, out, _ = run_cli(["verify", "--subject", subject, "--format", "json"], capsys)
    reports = json.loads(out)
    assert reports and all(r["tolerance"] == DEFAULT_TOLS[r["subject"]] for r in reports)
    _, out, _ = run_cli(
        ["verify", "--subject", subject, "--tol", "1e-3", "--format", "json"], capsys
    )
    assert [r["tolerance"] for r in json.loads(out)] == [1e-3] * len(reports)


def test_verify_all_json_has_six_reports(capsys):
    _, out, _ = run_cli(["verify", "--subject", "all", "--format", "json"], capsys)
    reports = json.loads(out)
    assert [r["subject"] for r in reports] == [
        "lemma1", "lemma1", "lemma1", "lemma2", "lemma3", "theorem",
    ]


def test_limit_json_rows(capsys):
    code, out, _ = run_cli(
        ["limit", "--n-list", "1000", "--format", "json"], capsys
    )
    assert code == cli.EXIT_OK
    (row,) = json.loads(out)
    assert set(row) == set(cli.LIMIT_FIELDS)
    assert row["residual"] == pytest.approx(1.6449397e-06, rel=1e-5)


def test_json_prints_null_for_a_non_finite_number(capsys):
    # RFC 8259 has no Infinity or NaN; the exit code still says what happened
    code, out, _ = run_cli(
        ["verify", "--subject", "theorem", "--quad-tol", "1e-16", "--format", "json"],
        capsys,
    )
    assert code == cli.EXIT_NO_CONVERGENCE
    (report,) = json.loads(out, parse_constant=reject_constant)
    assert report["max_abs_deviation"] is None
    assert report["pass"] is False


def test_json_with_finite_numbers_is_plain_json_dumps(capsys):
    _, out, _ = run_cli(["eval", "--n", "3", "--format", "json"], capsys)
    assert out == json.dumps(cli._row_dict(routes.evaluate_all_routes(3.0))) + "\n"


# -------------------------------------------------------------------- CSV

def test_eval_csv_round_trips_exactly(capsys):
    _, out, _ = run_cli(["eval", "--n", "3", "--format", "csv"], capsys)
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    assert header == list(cli.EVAL_FIELDS)
    values = [float(cell) for cell in next(reader)]
    row = routes.evaluate_all_routes(3.0)
    expected = [
        row.n,
        row.trig_form,
        row.trigamma_form,
        row.gamma_derivative_form,
        row.quadrature.value,
        row.quadrature.error_estimate,
        row.max_pairwise_spread,
    ]
    assert values == expected  # 17 significant digits round-trip exactly


def test_table_csv_header_and_first_row(capsys):
    _, out, _ = run_cli(
        ["table", "--min", "2", "--max", "4", "--steps", "3", "--format", "csv"],
        capsys,
    )
    lines = out.splitlines()
    assert lines[0] == "n,trig_form,trigamma_form,gamma_derivative_form,quadrature_value,quadrature_error,spread"
    assert len(lines) == 4
    first = [float(cell) for cell in lines[1].split(",")]
    assert first[0] == 2.0
    assert all(abs(v) <= 1e-8 for v in first[1:5])


def test_table_log_spacing_grid(capsys):
    _, out, _ = run_cli(
        ["table", "--min", "1.5", "--max", "96", "--steps", "5",
         "--spacing", "log", "--format", "csv"],
        capsys,
    )
    reader = csv.reader(io.StringIO(out))
    next(reader)
    ns = [float(row[0]) for row in reader]
    expected = [1.5 * (96.0 / 1.5) ** (i / 4.0) for i in range(5)]
    assert ns == pytest.approx(expected, rel=1e-15)
    assert ns[2] == pytest.approx(12.0, rel=1e-12)


# limit reads only the trig form, so its bytes are pinned in every format
@pytest.mark.parametrize("fmt, expected", [
    ("csv",
     "n,value,residual,residual_n2\n"
     "10,-0.98297244282975726,0.017027557170242735,1.7027557170242735\n"
     "100,-0.99983544976148864,0.00016455023851136286,1.6455023851136286\n"),
    ("human",
     "             n                 I(n)         I(n)+1   (I(n)+1)*n^2\n"
     "            10        -0.9829724428   1.702756e-02   1.7027557170\n"
     "           100        -0.9998354498   1.645502e-04   1.6455023851\n"),
], ids=["csv", "human"])
def test_limit_csv(fmt, expected, capsys):
    _, out, _ = run_cli(["limit", "--n-list", "10,100", "--format", fmt], capsys)
    assert out == expected


def test_verify_csv(capsys):
    _, out, _ = run_cli(
        ["verify", "--subject", "lemma3", "--format", "csv"], capsys
    )
    lines = out.splitlines()
    assert lines[0] == "subject,max_abs_deviation,tolerance,pass,worst_point"
    cells = next(csv.reader(io.StringIO(lines[1])))
    assert cells[0] == "lemma3"
    assert cells[3] == "true"


def reference_csv(fields, rows):
    """What the stdlib writer makes of the same rows: the bytes to match."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(
            cli._fmt17(row[key]) if isinstance(row[key], float) else row[key]
            for key in fields
        )
    return buf.getvalue()


@pytest.mark.parametrize(
    "args, passes",
    [
        (["eval", "--n", "3"], None),
        (["eval", "--n", "1.7976931348623157e308"], None),
        (["table", "--min", "1.0000001", "--max", "1e300", "--steps", "5", "--spacing", "log"], None),
        (["verify", "--subject", "all"], {"true"}),
        (["verify", "--subject", "all", "--tol", "5e-324"], {"false"}),
        (["verify", "--subject", "all", "--quad-tol", "1e-16"], {"true", "false"}),  # inf deviations
        (["limit", "--n-list", "10,100,1e200"], None),
    ],
)
def test_csv_writer_matches_the_stdlib_writer(args, passes, capsys, monkeypatch):
    written = []
    write_csv = cli._write_csv

    def recorded(fields, rows):
        written.append((fields, rows))
        write_csv(fields, rows)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    _, out, _ = run_cli(args + ["--format", "csv"], capsys)
    [(fields, rows)] = written
    assert out == reference_csv(fields, rows)
    if passes is not None:  # and lemma1's and lemma2's points are ";"-joined pairs
        assert {row["pass"] for row in rows} == passes
        assert any(";" in row["worst_point"] for row in rows)


def test_csv_writer_matches_the_stdlib_writer_on_edge_values(capsys):
    edges = [0.0, -0.0, 5e-324, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
    rows = [dict(zip(cli.LIMIT_FIELDS, edges[i:] + edges[:i])) for i in range(len(edges))]
    rows.append({"n": "true", "value": "false", "residual": "1;0.5", "residual_n2": "lemma1"})
    cli._write_csv(cli.LIMIT_FIELDS, rows)
    assert capsys.readouterr().out == reference_csv(cli.LIMIT_FIELDS, rows)


# ------------------------------------------------------------------ quiet

@pytest.mark.parametrize("args", [
    ["eval", "--n", "3"],
    ["table", "--min", "1.5", "--max", "4", "--steps", "3"],
    ["verify", "--subject", "lemma3"],
    ["limit", "--n-list", "10,100"],
], ids=["eval", "table", "verify", "limit"])
def test_quiet_silences_human_output_only(args, capsys):
    code_loud, loud, _ = run_cli(args, capsys)
    code_quiet, quiet, _ = run_cli(args + ["--quiet"], capsys)
    assert loud != "" and quiet == ""
    assert code_loud == code_quiet


def test_quiet_never_alters_machine_payloads(capsys):
    _, with_quiet, _ = run_cli(
        ["eval", "--n", "3", "--format", "json", "--quiet"], capsys
    )
    _, without_quiet, _ = run_cli(["eval", "--n", "3", "--format", "json"], capsys)
    assert with_quiet == without_quiet
    _, csv_quiet, _ = run_cli(
        ["limit", "--n-list", "10,100", "--format", "csv", "--quiet"], capsys
    )
    _, csv_loud, _ = run_cli(
        ["limit", "--n-list", "10,100", "--format", "csv"], capsys
    )
    assert csv_quiet == csv_loud


def test_quiet_preserves_exit_codes(capsys):
    code, out, _ = run_cli(["limit", "--n-list", "100,10", "--quiet"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""


# ------------------------------------------------------------- entry point

def test_module_entry_point_runs():
    # the child must import the same logint, installed or not
    src = os.path.dirname(os.path.dirname(logint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "logint", "eval", "--n", "3", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["trig_form"] == pytest.approx(-2.0 * math.pi**2 / 27.0, rel=1e-12)


def test_closed_stdout_exits_without_a_traceback():
    # `logint table ... | head -2`: the reader leaves after the first line,
    # while the payload (about 300 kB) is still far larger than a pipe holds
    src = os.path.dirname(os.path.dirname(logint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "logint", "table", "--min", "1.1", "--max", "100",
         "--steps", "2000", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"n,trig_form,")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_VERIFICATION_FAILED
    assert err == ""  # no BrokenPipeError traceback


@pytest.mark.parametrize("module", ["fractions", "dataclasses", "inspect", "json"])
def test_import_leaves_module_unloaded(module):
    # a cold start pays for no rational arithmetic, no dataclass machinery
    # (which pulls in inspect) and no JSON encoder unless --format json asks
    src = os.path.dirname(os.path.dirname(logint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, logint.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ------------------------------------------------------- contract property

EXPONENTS = st.floats(min_value=1.0, max_value=sys.float_info.max, exclude_min=True)
# any finite --tol > 0 is valid; it only moves the pass/fail verdict
TOLERANCES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# --quad-tol log-uniform on [1e-16, 1e-4]: near 1e-16 nothing converges, so
# a non-finite value or deviation reaches the output; lemma1 then runs every
# level of all its integrals
QUAD_TOLERANCES = st.floats(min_value=-16.0, max_value=-4.0).map(lambda k: 10.0**k)


@st.composite
def cli_arguments(draw):
    command = draw(st.sampled_from(["eval", "table", "verify", "limit"]))
    if command == "eval":
        args = ["eval", "--n", repr(draw(EXPONENTS))]
    elif command == "table":
        low, high = sorted(draw(st.tuples(EXPONENTS, EXPONENTS)))
        assume(low < high)
        args = ["table", "--min", repr(low), "--max", repr(high),
                "--steps", str(draw(st.integers(2, 4))),
                "--spacing", draw(st.sampled_from(["linear", "log"]))]
    elif command == "verify":
        subject = draw(st.sampled_from(["lemma1", "lemma2", "lemma3", "theorem", "all"]))
        args = ["verify", "--subject", subject]
    else:
        ns = sorted(draw(st.lists(EXPONENTS, min_size=1, max_size=4, unique=True)))
        args = ["limit", "--n-list", ",".join(map(repr, ns))]
    if command != "limit" and draw(st.booleans()):
        args += ["--quad-tol", repr(draw(QUAD_TOLERANCES))]
    if command != "limit" and draw(st.booleans()):
        args += ["--tol", repr(draw(TOLERANCES))]
    return args + ["--format", draw(st.sampled_from(["human", "csv", "json"]))]


@settings(max_examples=40, deadline=None)
@given(cli_arguments())
@example(["table", "--min", "1.0000001", "--max", "1.7e308", "--steps", "3", "--format", "json"])
@example(["table", "--min", "1.5", "--max", "1.7976931348623157e308", "--steps", "2",
          "--spacing", "log", "--format", "csv"])
# the three largest doubles, where psi(1/n) ~ -n passes the largest double
@example(["eval", "--n", "1.7976931348623153e308", "--format", "csv"])
@example(["eval", "--n", "1.7976931348623155e308", "--format", "json"])
@example(["eval", "--n", "1.7976931348623157e308", "--format", "human"])
@example(["verify", "--subject", "theorem", "--quad-tol", "1e-16", "--format", "json"])
@example(["verify", "--subject", "lemma1", "--quad-tol", "1e-16", "--format", "json"])
@example(["verify", "--subject", "all", "--quad-tol", "1e-16", "--tol", "5e-324", "--format", "json"])
def test_every_valid_command_keeps_the_contract(args):
    # no traceback, a documented exit code, and JSON that strict parsers read
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    # a documented exit code, but never 2: every drawn command is valid
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFICATION_FAILED,
                    cli.EXIT_NO_CONVERGENCE), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if args[-1] == "json" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=reject_constant)
