"""Workload definitions: seeded inputs, the operation each workload times,
and the check of one operation's output against the oracle.

This module never imports logint at module level: the set-up probe imports
it after starting its clock, and the orchestrator, which imports mpmath,
never imports logint at all.  Operations take the already imported
``logint.routes`` module and look its functions up at call time, so the
tracer's patched names are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import subprocess
import sys
from typing import Any, Callable

WORKLOADS = ("sweep", "closed_forms", "verify_chain", "cli_cold")

# The timed ops draw n - 1 log-uniform on [0.05, 500]: from the near-pole
# band to large n, the range on which every route meets its tolerance, so
# that no timed op fails.  A dense scan of the full range [1e-3, 1e4]
# (20 000 points, then 60 000 on [0.03, 630]) found every failure outside
# it: OverflowError in numeric_I for n <= 1.034, inf with converged=True
# for n in 1.0116-1.0207, the gamma-derivative route off by more than 1e-6
# for n <= 1.006, and numeric_I off by more than 1e-8 near n = 660, 4000
# and 7600-8000.  The worst numeric_I error inside the timed range was
# 0.03 of its tolerance.
TIMED_LOG10_N_MINUS_1 = (-1.3, 2.7)
# The known defects stay measured: every run also checks, off the clock, a
# seeded probe of PROBE_SIZE inputs over the full range, and reports the
# share it answers correctly as ``full_range_correct_share``.
FULL_LOG10_N_MINUS_1 = (-3.0, 4.0)
PROBE_SIZE = {"sweep": 1024, "closed_forms": 2048, "verify_chain": 16, "cli_cold": 1024}

# Inputs are drawn stratified (one draw per equal slice of the range), so
# the mix of cheap, costly and failing inputs is nearly the same for every
# seed.  A run repeats the pool in whole passes, at least MIN_PASSES of them,
# and keeps for each input the median of its calibrated times.  Each pool is
# as large as leaves room for those passes in a 20-second run: cli_cold's 48
# processes, each followed by a bare interpreter start, take about eight
# seconds a pass.
POOL_SIZE = {"sweep": 1024, "closed_forms": 2048, "verify_chain": 64, "cli_cold": 48}
MIN_PASSES = 3
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

# Tolerances of the acceptance criteria 1-4, relative to max(1, |ref|).
ROUTE_TOL = {
    "closed_form_trig": 1e-12,
    "closed_form_trigamma": 1e-10,
    "closed_form_gamma_derivative": 1e-6,
    "intermediate_form": 1e-12,
    "numeric_I": 1e-8,
}
# A converged quadrature whose real error exceeds this multiple of its
# claimed error is counted as dishonest.
DISHONEST_FACTOR = 10.0

CLI_EVAL_HEADER = "n,trig_form,trigamma_form,gamma_derivative_form,quadrature_value,quadrature_error,spread"
CLI_SPREAD_THRESHOLD = 1e-6
VERIFIERS = ("verify_lemma1", "verify_lemma1", "verify_lemma1", "verify_lemma2", "verify_lemma3", "verify_theorem")


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]


def _exponents(rng: random.Random, count: int, log10_range: tuple[float, float]) -> list[float]:
    lo, hi = log10_range
    points = [1.0 + 10.0**u for u in _stratified(rng, count, lo, hi)]
    rng.shuffle(points)
    return points


def _pool(workload: str, rng: random.Random, size: int, log10_range: tuple[float, float]) -> list[Any]:
    if workload != "verify_chain":
        return _exponents(rng, size, log10_range)
    pool = []
    for _ in range(size):
        theorem = [10.0**u for u in _stratified(rng, 7, math.log10(1.5), 2.0)]
        pool.append(
            {
                # the ranges of the default grids that `logint verify` uses
                "lemma1_z": _stratified(rng, 5, 0.15, 0.85),
                "lemma2_z": _stratified(rng, 9, 0.15, 0.85),
                "lemma3_x": _stratified(rng, 100, 0.08, 1.49),
                "theorem_n": theorem,
            }
        )
    return pool


def make_inputs(workload: str, seed: int) -> list[Any]:
    """The pool of timed op inputs; the same seed gives the same pool."""
    rng = random.Random(f"{workload}/{seed}")
    return _pool(workload, rng, POOL_SIZE[workload], TIMED_LOG10_N_MINUS_1)


def make_probe(workload: str, seed: int) -> list[Any]:
    """The untimed full-range probe; the same seed gives the same probe.

    verify_chain's probe is drawn like its pool, whose grids already span
    the whole range that ``logint verify`` accepts.
    """
    rng = random.Random(f"{workload}/probe/{seed}")
    return _pool(workload, rng, PROBE_SIZE[workload], FULL_LOG10_N_MINUS_1)


def exponents_needing_reference(workload: str, inputs: list[Any]) -> list[float]:
    if workload == "verify_chain":
        return sorted({n for item in inputs for n in item["theorem_n"]})
    return list(inputs)


def lemma1_points(workload: str, inputs: list[Any]) -> list[tuple[int, float]]:
    if workload != "verify_chain":
        return []
    return sorted({(m, z) for item in inputs for m in (1, 2, 3) for z in item["lemma1_z"]})


# ------------------------------------------------------------------ operations


def cli_args(n: float) -> list[str]:
    return ["eval", "--n", repr(n), "--format", "csv"]


def build_op(workload: str, routes: Any, cli_env: dict | None = None, cli_prefix: list[str] | None = None) -> Callable:
    """The operation one workload times, bound to the imported routes module.

    ``cli_prefix`` starts the CLI process in place of ``python -m logint``
    (the traced run starts it through the tracer's bootstrap).
    """
    if workload == "sweep":
        return lambda n: routes.evaluate_all_routes(n)
    if workload == "closed_forms":
        return lambda n: (
            routes.closed_form_trig(n),
            routes.closed_form_trigamma(n),
            routes.closed_form_gamma_derivative(n),
        )
    if workload == "verify_chain":

        def verify_chain(item: dict) -> list:
            reports = [routes.verify_lemma1(m, item["lemma1_z"]) for m in (1, 2, 3)]
            reports.append(routes.verify_lemma2(3, item["lemma2_z"]))
            reports.append(routes.verify_lemma3(item["lemma3_x"]))
            reports.append(routes.verify_theorem(item["theorem_n"]))
            return reports

        return verify_chain
    if workload == "cli_cold":

        prefix = cli_prefix or [sys.executable, "-m", "logint"]

        def cli_cold(n: float) -> tuple[int, str, str]:
            done = subprocess.run(prefix + cli_args(n), env=cli_env, capture_output=True, text=True, timeout=120)
            return done.returncode, done.stdout, done.stderr

        return cli_cold
    raise ValueError(f"unknown workload {workload!r}")


def build_probe_op(workload: str, routes: Any, cli: Any) -> Callable:
    """The op the full-range probe runs.

    It is the timed op, except for cli_cold, where a thousand processes
    would not fit in a run: there ``cli.main`` runs in process, with its
    output captured, and an exception escaping it stands for the traceback
    the process would print.
    """
    if workload != "cli_cold":
        return build_op(workload, routes)

    def cli_in_process(n: float) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(cli_args(n))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = 1
                err.write("Traceback (in process)\n")
        return code, out.getvalue(), err.getvalue()

    return cli_in_process


# ---------------------------------------------------------------------- checks


def route_error(value: float, ref: float) -> float:
    """Error of a route value relative to max(1, |ref|); nan counts as inf."""
    err = abs(value - ref) / max(1.0, abs(ref))
    return math.inf if math.isnan(err) else err


def quadrature_causes(value: float, error: float, converged: bool, ref: float) -> list[str]:
    if converged and not (math.isfinite(value) and math.isfinite(error)):
        return ["numeric_I:converged_non_finite"]
    if not converged:
        return ["numeric_I:not_converged"]
    if route_error(value, ref) > ROUTE_TOL["numeric_I"]:
        return ["numeric_I:out_of_tolerance"]
    return []


def is_dishonest(value: float, error: float, converged: bool, ref: float) -> bool:
    return converged and not abs(value - ref) <= DISHONEST_FACTOR * error


def _closed_form_causes(values: dict[str, float], ref: float) -> list[str]:
    return [f"{name}:out_of_tolerance" for name, v in values.items() if route_error(v, ref) > ROUTE_TOL[name]]


def signature(workload: str, result: Any) -> Any:
    """A JSON-able summary of one op's output; equal summaries mean equal outputs."""
    if isinstance(result, BaseException):
        return ["raise", type(result).__name__]
    if workload == "sweep":
        q = result.quadrature
        return [result.trig_form, result.trigamma_form, result.gamma_derivative_form,
                q.value, q.error_estimate, q.evaluations, q.converged]
    if workload == "closed_forms":
        return list(result)
    if workload == "verify_chain":
        return [[r.subject.value, r.max_abs_deviation, r.passed, [list(p) for p in r.grid]] for r in result]
    code, out, err = result
    return [code, out, "Traceback" in err]


def check(workload: str, item: Any, sig: Any, refs: dict) -> list[str]:
    """Failure causes of one op, from its signature; an empty list means correct."""
    if sig[0] == "raise":
        return [f"raise:{sig[1]}"]
    if workload == "sweep":
        ref = refs["I"][repr(item)]
        trig, trigamma, gd, value, error, _, converged = sig
        causes = quadrature_causes(value, error, converged, ref)
        return causes + _closed_form_causes(
            {"closed_form_trig": trig, "closed_form_trigamma": trigamma, "closed_form_gamma_derivative": gd}, ref
        )
    if workload == "closed_forms":
        ref = refs["I"][repr(item)]
        return _closed_form_causes(dict(zip(("closed_form_trig", "closed_form_trigamma", "closed_form_gamma_derivative"), sig)), ref)
    if workload == "verify_chain":
        return _verify_chain_causes(item, sig)
    return _cli_causes(item, sig, refs["I"][repr(item)])


def _verify_chain_causes(item: dict, sig: list) -> list[str]:
    expected_grids = [[[float(m), z] for z in item["lemma1_z"]] for m in (1, 2, 3)]
    expected_grids.append([[float(m), z] for m in (1, 2, 3) for z in item["lemma2_z"]])
    expected_grids.append([[x] for x in item["lemma3_x"]])
    expected_grids.append([[n] for n in item["theorem_n"]])
    causes = []
    for verifier, (_, deviation, passed, grid), expected in zip(VERIFIERS, sig, expected_grids):
        if grid != expected:
            causes.append(f"{verifier}:wrong_grid")
        elif not passed or not math.isfinite(deviation):
            causes.append(f"{verifier}:not_passed")
    return causes


def _cli_causes(n: float, sig: list, ref: float) -> list[str]:
    code, out, traceback = sig
    if traceback:
        return ["cli:traceback"]
    if code not in (0, 3):
        return [f"cli:exit_{code}"]
    rows = list(csv.reader(io.StringIO(out)))
    if len(rows) != 2 or ",".join(rows[0]) != CLI_EVAL_HEADER or len(rows[1]) != 7:
        return ["cli:payload"]
    try:
        fields = [float(x) for x in rows[1]]
    except ValueError:
        return ["cli:payload"]
    got_n, trig, trigamma, gd, value, error, spread = fields
    if got_n != n:
        return ["cli:payload"]
    if code == 0 and not spread <= CLI_SPREAD_THRESHOLD:
        return ["cli:exit_0_above_threshold"]
    causes = _closed_form_causes(
        {"closed_form_trig": trig, "closed_form_trigamma": trigamma, "closed_form_gamma_derivative": gd}, ref
    )
    if not (math.isfinite(value) and math.isfinite(error)):
        causes.append("numeric_I:non_finite_payload")
    elif route_error(value, ref) > ROUTE_TOL["numeric_I"]:
        causes.append("numeric_I:out_of_tolerance")
    return causes


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(samples: int) -> float:
    """The highest rung of the ladder with at least ten samples beyond it."""
    for pct in PERCENTILE_LADDER:
        if samples - math.ceil(pct / 100.0 * samples) >= 10:
            return pct
    return 50.0
