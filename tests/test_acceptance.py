"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here, not configurable.
"""

import json
import math
import random
import time

from logint import cli, routes, specfun
from logint.quadrature import integrate_bilateral

from test_quadrature import known_integrals

PI2 = math.pi * math.pi


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_01_exact_identities():
    d2 = abs(routes.closed_form_trig(2.0))
    d3 = abs(routes.closed_form_trig(3.0) + 2.0 * PI2 / 27.0)
    d4 = abs(routes.closed_form_trig(4.0) + PI2 / (8.0 * math.sqrt(2.0)))
    ok = d2 <= 1e-15 and d3 <= 1e-12 and d4 <= 1e-12
    report(1, "exact identities at n = 2, 3, 4",
           ok, f"|I(2)|={d2:.2e}, dev3={d3:.2e}, dev4={d4:.2e}")


def test_criterion_02_oracle_equivalence():
    worst = 0.0
    worst_evals = 0
    worst_time = 0.0
    ok = True
    for n in (1.5, 2.0, math.e, 3.0, 4.0, 10.0, 100.0):
        started = time.perf_counter()
        outcome = routes.numeric_I(n)
        elapsed = time.perf_counter() - started
        dev = abs(outcome.value - routes.closed_form_trig(n))
        worst = max(worst, dev)
        worst_evals = max(worst_evals, outcome.evaluations)
        worst_time = max(worst_time, elapsed)
        ok = ok and outcome.converged and dev <= 1e-8
        ok = ok and outcome.evaluations <= 100_000 and elapsed <= 1.0
    report(2, "direct quadrature matches the closed form on the 7-point set",
           ok, f"worst dev={worst:.2e}, max evals={worst_evals}, max time={worst_time:.3f}s")


def test_criterion_03_route_equivalence():
    worst = 0.0
    for k in range(50):
        n = 1.01 * (1e4 / 1.01) ** (k / 49.0)
        trig = routes.closed_form_trig(n)
        dev = abs(trig - routes.closed_form_trigamma(n)) / max(1.0, abs(trig))
        worst = max(worst, dev)
    report(3, "trigamma route matches trig route on 50 log-uniform points",
           worst <= 1e-10, f"worst rel dev={worst:.2e}")


def test_criterion_04_gamma_derivative_route():
    worst = 0.0
    for n in (1.5, 2.0, 3.0, 4.0, 10.0):
        trig = routes.closed_form_trig(n)
        dev = abs(routes.closed_form_gamma_derivative(n) - trig) / max(1.0, abs(trig))
        worst = max(worst, dev)
    report(4, "gamma-derivative route agrees to 1e-13",
           worst <= 1e-13, f"worst rel dev={worst:.2e}")


def test_criterion_05_lemma1_verifier():
    grid = (0.2, 0.35, 0.5, 0.65, 0.8)
    ok = True
    worst = 0.0
    for m in (1, 2, 3):
        rep = routes.verify_lemma1(m, z_grid=grid, tol=1e-6)
        ok = ok and rep.passed
        worst = max(worst, rep.max_abs_deviation)
    center = integrate_bilateral(routes.lemma1_integrand(1, 0.5))
    pi2_dev = abs(center.value - PI2)
    ok = ok and center.converged and pi2_dev <= 1e-6
    report(5, "bilateral-integral identity holds for m = 1..3; center point gives pi^2",
           ok, f"worst dev={worst:.2e}, pi^2 dev={pi2_dev:.2e}")


def test_criterion_06_lemma2_verifier():
    rep = routes.verify_lemma2(m_max=3, tol=1e-9)
    ok = rep.passed
    worst_csc = 0.0
    for z in routes.DEFAULT_LEMMA2_GRID:
        lhs = specfun.trigamma(1.0 - z) + specfun.trigamma(z)
        rhs = PI2 / math.sin(math.pi * z) ** 2
        worst_csc = max(worst_csc, abs(lhs - rhs) / rhs)
    ok = ok and worst_csc <= 1e-9
    report(6, "polygamma reflection identity holds for m = 1..3 on the 9-point grid",
           ok, f"report dev={rep.max_abs_deviation:.2e}, csc-form dev={worst_csc:.2e}")


def test_criterion_07_lemma3_verifier():
    rep = routes.verify_lemma3(tol=1e-12)
    ok = rep.passed and len(rep.grid) == 100
    report(7, "sec/csc double-angle identity holds on the 100-point grid",
           ok, f"max dev={rep.max_abs_deviation:.2e}")


def test_criterion_08_limit_behavior():
    rows = routes.limit_probe([10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
    residuals = [r for _, _, r in rows]
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    positive = all(r > 0.0 for r in residuals)
    final_ok = abs(rows[-1][2]) <= 1e-10
    fitted = [r * n * n for n, _, r in rows if n >= 1e3]
    ratios = [b / a for a, b in zip(fitted, fitted[1:])]
    stable = all(0.99 <= q <= 1.01 for q in ratios)
    ok = decreasing and positive and final_ok and stable
    report(8, "residuals decrease to the -1 limit and the n^2-scaled constant stabilizes",
           ok, f"|I(1e6)+1|={abs(rows[-1][2]):.2e}, fit ratios={[f'{q:.6f}' for q in ratios]}")


def test_criterion_09_special_function_suite():
    t1 = abs(specfun.trigamma(1.0) - PI2 / 6.0) / (PI2 / 6.0)
    th = abs(specfun.trigamma(0.5) - PI2 / 2.0) / (PI2 / 2.0)
    ok = t1 <= 1e-12 and th <= 1e-12
    worst_dig = worst_tri = 0.0
    for i in range(500):
        x = 0.01 + i * (50.0 - 0.01) / 499.0
        worst_dig = max(worst_dig, abs(specfun.digamma(x + 1.0) - specfun.digamma(x) - 1.0 / x))
        tri = specfun.trigamma(x)
        dev = abs(specfun.trigamma(x + 1.0) - tri + 1.0 / (x * x))
        worst_tri = max(worst_tri, dev / max(1.0, abs(tri)))
    ok = ok and worst_dig <= 1e-11 and worst_tri <= 1e-11
    rng = random.Random(7)
    worst_refl = max(
        abs(specfun.gamma_reflection_defect(rng.uniform(0.01, 0.99)))
        for _ in range(200)
    )
    ok = ok and worst_refl <= 1e-12
    report(9, "trigamma values, recurrences and gamma reflection at stated tolerances",
           ok, f"trig devs=({t1:.2e},{th:.2e}), recur=({worst_dig:.2e},{worst_tri:.2e}), refl={worst_refl:.2e}")


def test_criterion_10_quadrature_honesty():
    ok = True
    worst_ratio = 0.0
    for name, run, truth in known_integrals():
        outcome = run(1e-10)
        ok = ok and outcome.converged
        err = abs(outcome.value - truth)
        ok = ok and err <= 10.0 * outcome.error_estimate
        if outcome.error_estimate > 0.0:
            worst_ratio = max(worst_ratio, err / outcome.error_estimate)
    report(10, "all 12 known-value integrals converge and report honest error estimates",
           ok, f"worst err/estimate={worst_ratio:.2f} (must be <= 10)")


def test_criterion_11_cli_contract(capsys):
    checks = []

    def run(args):
        code = cli.main(args)
        out = capsys.readouterr().out
        return code, out

    code, out = run(["eval", "--n", "3", "--format", "json"])
    payload = json.loads(out)
    checks.append(code == 0)
    checks.append(set(payload) == set(cli.EVAL_FIELDS))
    checks.append(abs(payload["trig_form"] + 2.0 * PI2 / 27.0) <= 1e-12)

    code, _ = run(["eval", "--n", "1"])
    checks.append(code == 2)

    code, _ = run(["eval", "--n", "3", "--quad-tol", "1e-16"])
    checks.append(code == 3)

    code, out = run(["table", "--min", "2", "--max", "4", "--steps", "3", "--format", "csv"])
    lines = out.splitlines()
    checks.append(code == 0)
    checks.append(lines[0] == ",".join(cli.EVAL_FIELDS))
    parsed = [float(c) for c in lines[1].split(",")]
    recomputed = routes.evaluate_all_routes(2.0)
    checks.append(parsed[1] == recomputed.trig_form)  # csv round-trip exact

    code, _ = run(["table", "--min", "1", "--max", "4", "--steps", "3"])
    checks.append(code == 2)

    code, out = run(["verify", "--subject", "all", "--format", "json"])
    reports = json.loads(out)
    checks.append(code == 0)
    checks.append(len(reports) == 6)
    checks.append(all(r["pass"] for r in reports))

    code, _ = run(["limit", "--n-list", "10,100,1000"])
    checks.append(code == 0)
    code, _ = run(["limit", "--n-list", "100,10"])
    checks.append(code == 2)

    _, quiet_json = run(["eval", "--n", "3", "--format", "json", "--quiet"])
    _, loud_json = run(["eval", "--n", "3", "--format", "json"])
    checks.append(quiet_json == loud_json)

    report(11, "CLI exit codes, schemas and round-trips all conform",
           all(checks), f"{sum(checks)}/{len(checks)} checks")
