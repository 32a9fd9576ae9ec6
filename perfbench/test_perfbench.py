"""Tests of the benchmark itself: inputs, failure counting, counters, tracing
and the output contract.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

from logint import cli, quadrature, routes, specfun  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert wl.make_inputs(workload, 7) == wl.make_inputs(workload, 7)
    assert wl.make_inputs(workload, 7) != wl.make_inputs(workload, 8)
    assert len(wl.make_inputs(workload, 7)) == wl.POOL_SIZE[workload]


def test_timed_inputs_avoid_the_known_defects_and_the_probe_covers_them():
    n = wl.make_inputs("sweep", 1)
    assert min(n) < 1.0 + 0.06 and max(n) > 1.0 + 400
    assert all(1.0 + 0.05 <= x <= 1.0 + 500 for x in n)
    probe = wl.make_probe("sweep", 1)
    assert wl.make_probe("sweep", 1) == probe != wl.make_probe("sweep", 2)
    assert len(probe) == wl.PROBE_SIZE["sweep"]
    assert min(probe) < 1.0 + 2e-3 and max(probe) > 1.0 + 5e3
    assert all(1.0 + 1e-3 <= x <= 1.0 + 1e4 for x in probe)


@pytest.mark.parametrize("workload", ["sweep", "closed_forms", "cli_cold"])
def test_full_range_probe_counts_the_known_defects(workload):
    probe = [1.005, 1.015, 1.03, 3.0, 7800.0]
    refs = oracle.references(probe, [])
    result = worker.full_range_probe(workload, wl.build_probe_op(workload, routes, cli), probe, refs)
    assert result["inputs"] == 5
    if workload == "closed_forms":  # only the gamma-derivative route fails, and only near n = 1
        assert result["failed"] == 1
        assert result["parts"] == {"closed_form_gamma_derivative": 1}
        return
    assert result["failed"] == 4  # all but n = 3
    assert sum(result["causes"].values()) >= 4


def test_raising_op_is_counted_not_propagated():
    inputs = [1.5, 2.5, 3.5, 4.5]
    refs = oracle.references(inputs, [])

    def op(n):
        if n == 2.5:
            raise ZeroDivisionError("boom")
        ref = refs["I"][repr(n)]
        return ref, ref, 0.0 if n == 4.5 else ref

    # a host at half the reference speed: every op time is halved
    half_speed = calibration.Calibrator(lambda: 2_000, 1_000, 0)
    window = worker.measure("closed_forms", op, inputs, refs, seconds=0.0, calibrator=half_speed)
    assert window["passes"] == wl.MIN_PASSES
    assert window["attempted"] == wl.MIN_PASSES * 4
    assert window["failed"] == wl.MIN_PASSES * 2
    assert window["causes"] == {
        "raise:ZeroDivisionError": 1,
        "closed_form_gamma_derivative:out_of_tolerance": 1,
    }
    assert window["ops_per_s"] > 0.0 and window["unstable"] == 0
    assert window["op_p50_ms"] == pytest.approx(window["measured"]["op_p50_ms"] / 2)
    assert window["ops_per_s"] == pytest.approx(window["measured"]["ops_per_s"] * 2)


def test_calibration_runs_after_each_block():
    samples = []
    calibrator = calibration.Calibrator(lambda: samples.append(1) or 100 * len(samples), 100, 1)
    op_ns, _, calibration_ns = worker.one_pass(lambda n: n, [1, 2, 3], calibrator)
    assert len(op_ns) == 3 and calibration_ns == [100, 200, 300]
    calibrator = calibration.Calibrator(lambda: 7, 100, 10**12)  # one block: a single calibration
    assert worker.one_pass(lambda n: n, [1, 2, 3], calibrator)[2] == [7, 7, 7]


def test_cli_contract_breaches_are_failures():
    n = 3.0
    refs = oracle.references([n], [])
    ref = repr(refs["I"][repr(n)])
    good = f"{wl.CLI_EVAL_HEADER}\n{n!r},{ref},{ref},{ref},{ref},1e-12,0.0\n"
    assert wl.check("cli_cold", n, [0, good, False], refs) == []
    assert wl.check("cli_cold", n, [1, "", True], refs) == ["cli:traceback"]
    assert wl.check("cli_cold", n, [2, good, False], refs) == ["cli:exit_2"]
    assert wl.check("cli_cold", n, [0, "n\n3\n", False], refs) == ["cli:payload"]
    inf_value = good.replace(f",{ref},1e-12", ",inf,1e-12")
    assert wl.check("cli_cold", n, [3, inf_value, False], refs) == ["numeric_I:non_finite_payload"]


def test_oracle_agrees_with_mpmath_quadrature():
    import mpmath

    for n in (1.5, 3.0, 10.0, 1000.0):
        with mpmath.workdps(oracle.DIGITS):
            nn = mpmath.mpf(n)
            by_quadrature = float(mpmath.quad(lambda x: mpmath.log(x) / (x**nn + 1), [0, 1, mpmath.inf]))
        assert oracle.integral(n) == pytest.approx(by_quadrature, rel=1e-14, abs=1e-15)
    assert abs(oracle.integral(2.0)) < 1e-30


def _traced_pass(workload, inputs):
    tracer = Tracer()
    tracer.install(specfun, quadrature, routes, cli)
    tracer.recording = True
    try:
        _, results, _ = worker.one_pass(wl.build_op(workload, routes), inputs)
    finally:
        tracer.uninstall()
    return tracer, [repr(wl.signature(workload, r)) for r in results]


def test_tracer_restores_the_program():
    originals = (routes.integrate_finite, quadrature.integrate_semi_infinite, specfun.hurwitz_zeta, cli.main)
    _traced_pass("closed_forms", [3.0])
    assert (routes.integrate_finite, quadrature.integrate_semi_infinite, specfun.hurwitz_zeta, cli.main) == originals


@pytest.mark.parametrize("workload", ["sweep", "closed_forms", "verify_chain"])
def test_counts_repeat_and_tracing_changes_no_output(workload):
    inputs = wl.make_inputs(workload, 3)[:16]
    _, plain, _ = worker.one_pass(wl.build_op(workload, routes), inputs)
    plain_sigs = [repr(wl.signature(workload, r)) for r in plain]
    first, first_sigs = _traced_pass(workload, inputs)
    second, second_sigs = _traced_pass(workload, inputs)
    assert first.counts() == second.counts()
    assert first_sigs == second_sigs == plain_sigs


def test_traced_evaluations_match_quadrature_outcomes():
    inputs = [n for n in wl.make_inputs("sweep", 3) if n > 1.1][:32]  # none of these raise
    untraced = sum(routes.evaluate_all_routes(n).quadrature.evaluations for n in inputs)
    tracer, _ = _traced_pass("sweep", inputs)
    counts = tracer.counts()
    assert counts["evals"]["quadrature.integrate_finite"] == untraced
    assert counts["outcomes"]["quadrature.integrate_finite"][2] == untraced
    assert counts["integrand_evals"] == untraced
    assert counts["calls"]["quadrature.integrate_finite"] == 2 * len(inputs)


def test_self_times_account_for_the_op_time():
    inputs = wl.make_inputs("verify_chain", 3)[:4]
    tracer = Tracer()
    tracer.install(specfun, quadrature, routes, cli)
    try:
        op_ns, _, _ = worker.one_pass(wl.build_op("verify_chain", routes), inputs)
    finally:
        tracer.uninstall()
    traced = sum(tracer.times().values())
    total = sum(op_ns)
    assert 0.95 * total < traced <= total


def _run(workload, trace, cwd=ROOT, seconds="1"):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("closed_forms", 0), ("closed_forms", 1), ("verify_chain", 1), ("cli_cold", 1)])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    report = json.loads(done.stdout.splitlines()[-2])
    assert report["machine_start"]["nproc"] >= 1
    if trace:
        assert report["trace_identical"] is True
        shares = [v["value"] for k, v in line["metrics"].items() if k.count(".") == 1 and k.endswith("_share")]
        shares.append(line["metrics"]["cli.main.self_share"]["value"])
        assert sum(shares) == pytest.approx(1.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
