"""The package's import structure: what each command loads, and the API
that the lazy exports keep."""

import os
import subprocess
import sys

import pytest

import logint
from logint import quadrature, routes, special, specfun, verify

SRC = os.path.dirname(os.path.dirname(logint.__file__))

# sorted(logint.__all__) as it stood before the verifiers and the public special
# functions moved out of routes and specfun
EXPORTS = [
    "CotPolynomial", "DEFAULT_LEMMA1_GRID", "DEFAULT_LEMMA1_TOL", "DEFAULT_LEMMA2_GRID",
    "DEFAULT_LEMMA2_TOL", "DEFAULT_LEMMA3_GRID", "DEFAULT_LEMMA3_TOL", "DEFAULT_THEOREM_GRID",
    "DEFAULT_THEOREM_TOL", "DomainError", "EvaluationRow", "MAX_DERIVATIVE_ORDER",
    "QuadratureOutcome", "Subject", "UnsupportedOrderError", "VerificationReport",
    "__version__", "closed_form_gamma_derivative", "closed_form_trig", "closed_form_trigamma",
    "cot_derivative", "cot_derivative_poly", "digamma", "evaluate_all_routes",
    "gamma_reflection_defect", "integrate_bilateral", "integrate_finite",
    "integrate_semi_infinite", "intermediate_form", "lemma1_integrand", "lgamma", "limit_probe",
    "numeric_I", "polygamma", "trigamma", "verify_lemma1", "verify_lemma2", "verify_lemma3",
    "verify_theorem",
]


def run_python(*args):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def imported_modules(*cli_args):
    """Every module a fresh ``python -m logint <cli_args>`` imports."""
    err = run_python("-X", "importtime", "-m", "logint", *cli_args).stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in err.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize("command", [
    ["eval", "--n", "3"],
    ["table", "--min", "1.5", "--max", "4", "--steps", "3"],
])
def test_eval_path_loads_no_verifier_special_function_or_csv(command):
    loaded = imported_modules(*command, "--format", "csv")
    # the routes' kernels live in specfun; its public functions in special
    assert {"logint.routes", "logint.specfun"} <= loaded
    unused = {"logint.verify", "logint.special", "logint.cli_checks", "csv"}
    assert not unused & loaded


def test_verify_loads_the_verifiers_and_special_functions():
    loaded = imported_modules("verify", "--subject", "all", "--format", "csv")
    assert {"logint.verify", "logint.special"} <= loaded


@pytest.mark.parametrize("subject", ["lemma3", "theorem"])
def test_verify_without_lemma1_or_lemma2_loads_no_special_function(subject):
    # only the lemma1 and lemma2 verifiers reach the polygamma kernel and
    # the cot derivatives, both defined in special
    loaded = imported_modules("verify", "--subject", subject, "--format", "csv")
    assert "logint.verify" in loaded
    assert "logint.special" not in loaded


@pytest.mark.parametrize("command", [
    ["verify", "--subject", "lemma3"],
    ["limit", "--n-list", "10,100"],
])
def test_verify_and_limit_load_their_handlers(command):
    assert "logint.cli_checks" in imported_modules(*command, "--format", "csv")


def test_import_logint_loads_only_the_eval_path():
    # asking for a submodule name imports nothing either: the import
    # system asks for it before importing the submodule itself
    probe = (
        "import sys, logint; hasattr(logint, 'verify'); hasattr(logint, 'special'); "
        "hasattr(logint, 'cli_checks'); "
        "print(*sorted(m for m in sys.modules if m.startswith('logint')))"
    )
    loaded = run_python("-c", probe).stdout.split()
    assert loaded == ["logint", "logint.quadrature", "logint.routes", "logint.specfun"]


def test_exports_are_the_same_names():
    assert sorted(logint.__all__) == EXPORTS
    namespace = {}
    exec("from logint import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    with pytest.raises(AttributeError):
        logint.no_such_name


def test_each_export_comes_from_its_module():
    for module in (specfun, quadrature, routes):
        for name in module.__all__:
            assert getattr(logint, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        quadrature.no_such_name


@pytest.mark.parametrize("home, defining", [(routes, verify), (specfun, special)])
def test_moved_names_resolve_through_both_modules(home, defining):
    assert set(defining.__all__) <= set(home.__all__)
    for name in defining.__all__:
        assert getattr(home, name) is getattr(defining, name), name
    with pytest.raises(AttributeError):
        home.no_such_name


def test_integrate_finite_is_one_object_from_a_cold_start():
    probe = (
        "import logint; from logint.quadrature import integrate_finite as f; "
        "print(f is logint.integrate_finite)"
    )
    assert run_python("-c", probe).stdout.split() == ["True"]
