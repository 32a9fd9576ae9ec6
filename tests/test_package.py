"""The package's import structure: what each command loads, and the API
that the lazy exports keep."""

import os
import subprocess
import sys

import pytest

import logint
from logint import quadrature, quadrature_maps, routes, special, specfun, verify

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


EVAL_PATH = {"logint", "logint.cli", "logint.routes", "logint.quadrature", "logint.specfun"}


@pytest.mark.parametrize("command, handler_modules", [
    # the routes' kernels live in specfun, its public functions in special;
    # the table grid and handler in cli_table, the verify and limit handlers
    # in cli_checks; no route calls the finite or bilateral entry points
    (["eval", "--n", "3", "--format", "csv"], set()),
    (["eval", "--n", "3", "--format", "json"], set()),
    (["table", "--min", "1.5", "--max", "4", "--steps", "3", "--format", "csv"],
     {"logint.cli_table"}),
    # only the lemma1 and lemma2 verifiers reach the polygamma kernel and
    # the cot derivatives, both defined in special
    (["verify", "--subject", "lemma3", "--format", "csv"], {"logint.cli_checks", "logint.verify"}),
    (["verify", "--subject", "theorem", "--format", "csv"], {"logint.cli_checks", "logint.verify"}),
    (["verify", "--subject", "all", "--format", "csv"],
     {"logint.cli_checks", "logint.verify", "logint.special"}),
    (["limit", "--n-list", "10,100", "--format", "csv"], {"logint.cli_checks"}),
])
def test_each_command_loads_exactly_its_modules(command, handler_modules):
    loaded = imported_modules(*command)
    assert {m for m in loaded if m.split(".")[0] == "logint"} == EVAL_PATH | handler_modules
    # the CSV rows are joined by hand; only JSON output imports json
    assert "csv" not in loaded
    assert ("json" in loaded) == ("json" in command)


def test_import_logint_loads_only_the_eval_path():
    # asking for a submodule name imports nothing either: the import
    # system asks for it before importing the submodule itself
    probe = (
        "import sys, logint; hasattr(logint, 'verify'); hasattr(logint, 'special'); "
        "hasattr(logint, 'cli_checks'); hasattr(logint, 'cli_table'); "
        "hasattr(logint, 'quadrature_maps'); "
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


@pytest.mark.parametrize("home, defining", [
    (routes, verify), (specfun, special), (quadrature, quadrature_maps),
])
def test_moved_names_resolve_through_both_modules(home, defining):
    assert set(defining.__all__) <= set(home.__all__)
    for name in defining.__all__:
        assert getattr(home, name) is getattr(defining, name), name
    with pytest.raises(AttributeError):
        home.no_such_name


def test_integrate_finite_is_one_object_from_a_cold_start():
    probe = (
        "import logint; from logint.quadrature import integrate_finite as f; "
        "from logint.quadrature import integrate_bilateral as g; "
        "print(f is logint.integrate_finite, g is logint.integrate_bilateral)"
    )
    assert run_python("-c", probe).stdout.split() == ["True", "True"]
