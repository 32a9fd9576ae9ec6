"""The scripts in scripts/ run end to end and print their header."""

import importlib.util
import os
import subprocess
import sys

import pytest

import logint

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("route_spread_table.py", ["--min", "1.5", "--max", "10", "--steps", "3"],
         "n I(n) spread quad evals converged"),
        ("limit_fit.py", [], "n I(n)+1 fit C C - pi^2/6"),
        pytest.param(
            "honesty_survey.py",
            ["--seeds", "1", "--count", "16", "--lemma1-z", "3", "--tols", "1e-4", "1e-10"],
            "family tol outcomes converged mean evals max evals dishonest worst ratio",
            marks=pytest.mark.skipif(
                importlib.util.find_spec("mpmath") is None, reason="needs mpmath"
            ),
        ),
    ],
)
def test_script_runs_and_prints_its_header(script, args, header):
    # the child must import the same logint, installed or not
    src = os.path.dirname(os.path.dirname(logint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the header is right-aligned columns; compare its words
    assert proc.stdout.splitlines()[0].split() == header.split()
