"""The scripts in scripts/ run end to end and print their header, and the
golden corpora in tests/golden/ replay byte for byte and bit for bit."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import logint

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run_script(path, *args):
    # the child must import the same logint, installed or not
    src = os.path.dirname(os.path.dirname(logint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


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
    proc = run_script(os.path.join(SCRIPTS, script), *args)
    assert proc.returncode == 0, proc.stderr
    # the header is right-aligned columns; compare its words
    assert proc.stdout.splitlines()[0].split() == header.split()


def test_golden_cli_corpus_replays_byte_identical():
    with open(os.path.join(GOLDEN, "cli.json"), encoding="utf-8") as f:
        assert {record["exit"] for record in json.load(f)} == {0, 1, 2, 3}
    proc = run_script(os.path.join(GOLDEN, "replay.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
