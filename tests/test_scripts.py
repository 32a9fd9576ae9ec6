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


def _load_replay():
    spec = importlib.util.spec_from_file_location("golden_replay", os.path.join(GOLDEN, "replay.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay = _load_replay()
LIBRARY_CALLS = dict(replay.LIBRARY_CASES)


def _recorded(path, name):
    with open(path, encoding="utf-8") as f:
        return {name(record): record for record in json.load(f)}


CLI_RECORDED = _recorded(replay.CORPUS, lambda record: " ".join(record["argv"]))
LIBRARY_RECORDED = _recorded(replay.LIBRARY, lambda record: record["case"])


def test_golden_corpora_record_exactly_what_replay_lists():
    assert sorted(CLI_RECORDED) == sorted(" ".join(argv) for argv in replay.INVOCATIONS)
    assert sorted(LIBRARY_RECORDED) == sorted(LIBRARY_CALLS)
    assert len(LIBRARY_CALLS) == len(replay.LIBRARY_CASES)


# One test per recorded invocation and case, so that a moved value fails
# under the name of what moved.  These run in-process on this Python;
# replay.py runs the same comparison as a script on every supported one.
@pytest.mark.parametrize("argv", replay.INVOCATIONS, ids=" ".join)
def test_golden_cli_invocation_replays_byte_identical(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = CLI_RECORDED[" ".join(argv)]
    assert replay._first_difference(recorded, replay.run(argv)) is None


@pytest.mark.parametrize("case", [case for case, _ in replay.LIBRARY_CASES])
def test_golden_library_case_replays_bit_identical(case):
    recorded = LIBRARY_RECORDED[case]["result"]
    assert replay._first_change(recorded, LIBRARY_CALLS[case]()) is None


def test_golden_cli_corpus_replays_byte_identical():
    with open(os.path.join(GOLDEN, "cli.json"), encoding="utf-8") as f:
        assert {record["exit"] for record in json.load(f)} == {0, 1, 2, 3}
    proc = run_script(os.path.join(GOLDEN, "replay.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
