#!/usr/bin/env python3
"""Replay the CLI golden corpus and compare it byte for byte.

Each invocation below runs in-process through ``logint.cli.main`` with
``COLUMNS=80``, and its exit code, stdout and stderr are compared with
those recorded in ``cli.json`` beside this script.  The corpus pins the
output contract that a refactor must keep: every format, ``--quiet``,
both tolerance flags, the help pages, and exits 0, 1, 2 and 3.  Standard
library only, so it runs on every supported Python with nothing installed.

Replay prints one line per invocation that differs, is not recorded or is
recorded but no longer listed, and exits 1 if there is any.  A change that
moves output on purpose re-records with ``--record``, which prints the
invocations that moved; nothing is re-recorded otherwise.

    PYTHONPATH=src python tests/golden/replay.py            # compare; exit 0 or 1
    PYTHONPATH=src python tests/golden/replay.py --record   # rewrite cli.json
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import sys

from logint import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli.json")


def _variants(*command):
    # every format, with and without --quiet, at the default tolerances, at
    # a threshold no spread meets and at a quadrature tol that cannot converge
    for tail in ((), ("--tol", "1e-30"), ("--quad-tol", "1e-16")):
        for fmt in ("human", "csv", "json"):
            for quiet in ((), ("--quiet",)):
                yield [*command, "--format", fmt, *quiet, *tail]


def _formats(*command):
    for fmt in ("human", "csv", "json"):
        yield [*command, "--format", fmt]


INVOCATIONS = [
    *_variants("eval", "--n", "3"),
    *_variants("table", "--min", "1.5", "--max", "4", "--steps", "3"),
    # |I| ~ 1e14: rounding alone spreads the routes past the default threshold
    *_formats("eval", "--n", "1.0000001"),
    *_formats("table", "--min", "1.0000001", "--max", "1.0000002", "--steps", "2"),
    *_formats("table", "--min", "1.5", "--max", "100", "--steps", "5", "--spacing", "log"),
    *_formats("verify", "--subject", "theorem"),
    *_formats("verify", "--subject", "theorem", "--tol", "1e-30"),
    *_formats("verify", "--subject", "theorem", "--quad-tol", "1e-16"),
    *_formats("verify", "--subject", "all"),
    ["verify", "--subject", "all", "--quiet"],
    *_formats("limit", "--n-list", "2,10,100,1000"),
    ["eval", "--n", "1"],
    ["eval", "--n", "3", "--tol", "0"],
    ["limit", "--n-list", "100,10"],
    ["limit", "--n-list", "10,100", "--tol", "1e-3"],
    ["--help"],
    ["eval", "--help"],
    ["table", "--help"],
    ["verify", "--help"],
    ["limit", "--help"],
]


def run(argv):
    """One invocation's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _first_difference(recorded, now):
    if recorded["exit"] != now["exit"]:
        return f"exit {recorded['exit']} -> {now['exit']}"
    for key in ("stdout", "stderr"):
        old, new = recorded[key].splitlines(True), now[key].splitlines(True)
        for i, (a, b) in enumerate(itertools.zip_longest(old, new), 1):
            if a != b:  # None past the last line
                return f"{key} line {i}: {a!r} -> {b!r}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the corpus from this run instead of comparing")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    results = [run(invocation) for invocation in INVOCATIONS]
    try:
        with open(CORPUS, encoding="utf-8") as f:
            recorded = {tuple(r["argv"]): r for r in json.load(f)}
    except FileNotFoundError:
        recorded = {}
    problems = []
    for now in results:
        key = tuple(now["argv"])
        name = " ".join(key)
        if key not in recorded:
            problems.append(f"{name}: not recorded")
        else:
            difference = _first_difference(recorded.pop(key), now)
            if difference:
                problems.append(f"{name}: {difference}")
    problems += [f"{' '.join(key)}: recorded but no longer listed" for key in recorded]
    if args.record:
        with open(CORPUS, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1, ensure_ascii=False)
            f.write("\n")
        print(f"recorded {len(results)} invocations; moved since the last recording:")
        print("\n".join(problems) or "none")
        return 0
    print("\n".join(problems) or f"{len(results)} invocations identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
