#!/usr/bin/env python3
"""Replay the golden corpora and compare them byte for byte and bit for bit.

Each CLI invocation below runs in-process through ``logint.cli.main`` with
``COLUMNS=80``, and its exit code, stdout and stderr are compared with
those recorded in ``cli.json`` beside this script.  That corpus pins the
output contract that a refactor must keep: every format, ``--quiet``,
both tolerance flags, the help pages, and exits 0, 1, 2 and 3.

Each library case below calls the routes or the verifiers directly, and
its result, every float as ``float.hex``, is compared with the one
recorded in ``library.json``: the closed forms, the sec/csc form and
``numeric_I``'s outcome at fixed n from n - 1 = 2^-52 to the largest
double and at seeded n on both sides of 2 at three tolerances, the
default verification reports, the lemma1 verifier and its scaled
integrand's exp-sinh outcome at z where the even-order bracket is a
signed zero or the scale overflows, lemma2 and lemma3 on seeded grids,
``integrate_finite`` and ``integrate_bilateral`` on known integrals at three
tolerances, and the type and message of each refusal of a bad n, a bad grid
or a bad interval.
Standard library only, so both corpora replay on every supported Python
with nothing installed.

Replay prints one line per invocation or case that differs, is not
recorded or is recorded but no longer listed, and exits 1 if there is
any.  A change that moves output on purpose re-records with ``--record``,
which prints what moved; nothing is re-recorded otherwise.

    PYTHONPATH=src python tests/golden/replay.py            # compare; exit 0 or 1
    PYTHONPATH=src python tests/golden/replay.py --record   # rewrite both corpora
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import sys
from enum import Enum

from logint import cli, quadrature, routes, verify

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "cli.json")
LIBRARY = os.path.join(HERE, "library.json")


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


def _overflow_edge(scale):
    """The largest double n whose scale * n * n, formed left to right as the
    routes form it, is finite: route 1 switches form past it at scale 1,
    route 2 at scale 4."""
    n = math.sqrt(sys.float_info.max / scale)
    while math.isinf(scale * n * n):
        n = math.nextafter(n, 0.0)
    while not math.isinf(scale * math.nextafter(n, math.inf) * math.nextafter(n, math.inf)):
        n = math.nextafter(n, math.inf)
    return n


def _around(n):
    return [math.nextafter(n, 0.0), n, math.nextafter(n, math.inf)]


_NEXT_BELOW_MAX = math.nextafter(sys.float_info.max, 0.0)

LIBRARY_NS = [
    *(1.0 + d for d in (
        2.0**-52, 2.0**-40, 1e-15, 1e-12, 2.0**-26, 1e-7, 1e-6, 1e-4, 1e-3, 0.1,
        0.5, 0.9, 1.5, 9.0, 99.0, 1e3, 1e6, 1e12, 1e50, 1e100, 1e150, 1e200, 1e300,
    )),
    *_around(2.0),
    3.0,
    4.0,
    math.e,
    *_around(_overflow_edge(1.0)),
    *_around(_overflow_edge(4.0)),
    math.nextafter(_NEXT_BELOW_MAX, 0.0),
    _NEXT_BELOW_MAX,
    sys.float_info.max,
]
BAD_NS = [1.0, math.nextafter(1.0, 0.0), 0.0, -3.0, math.nan, math.inf, -math.inf]
# n - 1 = 2^U(-52, 0) and 2^U(0, 8), and n = 2 and its neighbours: route
# 4's scaled closure below 2 and its unscaled one from 2 on
_NUMERIC_RNG = random.Random(2019)
NUMERIC_NS = [
    *(1.0 + 2.0 ** _NUMERIC_RNG.uniform(-52.0, 0.0) for _ in range(4)),
    *(1.0 + 2.0 ** _NUMERIC_RNG.uniform(0.0, 8.0) for _ in range(4)),
    *_around(2.0),
]
# z = 1/2 and its neighbours, where the even-order bracket is a signed zero
# or nearly so, and the two edges, where the scale c^m overflows
_HALF_UP, _HALF_DOWN = math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)
LEMMA1_ZS = [_HALF_DOWN, _HALF_UP, 0.5 - 1e-12, 0.5 + 1e-12, 1e-300, 1.0 - 1e-16]
_GRID_RNG = random.Random(1974)
LEMMA2_GRIDS = [tuple(_GRID_RNG.uniform(0.06, 0.94) for _ in range(7)) for _ in range(3)]
# x on both sides of the poles at multiples of pi/2, none within 0.01 of one
LEMMA3_GRIDS = [
    tuple(x for x in (_GRID_RNG.uniform(-3.0, 3.0) for _ in range(40))
          if abs(math.sin(2.0 * x)) > 0.02)
    for _ in range(3)
]
# The five finite integrals and two of the whole-line ones that the known-value
# checks of the quadrature tests run, by name
FINITE_RUNS = (
    ("log, 0.0, 1.0", math.log, 0.0, 1.0),
    ("sin, 0.0, pi", math.sin, 0.0, math.pi),
    ("1/sqrt(x), 0.0, 1.0", lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
    ("x**3, 0.0, 1.0", lambda x: x**3, 0.0, 1.0),
    ("1/(1 + x*x), 0.0, 2.0", lambda x: 1.0 / (1.0 + x * x), 0.0, 2.0),
)
BILATERAL_RUNS = (
    ("exp(-t*t)", lambda t: math.exp(-t * t)),
    ("t*exp(-t*t)", lambda t: t * math.exp(-t * t)),
)
ENTRY_TOLS = (1e-6, 1e-10, 1e-13)
ROUTES = (
    routes.closed_form_trig,
    routes.closed_form_trigamma,
    routes.closed_form_gamma_derivative,
    routes.intermediate_form,
    routes.numeric_I,
)


def _plain(value):
    """value as JSON data: floats as float.hex, named tuples as dicts."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "_asdict"):
        return {key: _plain(v) for key, v in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _outcome(call, *args, **kwargs):
    """What call returns, as plain data, or the type and message it raises."""
    try:
        return _plain(call(*args, **kwargs))
    except Exception as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}


LIBRARY_CASES = [
    *((f"routes at n = {n.hex()}", lambda n=n: {f.__name__: _outcome(f, n) for f in ROUTES})
      for n in LIBRARY_NS + BAD_NS),
    *((f"verify_lemma1({m})", lambda m=m: _outcome(routes.verify_lemma1, m)) for m in (1, 2, 3)),
    *((f"numeric_I({n.hex()}, {tol!r})", lambda n=n, tol=tol: _outcome(routes.numeric_I, n, tol))
      for n in NUMERIC_NS for tol in (1e-6, 1e-10, 1e-13)),
    *((f"verify_lemma1({m}, z_grid=({z.hex()},))",
       lambda m=m, z=z: _outcome(routes.verify_lemma1, m, z_grid=(z,)))
      for m in (1, 2, 3) for z in LEMMA1_ZS),
    *((f"exp-sinh of _lemma1_scaled({m}, {z.hex()})",
       lambda m=m, z=z: _outcome(
           quadrature.integrate_semi_infinite, verify._lemma1_scaled(m, z), 0.0))
      for m in (1, 2, 3) for z in LEMMA1_ZS),
    *((f"verify_lemma2(z_grid=seeded grid {i})",
       lambda grid=grid: _outcome(routes.verify_lemma2, z_grid=grid))
      for i, grid in enumerate(LEMMA2_GRIDS)),
    *((f"verify_lemma3(x_grid=seeded grid {i})",
       lambda grid=grid: _outcome(routes.verify_lemma3, x_grid=grid))
      for i, grid in enumerate(LEMMA3_GRIDS)),
    ("verify_lemma3(x_grid=(nan,))", lambda: _outcome(routes.verify_lemma3, x_grid=(math.nan,))),
    ("verify_lemma2()", lambda: _outcome(routes.verify_lemma2)),
    ("verify_lemma3()", lambda: _outcome(routes.verify_lemma3)),
    ("verify_theorem()", lambda: _outcome(routes.verify_theorem)),
    ("verify_lemma1(4)", lambda: _outcome(routes.verify_lemma1, 4)),
    ("verify_lemma1(1, z_grid=(0.0,))", lambda: _outcome(routes.verify_lemma1, 1, z_grid=(0.0,))),
    ("verify_lemma2(m_max=4)", lambda: _outcome(routes.verify_lemma2, m_max=4)),
    ("verify_lemma2(z_grid=(0.01,))", lambda: _outcome(routes.verify_lemma2, z_grid=(0.01,))),
    ("verify_lemma3(x_grid=(pi/2,))",
     lambda: _outcome(routes.verify_lemma3, x_grid=(math.pi / 2.0,))),
    ("verify_theorem(n_grid=())", lambda: _outcome(routes.verify_theorem, n_grid=())),
    ("limit_probe([])", lambda: _outcome(routes.limit_probe, [])),
    ("limit_probe([100.0, 10.0])", lambda: _outcome(routes.limit_probe, [100.0, 10.0])),
    *((f"integrate_finite({name}, {tol!r})",
       lambda f=f, a=a, b=b, tol=tol: _outcome(quadrature.integrate_finite, f, a, b, tol))
      for name, f, a, b in FINITE_RUNS for tol in ENTRY_TOLS),
    *((f"integrate_bilateral({name}, {tol!r})",
       lambda f=f, tol=tol: _outcome(quadrature.integrate_bilateral, f, tol))
      for name, f in BILATERAL_RUNS for tol in ENTRY_TOLS),
    *((f"integrate_finite(sin, {name})",
       lambda a=a, b=b: _outcome(quadrature.integrate_finite, math.sin, a, b))
      for name, a, b in (("1.0, 1.0", 1.0, 1.0), ("0.0, inf", 0.0, math.inf),
                         ("0.0, 10**400", 0.0, 10**400))),
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


def _first_change(old, new, path="result"):
    """Where two library results first differ, walking dicts and lists."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        pairs = ((old[key], new[key], f"{path}.{key}") for key in old)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = ((a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new)))
    else:
        return None if old == new else f"{path}: {old!r} -> {new!r}"
    return next(filter(None, (_first_change(*pair) for pair in pairs)), None)


def _compare(path, results, name, difference):
    """One line per result that differs from the corpus at path, is not
    recorded there, or is recorded there but no longer listed."""
    try:
        with open(path, encoding="utf-8") as f:
            recorded = {name(r): r for r in json.load(f)}
    except FileNotFoundError:
        recorded = {}
    problems = []
    for now in results:
        key = name(now)
        if key not in recorded:
            problems.append(f"{key}: not recorded")
        else:
            moved = difference(recorded.pop(key), now)
            if moved:
                problems.append(f"{key}: {moved}")
    return problems + [f"{key}: recorded but no longer listed" for key in recorded]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite both corpora from this run instead of comparing")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    results = [run(invocation) for invocation in INVOCATIONS]
    library = [{"case": case, "result": call()} for case, call in LIBRARY_CASES]
    problems = _compare(CORPUS, results, lambda r: " ".join(r["argv"]), _first_difference)
    problems += _compare(LIBRARY, library, lambda r: r["case"],
                         lambda old, new: _first_change(old["result"], new["result"]))
    counts = f"{len(results)} invocations and {len(library)} library cases"
    if args.record:
        for path, records in ((CORPUS, results), (LIBRARY, library)):
            with open(path, "w", encoding="utf-8") as f:
                json.dump(records, f, indent=1, ensure_ascii=False)
                f.write("\n")
        print(f"recorded {counts}; moved since the last recording:")
        print("\n".join(problems) or "none")
        return 0
    print("\n".join(problems) or f"{counts} identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
