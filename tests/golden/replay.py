#!/usr/bin/env python3
"""Replay the golden corpora and compare them byte for byte and bit for bit.

The corpora beside this script are the only home of recorded values: every
output byte, float bit, count and module set that a change must keep lives
here, and the tier-1 tests hold properties only.

Each CLI invocation below runs in-process through ``logint.cli.main`` with
``COLUMNS=80``, and its exit code, stdout and stderr are compared with
those recorded in ``cli.json``.  That corpus pins the output contract that
a refactor must keep: every format, ``--quiet``, both tolerance flags, the
help pages, and exits 0, 1, 2 and 3.

Each library case below calls the package directly, and its result, every
float as ``float.hex``, is compared with the one recorded in
``library.json``:

- the closed forms, the sec/csc form and ``numeric_I``'s outcome at fixed n
  from n - 1 = 2^-52 to the largest double, and at seeded n on both sides
  of 2 at three tolerances;
- the default verification reports, the lemma1 verifier and its scaled
  integrand's exp-sinh outcome at z where the even-order bracket is a
  signed zero or the scale overflows, and lemma2 and lemma3 on seeded grids;
- ``integrate_finite`` and ``integrate_bilateral`` on known integrals at
  three tolerances, the engine on integrands no route runs, and two runs at
  a tol no level meets, which walk past the cached levels to the cap;
- ``polygamma``'s bits for m = 1, 2, 3, which no route or verifier reads;
- the type and message of each refusal of a bad n, a bad grid, a bad
  interval or a ``Decimal('NaN')`` argument to a special function;
- three exact counts, which depend on the code alone: ``numeric_I``'s
  evaluations over seeded n, the lemma1 default grid's, and the node rows
  cached;
- for each command, what a fresh ``python -X importtime -m logint`` process
  loads: its exit code, the logint modules, the bytes of their source and
  of ``__main__`` (what a cold run compiles), and whether csv or json loads.

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
import importlib.util
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from enum import Enum

import logint
from logint import cli, quadrature, routes, special, verify

HERE = os.path.dirname(os.path.abspath(__file__))
# the cold processes import the same logint as this script
SRC = os.path.dirname(os.path.dirname(os.path.abspath(logint.__file__)))
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
    # the default format and subject, lemma3 and lemma2 alone, and limit's --quiet
    ["eval", "--n", "3"],
    ["verify", "--format", "csv"],
    *_formats("verify", "--subject", "lemma3"),
    ["verify", "--subject", "lemma3"],
    ["verify", "--subject", "lemma2", "--tol", "1e-30"],
    ["limit", "--n-list", "2,10,100,1000", "--quiet"],
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
    # route 4's unscaled path and the n >= 2 rounding of the trig forms
    600.0,
    660.0,
    1e6,
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
# or nearly so, the two edges, where the scale c^m overflows, and an
# ordinary z
_HALF_UP, _HALF_DOWN = math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)
LEMMA1_ZS = [_HALF_DOWN, _HALF_UP, 0.5 - 1e-12, 0.5 + 1e-12, 1e-300, 1.0 - 1e-16, 0.35]
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
# (name, entry point, its arguments): integrands no route runs, and two runs
# at a tol no level meets, which walk levels 6-12, built again on each pass
# past the cached levels 0-5, to the cap
ENGINE_RUNS = (
    ("integrate_finite(3 + sin(2x + 0.5) + x*x/4, 0.1, 2.3)", quadrature.integrate_finite,
     lambda x: 3.0 + math.sin(2.0 * x + 0.5) + 0.25 * x * x, 0.1, 2.3),
    ("integrate_finite(x*x, -1.0, 2.0)", quadrature.integrate_finite, lambda x: x * x, -1.0, 2.0),
    ("integrate_semi_infinite(exp(-x), 0.0)",
     quadrature.integrate_semi_infinite, lambda x: math.exp(-x), 0.0),
    ("integrate_semi_infinite(1/(x*x), 2.5)",
     quadrature.integrate_semi_infinite, lambda x: 1.0 / (x * x), 2.5),
    ("integrate_bilateral(lemma1_integrand(2, 0.35))",
     quadrature.integrate_bilateral, routes.lemma1_integrand(2, 0.35)),
    ("integrate_semi_infinite(exp(-x), 0.0, 1e-16)",
     quadrature.integrate_semi_infinite, lambda x: math.exp(-x), 0.0, 1e-16),
    ("integrate_finite(sin, 0.0, pi, 1e-16)", quadrature.integrate_finite, math.sin, 0.0,
     math.pi, 1e-16),
)
# psi^(m)(x), m = 1, 2, 3: the lemma2 grid, a tiny x, a quarter, the shift's
# worst power-of-two crossing and a large x
POLYGAMMA_XS = (*verify.DEFAULT_LEMMA2_GRID, 1e-60, 0.25, 31.382895422458322, 1e8)
_COUNT_RNG = random.Random(0)
COUNT_NS = [1.0 + 10.0 ** _COUNT_RNG.uniform(-12.0, 12.0) for _ in range(1000)]
# each command once in a fresh process: the eval path, each handler module,
# special only for lemma1 and lemma2, and json only for JSON output
COLD_COMMANDS = (
    ("eval", "--n", "3", "--format", "csv"),
    ("eval", "--n", "3", "--format", "json"),
    ("table", "--min", "1.5", "--max", "4", "--steps", "3", "--format", "csv"),
    ("verify", "--subject", "lemma3", "--format", "csv"),
    ("verify", "--subject", "theorem", "--format", "csv"),
    ("verify", "--subject", "all", "--format", "csv"),
    ("limit", "--n-list", "10,100", "--format", "csv"),
)
# comparisons with it raise decimal.InvalidOperation, not False
DECIMAL_NAN = Decimal("NaN")
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


def _cold_run(command):
    """What a fresh ``python -X importtime -m logint <command>`` loads."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "logint", *command],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    modules = sorted(m for m in loaded if m.split(".")[0] == "logint")
    return {
        "exit": proc.returncode,
        "logint_modules": modules,
        # runpy runs __main__ without importing it, so importtime omits it
        "source_bytes": sum(
            os.path.getsize(importlib.util.find_spec(m).origin)
            for m in [*modules, "logint.__main__"]
        ),
        "csv": "csv" in loaded,
        "json": "json" in loaded,
    }


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
    ("lgamma(Decimal('NaN'))", lambda: _outcome(special.lgamma, DECIMAL_NAN)),
    ("digamma(Decimal('NaN'))", lambda: _outcome(special.digamma, DECIMAL_NAN)),
    ("polygamma(1, Decimal('NaN'))", lambda: _outcome(special.polygamma, 1, DECIMAL_NAN)),
    ("trigamma(Decimal('NaN'))", lambda: _outcome(special.trigamma, DECIMAL_NAN)),
    ("gamma_reflection_defect(Decimal('NaN'))",
     lambda: _outcome(special.gamma_reflection_defect, DECIMAL_NAN)),
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
    *((name, lambda run=run: _outcome(*run)) for name, *run in ENGINE_RUNS),
    *((f"polygamma(1 to 3, {x.hex()})",
       lambda x=x: [_outcome(special.polygamma, m, x) for m in (1, 2, 3)])
      for x in POLYGAMMA_XS),
    ("numeric_I evaluations summed over 1000 n, n - 1 = 10^U(-12, 12) from Random(0)",
     lambda: sum(routes.numeric_I(n).evaluations for n in COUNT_NS)),
    ("exp-sinh evaluations summed over the default lemma1 grid, m = 1, 2, 3",
     lambda: sum(
         quadrature.integrate_semi_infinite(verify._lemma1_scaled(m, z), 0.0).evaluations
         for m in (1, 2, 3) for z in verify.DEFAULT_LEMMA1_GRID)),
    ("node rows cached", lambda: {
        "last_cached_level": quadrature._LAST_CACHED_LEVEL,
        "rows": sum(len(quadrature._exp_sinh_level(level)[0])
                    for level in range(quadrature._LAST_CACHED_LEVEL + 1)),
    }),
    *((f"python -X importtime -m logint {' '.join(command)}",
       lambda command=command: _cold_run(command)) for command in COLD_COMMANDS),
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
