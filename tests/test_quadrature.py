"""Quadrature engine: known-value suite, honesty, linearity, determinism."""

import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import logint
from logint import quadrature, routes, verify
from logint.quadrature import integrate_bilateral, integrate_finite, integrate_semi_infinite
from logint.routes import lemma1_integrand, numeric_I

from oracles import reference_integrate, reference_pass, zeta_partial


def guarded_half_exponential(t):
    """t e^(-t/2)/(1 - e^(-t)), symmetric in t, series-patched at 0."""
    if abs(t) < 1e-4:
        return math.exp(-0.5 * t) * (1.0 + t * (0.5 + t / 12.0) - t**4 / 720.0)
    u = abs(t)
    return u * math.exp(-0.5 * u) / (1.0 - math.exp(-u))


def known_integrals():
    """Twelve integrals with independently known values.

    Truths are antiderivatives, the classic Gaussian area, or (for the
    last case) the partial-sum zeta oracle; never the engine under test.
    """
    sqrt_pi = math.sqrt(math.pi)
    return [
        ("log on (0,1)", lambda c: integrate_finite(math.log, 0.0, 1.0, c), -1.0),
        ("sin on (0,pi)", lambda c: integrate_finite(math.sin, 0.0, math.pi, c), 2.0),
        (
            "inverse sqrt on (0,1)",
            lambda c: integrate_finite(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, c),
            2.0,
        ),
        ("cubic on (0,1)", lambda c: integrate_finite(lambda x: x**3, 0.0, 1.0, c), 0.25),
        (
            "lorentzian on (0,2)",
            lambda c: integrate_finite(lambda x: 1.0 / (1.0 + x * x), 0.0, 2.0, c),
            math.atan(2.0),
        ),
        (
            "exp decay on (0,inf)",
            lambda c: integrate_semi_infinite(lambda x: math.exp(-x), 0.0, c),
            1.0,
        ),
        (
            "half gaussian on (0,inf)",
            lambda c: integrate_semi_infinite(lambda x: math.exp(-x * x), 0.0, c),
            sqrt_pi / 2.0,
        ),
        (
            "x exp(-x) on (0,inf)",
            lambda c: integrate_semi_infinite(lambda x: x * math.exp(-x), 0.0, c),
            1.0,
        ),
        (
            "inverse square on (1,inf)",
            lambda c: integrate_semi_infinite(lambda x: 1.0 / (x * x), 1.0, c),
            1.0,
        ),
        (
            "gaussian on R",
            lambda c: integrate_bilateral(lambda t: math.exp(-t * t), c),
            sqrt_pi,
        ),
        (
            "odd gaussian moment on R",
            lambda c: integrate_bilateral(lambda t: t * math.exp(-t * t), c),
            0.0,
        ),
        (
            "half-exponential kernel on R",
            lambda c: integrate_bilateral(guarded_half_exponential, c),
            2.0 * zeta_partial(2.0, 0.5),
        ),
    ]


def smooth_family(rng):
    """Mostly-positive smooth integrand with mild wiggle, plus a label."""
    a0 = rng.uniform(3.0, 5.0)
    a1 = rng.uniform(-1.0, 1.0)
    a2 = rng.uniform(-1.0, 1.0)
    omega = rng.uniform(0.5, 3.0)
    phase = rng.uniform(0.0, math.pi)

    def f(x):
        return a0 + a1 * math.sin(omega * x + phase) + a2 * x * x

    return f


# ------------------------------------------------------------ known values

@pytest.mark.parametrize("name,run,truth", known_integrals())
def test_known_value_converges_and_is_honest(name, run, truth):
    outcome = run(1e-10)
    assert outcome.converged, name
    assert abs(outcome.value - truth) <= 10.0 * outcome.error_estimate, name


def test_gaussian_area_halves_match():
    # folded at zero the Gaussian doubles exactly, and doubling is exact in
    # floating point, so the bilateral outcome is twice the half-line one
    half = integrate_semi_infinite(lambda x: math.exp(-x * x), 0.0)
    full = integrate_bilateral(lambda t: math.exp(-t * t))
    assert full.value == 2.0 * half.value
    assert full.error_estimate == 2.0 * half.error_estimate
    assert full.evaluations == 2 * half.evaluations


# ----------------------------------------------------------------- safety

def test_endpoints_are_never_sampled():
    seen = []

    def picky(x):
        assert 0.0 < x < 1.0, f"sampled endpoint {x!r}"
        seen.append(x)
        return 1.0 / math.sqrt(x)

    outcome = integrate_finite(picky, 0.0, 1.0)
    assert outcome.converged
    assert outcome.evaluations == len(seen)
    assert min(seen) > 0.0 and max(seen) < 1.0


# Next to a non-zero endpoint the offsets round away, so nodes land on a
# and on b; they must be skipped and left out of the evaluation count.
@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 2.0), (-2.0, -1.0)])
def test_endpoint_nodes_are_skipped_and_not_counted(a, b):
    seen = []

    def picky(x):
        assert a < x < b, f"sampled endpoint {x!r}"
        seen.append(x)
        return x

    outcome = integrate_finite(picky, a, b)  # 1.5 on (1, 2)
    assert outcome.converged
    assert outcome.evaluations == len(seen)
    assert abs(outcome.value - 0.5 * (b * b - a * a)) <= 10.0 * outcome.error_estimate


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
def test_one_zero_contribution_does_not_end_a_side(tol):
    # x0 is the first far-side abscissa of level 1 (t = 1/2): that node
    # contributes exactly 0 while the far nodes after it still carry most
    # of the mass, so a side must end only after two negligible
    # contributions in a row
    x0 = math.exp(math.pi / 2.0 * math.sinh(0.5))
    zeros = []

    def f(x):
        if x == x0:
            zeros.append(x)
        return (x - x0) * math.exp(-x / 4.0)

    outcome = integrate_semi_infinite(f, 0.0, tol)
    assert zeros
    assert outcome.converged
    assert abs(outcome.value - (16.0 - 4.0 * x0)) <= 10.0 * outcome.error_estimate


def test_invalid_intervals_rejected():
    with pytest.raises(ValueError):
        integrate_finite(math.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_finite(math.sin, 2.0, 1.0)
    with pytest.raises(ValueError):
        integrate_finite(math.sin, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate_semi_infinite(math.sin, math.nan)
    calls = []
    with pytest.raises(ValueError):
        integrate_finite(calls.append, -1e308, 1e308)  # b - a overflows
    # ints beyond the double range, refused as not finite, not OverflowError
    with pytest.raises(ValueError, match="need finite a < b"):
        integrate_finite(calls.append, 0.0, 10**400)
    with pytest.raises(ValueError, match="need finite a < b"):
        integrate_finite(calls.append, -(10**400), 0.0)
    assert calls == []


# Over |a| >= 2^53, a + 1 rounds onto a, so the center node would be a
# itself: the call must refuse before f is ever called.  10**400 and
# -10**400 are ints beyond the double range, where a + 1 overflows.
@pytest.mark.parametrize("a", [1e17, -1e17, 2.0**53, 1e16, 1e300, 10**400, -(10**400)])
def test_lower_limit_that_a_plus_one_rounds_onto_is_rejected(a):
    calls = []

    def f(x):
        calls.append(x)
        return math.exp(-(x - a)) / math.sqrt(x - a)

    with pytest.raises(ValueError) as rejected:
        integrate_semi_infinite(f, a)
    assert repr(a) in str(rejected.value)
    assert calls == []


TOL_TAKERS = {
    "integrate_finite": lambda f, tol: integrate_finite(f, 0.0, 1.0, tol),
    "integrate_semi_infinite": lambda f, tol: integrate_semi_infinite(f, 0.0, tol),
    "integrate_bilateral": lambda f, tol: integrate_bilateral(f, tol),
    "numeric_I": lambda f, tol: numeric_I(3.0, tol),
    "verify_lemma1": lambda f, tol: routes.verify_lemma1(1, quad_tol=tol),
    "verify_theorem": lambda f, tol: routes.verify_theorem(quad_tol=tol),
}


# 10**400 and -10**400 are ints beyond the double range
@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, 10**400, -(10**400)])
@pytest.mark.parametrize("taker", sorted(TOL_TAKERS))
def test_tol_validation(taker, tol, monkeypatch):
    calls = []

    def counted(f):
        def g(x):
            calls.append(x)
            return f(x)

        return g

    # the routes and verifiers build their own integrands; count them where
    # they enter the engine: routes binds the name, verify looks it up in
    # quadrature
    def engine(f, a, t):
        return integrate_semi_infinite(counted(f), a, t)

    monkeypatch.setattr(routes, "integrate_semi_infinite", engine)
    monkeypatch.setattr(quadrature, "integrate_semi_infinite", engine)
    with pytest.raises(ValueError, match="tolerance"):
        TOL_TAKERS[taker](counted(lambda x: math.exp(-x * x)), tol)
    assert calls == []


def test_nonconvergence_is_flagged_not_hidden():
    # demand accuracy below the roundoff floor: must refuse to claim it
    outcome = integrate_finite(math.sin, 0.0, math.pi, 1e-16)
    assert not outcome.converged
    assert abs(outcome.value - 2.0) <= 1e-12  # best estimate still good


# Areas of exp(-x^2) over (0, pi), (0, inf) and the whole line.
BUDGETED_RUNS = {
    "finite": (
        lambda f: integrate_finite(f, 0.0, math.pi, 1e-16),
        0.5 * math.sqrt(math.pi) * math.erf(math.pi),
    ),
    "semi": (lambda f: integrate_semi_infinite(f, 0.0, 1e-16), 0.5 * math.sqrt(math.pi)),
    "bilateral": (lambda f: integrate_bilateral(f, 1e-16), math.sqrt(math.pi)),
}


# The level cap is the engine's only budget.  Each run asks for more
# accuracy than roundoff allows, with |I| below 1 (absolute tolerance) and
# above it (relative tolerance), so it spends every level and must still
# hand back its best estimate and an honest count.  At level 12 an exp-sinh
# tail cut at eps of the pass's L1 sum, not halved per level, drops about
# 1e-14 of the area.
@pytest.mark.parametrize("scale", [1, 2, 3, 40])
@pytest.mark.parametrize("kind", sorted(BUDGETED_RUNS))
def test_budget_exhaustion_returns_best_effort(kind, scale):
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return scale * math.exp(-x * x)

    run, area = BUDGETED_RUNS[kind]
    outcome = run(f)
    assert outcome.evaluations == calls
    assert outcome.converged is False
    assert outcome.error_estimate > 1e-16 * max(1.0, abs(outcome.value))
    assert abs(outcome.value - scale * area) <= 1e-15 * scale


def test_converged_flag_matches_outcome_invariant():
    for _, run, _ in known_integrals():
        outcome = run(1e-10)
        if outcome.converged:
            assert outcome.error_estimate <= 1e-10 * max(1.0, abs(outcome.value))


# ------------------------------------------------------------- properties

def test_linearity_on_random_smooth_pairs():
    rng = random.Random(42)
    for trial in range(20):
        f = smooth_family(rng)
        g = smooth_family(rng)
        alpha = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        beta = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        combo = lambda x: alpha * f(x) + beta * g(x)
        o_f = integrate_finite(f, 0.0, 1.5)
        o_g = integrate_finite(g, 0.0, 1.5)
        o_c = integrate_finite(combo, 0.0, 1.5)
        defect = abs(o_c.value - alpha * o_f.value - beta * o_g.value)
        budget = 3.0 * (o_f.error_estimate + o_g.error_estimate + o_c.error_estimate)
        assert defect <= budget, trial


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.4, max_value=1.9))
def test_interval_additivity(cut):
    f = smooth_family(random.Random(7))
    whole = integrate_finite(f, 0.1, 2.3)
    left = integrate_finite(f, 0.1, cut)
    right = integrate_finite(f, cut, 2.3)
    defect = abs(whole.value - left.value - right.value)
    assert defect <= (
        whole.error_estimate + left.error_estimate + right.error_estimate
    )


def test_determinism_bit_identical():
    first = integrate_finite(math.log, 0.0, 1.0)
    second = integrate_finite(math.log, 0.0, 1.0)
    assert first == second  # tuple equality covers all four fields
    b1 = integrate_bilateral(guarded_half_exponential)
    b2 = integrate_bilateral(guarded_half_exponential)
    assert b1 == b2


def test_error_estimate_nonnegative_and_evals_counted():
    outcome = integrate_finite(lambda x: x * x, -1.0, 2.0)
    assert outcome.error_estimate >= 0.0
    assert outcome.evaluations > 0


# --------------------------------------- the pass against its reference

def _recorded(f):
    """f, and the list of every x it is called with, in call order."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


def _hex(x):
    """x.hex(), which prints every nan as 'nan', with a nan's sign kept."""
    if x == x:
        return x.hex()
    return "-nan" if math.copysign(1.0, x) < 0.0 else "nan"


def _bits(outcome):
    return (
        _hex(outcome.value),
        _hex(outcome.error_estimate),
        outcome.evaluations,
        outcome.converged,
    )


def _tail_nan(x):
    return math.nan if x > 5.0 else math.exp(-x)


def _spike_inf(x):
    return math.inf if x < 1e-3 else math.exp(-x)


def _lorentzian(center):
    def f(x):
        s = x - center
        return 1.0 / (1.0 + s * s)

    return f


# (f, a).  The lemma1 integrands are the ones verify_lemma1 integrates.
# Where a + decay rounds onto a the near side runs out of range: about half
# way out over a = 2.5, -3.0 and 1, a fifth of the way over 1e15, on the
# first rows over 2^52, -2^53 and 2^53 - 1, and next to where it does over
# 0 for +-1e-300.  The integrands singular at 2.5, -3.0 and 1 still
# contribute there, so their near side runs all the way to that end.
# exp(-1/x - x) goes quiet next to 0 first, so its far side walks on
# alone.  The rest return 0.0, -0.0, nan, inf, a value below -1, or flip
# sign.
PASS_CASES = {
    **{
        f"lemma1({m},{z})": (verify._lemma1_scaled(m, z), 0.0)
        for m in (1, 2, 3)
        for z in (1e-5, 0.35, 0.5)
    },
    "x^-2 over 2.5": (lambda x: 1.0 / (x * x), 2.5),
    "x^-2 over 1e15": (lambda x: 1.0 / (x * x), 1e15),
    "exp over -3": (lambda x: math.exp(-(x + 3.0)), -3.0),
    "exp over -1e-300": (lambda x: math.exp(-x), -1e-300),
    "exp/sqrt over 1e-300": (lambda x: math.exp(-x) / math.sqrt(x), 1e-300),
    "exp/sqrt over 2.5": (lambda x: math.exp(-(x - 2.5)) / math.sqrt(x - 2.5), 2.5),
    "exp/sqrt over -3": (lambda x: math.exp(-(x + 3.0)) / math.sqrt(x + 3.0), -3.0),
    "log*exp over 1": (lambda x: math.log(x - 1.0) * math.exp(-(x - 1.0)), 1.0),
    "lorentzian over 2^52": (_lorentzian(2.0**52), 2.0**52),
    "lorentzian over -2^53": (_lorentzian(-(2.0**53)), -(2.0**53)),
    "lorentzian over 2^53-1": (_lorentzian(2.0**53 - 1.0), 2.0**53 - 1.0),
    "quiet at 0": (lambda x: math.exp(-1.0 / x - x), 0.0),
    "zero": (lambda x: 0.0, 0.0),
    "minus zero": (lambda x: -0.0, 0.0),
    "nan tail": (_tail_nan, 0.0),
    "inf spike": (_spike_inf, 0.0),
    "-inf": (lambda x: -math.inf, 0.0),
    "sign flips": (lambda x: math.cos(3.0 * x) * math.exp(-x), 0.0),
    "below -1": (lambda x: -3.0 * math.exp(-x), 0.0),
}


# The pass walks the rows where both sides are in range, then the side
# still going alone; it must sample the same x in the same order and
# return the same bits as the one loop that range-tests every node.
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-16])
@pytest.mark.parametrize("name", sorted(PASS_CASES))
def test_pass_matches_the_one_loop_reference(name, tol, monkeypatch):
    f, a = PASS_CASES[name]
    g, seen = _recorded(f)
    ref_g, ref_seen = _recorded(f)
    engine = integrate_semi_infinite(g, a, tol)
    monkeypatch.setattr(quadrature, "_pass", reference_pass)
    assert _bits(engine) == _bits(integrate_semi_infinite(ref_g, a, tol))
    assert seen == ref_seen
    assert engine.evaluations == len(seen)


ROUTE4_NS = (1.0 + 1e-15, 1.001, 1.5, 2.0, 3.0, 100.0, 1e300)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-16])
def test_route4_matches_the_one_loop_reference(tol, monkeypatch):
    engine = [numeric_I(n, tol) for n in ROUTE4_NS]
    monkeypatch.setattr(quadrature, "_pass", reference_pass)
    assert [_bits(o) for o in engine] == [_bits(numeric_I(n, tol)) for n in ROUTE4_NS]


# The level loop trades builtin calls for comparisons; with the earlier
# loop over the one-loop pass it must sample the same x in the same order
# and return the same bits, through the nan, inf and -0.0 of PASS_CASES.
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-16])
@pytest.mark.parametrize("name", sorted(PASS_CASES))
def test_level_loop_matches_its_reference(name, tol):
    f, a = PASS_CASES[name]
    g, seen = _recorded(f)
    ref_g, ref_seen = _recorded(f)
    assert _bits(integrate_semi_infinite(g, a, tol)) == _bits(reference_integrate(ref_g, a, tol))
    assert seen == ref_seen


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-16])
def test_route4_matches_the_level_loop_reference(tol, monkeypatch):
    closures = []
    with monkeypatch.context() as patch:
        patch.setattr(routes, "integrate_semi_infinite", lambda g, a, tol: closures.append(g))
        for n in ROUTE4_NS:
            numeric_I(n, tol)
    assert len(closures) == len(ROUTE4_NS)
    for n, closure in zip(ROUTE4_NS, closures):
        g, seen = _recorded(closure)
        ref_g, ref_seen = _recorded(closure)
        engine = integrate_semi_infinite(g, 0.0, tol)
        assert _bits(engine) == _bits(numeric_I(n, tol)), n
        assert _bits(engine) == _bits(reference_integrate(ref_g, 0.0, tol)), n
        assert seen == ref_seen, n


ENTRY_RUNS = {
    "bilateral lemma1(2,0.35)": lambda tol: integrate_bilateral(lemma1_integrand(2, 0.35), tol),
    "bilateral gaussian": lambda tol: integrate_bilateral(lambda t: math.exp(-t * t), tol),
    "finite log (0,1)": lambda tol: integrate_finite(math.log, 0.0, 1.0, tol),
    "finite sin (0,pi)": lambda tol: integrate_finite(math.sin, 0.0, math.pi, tol),
    "finite x (1,2)": lambda tol: integrate_finite(lambda x: x, 1.0, 2.0, tol),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-16])
@pytest.mark.parametrize("name", sorted(ENTRY_RUNS))
def test_entry_points_match_the_one_loop_reference(name, tol, monkeypatch):
    engine = ENTRY_RUNS[name](tol)
    monkeypatch.setattr(quadrature, "_pass", reference_pass)
    assert _bits(engine) == _bits(ENTRY_RUNS[name](tol))


# ------------------------------------------------------ node-table cache

@pytest.fixture
def cold_cache(monkeypatch):
    monkeypatch.setattr(quadrature, "_EXP_SINH", {})


@pytest.fixture
def asked_levels(monkeypatch):
    """The levels the passes ask the node table for, in call order."""
    asked = []
    build = quadrature._exp_sinh_level

    def recorded(level):
        asked.append(level)
        return build(level)

    monkeypatch.setattr(quadrature, "_exp_sinh_level", recorded)
    return asked


def test_import_builds_no_level():
    src = os.path.dirname(os.path.dirname(logint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import logint.quadrature as q; print(len(q._EXP_SINH))"
    proc = subprocess.run(
        [sys.executable, "-c", "import logint; " + probe],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


# The capped runs walk levels 6-12, which every pass builds for itself.
def _cache_workload():
    return [numeric_I(n) for n in (1.5, 3.0, 42.0)] + [
        integrate_bilateral(lemma1_integrand(m, 0.3)) for m in (1, 2, 3)
    ] + [
        integrate_semi_infinite(lambda x: math.exp(-x), 0.0, 1e-16),
        integrate_finite(math.sin, 0.0, math.pi, 1e-16),
    ]


def test_threads_on_a_cold_cache_match_a_serial_run(cold_cache):
    serial = _cache_workload()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the table builds as much as possible
    try:
        for _ in range(5):
            quadrature._EXP_SINH.clear()
            start = threading.Barrier(8)
            results = [None] * 8

            def run(slot):
                start.wait(timeout=60)
                results[slot] = _cache_workload()

            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert all(result == serial for result in results)
    finally:
        sys.setswitchinterval(interval)


# Each run asks for more accuracy than roundoff allows (|I| >= 1), so it
# walks every level up to the cap.
CAPPED_RUNS = {
    "finite": (lambda: integrate_finite(math.sin, 0.0, math.pi, 1e-16), 1),
    "semi": (lambda: integrate_semi_infinite(lambda x: math.exp(-x), 0.0, 1e-16), 1),
    "bilateral": (lambda: integrate_bilateral(lambda t: math.exp(-t * t), 1e-16), 2),
}


@pytest.mark.parametrize("kind", sorted(CAPPED_RUNS))
def test_level_cap_bounds_tables_and_evaluations(kind, cold_cache, asked_levels):
    run, calls_per_node = CAPPED_RUNS[kind]
    outcome = run()
    assert not outcome.converged
    assert asked_levels == list(range(13))  # each level once, none above 12
    assert sorted(quadrature._EXP_SINH) == list(range(6))
    nodes = sum(len(quadrature._exp_sinh_level(level)[0]) for level in range(13))
    assert outcome.evaluations <= calls_per_node * (1 + 2 * nodes)


# Every cached record is built inside the measurement: the rows, the
# both-sides prefix list, the cut and the record tuple.
def test_node_tables_stay_compact(cold_cache):
    tracemalloc.start()
    try:
        for level in range(6):
            quadrature._exp_sinh_level(level)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # built outside the measurement: a discarded level's tuples stay traced
    # in CPython's tuple free list
    for level in range(6, 13):
        quadrature._exp_sinh_level(level)
    assert sorted(quadrature._EXP_SINH) == list(range(6))
    # 39.9 kB measured; 40.3 kB before each record carried its cut, 38.1 kB
    # before the prefix lists
    assert current <= 5e4


# The cache is sized for the levels the route integrals walk: route 4 over
# n - 1 log-uniform on [1e-15, 1e300] and verify_lemma1 on its default grid
# converge by level _LAST_CACHED_LEVEL at every tol they are asked for.
def test_route_integrals_walk_only_cached_levels(asked_levels):
    rng = random.Random(20)
    pool = [1.0 + 10.0 ** rng.uniform(-15.0, 300.0) for _ in range(600)]
    for tol in (1e-6, 1e-10, 1e-15):
        for n in pool:
            numeric_I(n, tol)
        for m in (1, 2, 3):
            routes.verify_lemma1(m, quad_tol=tol)
    assert asked_levels, "no pass asked _exp_sinh_level for its level"
    assert max(asked_levels) <= quadrature._LAST_CACHED_LEVEL


# ---------------------------------------------------------- known defects
# Each xfail is a defect that ROADMAP item 6 names.  A fix turns it into an
# unexpected pass, which fails the run until the mark is removed.

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: mass behind a zero plateau next to the midpoint is missed,"
    " and the outcome claims convergence"))
def test_piecewise_finite_integrand_is_not_claimed_converged_on_a_wrong_value():
    corner = 0.9821934207987782
    outcome = integrate_finite(lambda x: max(0.0, x - corner), 0.0, 1.0, 1e-6)
    truth = (1.0 - corner) ** 2 / 2.0
    assert not outcome.converged or abs(outcome.value - truth) <= 10.0 * outcome.error_estimate


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: over a != 0 the mass within half an ulp above a is out of"
    " reach, and the estimate does not say so"))
def test_shifted_inverse_sqrt_is_not_claimed_converged_on_a_wrong_value():
    outcome = integrate_semi_infinite(lambda x: math.exp(2.5 - x) / math.sqrt(x - 2.5), 2.5)
    truth = math.sqrt(math.pi)
    assert not outcome.converged or abs(outcome.value - truth) <= 10.0 * outcome.error_estimate
