"""Route implementations and identity verifiers for I(n)."""

import math
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from logint import routes as rt
from logint import specfun
from logint import quadrature
from logint import verify
from logint.quadrature import integrate_bilateral

from oracles import lemma1_folded, reference_I, route4_integrand, zeta_partial

PI2 = math.pi * math.pi
# 1/n is below 1/1.8e308 here, so psi(1/n) ~ -n is past the largest double
LARGEST_DOUBLES = (1.7976931348623153e308, 1.7976931348623155e308, sys.float_info.max)


# ---------------------------------------------------------------- exponent

# 10**400 and -10**400 are ints beyond the double range: float() overflows
BAD_EXPONENTS = [1.0, 0.0, -3.0, math.nan, math.inf, -math.inf, 10**400, -(10**400)]


def test_exponent_accepts_and_normalizes():
    assert rt._check_n(3) == 3.0
    assert type(rt._check_n(3)) is float
    assert rt._check_n(1.000001) == 1.000001


@pytest.mark.parametrize("bad", BAD_EXPONENTS)
def test_exponent_rejects(bad):
    with pytest.raises(ValueError):
        rt._check_n(bad)


@given(st.floats(max_value=1.0, allow_nan=False))
def test_exponent_rejects_everything_at_or_below_one(n):
    with pytest.raises(ValueError):
        rt._check_n(n)


@given(st.floats(min_value=1.0000001, max_value=1e12))
def test_exponent_accepts_everything_above_one(n):
    assert rt._check_n(n) == n


def verify_theorem_at(n):
    return rt.verify_theorem(n_grid=(n,))


def limit_probe_at(n):
    return rt.limit_probe([n])


@pytest.mark.parametrize(
    "call",
    [
        rt.closed_form_trig,
        rt.closed_form_trigamma,
        rt.intermediate_form,
        rt.closed_form_gamma_derivative,
        rt.numeric_I,
        rt.evaluate_all_routes,
        verify_theorem_at,
        limit_probe_at,
    ],
)
@pytest.mark.parametrize("bad", BAD_EXPONENTS)
def test_every_public_function_taking_n_rejects_bad_exponents(call, bad):
    with pytest.raises(ValueError):
        call(bad)


# ------------------------------------------------------------ closed forms

def test_trig_form_special_values():
    assert abs(rt.closed_form_trig(2.0)) <= 1e-15
    assert rt.closed_form_trig(3.0) == pytest.approx(-2.0 * PI2 / 27.0, abs=1e-14)
    assert rt.closed_form_trig(4.0) == pytest.approx(
        -PI2 / (8.0 * math.sqrt(2.0)), abs=1e-14
    )
    # cot(2pi/3) csc(2pi/3) = -2/3 exactly, so I(1.5) = 2 pi^2 / 6.75
    assert rt.closed_form_trig(1.5) == pytest.approx(2.0 * PI2 / 6.75, rel=1e-14)


@pytest.mark.parametrize(
    "form", [rt.closed_form_trig, rt.intermediate_form, rt.closed_form_trigamma]
)
def test_trig_form_near_one_matches_high_precision(form):
    # here pi/n rounds next to pi; taken as the angle, it gives relative
    # errors of 0.52, 1.2e-4 and 3e-9 (pi/2n in the sec/csc form likewise),
    # and 1/2 - 1/2n in the trigamma form cancels to 2e-12 and 2.2e-9
    grid = [1.0 + 2.0**-52, 1.0 + 1e-12, 1.0 + 1e-8]
    grid += [1.0 + 2.0 * k / 400.0 for k in range(1, 400)]
    for n in grid:
        ref = reference_I(n)
        err = abs(form(n) - ref) / max(1, abs(ref))
        assert err <= 2e-15, n


# Every side of n = 2 to one ulp, where I -> 0 and cancellation shows as
# relative error.
NEAR_TWO_GRID = [2.0 - 2.0**-52, 2.0 - 2.0**-51, 2.0 + 2.0**-51, 2.0 + 2.0**-50]
NEAR_TWO_GRID += [
    n
    for n in (2.0 + sign * 10.0 ** (-k / 8.0) for sign in (-1.0, 1.0) for k in range(1, 128))
    if n != 2.0  # 2 + 10^(-k/8) rounds to 2 for k >= 126
]


@pytest.mark.parametrize(
    "form",
    [rt.closed_form_trig, rt.intermediate_form, rt.closed_form_trigamma,
     rt.closed_form_gamma_derivative],
)
def test_closed_forms_keep_relative_accuracy_on_both_sides_of_two(form):
    # each was 0.19 to 0.62 off (relative) within an ulp or two of n = 2
    # before its cancelling difference was rewritten with n - 2 as a factor
    # (the trig form's cos y at y = pi (n-1)/n -> pi/2 first, for n < 2).
    # Route 3 multiplies by e^(lgamma(a) + lgamma(1+b)), whose ~1e-14
    # absolute error in the log-gamma sum becomes a relative error of I.
    bound = 2e-14 if form is rt.closed_form_gamma_derivative else 2e-15
    assert form(2.0) == 0.0 and math.copysign(1.0, form(2.0)) == 1.0
    for n in NEAR_TWO_GRID:
        ref = reference_I(n)
        assert abs(form(n) - ref) <= bound * abs(ref), n


def test_trigamma_form_over_its_whole_range():
    # log-uniform n - 1 up to 6e153, just short of where 4n^2 overflows
    rng = random.Random(153)
    grid = [1.0 + 10.0 ** rng.uniform(-12.0, math.log10(6e153)) for _ in range(400)]
    for n in grid + [6e153, 6.7e153]:
        ref = reference_I(n)
        err = abs(rt.closed_form_trigamma(n) - ref) / max(1, abs(ref))
        assert err <= 2e-15, n


@pytest.mark.parametrize(
    "form", [rt.closed_form_trig, rt.intermediate_form, rt.closed_form_trigamma]
)
@pytest.mark.parametrize("n", [1e154, 1.3e154, 1.35e154, 1e155, 1e200, 1e300, 1.7e308])
def test_trig_forms_past_n_squared_overflow_match_high_precision(form, n):
    ref = reference_I(n)
    assert abs(form(n) - ref) <= 2e-15 * max(1, abs(ref))


def test_trigamma_form_cancels_exactly_at_two():
    assert rt.closed_form_trigamma(2.0) == 0.0


def test_trigamma_form_special_values():
    assert rt.closed_form_trigamma(3.0) == pytest.approx(-2.0 * PI2 / 27.0, rel=1e-11)
    assert rt.closed_form_trigamma(10.0) == pytest.approx(
        rt.closed_form_trig(10.0), rel=1e-11
    )


def test_route_equivalence_on_log_grid():
    for k in range(50):
        n = 1.01 * (1e4 / 1.01) ** (k / 49.0)
        trig = rt.closed_form_trig(n)
        diff = abs(trig - rt.closed_form_trigamma(n))
        assert diff <= 1e-10 * max(1.0, abs(trig)), n


def test_intermediate_collapses_to_trig_form():
    # the double-angle identity (lemma3) at x = pi/(2n)
    for k in range(50):
        n = 1.01 * (1e4 / 1.01) ** (k / 49.0)
        trig = rt.closed_form_trig(n)
        diff = abs(trig - rt.intermediate_form(n))
        assert diff <= 1e-12 * max(1.0, abs(trig)), n


@given(st.floats(min_value=1.01, max_value=1.99))
def test_sign_positive_below_two(n):
    assert rt.closed_form_trig(n) > 0.0


@given(st.floats(min_value=2.01, max_value=50.0))
def test_sign_negative_above_two(n):
    assert rt.closed_form_trig(n) < 0.0


# --------------------------------------------------- gamma-derivative route

def test_gamma_derivative_route_agreement():
    for n in (1.5, 2.0, 3.0, 4.0, 10.0):
        trig = rt.closed_form_trig(n)
        dev = abs(rt.closed_form_gamma_derivative(n) - trig)
        assert dev <= 1e-13 * max(1.0, abs(trig)), n


def test_gamma_derivative_near_zero_at_two():
    assert rt.closed_form_gamma_derivative(2.0) == 0.0


def test_gamma_derivative_matches_high_precision():
    # n - 1 down to one ulp, where |I| ~ 2e31, n past 1.3e154, where n*n
    # overflows, and the three largest doubles, where 1/n is below
    # 1/1.8e308 and psi(1/n) ~ -n overflows
    grid = (1.0000001, 1.0 + 2.0**-52, 1.0 + 1e-12, 1.005, 1e6, 1e155, 1e300, 1.7e308)
    grid += LARGEST_DOUBLES
    for n in grid:
        ref = reference_I(n)
        err = abs(rt.closed_form_gamma_derivative(n) - ref) / max(1, abs(ref))
        assert err <= 2e-14, n


def test_gamma_derivative_never_calls_quadrature(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("closed forms must not use the quadrature engine")

    # patch both the engine module and the names bound inside routes
    monkeypatch.setattr(quadrature, "integrate_finite", boom)
    monkeypatch.setattr(quadrature, "integrate_semi_infinite", boom)
    monkeypatch.setattr(quadrature, "integrate_bilateral", boom)
    monkeypatch.setattr(rt, "integrate_semi_infinite", boom)
    rt.closed_form_trigamma(3.0)
    rt.closed_form_gamma_derivative(3.0)
    rt.closed_form_trig(3.0)
    # positive controls: route 4 and lemma1 reach the patched engine
    with pytest.raises(AssertionError, match="quadrature engine"):
        rt.numeric_I(3.0)
    with pytest.raises(AssertionError, match="quadrature engine"):
        rt.verify_lemma1(1)

    def shared(*args, **kwargs):
        raise AssertionError("route 3 must use its own paired gamma kernel alone")

    # nor the public lgamma and digamma, nor the polygamma code, the
    # verifiers' paired polygamma kernel and the paired kernel behind the
    # trigamma route (both branches)
    with monkeypatch.context() as patch:
        for name in ("lgamma", "digamma", "polygamma", "trigamma", "_polygamma_pair"):
            patch.setattr(specfun, name, shared)  # verify looks them up here
        patch.setattr(rt, "_trigamma_pairs", shared)  # routes binds the kernels by name
        rt.closed_form_gamma_derivative(1.5)
        rt.closed_form_gamma_derivative(3.0)
        # positive controls: route 2 and lemma2 reach the patched functions
        with pytest.raises(AssertionError, match="gamma kernel alone"):
            rt.closed_form_trigamma(3.0)
        with pytest.raises(AssertionError, match="gamma kernel alone"):
            rt.verify_lemma2()

    def gamma_pairs(*args, **kwargs):
        raise AssertionError("only route 3 may use the paired gamma kernel")

    # and the other closed forms never reach route 3's kernel
    monkeypatch.setattr(rt, "_gamma_pairs", gamma_pairs)
    for n in (1.5, 3.0):
        rt.closed_form_trigamma(n)
        rt.intermediate_form(n)
        rt.closed_form_trig(n)
        with pytest.raises(AssertionError, match="only route 3"):  # positive control
            rt.closed_form_gamma_derivative(n)


# ------------------------------------------------------------ numeric route

ORACLE_SET = (1.5, 2.0, math.e, 3.0, 4.0, 10.0, 100.0)


def test_numeric_matches_closed_form():
    for n in ORACLE_SET:
        outcome = rt.numeric_I(n)
        assert outcome.converged, n
        assert abs(outcome.value - rt.closed_form_trig(n)) <= 1e-8, n


def test_numeric_independent_of_special_functions(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("numeric_I must not touch specfun")

    for name in ("lgamma", "digamma", "polygamma", "trigamma",
                 "cot_derivative", "gamma_reflection_defect", "_polygamma_pair"):
        monkeypatch.setattr(specfun, name, boom)  # where verify looks them up
    for name in ("_trigamma_pairs", "_gamma_pairs"):  # where routes looks them up
        monkeypatch.setattr(rt, name, boom)
    for n in (1.001, 1.5, 3.0):  # the scaled (n < 2) and unscaled paths
        assert rt.numeric_I(n).converged, n
    # positive controls: each patch is where its callers look it up
    for route in (rt.closed_form_trigamma, rt.closed_form_gamma_derivative):
        with pytest.raises(AssertionError, match="must not touch"):
            route(3.0)
    for verifier in (verify.verify_lemma1, verify.verify_lemma2):
        with pytest.raises(AssertionError, match="must not touch"):
            verifier(1)


@given(st.floats(min_value=1.0, max_value=1e12, exclude_min=True))
@example(1.0 + 2.0**-52)
@example(1.0116)
@example(1.02)
@example(1.034)
@example(660.0)
@example(4000.0)
@example(7800.0)
@example(1.079725549616809)  # an estimate trusting d1/d0 alone is 723x short here
@example(1.992158118610299)  # |I| << 1, so the roundoff floor is set by max(1, |I|)
@example(1.0137709956730034)  # these three: level-3 claims 84x, 23x and 28x short
@example(1.0559971604778275)  # at coarse tolerances before the u = (n-1)s scaling
@example(1.2936014801148277)
def test_numeric_follows_the_closed_form_over_the_whole_domain(n):
    # |I| grows like 1/(n-1)^2 as n -> 1; the route must follow it there
    # without raising, and stay honest about what it claims
    outcome = rt.numeric_I(n)
    if outcome.converged:
        assert math.isfinite(outcome.value)
        assert math.isfinite(outcome.error_estimate)
    reference = rt.closed_form_trig(n)
    assert abs(outcome.value - reference) <= 1e-10 * max(1.0, abs(reference))


# Next to n = 2, |I| << 1 and the integrand's cancellation leaves noise of
# order 1e-17: a roundoff floor of eps * |I| let these claim 1e-18 at
# tol 1e-14.
NEAR_TWO = [1.992158118610299, 2.0016026626202255, 1.9929471004091046]
# At tol 1e-4 an estimate resting on one level difference stopped at level
# 1 or 2 here, 310x and 36x short of the true error.
COARSE = [1.1457761249395162, 1.803973458157348]


@pytest.mark.parametrize("quad_tol", [1e-4, 1e-5, 1e-8, 1e-10, 1e-12, 1e-14])
def test_numeric_error_estimate_is_honest_at_every_tolerance(quad_tol):
    rng = random.Random(20260)
    exponents = [1.0 + 10.0 ** rng.uniform(-3.0, 4.0) for _ in range(200)]
    for n in exponents + NEAR_TWO + COARSE:
        outcome = rt.numeric_I(n, quad_tol)
        if not outcome.converged:
            continue
        ref = reference_I(n)
        assert abs(outcome.value - ref) <= 10.0 * outcome.error_estimate, n


# Integrated in s = |ln x| at unit scale, these stopped at level 3 with an
# estimate 84x, 23x and 28x short of the true error: the mass near
# s ~ 1/(n-1) was still unresolved.  In u = (n-1)s it is resolved by then.
@pytest.mark.parametrize(
    "n, quad_tol",
    [(1.0137709956730034, 1e-4), (1.0559971604778275, 1e-4), (1.2936014801148277, 1e-6)],
)
def test_numeric_error_estimate_is_honest_next_to_one(n, quad_tol):
    outcome = rt.numeric_I(n, quad_tol)
    assert outcome.converged
    assert abs(outcome.value - reference_I(n)) <= 10.0 * outcome.error_estimate


def test_numeric_evaluations_are_bounded_at_every_scale():
    # exp-sinh centres its nodes at unit scale; without the u = (n-1)s
    # scaling the ladder walked out to s ~ 1/(n-1) (1605 evaluations at
    # n = 1 + 1e-15).  The counts are deterministic.
    for k in range(-60, 49):  # n - 1 = 10^(k/4), from 1e-15 to 1e12
        n = 1.0 + 10.0 ** (k / 4.0)
        outcome = rt.numeric_I(n)
        assert outcome.converged, n
        assert outcome.evaluations <= 96, (n, outcome.evaluations)


def _hexed(outcome):
    return [x.hex() if isinstance(x, float) else x for x in outcome]


# n - 1 = 2^U(-52, 1020), from the smallest step above 1 to near the largest
# double, and n = 2 and its neighbours, where the route switches closure
_ROUTE4_RNG = random.Random(1020)
ROUTE4_NS = [1.0 + 2.0 ** _ROUTE4_RNG.uniform(-52.0, 1020.0) for _ in range(200)]
ROUTE4_NS += [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)]


# numeric_I takes one closure below n = 2 and another from 2 on, with -rate
# formed once and the factor 1.0 left out; its outcome must be that of the
# one closure that did both on every call, every float bit for bit
@pytest.mark.parametrize("quad_tol", [1e-6, 1e-10, 1e-13])
def test_numeric_outcome_is_the_one_closure_outcome_bit_for_bit(quad_tol):
    assert sum(n < 2.0 for n in ROUTE4_NS) >= 5  # both closures are reached
    for n in ROUTE4_NS:
        reference = quadrature.integrate_semi_infinite(route4_integrand(n), 0.0, quad_tol)
        assert _hexed(rt.numeric_I(n, quad_tol)) == _hexed(reference), n


# The same closures node by node, where a signed zero shows: at n = 2 every
# value is -0.0, which no outcome tells from +0.0
def test_numeric_integrand_is_the_one_closure_bit_for_bit_on_the_cached_nodes(monkeypatch):
    closures = []
    monkeypatch.setattr(rt, "integrate_semi_infinite", lambda g, a, tol: closures.append(g))
    nodes = []
    for level in range(quadrature._LAST_CACHED_LEVEL + 1):
        rows, _, far_end, near_end, _ = quadrature._exp_sinh_level(level)
        nodes += [row[1] for row in rows[:far_end]] + [row[3] for row in rows[:near_end]]
    for n in ROUTE4_NS:
        rt.numeric_I(n)
        g, reference = closures.pop(), route4_integrand(n)
        for u in nodes:
            assert g(u).hex() == reference(u).hex(), (n, u)
    assert route4_integrand(2.0)(1.0).hex() == "-0x0.0p+0"


def test_evaluate_all_routes():
    row = rt.evaluate_all_routes(3.0)
    assert row.max_pairwise_spread < 1e-6
    values = (
        row.trig_form,
        row.trigamma_form,
        row.gamma_derivative_form,
        row.quadrature.value,
    )
    assert row.max_pairwise_spread == max(values) - min(values)
    row2 = rt.evaluate_all_routes(2.0)
    for v in (row2.trig_form, row2.trigamma_form, row2.gamma_derivative_form,
              row2.quadrature.value):
        assert abs(v) <= 1e-8
    with pytest.raises(ValueError):
        rt.evaluate_all_routes(1.0)


# -------------------------------------------------------- lemma1 integrand

def test_lemma1_integrand_limit_values():
    f1 = rt.lemma1_integrand(1, 0.5)
    assert f1(0.0) == 1.0
    assert f1(1e-9) == pytest.approx(1.0, abs=1e-8)
    f2 = rt.lemma1_integrand(2, 0.5)
    assert f2(0.0) == 0.0


def test_lemma1_integrand_against_direct_formula():
    f = rt.lemma1_integrand(1, 0.25)
    direct = math.exp(-0.25) / (1.0 - math.exp(-1.0))
    assert f(1.0) == pytest.approx(direct, rel=1e-14)


def test_lemma1_integrand_series_matches_direct_formula_at_boundary():
    # just inside the series guard the direct formula is still well
    # conditioned (1 - e^(-t) ~ 1e-4 known to ~1e-12 relative), so the
    # two evaluation paths must agree there
    z = 0.3
    for m in (1, 2, 3):
        f = rt.lemma1_integrand(m, z)
        for t in (0.99e-4, -0.99e-4):
            direct = t**m * math.exp(-z * t) / (1.0 - math.exp(-t))
            assert f(t) == pytest.approx(direct, rel=1e-10), (m, t)


def test_lemma1_integrand_negative_branch_matches_mirror_identity():
    # f(-u) = (-1)^(m+1) u^m e^(-(1-z) u) / (1 - e^(-u))
    for m in (1, 2, 3):
        z = 0.35
        f = rt.lemma1_integrand(m, z)
        for u in (0.5, 2.0, 17.0):
            expect = ((-1.0) ** (m + 1)) * u**m * math.exp(-(1.0 - z) * u) / (
                1.0 - math.exp(-u)
            )
            assert f(-u) == pytest.approx(expect, rel=1e-13), (m, u)


def test_lemma1_integrand_survives_extreme_arguments():
    f = rt.lemma1_integrand(3, 0.2)
    assert f(1e6) == 0.0
    assert f(-1e6) == 0.0
    assert math.isfinite(f(500.0))
    assert math.isfinite(f(-500.0))
    g = lemma1_folded(3, 0.2)
    assert g(1e6) == 0.0
    assert g(1e200) == 0.0  # where t^2 alone would overflow
    assert math.isfinite(g(500.0))


def test_lemma1_integrand_validation():
    with pytest.raises(specfun.UnsupportedOrderError):
        rt.lemma1_integrand(0, 0.5)
    with pytest.raises(specfun.UnsupportedOrderError):
        rt.lemma1_integrand(4, 0.5)
    with pytest.raises(specfun.DomainError):
        rt.lemma1_integrand(1, 0.0)
    with pytest.raises(specfun.DomainError):
        rt.lemma1_integrand(1, 1.0)


@pytest.mark.parametrize(
    "m, z",
    [(0, 0.5), (4, 0.5), (2.0, 0.5), (True, 0.5), (1, 0.0), (1, 1.0), (3, math.nan), (2, -0.1)],
)
def test_folded_lemma1_rejects_what_the_integrand_rejects(m, z):
    with pytest.raises(ValueError) as expected:
        rt.lemma1_integrand(m, z)
    for build in (lemma1_folded, verify._lemma1_scaled, lambda m, z: rt.verify_lemma1(m, (z,))):
        with pytest.raises(ValueError) as got:
            build(m, z)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)


LEMMA1_Z = sorted(set(rt.DEFAULT_LEMMA1_GRID) | {0.12, 0.88})


def test_folded_lemma1_integrand_matches_high_precision():
    # g(t) = f(t) + f(-t) in one call, measured against the scale of its
    # two terms, |f(t)| + |f(-t)|: the terms cancel for even m.  Below the
    # smallest normal double no value carries relative precision, so the
    # scale is floored there.  For m = 3, t^m alone underflows to 0 below
    # t ~ 1e-108, while g ~ 2t^2 is a normal double down to t ~ 1e-154.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ts = [10.0 ** (k / 4.0) for k in range(-1200, 13)]  # 1e-300 ... 1e3
    for m in (1, 2, 3):
        for z in (0.12, 0.35, 0.5, 0.65, 0.88):
            g = lemma1_folded(m, z)
            w = mpmath.mpf(z)
            for t in ts:
                u = mpmath.mpf(t)
                plus = u**m * mpmath.exp(-w * u) / -mpmath.expm1(-u)
                minus = (-u) ** m * mpmath.exp(w * u) / -mpmath.expm1(u)
                scale = abs(plus) + abs(minus) + sys.float_info.min
                assert abs(g(t) - (plus + minus)) <= 1e-13 * scale, (m, z, t)


@pytest.mark.parametrize("quad_tol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("z", LEMMA1_Z)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_folded_lemma1_follows_the_bilateral_integral(m, z, quad_tol):
    # the bilateral engine folds f(t) + f(-t) too, at the same nodes; it
    # counts two calls of f per node where the folded form makes one
    bilateral = integrate_bilateral(rt.lemma1_integrand(m, z), quad_tol)
    folded = quadrature.integrate_semi_infinite(lemma1_folded(m, z), 0.0, quad_tol)
    assert bilateral.evaluations == 2 * folded.evaluations
    assert bilateral.converged == folded.converged
    assert abs(folded.value - bilateral.value) <= 1e-15 * abs(bilateral.value)


def test_scaled_lemma1_integrand_matches_high_precision():
    # c g(c u), g the folded integrand, in u = t/c with c = 2/min(z, 1-z);
    # the closure is exact in c, so the reference takes c = 2/lo exactly.
    # Measured against the scale of the two terms, as for the folded form.
    # c^m is applied last, so below c^m times the smallest normal double
    # u^(m-1) is subnormal and no value carries relative precision.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    us = [10.0 ** (k / 4.0) for k in range(-1200, 13)]  # 1e-300 ... 1e3
    for m in (1, 2, 3):
        for z in LEMMA1_Z + [0.5 - 1e-9, 0.5 + 1e-9]:
            g = verify._lemma1_scaled(m, z)
            lo = min(z, 1.0 - z)
            c = 2 / mpmath.mpf(lo)
            floor = sys.float_info.min * (2.0 / lo) ** m
            w = mpmath.mpf(z)
            for u in us:
                t = c * mpmath.mpf(u)
                plus = t**m * mpmath.exp(-w * t) / -mpmath.expm1(-t)
                minus = (-t) ** m * mpmath.exp(w * t) / -mpmath.expm1(t)
                scale = c * (abs(plus) + abs(minus)) + floor
                assert abs(g(u) - c * (plus + minus)) <= 1e-13 * scale, (m, z, u)


def test_scaled_lemma1_integrand_is_zero_far_out():
    g = verify._lemma1_scaled(3, 0.2)
    assert g(400.0) == 0.0  # e^(-2u) underflows
    assert g(1e200) == 0.0  # where u^2 alone would overflow
    assert math.isfinite(g(300.0))


def _lemma1_scaled_by_pow(m, z):
    """``verify._lemma1_scaled`` as one closure for every order, with its
    power taken by pow, the odd bracket as 2.0 + 1.0 * D and the ratio as
    t / -expm1(-t)."""
    w = 1.0 - z
    lo = min(z, w)
    scale = 2.0 / lo
    rate = abs(w - z) / lo
    power = m - 1
    if m % 2:
        base, slope = 2.0, 1.0
    else:
        base, slope = 0.0, (-1.0 if z <= 0.5 else 1.0)
    factor = math.prod((scale,) * m)
    decay = -2.0 * rate

    def scaled(u):
        e = math.exp(-2.0 * u)
        if e == 0.0:
            return 0.0
        t = scale * u
        bracket = e * (base + slope * math.expm1(decay * u))
        return u**power * (t / -math.expm1(-t)) * bracket * factor

    return scaled


# z = 1/2 and next to it, where the even-order bracket is a signed zero or
# nearly so, the edges, where c^m overflows, and seeded z: half of them
# 1/2 +- 2^U(-54, -2), the rest 2^U(-1000, -2) and 1 - 2^U(-53, -2)
_LEMMA1_RNG = random.Random(208)
LEMMA1_BIT_ZS = [
    math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 0.5 - 1e-12, 0.5 + 1e-12,
    1e-300, 1.0 - 1e-16,
    *(0.5 + _LEMMA1_RNG.choice((-1.0, 1.0)) * 2.0 ** _LEMMA1_RNG.uniform(-54.0, -2.0)
      for _ in range(24)),
    *(2.0 ** _LEMMA1_RNG.uniform(-1000.0, -2.0) for _ in range(13)),
    *(1.0 - 2.0 ** _LEMMA1_RNG.uniform(-53.0, -2.0) for _ in range(13)),
]


# The scaled integrand multiplies by u for m = 2 and by u * u for m = 3
# rather than calling pow, has one closure per order and takes its ratio as
# s / expm1(s), s = -t; on every node of the cached levels that must be
# the one-closure u**(m - 1) form bit for bit.  For m = 3 it is so only
# because u * u and u**2 agree on these nodes: they differ on about 0.08%
# of doubles.
@pytest.mark.parametrize("m", [1, 2, 3])
def test_scaled_lemma1_power_is_bit_exact_on_the_cached_nodes(m):
    nodes = []
    for level in range(quadrature._LAST_CACHED_LEVEL + 1):
        rows, _, far_end, near_end, _ = quadrature._exp_sinh_level(level)
        nodes += [row[1] for row in rows[:far_end]] + [row[3] for row in rows[:near_end]]
    for z in sorted(set(rt.DEFAULT_LEMMA1_GRID) | {1e-5, 0.5, 1.0 - 1e-5} | set(LEMMA1_BIT_ZS)):
        g = verify._lemma1_scaled(m, z)
        reference = _lemma1_scaled_by_pow(m, z)
        for u in nodes:
            assert g(u).hex() == reference(u).hex(), (m, z, u)


def test_scaled_lemma1_evaluations_are_bounded():
    # the folded form walked out to t ~ 1/min(z, 1-z): up to 211
    # evaluations on LEMMA1_Z and 681 at (m, z) = (2, 1e-5).  The counts
    # are deterministic.
    for m in (1, 2, 3):
        for z in LEMMA1_Z + [1e-5, 1e-3, 0.999]:
            outcome = quadrature.integrate_semi_infinite(verify._lemma1_scaled(m, z), 0.0)
            assert outcome.converged, (m, z)
            assert outcome.evaluations <= 105, (m, z, outcome.evaluations)


# The folded form claims 1.6e-14 and 2.5e-14 here at every tolerance but is
# 3.5e-13 off; the scaled form is honest at each.
@pytest.mark.parametrize("quad_tol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("z", [0.44776154022735126, 0.5522724584485516])
def test_scaled_lemma1_is_honest_where_the_folded_form_is_not(z, quad_tol):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    w = mpmath.mpf(z)
    ref = mpmath.polygamma(1, 1 - w) + mpmath.polygamma(1, w)
    outcome = quadrature.integrate_semi_infinite(verify._lemma1_scaled(1, z), 0.0, quad_tol)
    assert outcome.converged
    assert abs(outcome.value - ref) <= 10.0 * outcome.error_estimate


# Next to the edges the polygamma side passes the largest double; the
# verifier raises OverflowError from polygamma there and nowhere else, and
# the integrand itself never raises.
@pytest.mark.parametrize("z", [1e-30, 1e-80, 1e-120, 1e-200, 1.0 - 1e-16])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_verify_lemma1_overflows_only_in_polygamma(m, z):
    overflows = {(3, 1e-80), (2, 1e-120), (3, 1e-120), (1, 1e-200), (2, 1e-200), (3, 1e-200)}
    if (m, z) in overflows:
        with pytest.raises(OverflowError) as info:
            rt.verify_lemma1(m, (z,))
        assert info.traceback[-1].path.name == "special.py"  # where polygamma is defined
    else:
        report = rt.verify_lemma1(m, (z,))
        assert report.grid == ((float(m), z),)


# --------------------------------------------------------------- verifiers

def test_verify_lemma1_passes_default_grid():
    for m in (1, 2, 3):
        report = rt.verify_lemma1(m)
        assert report.passed, (m, report.max_abs_deviation)
        assert report.subject is rt.Subject.LEMMA1
        assert report.max_abs_deviation <= 1e-6


def test_lemma1_center_point_reproduces_pi_squared():
    outcome = integrate_bilateral(rt.lemma1_integrand(1, 0.5))
    assert outcome.converged
    assert abs(outcome.value - PI2) <= 1e-6
    # both sides land on pi^2, pinned by the partial-sum zeta oracle
    assert 2.0 * zeta_partial(2.0, 0.5) == pytest.approx(PI2, rel=1e-13)


# The lemma1 integral three ways: the whole-line integrand through the
# bilateral engine, its t-space fold, and the scaled fold verify_lemma1
# integrates.
LEMMA1_PATHS = {
    "bilateral": lambda m, z: integrate_bilateral(rt.lemma1_integrand(m, z)),
    "folded": lambda m, z: quadrature.integrate_semi_infinite(lemma1_folded(m, z), 0.0),
    "verify": lambda m, z: quadrature.integrate_semi_infinite(verify._lemma1_scaled(m, z), 0.0),
}


def test_lemma1_even_order_cancels_at_center():
    for path, integrate in LEMMA1_PATHS.items():
        outcome = integrate(2, 0.5)
        assert outcome.converged, path
        assert outcome.value == 0.0, path


@pytest.mark.parametrize("z", LEMMA1_Z)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_lemma1_quadrature_is_honest(m, z):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    w = mpmath.mpf(z)
    ref = mpmath.polygamma(m, 1 - w) + (-1) ** (m + 1) * mpmath.polygamma(m, w)
    for path, integrate in LEMMA1_PATHS.items():
        outcome = integrate(m, z)
        assert outcome.converged, path
        assert abs(outcome.value - ref) <= 10.0 * outcome.error_estimate, path


def test_verify_lemma2_passes_and_matches_cosecant_form():
    report = rt.verify_lemma2()
    assert report.passed, report.max_abs_deviation
    # a one-shot iterator grid is checked at every order, as its tuple is
    assert rt.verify_lemma2(2, iter((0.3, 0.4))) == rt.verify_lemma2(2, (0.3, 0.4))
    for z in rt.DEFAULT_LEMMA2_GRID:
        lhs = specfun.trigamma(1.0 - z) + specfun.trigamma(z)
        rhs = PI2 / math.sin(math.pi * z) ** 2
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_verify_lemma2_cot_side_is_the_public_cot_derivative_bit_for_bit(monkeypatch):
    # with unit pi powers and the public cot_derivative as the polygamma
    # side, each deviation is |cot_derivative(m, pi z) - lemma2's cot side|
    rng = random.Random(41)
    low, high = math.nextafter(0.05, 1.0), math.nextafter(0.95, 0.0)
    grid = [low, high, 0.5, *(0.05 + 0.9 * i / 4000 for i in range(1, 4000)),
            *(rng.uniform(low, high) for _ in range(1000))]
    monkeypatch.setattr(verify, "_LEMMA2_PI_POWERS", (None, 1.0, 1.0, 1.0))
    monkeypatch.setattr(
        specfun, "_polygamma_pair", lambda m, z: specfun.cot_derivative(m, math.pi * z)
    )
    report = verify.verify_lemma2(3, grid)
    assert len(report.grid) == 3 * len(grid)
    assert report.max_abs_deviation == 0.0, report.worst_point


def test_verify_lemma2_rejects_grid_outside_strip():
    with pytest.raises(ValueError):
        rt.verify_lemma2(z_grid=(0.01, 0.5))


@pytest.mark.parametrize("m_max", [0, 4, 2.0, True])
def test_verify_lemma2_rejects_an_order_other_than_1_2_or_3(m_max):
    with pytest.raises(specfun.UnsupportedOrderError, match="m_max must be 1, 2 or 3"):
        rt.verify_lemma2(m_max)


def test_verify_lemma3_passes_and_pinpoints():
    report = rt.verify_lemma3()
    assert report.passed
    assert report.max_abs_deviation <= 1e-12
    assert len(report.grid) == 100


def test_lemma3_specific_points():
    # x = pi/4: both sides vanish; x = pi/6: both sides equal -8/3
    x = math.pi / 4.0
    lhs = 1.0 / math.cos(x) ** 2 - 1.0 / math.sin(x) ** 2
    assert abs(lhs) <= 1e-15
    x = math.pi / 6.0
    lhs = 1.0 / math.cos(x) ** 2 - 1.0 / math.sin(x) ** 2
    rhs = -4.0 * (math.cos(2 * x) / math.sin(2 * x)) / math.sin(2 * x)
    assert lhs == pytest.approx(-8.0 / 3.0, rel=1e-14)
    assert rhs == pytest.approx(-8.0 / 3.0, rel=1e-14)


def test_verify_lemma3_rejects_poles():
    with pytest.raises(ValueError):
        rt.verify_lemma3(x_grid=(0.3, math.pi / 2.0))


def test_verify_theorem_default_and_spec_grids():
    assert rt.verify_theorem().passed
    small = rt.verify_theorem(n_grid=(2.0, 3.0, 4.0), tol=1e-6)
    assert small.passed
    stretch = rt.verify_theorem(n_grid=(10.0, 100.0), tol=1e-6)
    assert stretch.passed
    lone = rt.verify_theorem(n_grid=(1.5,), tol=1e-6)
    assert lone.passed
    # the value itself: positive branch below n = 2
    assert rt.closed_form_trig(1.5) == pytest.approx(2.9243272299524024, rel=1e-12)


def test_verify_theorem_reports_nonconvergence_as_infinite_deviation():
    report = rt.verify_theorem(n_grid=(3.0,), quad_tol=1e-16)
    assert not report.passed
    assert math.isinf(report.max_abs_deviation)


@pytest.mark.parametrize(
    "verify",
    [
        lambda: rt.verify_lemma1(1, []),
        lambda: rt.verify_lemma2(3, []),
        lambda: rt.verify_lemma3([]),
        lambda: rt.verify_theorem([]),
    ],
    ids=["lemma1", "lemma2", "lemma3", "theorem"],
)
def test_verifiers_reject_an_empty_grid(verify):
    with pytest.raises(ValueError, match="verification grid must not be empty"):
        verify()


def test_make_report_walks_the_checks_once_in_grid_order():
    lemma3 = rt.Subject.LEMMA3
    # on equal deviations the first point stays the worst point
    tied = verify._make_report(
        lemma3, iter([((0.1,), 1e-15), ((0.2,), 2e-15), ((0.3,), 2e-15)]), 1e-12
    )
    assert tied == rt.VerificationReport(
        lemma3, ((0.1,), (0.2,), (0.3,)), 2e-15, 1e-12, True, (0.2,)
    )
    # a nan deviation counts as inf, and fails
    lost = verify._make_report(lemma3, [((0.1,), 0.0), ((0.2,), math.nan)], 1e-12)
    assert lost.max_abs_deviation == math.inf
    assert not lost.passed and lost.worst_point == (0.2,)

    class Refused(Exception):
        pass

    refused = Refused("second point")
    seen = []

    def check(x):
        seen.append(x)
        if len(seen) == 2:
            raise refused
        return (x,), 0.0

    with pytest.raises(Refused) as caught:
        verify._make_report(lemma3, map(check, (0.1, 0.2, 0.3)), 1e-12)
    assert caught.value is refused and seen == [0.1, 0.2]
    with pytest.raises(ValueError, match="verification grid must not be empty"):
        verify._make_report(lemma3, iter(()), 1e-12)


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        rt.VerificationReport(
            subject=rt.Subject.LEMMA3,
            grid=(),
            max_abs_deviation=0.0,
            tolerance=1e-6,
            passed=True,
            worst_point=(0.0,),
        )
    with pytest.raises(ValueError):
        rt.VerificationReport(
            subject=rt.Subject.LEMMA3,
            grid=((0.1,),),
            max_abs_deviation=2.0,
            tolerance=1.0,
            passed=True,  # inconsistent with deviation > tolerance
            worst_point=(0.1,),
        )
    with pytest.raises(ValueError, match="tolerance must be positive"):
        rt.VerificationReport(
            subject=rt.Subject.LEMMA3,
            grid=((0.1,),),
            max_abs_deviation=0.0,
            tolerance=0.0,
            passed=True,
            worst_point=(0.1,),
        )


RECORDS = {
    "QuadratureOutcome": lambda: quadrature.QuadratureOutcome(-0.73, 2e-11, 117, True),
    "EvaluationRow": lambda: rt.EvaluationRow(
        3.0, -0.73, -0.73, -0.73, quadrature.QuadratureOutcome(-0.73, 2e-11, 117, True), 1e-16
    ),
    "VerificationReport": lambda: rt.VerificationReport(
        rt.Subject.LEMMA3, ((0.1,), (0.2,)), 1e-15, 1e-12, True, (0.2,)
    ),
    "CotPolynomial": lambda: specfun.CotPolynomial(1, (-1, 0, -1)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_value(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name
    for attribute in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    assert record == twin and hash(record) == hash(twin)
    assert repr(record).startswith(f"{name}(")


def test_bilateral_outcome_counts_both_halves():
    f = rt.lemma1_integrand(1, 0.3)
    outcome = integrate_bilateral(f)
    folded = quadrature.integrate_semi_infinite(lambda t: f(t) + f(-t), 0.0)
    assert type(outcome) is quadrature.QuadratureOutcome
    assert outcome == folded._replace(evaluations=2 * folded.evaluations)


# ------------------------------------------------------------- limit probe

def test_limit_probe_rows_and_residuals():
    rows = rt.limit_probe([10.0, 100.0, 1000.0])
    assert [n for n, _, _ in rows] == [10.0, 100.0, 1000.0]
    residuals = [r for _, _, r in rows]
    assert all(r > 0.0 for r in residuals)
    assert residuals[0] > residuals[1] > residuals[2]
    # scaled residual approaches trigamma(1) = pi^2/6; pinned empirically
    assert rows[2][2] == pytest.approx(1.6449397e-06, rel=1e-5)


def test_limit_probe_scaled_residual_stabilizes():
    rows = rt.limit_probe([1e3, 1e5])
    for n, _, residual in rows:
        assert abs(residual * n * n - PI2 / 6.0) <= 1e-5


def test_limit_probe_large_n_residual():
    (_, _, residual), = rt.limit_probe([1e6])
    assert abs(residual) <= 1e-11


def test_limit_probe_validation():
    with pytest.raises(ValueError):
        rt.limit_probe([])
    with pytest.raises(ValueError):
        rt.limit_probe([100.0, 10.0])
    with pytest.raises(ValueError):
        rt.limit_probe([5.0, 5.0])
    with pytest.raises(ValueError):
        rt.limit_probe([1.0, 10.0])
