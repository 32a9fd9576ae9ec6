"""Special-function layer: oracle values, recurrences, reflection identities."""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from logint import specfun as sf
from logint import verify
from logint.quadrature import integrate_finite, integrate_semi_infinite

from oracles import euler_gamma, nested_central_diff, zeta_partial

GAMMA = euler_gamma()


# ---------------------------------------------------------------- lgamma

def test_lgamma_at_small_integers():
    assert abs(sf.lgamma(1.0)) <= 1e-13
    assert abs(sf.lgamma(2.0)) <= 1e-13


def test_lgamma_half_against_quadrature_oracle():
    # Gamma(1/2) as the defining integral, evaluated by an engine that
    # shares no code with the Stirling-series path
    gamma_half = integrate_semi_infinite(
        lambda t: math.exp(-t) / math.sqrt(t), 0.0
    )
    assert gamma_half.converged
    assert abs(sf.lgamma(0.5) - math.log(gamma_half.value)) <= 1e-9
    assert abs(sf.lgamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-13


def test_lgamma_tracks_stdlib_over_contract_range():
    x = 1e-3
    while x < 1e6:
        ref = math.lgamma(x)
        assert abs(sf.lgamma(x) - ref) <= 1e-13 * max(1.0, abs(ref)), x
        x *= 1.17


def oracle_sample(seed):
    # log-uniform over the whole positive range route 3 reaches, uniform
    # around lgamma's zeros at 1 and 2 and digamma's at 1.46
    rng = random.Random(seed)
    xs = [10.0 ** rng.uniform(-307.0, 8.0) for _ in range(1500)]
    return xs + [rng.uniform(0.5, 2.5) for _ in range(500)]


def test_lgamma_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in oracle_sample(1407) + [5e-324]:
        ref = mpmath.loggamma(mpmath.mpf(x))
        assert abs(sf.lgamma(x) - ref) <= 2e-14 * max(1, abs(ref)), x


def test_lgamma_is_relative_near_its_zeros():
    # on [1/2, 5/2] the A&S 6.1.33 series keeps the error relative where
    # ln Gamma crosses 0 at 1 and 2; the sum shifted to 12 was 8.8e-12
    # relative at 1.999 and about 30 at 1 + 2^-52.  Measured worst 8.1e-16
    # (near x = 1.498, over 108k points); the bound leaves a factor 2.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = random.Random(2616)
    xs = [rng.uniform(0.5, 2.5) for _ in range(3000)] + [1.999, 1.016522380544428]
    xs += [c + s * 2.0**-k for c in (1.0, 2.0) for s in (1.0, -1.0) for k in range(2, 53)]
    for x in xs:
        ref = mpmath.loggamma(mpmath.mpf(x))
        assert abs(sf.lgamma(x) - ref) <= 1.6e-15 * abs(ref), x


# ln Gamma(x) passes the largest double from x ~ 2.5600e305: lgamma raises
# there, as math.lgamma does, and returns no inf
@pytest.mark.parametrize("x", [2.56e305, 2.6e305, 1e307, 1.7e308, sys.float_info.max])
def test_lgamma_raises_past_the_largest_double(x):
    with pytest.raises(OverflowError):
        math.lgamma(x)
    with pytest.raises(OverflowError, match="past the largest double"):
        sf.lgamma(x)


# From x ~ 2.5563e305 the product (x - 1/2) ln x overflows, though ln Gamma(x)
# is finite up to 2.5600e305; in that band, and at 2.55e305 below it, lgamma
# is within 1 ulp of math.lgamma
def test_lgamma_is_finite_where_its_head_product_overflows():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = random.Random(305)
    band = [rng.uniform(2.5563e305, 2.5599e305) for _ in range(200)]
    for x in [2.55e305, 2.5563e305, 2.5599e305, *band]:
        value = sf.lgamma(x)
        assert abs(value - math.lgamma(x)) <= 2e-16 * value, x
        assert abs(value - mpmath.loggamma(mpmath.mpf(x))) <= 2e-16 * value, x


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_lgamma_domain(bad):
    with pytest.raises(sf.DomainError):
        sf.lgamma(bad)


# --------------------------------------------------------------- digamma

def test_digamma_at_one_is_minus_gamma():
    assert abs(sf.digamma(1.0) + GAMMA) <= 1e-12


def test_digamma_recurrence_at_two():
    assert abs(sf.digamma(2.0) - sf.digamma(1.0) - 1.0) <= 1e-13


def test_digamma_half_against_quadrature_oracle():
    # the convergent difference form of the classic integral representation:
    # psi(z) = int_0^inf e^(-t)/t - e^(-zt)/(1 - e^(-t)) dt, here z = 1/2
    def integrand(t):
        if t < 1e-4:
            # series of the difference near 0 at z = 1/2: (z - 3/2) + t(5/12 + z(1-z)/2)
            return -1.0 + t * (5.0 / 12.0 + 0.125)
        return math.exp(-t) / t - math.exp(-0.5 * t) / (1.0 - math.exp(-t))

    oracle = integrate_semi_infinite(integrand, 0.0)
    assert oracle.converged
    assert abs(sf.digamma(0.5) - oracle.value) <= 1e-9
    assert abs(sf.digamma(0.5) - (-GAMMA - 2.0 * math.log(2.0))) <= 1e-12


def test_digamma_recurrence_on_grid():
    for i in range(500):
        x = 0.01 + i * (50.0 - 0.01) / 499.0
        assert abs(sf.digamma(x + 1.0) - sf.digamma(x) - 1.0 / x) <= 1e-11


def test_digamma_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in oracle_sample(1408):
        ref = mpmath.digamma(mpmath.mpf(x))
        assert abs(sf.digamma(x) - ref) <= 3e-15 * max(1, abs(ref)), x
    # psi(x) ~ -1/x; at the smallest subnormal that is -2e323, past the
    # largest double, so it raises as polygamma and math.gamma do
    for x in (5e-324, 8.50767269562e-312, 5.5e-309):
        with pytest.raises(OverflowError):
            sf.digamma(x)
    assert sf.digamma(5.6e-309) == pytest.approx(-1.0 / 5.6e-309, rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
def test_digamma_domain(bad):
    with pytest.raises(sf.DomainError):
        sf.digamma(bad)


# ------------------------------------------------------- paired gamma kernel

def test_gamma_pairs_match_high_precision():
    # (a, b, delta) as route 3 forms them from n: n - 1 down to one ulp
    # (a = 2.2e-16), n = 2 (delta = 0) and its neighbours, and the three
    # largest doubles (b subnormal).  Each of a, b and delta is within an
    # ulp of its value at the exact n, where the reference is taken; worst
    # seen here: 1.10e-14 for the log-gamma sum, 4.8e-16 for the digamma
    # difference, relative to itself, as it carries delta
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = random.Random(1901)
    ns = [1.0 + 10.0 ** rng.uniform(-15.66, 0.0) for _ in range(600)]
    ns += [10.0 ** rng.uniform(math.log10(2.0), 308.25) for _ in range(600)]
    ns += [1.0 + 2.0**-52, 2.0 - 2.0**-52, 2.0, 2.0 + 2.0**-51]
    ns += [1.7976931348623153e308, 1.7976931348623155e308, sys.float_info.max]
    for n in ns:
        b = 1.0 / n
        a = (n - 1.0) / n if n < 2.0 else 1.0 - b
        lg, psi = sf._gamma_pairs(a, b, (n - 2.0) / n)
        big_n = mpmath.mpf(n)
        ref_a, ref_b = (big_n - 1) / big_n, 1 / big_n
        ref_lg = mpmath.loggamma(ref_a) + mpmath.loggamma(1 + ref_b)
        ref_psi = mpmath.digamma(1 + ref_b) - mpmath.digamma(1 + ref_a)
        assert abs(lg - ref_lg) <= 1.5e-14, n
        assert abs(psi - ref_psi) <= 1e-15 * abs(ref_psi), n  # exactly 0 at n = 2


# -------------------------------------------------------------- polygamma

def test_polygamma_against_partial_sum_oracle():
    # psi^(m)(x) = (-1)^(m+1) m! zeta(m+1, x), checked against a brute sum
    # that shares no Bernoulli machinery with polygamma
    assert abs(sf.trigamma(1.0) - zeta_partial(2.0)) <= 5e-12
    assert abs(sf.trigamma(0.5) - zeta_partial(2.0, 0.5)) <= 5e-12
    assert abs(-sf.polygamma(2, 1.0) / 2.0 - zeta_partial(3.0)) <= 5e-12


def test_trigamma_known_closed_forms():
    # the oracle itself pins these constants, so asserting against the
    # closed forms directly is justified
    assert abs(zeta_partial(2.0) - math.pi**2 / 6.0) <= 1e-13
    assert abs(zeta_partial(2.0, 0.5) - math.pi**2 / 2.0) <= 1e-13
    assert sf.trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert sf.trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-12)


def test_polygamma_matches_high_precision_at_every_order():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = random.Random(611)
    xs = [10.0 ** rng.uniform(-8.0, 8.0) for _ in range(60)]
    # where the shift rounds across a power of two: 31.38... + 1 crosses 32
    # (m = 12 was 1.08e-15 off there before the rounding was put back)
    xs.append(31.382895422458322)
    rng = random.Random(1211)
    xs += [2.0**j - rng.random() for j in range(1, 6) for _ in range(40)]
    for m in range(1, sf.MAX_DERIVATIVE_ORDER + 1):
        for x in xs:
            ref = mpmath.polygamma(m, mpmath.mpf(x))
            assert abs((sf.polygamma(m, x) - ref) / ref) <= 1e-15, (m, x)


@pytest.mark.parametrize("x", [1e200, 1e300, 1.7e308])
def test_trigamma_at_large_x_is_one_over_x(x):
    # psi'(x) = 1/x + 1/(2x^2) + ...; the second term is far below an ulp
    assert abs(sf.trigamma(x) * x - 1.0) <= 1e-15


def test_polygamma_against_oracles():
    assert sf.polygamma(1, 1.0) == pytest.approx(zeta_partial(2.0), rel=1e-12)
    assert sf.polygamma(1, 0.5) == pytest.approx(zeta_partial(2.0, 0.5), rel=1e-12)
    assert sf.polygamma(2, 1.0) == pytest.approx(-2.0 * zeta_partial(3.0), rel=1e-11)


def test_trigamma_matches_polygamma_order_one():
    rng = random.Random(1409)
    xs = [10.0 ** rng.uniform(-150.0, 300.0) for _ in range(2000)]
    for x in [0.25, 1.0, 3.7, 41.0] + xs:
        assert sf.trigamma(x) == sf.polygamma(1, x), x


@pytest.mark.parametrize(
    "m, x",
    # the last three sit in the band where x^(-m-1) is finite but m! times
    # it is not
    [(1, 1e-160), (1, 7.4e-155), (2, 1e-150), (3, 1e-150),
     (2, 1.8e-103), (2, 2.0584081077960078e-103), (12, 2.8738873156950745e-24)],
)
def test_polygamma_overflow_raises(m, x):
    # |psi^(m)(x)| ~ m!/x^(m+1) is past the largest double, as math.gamma(1e-320) is
    with pytest.raises(OverflowError):
        sf.polygamma(m, x)
    if m == 1:
        with pytest.raises(OverflowError):
            sf.trigamma(x)


def test_trigamma_values_and_recurrence():
    assert sf.trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert sf.trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
    assert abs(sf.trigamma(2.0) - sf.trigamma(1.0) + 1.0) <= 1e-12


def test_trigamma_recurrence_on_grid():
    for i in range(500):
        x = 0.01 + i * (50.0 - 0.01) / 499.0
        lhs = sf.trigamma(x + 1.0) - sf.trigamma(x) + 1.0 / (x * x)
        assert abs(lhs) <= 1e-11 * max(1.0, abs(sf.trigamma(x)))


@pytest.mark.parametrize("m", [0, -1, 13, 2.0, True])
def test_polygamma_order_validation(m):
    with pytest.raises(sf.UnsupportedOrderError):
        sf.polygamma(m, 1.0)


def test_polygamma_domain():
    with pytest.raises(sf.DomainError):
        sf.polygamma(1, 0.0)
    with pytest.raises(sf.DomainError):
        sf.polygamma(3, -2.0)


@pytest.mark.parametrize("x", [-1.0, 0.0, math.inf, math.nan])
def test_trigamma_domain_error_names_trigamma(x):
    with pytest.raises(sf.DomainError, match="^trigamma requires"):
        sf.trigamma(x)


def test_polygamma_consistent_with_finite_difference():
    # psi^(m) should be the derivative of psi^(m-1)
    for m, x in [(1, 0.5), (1, 1.5), (1, 3.0), (2, 0.5), (2, 1.5), (2, 3.0)]:
        lower = (lambda y: sf.digamma(y)) if m == 1 else (lambda y: sf.polygamma(m - 1, y))
        h = 6e-6 * max(1.0, x)
        fd = nested_central_diff(lower, x, h, 1)
        assert fd == pytest.approx(sf.polygamma(m, x), rel=1e-6)


# ------------------------------------------------------- gamma reflection

@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_gamma_reflection_defect_is_tiny(z):
    assert abs(sf.gamma_reflection_defect(z)) <= 1e-12


def test_gamma_reflection_symmetry_point():
    assert abs(sf.gamma_reflection_defect(0.5)) <= 1e-13


def test_gamma_reflection_spec_points():
    assert abs(sf.gamma_reflection_defect(0.25)) <= 1e-12
    assert abs(sf.gamma_reflection_defect(0.9)) <= 1e-12


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7, math.nan])
def test_gamma_reflection_domain(bad):
    with pytest.raises(sf.DomainError):
        sf.gamma_reflection_defect(bad)


# ------------------------------------------------- polygamma reflection

def test_polygamma_reflection_via_cot_derivatives():
    # psi^(m)(1-z) + (-1)^(m+1) psi^(m)(z) = (-1)^m pi^(m+1) (d^m cot)(pi z)
    # (the pi^m chain-rule factor folded in); relative to the right side
    for m in (1, 2, 3):
        sign = 1.0 if m % 2 else -1.0
        cot_sign = -1.0 if m % 2 else 1.0
        for i in range(16):
            z = 0.1 + 0.8 * i / 15.0
            lhs = sf.polygamma(m, 1.0 - z) + sign * sf.polygamma(m, z)
            rhs = cot_sign * math.pi ** (m + 1) * sf.cot_derivative(m, math.pi * z)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (m, z)


def test_polygamma_pair_matches_high_precision():
    # psi^(m)(1-z) + (-1)^(m+1) psi^(m)(z) at the double 1 - z, as the two
    # calls take it, floored relative to magnitude 1; the two calls reach
    # 2.6e-15 at m = 2 next to z = 1/2, where their difference cancels
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = random.Random(2707)
    zs = [rng.uniform(0.05, 0.95) for _ in range(1000)]
    zs += list(verify.DEFAULT_LEMMA1_GRID) + list(verify.DEFAULT_LEMMA2_GRID)
    tiny = [10.0 ** rng.uniform(-12.0, math.log10(0.05)) for _ in range(200)]
    zs += tiny + [1.0 - z for z in tiny]
    zs += [0.5 + side * 2.0**-k for k in range(2, 54) for side in (1.0, -1.0)]
    for m in (1, 2, 3):
        for z in zs:
            ref = (mpmath.polygamma(m, mpmath.mpf(1.0 - z))
                   + (-1) ** (m + 1) * mpmath.polygamma(m, mpmath.mpf(z)))
            err = abs(sf._polygamma_pair(m, z) - ref) / max(1, abs(ref))
            assert err <= 1e-15, (m, z, float(err))


def test_polygamma_pair_is_exactly_zero_at_the_even_order_centre():
    value = sf._polygamma_pair(2, 0.5)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_polygamma_pair_overflows_where_the_two_calls_do():
    zs = [10.0 ** (-12.0 - 311.0 * i / 2999.0) for i in range(3000)]
    zs += [5e-324, 1e-320, 7.4e-155, 7.5e-155, 2.0584081077960078e-103, 1.35e-77, 1.36e-77]
    raised = 0
    for m in (1, 2, 3):
        for z in zs:
            try:
                expected = sf.polygamma(m, 1.0 - z) + (-1) ** (m + 1) * sf.polygamma(m, z)
            except OverflowError:
                raised += 1
                with pytest.raises(OverflowError):
                    sf._polygamma_pair(m, z)
            else:
                assert sf._polygamma_pair(m, z) == pytest.approx(expected, rel=1e-15), (m, z)
    assert raised > 1000  # the sweep reaches well past each order's overflow point


def test_polygamma_pair_uses_no_trig_function(monkeypatch):
    zs = [0.03, 0.2, 0.5, 0.77, 0.95]
    before = [sf._polygamma_pair(m, z) for m in (1, 2, 3) for z in zs]

    def trig(*args):
        raise AssertionError("the paired kernel must not use a trig function")

    for name in ("sin", "cos", "tan"):
        monkeypatch.setattr(math, name, trig)
    assert [sf._polygamma_pair(m, z) for m in (1, 2, 3) for z in zs] == before
    with pytest.raises(AssertionError, match="trig function"):  # positive control
        sf.cot_derivative(1, 1.0)


def test_trigamma_reflection_cosecant_form():
    for i in range(19):
        z = 0.05 + 0.9 * i / 18.0
        rhs = math.pi**2 / math.sin(math.pi * z) ** 2
        lhs = sf.trigamma(1.0 - z) + sf.trigamma(z)
        assert abs(lhs - rhs) <= 1e-10 * rhs, z


# --------------------------------------------------------- cot machinery

def test_cot_polynomial_base_cases():
    assert sf.cot_derivative_poly(0).coeffs == (0, 1)
    assert sf.cot_derivative_poly(1).coeffs == (-1, 0, -1)
    assert sf.cot_derivative_poly(2).coeffs == (0, 2, 0, 2)


def test_cot_polynomial_structure_all_orders():
    for m in range(sf.MAX_DERIVATIVE_ORDER + 1):
        poly = sf.cot_derivative_poly(m)
        degree = len(poly.coeffs) - 1
        assert degree == m + 1
        assert poly.coeffs[-1] != 0
        for k, coeff in enumerate(poly.coeffs):
            if (degree - k) % 2 != 0:
                assert coeff == 0, (m, k)
        # design cap: coefficients stay inside 64-bit integer range
        assert max(abs(c) for c in poly.coeffs) < 2**63


def test_cot_polynomial_rejects_malformed():
    with pytest.raises(ValueError):
        sf.CotPolynomial(1, (0, 1))  # wrong degree
    with pytest.raises(ValueError):
        sf.CotPolynomial(1, (-1, 1, -1))  # parity violation


def test_cot_derivative_order_cap():
    with pytest.raises(sf.UnsupportedOrderError):
        sf.cot_derivative_poly(13)
    with pytest.raises(sf.UnsupportedOrderError):
        sf.cot_derivative_poly(-1)


def test_cot_derivative_values_at_quarter_pi():
    x = math.pi / 4.0
    assert sf.cot_derivative(0, x) == pytest.approx(1.0, rel=1e-14)
    assert sf.cot_derivative(1, x) == pytest.approx(-2.0, rel=1e-14)
    fd = nested_central_diff(lambda t: math.cos(t) / math.sin(t), x, 3e-4, 2)
    assert sf.cot_derivative(2, x) == pytest.approx(fd, rel=1e-5)
    assert sf.cot_derivative(2, x) == pytest.approx(4.0, rel=1e-14)


def test_cot_derivative_matches_nested_differences():
    x = math.pi / 3.0
    cot = lambda t: math.cos(t) / math.sin(t)
    assert sf.cot_derivative(1, x) == pytest.approx(
        nested_central_diff(cot, x, 1e-5, 1), rel=1e-5
    )
    assert sf.cot_derivative(2, x) == pytest.approx(
        nested_central_diff(cot, x, 3e-4, 2), rel=1e-5
    )


def test_cot_derivative_pole_rejection():
    with pytest.raises(sf.DomainError):
        sf.cot_derivative(1, 0.0)
    with pytest.raises(sf.DomainError):
        sf.cot_derivative(1, math.pi)  # sin(pi) ~ 1.2e-16 under the guard
    with pytest.raises(sf.DomainError):
        sf.cot_derivative(0, 5e-13)
    with pytest.raises(sf.DomainError):
        sf.cot_derivative(1, math.inf)


@pytest.mark.parametrize("x", [10**400, -(10**400), 2 * 10**308], ids=["1e400", "-1e400", "2e308"])
@pytest.mark.parametrize("call", [
    sf.lgamma, sf.digamma, sf.trigamma,
    lambda x: sf.polygamma(2, x), lambda x: sf.cot_derivative(2, x),
], ids=["lgamma", "digamma", "trigamma", "polygamma", "cot_derivative"])
def test_ints_past_the_double_range_are_refused_as_inf_is(call, x):
    # not OverflowError from a float() of the int
    with pytest.raises(sf.DomainError, match="finite"):
        call(x)


# 10**200 is inside the double range, but its square as an int is not
@pytest.mark.parametrize("call", [
    sf.lgamma, sf.digamma, sf.trigamma,
    lambda x: sf.polygamma(2, x), lambda x: sf.cot_derivative(2, x),
], ids=["lgamma", "digamma", "trigamma", "polygamma", "cot_derivative"])
def test_ints_inside_the_double_range_give_their_doubles_bits(call):
    assert call(10**200).hex() == call(1e200).hex()


# Each refusal names an int past the double range as inf or -inf: its repr
# would exceed the int-to-str digit limit and raise ValueError instead.
REFUSALS = {
    "lgamma": (sf.lgamma, sf.DomainError),
    "cot_derivative": (lambda x: sf.cot_derivative(1, x), sf.DomainError),
    "gamma_reflection_defect": (sf.gamma_reflection_defect, sf.DomainError),
    "polygamma order": (lambda m: sf.polygamma(m, 1.0), sf.UnsupportedOrderError),
    "cot_derivative_poly": (sf.cot_derivative_poly, sf.UnsupportedOrderError),
    "integrate_semi_infinite tol": (
        lambda t: integrate_semi_infinite(math.exp, 0.0, t), ValueError
    ),
    "integrate_semi_infinite a": (lambda a: integrate_semi_infinite(math.exp, a), ValueError),
    "integrate_finite": (lambda b: integrate_finite(math.sin, 0.0, b), ValueError),
    "verify_lemma1 order": (verify.verify_lemma1, sf.UnsupportedOrderError),
    "verify_lemma1 z": (lambda z: verify.verify_lemma1(1, [z]), sf.DomainError),
    "verify_lemma2 order": (verify.verify_lemma2, sf.UnsupportedOrderError),
    "verify_lemma2 z": (lambda z: verify.verify_lemma2(3, [z]), ValueError),
    "verify_lemma3": (lambda x: verify.verify_lemma3([x]), ValueError),
}


@pytest.mark.parametrize("x", [10**5000, -(10**5000)], ids=["1e5000", "-1e5000"])
@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_ints_past_the_digit_limit_are_refused_by_name(name, x):
    call, kind = REFUSALS[name]
    with pytest.raises(kind) as refused:
        call(x)
    assert type(refused.value) is kind
    message = str(refused.value)
    assert ("-inf" in message) == (x < 0) and "inf" in message
