import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cwtasym.specfun import (
    SpecFunError,
    SpecFunMethod,
    gamma_complex,
    gaussian_taylor,
    oscillatory_power_tails,
    parabolic_cylinder_D,
    taylor_tail,
    upper_incomplete_gamma,
)

mp.mp.dps = 35


@pytest.mark.parametrize(
    "z",
    [
        1.0,
        2.0,
        10.0,
        0.5,
        4.2 - 2.0j,
        0.5 + 3.0j,
        -0.5,
        -1.5 + 0.5j,
        -4.3 - 1.2j,
        1e-3 + 1e-3j,
        12.0 + 9.0j,
    ],
)
def test_gamma_against_reference(z):
    got = gamma_complex(z)
    ref = complex(mp.gamma(z))
    assert_allclose(got.value, ref, rtol=5e-13, atol=0.0)
    assert got.abs_error_estimate >= 0.0


def test_gamma_integers_exact():
    for k, fact in [(1, 1.0), (2, 1.0), (3, 2.0), (4, 6.0), (5, 24.0)]:
        assert_allclose(gamma_complex(k).value, fact, rtol=1e-14)


def test_gamma_reflection_method_reported():
    assert gamma_complex(-1.5).method == SpecFunMethod.Reflection
    assert gamma_complex(3.5).method != SpecFunMethod.Reflection


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles_raise(z):
    with pytest.raises(SpecFunError):
        gamma_complex(z)


@pytest.mark.parametrize(
    "s,x",
    [
        (0.5, 2.0),
        (2.0, 5.0),
        (3.0, 0.5),
        (1.0, 1.0),
        (-1.5, 1.0 + 2.0j),
        (-3.5, 8.0j),
        (2.5, -4.0 + 9.0j),
        (0.0, 2.0),
        (-2.0, 0.7),
        (1.5 + 1.0j, 3.0 - 1.0j),
        (4.0, 30.0),
        (-0.5, 0.05),
    ],
)
def test_upper_incomplete_gamma_against_reference(s, x):
    got = upper_incomplete_gamma(s, x).value
    ref = complex(mp.gammainc(s, x))
    assert_allclose(got, ref, rtol=2e-12, atol=1e-300)


@pytest.mark.parametrize("s", [1.5, 2.0 + 1.0j])
def test_upper_incomplete_gamma_at_zero_is_gamma(s):
    got = upper_incomplete_gamma(s, 0.0)
    want = gamma_complex(s)
    assert got.value == want.value
    assert got.abs_error_estimate == want.abs_error_estimate


@pytest.mark.parametrize("s", [0.0, -0.5, -1.0 + 2.0j])
def test_upper_incomplete_gamma_at_zero_needs_positive_real_part(s):
    with pytest.raises(SpecFunError, match="Re s > 0"):
        upper_incomplete_gamma(s, 0.0)


def test_upper_incomplete_gamma_recurrence_consistency():
    # Gamma(s+1, x) = s*Gamma(s, x) + x^s e^{-x}
    s, x = 1.25, 2.0 + 1.0j
    lhs = upper_incomplete_gamma(s + 1.0, x).value
    rhs = s * upper_incomplete_gamma(s, x).value + x ** s * cmath.exp(-x)
    assert_allclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize(
    "nu,z",
    [
        (-1.0, 2.0),
        (-2.5, -1.0j),
        (-1.5, -5.0j),
        (-3.5, 2.0j),
        (0.5, 1.0 + 1.0j),
        (-1.0, -2.0j),
        (-6.5, 0.3),
        (-2.0, 10.0j),
    ],
)
def test_parabolic_cylinder_against_reference(nu, z):
    got = parabolic_cylinder_D(nu, z).value
    ref = complex(mp.pcfd(nu, z))
    assert_allclose(got, ref, rtol=1e-10, atol=1e-300)


def test_parabolic_cylinder_special_values():
    # D_0(z) = exp(-z^2/4)
    for z in (0.5, 2.0j, 1.0 - 1.0j):
        assert_allclose(
            parabolic_cylinder_D(0.0, z).value, cmath.exp(-z * z / 4.0), rtol=1e-12
        )
    # D_nu(0) = 2^{nu/2} sqrt(pi) / Gamma((1-nu)/2)
    nu = -1.3
    ref = 2.0 ** (nu / 2.0) * math.sqrt(math.pi) / complex(mp.gamma((1 - nu) / 2))
    assert_allclose(parabolic_cylinder_D(nu, 0.0).value, ref, rtol=1e-12)


def test_parabolic_cylinder_domain_guards():
    with pytest.raises(SpecFunError):
        parabolic_cylinder_D(-1.0, 40.0)
    with pytest.raises(SpecFunError):
        parabolic_cylinder_D(-25.0, 1.0)


@pytest.mark.parametrize(
    "sigma,c,radius,ref",
    [
        (-1.5, 1.0, 10.0,
         0.00101300852617018929888265584527
         - 0.00284006830464921431430311704663j),
        (-0.5, -2.0, 25.0,
         0.00116332951930687989094331583189
         - 0.00382273442936619840401678476517j),
        (-3.0, 0.5, 8.0,
         0.0000599559555521704825806327446015
         - 0.000339247465464517735756835587775j),
        (1.5, 1.0, 12.0,
         1.74069471632951897766519583737 + 3.00521607045075464751094451033j),
        (0.0, -1.0, 30.0,
         0.033032417282071143779226440963
         - 0.00403978676454550824759038263295j),
    ],
)
def test_oscillatory_power_tail_against_reference(sigma, c, radius, ref):
    """int_U^inf t^(sigma-1) e^(ict) dt via the incomplete gamma route.

    Each reference is stored to 30 digits, as computed by oscillatory
    quadrature, independently of the incomplete-gamma identity under test:

        mp.mp.dps = 35
        f = lambda t: t ** (sigma - 1) * mp.e ** (1j * c * t)
        ref = mp.quadosc(f, [radius, mp.inf], omega=abs(c))
    """
    ((val, err),) = oscillatory_power_tails(sigma, 1, c, radius)
    assert abs(val - ref) <= max(5e-13 * abs(ref), 1e-15)
    assert err >= 0.0


def test_oscillatory_power_tail_zero_rate():
    ((val, _),) = oscillatory_power_tails(-2.0, 1, 0.0, 5.0)
    assert_allclose(val, 5.0 ** (-2.0) / 2.0, rtol=1e-13)
    with pytest.raises(SpecFunError):
        oscillatory_power_tails(0.5, 1, 0.0, 5.0)
    # the first order has the largest real part, so it decides for the run
    with pytest.raises(SpecFunError):
        oscillatory_power_tails(0.5, 3, 0.0, 5.0)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("a,b", [(0.05, 0.6), (0.3, -1.1)])
def test_oscillatory_power_tails_match_per_order(sign, mu, a, b):
    """The step wavelet's phase rates sign*(b + mu*a) against the orders
    -2, -3, ..., -13 of the two-sided exponential's tail at radius 16,
    where |x| = |rate|*16 falls inside the order range: one incomplete
    Gamma plus the recurrence against one incomplete Gamma per order."""
    rate = sign * (b + mu * a)
    tails = oscillatory_power_tails(-2.0, 12, rate, 16.0)
    assert len(tails) == 12
    for k, (val, err) in enumerate(tails):
        ((ref, ref_err),) = oscillatory_power_tails(-2.0 - k, 1, rate, 16.0)
        assert abs(val - ref) <= err + ref_err
        assert err <= 1e-12 * abs(val)


def test_oscillatory_power_tails_against_reference():
    with mp.workdps(30):
        for sigma, c, radius in ((-2.0, 0.6, 16.0), (-0.5, -1.1, 80.0),
                                 (-1.3 + 0.2j, 3.0, 2.0)):
            for k, (val, err) in enumerate(
                    oscillatory_power_tails(sigma, 6, c, radius)):
                q = mp.mpc(0, -c)
                s = mp.mpc(sigma) - k
                ref = complex(q ** (-s) * mp.gammainc(s, q * radius))
                assert abs(val - ref) <= err
    zero = oscillatory_power_tails(-2.0, 3, 0.0, 5.0)
    assert_allclose([v for v, _ in zero],
                    [5.0 ** (-2.0 - k) / (2.0 + k) for k in range(3)], rtol=1e-15)


def test_upper_incomplete_gamma_estimate_covers_conditioning():
    """At |x| = 7,680 the rounding of x and of e^{s log x - x} costs about
    eps*|x| relative, far above the continued fraction's own residual."""
    x = 7680j
    with mp.workdps(40):
        for k in range(6):
            s = -1.3 + 0.2j - k
            got = upper_incomplete_gamma(s, x)
            ref = complex(mp.gammainc(mp.mpc(s), mp.mpc(x)))
            assert abs(got.value - ref) <= got.abs_error_estimate, k


@pytest.mark.parametrize("x", [-2.5, 0.0, 0.7, 5.0])
def test_gaussian_taylor_matches_numpy(x):
    """e^{-x^2/2} He_s(x) / s! from the recurrence, against numpy's Hermite
    series within 1e-12 and within the bounds, which are 0 exactly where
    the value is an exact zero (the odd orders at x = 0)."""
    got, errs = gaussian_taylor(x, 12)
    want = [math.exp(-0.5 * x * x) / math.factorial(s)
            * np.polynomial.hermite_e.hermeval(x, [0.0] * s + [1.0])
            for s in range(12)]
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.all(np.abs(got - want) <= errs + 1e-15 * np.abs(want))
    assert np.all((errs == 0.0) == (got == 0.0))
    assert gaussian_taylor(x, 1)[0].tolist() == [math.exp(-0.5 * x * x)]


def _exp_coefficients(m):
    return np.array([1.0 / math.factorial(k) for k in range(m)])


@pytest.mark.parametrize("x", [1e-6, -0.1, 0.2499, 0.2501, -2.0])
def test_taylor_tail_on_both_branches(x):
    """e^x less 1 + x + x^2/2: below the cutover the series, good to a few
    ulp of the tail itself; above it the direct subtraction, good to a few
    ulp of the terms it cancels."""
    evaluate, omitted = taylor_tail(np.exp, _exp_coefficients, 3, 0.25)
    with mp.workdps(40):
        xm = mp.mpf(x)
        ref = float(mp.exp(xm) - 1 - xm - xm ** 2 / 2)
    got = evaluate(np.array([x]))[0]
    if abs(x) < 0.25:
        assert abs(got - ref) <= 1e-15 * abs(ref) + omitted
    else:
        cancelled = math.exp(x) + 1.0 + abs(x) + 0.5 * x * x
        assert abs(got - ref) <= 4.0 * 2.3e-16 * cancelled
    # the series stops where the omitted terms are below eps of the kept ones
    at_cutover = math.exp(0.25) - 1.0 - 0.25 - 0.03125
    assert 0.0 < omitted <= 2.3e-16 * at_cutover


def test_taylor_tail_without_more_coefficients_subtracts_directly():
    def only_three(m):
        if m > 3:
            raise ValueError("no coefficients past the third")
        return _exp_coefficients(m)

    evaluate, omitted = taylor_tail(np.exp, only_three, 3, 0.25)
    x = np.array([-0.1, 1e-3, 0.5])
    assert omitted == 0.0
    # the polynomial by Horner's rule, so the bits match
    assert_allclose(evaluate(x), np.exp(x) - ((0.5 * x + 1.0) * x + 1.0),
                    rtol=0.0, atol=0.0)
