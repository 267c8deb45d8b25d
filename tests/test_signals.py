"""Test signals: transform pairs, local expansions, scaled variants."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cwtasym.signals import (
    SignalKind,
    f_hat,
    f_time_conditioning,
    h_eval,
    make_h,
    make_signal,
    time_coefficient_table,
    time_coefficients,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("kind", [SignalKind.Lorentzian, SignalKind.TwoSidedExp,
                                  SignalKind.Gaussian])
@pytest.mark.parametrize("w", [0.0, 0.5, 2.0])
def test_fourier_pair_numeric(kind, w):
    """f_freq really is the Fourier integral of f_time."""
    sig = make_signal(kind)
    with mp.workdps(30):
        f = {
            SignalKind.Lorentzian: lambda t: 1 / (1 + t * t),
            SignalKind.TwoSidedExp: lambda t: mp.exp(-abs(t)),
            SignalKind.Gaussian: lambda t: mp.exp(-t * t / 2),
        }[kind]
        # even signals: the transform reduces to a cosine integral; the
        # slowly decaying one needs the oscillation-aware integrator
        if kind == SignalKind.Lorentzian and w > 0.0:
            ref = 2 * mp.quadosc(lambda t: f(t) * mp.cos(w * t), [0, mp.inf],
                                 period=2 * mp.pi / w)
        else:
            ref = 2 * mp.quad(lambda t: f(t) * mp.cos(w * t), [0, 1, 10, mp.inf])
    got = f_hat(sig, np.array([w]))[0]
    assert abs(got - complex(ref)) < 1e-12 * abs(complex(ref))


def test_fourier_pair_spot_values():
    lor = make_signal(SignalKind.Lorentzian)
    assert_allclose(f_hat(lor, np.array([1.0]))[0], math.pi / math.e, rtol=1e-15)
    tse = make_signal(SignalKind.TwoSidedExp)
    assert_allclose(f_hat(tse, np.array([3.0]))[0], 0.2, rtol=1e-15)
    gau = make_signal(SignalKind.Gaussian)
    assert_allclose(
        f_hat(gau, np.array([2.0]))[0], _SQRT_2PI * math.exp(-2.0), rtol=1e-15
    )


@pytest.mark.parametrize(
    "kind,b",
    [
        (SignalKind.Lorentzian, 1.0),
        (SignalKind.Lorentzian, -0.3),
        (SignalKind.Gaussian, 0.7),
        (SignalKind.Gaussian, 0.0),
    ],
)
def test_time_coefficients_vs_highprec(kind, b):
    sig = make_signal(kind)
    n = 6
    got = time_coefficients(sig, b, n)
    with mp.workdps(40):
        f = (lambda t: 1 / (1 + t * t)) if kind == SignalKind.Lorentzian \
            else (lambda t: mp.exp(-t * t / 2))
        ref = mp.taylor(f, mp.mpf(b), n - 1)
    for s in range(n):
        assert abs(got[s] - complex(ref[s])) < 1e-13 * max(1.0, abs(complex(ref[s])))


def _mp_time_coefficients(kind, amplitude, scale, b, n):
    """c_s of amplitude * f(t / scale) at b from the closed forms, in the
    working precision, rounded to complex."""
    x = mp.mpf(b) / mp.mpf(scale)
    if kind == SignalKind.Lorentzian:
        base = [(-1) ** (s + 1) * mp.im(mp.mpc(x, 1) ** -(s + 1)) for s in range(n)]
    elif kind == SignalKind.Gaussian:
        he = [mp.mpf(1), x]
        for s in range(2, n):
            he.append(x * he[s - 1] - (s - 1) * he[s - 2])
        base = [(-1) ** s * he[s] * mp.exp(-x * x / 2) / mp.factorial(s)
                for s in range(n)]
    else:
        base = [mp.exp(-abs(x)) * (-mp.sign(x)) ** s / mp.factorial(s)
                for s in range(n)]
    return [complex(amplitude * c / mp.mpf(scale) ** s) for s, c in enumerate(base)]


@pytest.mark.parametrize("amplitude,scale", [(1.0, 1.0), (1.3, 0.2), (1.3, 5.0)])
@pytest.mark.parametrize("b", [1.16e77, -5.6e102, 45.0, -1e200, 1.7976931348623157e308,
                               0.7])
@pytest.mark.parametrize("kind", list(SignalKind))
def test_far_time_coefficients_are_finite_within_their_bounds(kind, b, amplitude,
                                                               scale):
    """Far out, in b or in b/sigma, every coefficient is finite and within
    its bound of the 30-digit value, mostly an exact 0: (b -+ i)^-(s+1)
    overflowed to NaN past |b| = 1.16e77, e^{-b^2/2} He_s(b) was 0 * inf
    past 5.6e102."""
    values, errors = time_coefficient_table(make_signal(kind, amplitude, scale), b, 4)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(errors))
    with mp.workdps(30):
        want = _mp_time_coefficients(kind, amplitude, scale, b, 4)
    for s in range(4):
        assert abs(values[s] - want[s]) <= errors[s], s


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("kind", [SignalKind.Lorentzian, SignalKind.Gaussian])
def test_extreme_time_scales_give_finite_tables_or_refuse(kind, scale):
    """Where sigma^s leaves the float range, c_s / sigma^s was 0/0 = NaN:
    now the table is finite and within its bounds of 30 digits, or, where
    a value or bound would not be, raises ValueError."""
    sig = make_signal(kind, 1.3, scale)
    for b in (0.7, -45.0, 1e200):
        try:
            values, errors = time_coefficient_table(sig, b, 4)
        except ValueError as exc:
            assert "outside the float range" in str(exc)
            continue
        with mp.workdps(30):
            want = _mp_time_coefficients(kind, 1.3, scale, b, 4)
        assert np.all(np.isfinite(errors))
        assert np.all(np.abs(values - want) <= errors), b


def test_time_coefficients_two_sided_exp():
    sig = make_signal(SignalKind.TwoSidedExp)
    for b, sgn in ((2.0, -1.0), (-2.0, 1.0)):
        got = time_coefficients(sig, b, 5)
        want = [math.exp(-2.0) * sgn ** s / math.factorial(s) for s in range(5)]
        assert_allclose(got, np.asarray(want, dtype=complex), rtol=1e-14)
    # at the kink only the value itself exists
    assert_allclose(time_coefficients(sig, 0.0, 1), [1.0])
    with pytest.raises(ValueError, match="not differentiable"):
        time_coefficients(sig, 0.0, 2)


def test_time_coefficients_custom_route():
    """A scaled signal's coefficients are those of A*f(t/s), taken in mpmath."""
    A, s, b, n = 2.0, 0.5, 0.8, 6
    refs = {
        SignalKind.Lorentzian: lambda t: 1 / (1 + t * t),
        SignalKind.Gaussian: lambda t: mp.exp(-t * t / 2),
    }
    for kind, f in refs.items():
        got = time_coefficients(make_signal(kind, A, s), b, n)
        with mp.workdps(40):
            ref = mp.taylor(lambda t: A * f(t / s), mp.mpf(b), n - 1)
        for k in range(n):
            want = complex(ref[k])
            assert abs(got[k] - want) < 1e-13 * max(1.0, abs(want)), (kind, k)


def test_scaled_coefficients_expand_about_the_exact_quotient():
    """b/sigma = -1.1/0.05 rounds to -22 with a residual of -5.6e-16; the
    Gaussian's coefficients there move by 22 times that relative, which
    the first-order shift puts back (1.2e-14 relative off before)."""
    A, s, b, n = 0.5, 0.05, -1.1, 6
    got = time_coefficients(make_signal(SignalKind.Gaussian, A, s), b, n)
    with mp.workdps(40):
        u = mp.mpf(b) / mp.mpf(s)
        he = [mp.mpf(1), u]
        for k in range(2, n):
            he.append(u * he[-1] - (k - 1) * he[-2])
        for k in range(n):
            want = (A * (-1) ** k * he[k] * mp.exp(-u * u / 2)
                    / (mp.factorial(k) * mp.mpf(s) ** k))
            assert abs(got[k] - complex(want)) <= 1e-15 * abs(complex(want)), k


@pytest.mark.parametrize("kind", list(SignalKind))
def test_time_conditioning_bounds_the_evaluation_error(kind):
    """f_time at t = fl(b + x) against f(b + x) in 40 digits: the relative
    error stays within f_time_conditioning(t) * eps, up to |b|/sigma = 22."""
    A, s, b = 0.5, 0.05, -1.1
    sig = make_signal(kind, A, s)
    base = {
        SignalKind.Lorentzian: lambda u: 1 / (1 + u * u),
        SignalKind.TwoSidedExp: lambda u: mp.exp(-abs(u)),
        SignalKind.Gaussian: lambda u: mp.exp(-u * u / 2),
    }[kind]
    xs = np.linspace(0.0, 0.05, 101)
    t = b + xs
    got = sig.f_time(t)
    bound = f_time_conditioning(sig, t) * np.finfo(float).eps
    with mp.workdps(40):
        for x, g, e in zip(xs, got, bound):
            want = A * base((mp.mpf(b) + mp.mpf(float(x))) / mp.mpf(s))
            assert abs(g - want) <= e * abs(want), x


def test_custom_route_rejects_kink():
    sig = make_signal(SignalKind.TwoSidedExp, time_scale=2.0)
    with pytest.raises(ValueError, match="not differentiable"):
        time_coefficients(sig, 0.0, 3)


def test_custom_scaling_rules():
    A, s = 3.0, 2.0
    base = make_signal(SignalKind.TwoSidedExp)
    sig = make_signal(SignalKind.TwoSidedExp, amplitude=A, time_scale=s)
    t = np.array([0.3, 1.7, -4.0])
    assert_allclose(sig.f_time(t), A * base.f_time(t / s), rtol=1e-15)
    w = np.array([0.25, 1.0, 3.0])
    assert_allclose(sig.f_freq(w), A * s * base.f_freq(s * w), rtol=1e-15)
    assert sig.kind == SignalKind.TwoSidedExp
    assert (sig.amplitude, sig.time_scale) == (A, s)
    assert sig.tail_beta == base.tail_beta
    assert sig.sup_time == A * base.sup_time
    assert sig.sup_freq == A * s * base.sup_freq
    assert sig.kinks == (0.0,)
    # leading algebraic tail: A*s*f_hat(s*w) ~ (A*s)*2*(s*w)^-2
    assert_allclose(sig.tail_coeffs[0], A * s * 2.0 / s ** 2, rtol=1e-15)
    # at unit scale the built-in comes back unchanged
    assert make_signal(SignalKind.TwoSidedExp, 1.0, 1.0) == base


def test_custom_signal_validation():
    with pytest.raises(ValueError):
        make_signal(SignalKind.Gaussian, time_scale=0.0)


@pytest.mark.parametrize("b", [0.0, 1.3])
def test_h_eval_matches_definition(b):
    sig = make_signal(SignalKind.Lorentzian)
    h = make_h(sig, b)
    u = np.geomspace(0.1, 8.0, 9)
    assert_allclose(h_eval(h, u), np.exp(1j * b * u) * np.pi * np.exp(-u),
                    rtol=1e-14)
    # reflected argument flips both the phase and the transform argument
    assert_allclose(h_eval(h, u, mirror=True),
                    np.exp(-1j * b * u) * np.pi * np.exp(-u), rtol=1e-14)


def test_envelopes_bound_the_functions():
    for kind in (SignalKind.Lorentzian, SignalKind.TwoSidedExp, SignalKind.Gaussian):
        sig = make_signal(kind)
        for t in (1.5, 4.0, 9.0):
            fk, fc, fp = sig.freq_envelope
            fenv = {"alg": fc * t ** -fp, "exp": fc * math.exp(-fp * t),
                    "gauss": fc * math.exp(-fp * t * t)}[fk]
            assert abs(f_hat(sig, np.array([t]))[0]) <= fenv * (1.0 + 1e-12)
