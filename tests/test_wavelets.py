"""Analyzing wavelets: transforms, small-argument coefficients, tails."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cwtasym.wavelets import (
    WaveletKind,
    make_wavelet,
    psi_conj,
    psi_hat_conj,
    psi_hat_tail,
    small_u_coefficients,
    small_u_coefficients_numeric,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _specs():
    return [
        make_wavelet(WaveletKind.Morlet, u0=2.0),
        make_wavelet(WaveletKind.Morlet, u0=5.0),
        make_wavelet(WaveletKind.MexicanHat),
        make_wavelet(WaveletKind.Haar),
    ]


@pytest.mark.parametrize("spec", _specs(), ids=lambda s: f"{s.kind.value}-u0={s.u0:g}")
def test_closed_vs_contour_coefficients(spec):
    """Closed-form tables agree with the contour-moment extraction."""
    n = 11
    table = small_u_coefficients(spec, n)
    numeric = small_u_coefficients_numeric(spec, n)
    assert len(table.coefficients) == len(numeric.coefficients) == n
    assert spec.lam == 1
    assert np.max(np.abs(table.coefficients - numeric.coefficients)) < 1e-10


def test_morlet_coefficient_values():
    # c_s = sqrt(2*pi) * exp(-u0^2/2) * p_s(u0) / s! with the polynomials
    # from the recurrence p_{s+1} = u0*p_s - s*p_{s-1}, p_0 = 1, p_1 = u0
    u0 = 3.0
    spec = make_wavelet(WaveletKind.Morlet, u0=u0)
    cs = small_u_coefficients(spec, 9).coefficients
    amp = _SQRT_2PI * math.exp(-0.5 * u0 * u0)
    p_prev, p = 1.0, u0
    want = [amp]
    fact = 1.0
    for s in range(1, 9):
        fact *= s
        want.append(amp * p / fact)
        p_prev, p = p, u0 * p - s * p_prev
    assert_allclose(cs, np.asarray(want, dtype=complex), rtol=1e-13)


@pytest.mark.parametrize("u0", [38.0, 38.6, 40.0, 1e100, 1e200, 1.7976931348623157e308])
def test_far_morlet_coefficients_are_finite_within_their_bounds(u0):
    """Past u0 = 38.6 e^{-u0^2/2} underflows: the coefficients are exact
    zeros, not 0 * inf = NaN past u0 = 1e100, and every one is within its
    bound of the 30-digit value."""
    table = small_u_coefficients(make_wavelet(WaveletKind.Morlet, u0=u0), 6)
    cs, errs = table.coefficients, table.error_estimates
    assert np.all(np.isfinite(cs)) and np.all(np.isfinite(errs))
    if u0 >= 40.0:
        assert np.all(cs == 0.0)
    with mp.workdps(30):
        x = mp.mpf(u0)
        he = [mp.mpf(1), x]
        for s in range(2, 6):
            he.append(x * he[s - 1] - (s - 1) * he[s - 2])
        want = [complex(mp.sqrt(2 * mp.pi) * mp.exp(-x * x / 2) * he[s]
                        / mp.factorial(s)) for s in range(6)]
    for s in range(6):
        assert abs(cs[s] - want[s]) <= errs[s], s


def test_mexican_hat_coefficient_values():
    spec = make_wavelet(WaveletKind.MexicanHat)
    cs = small_u_coefficients(spec, 9).coefficients
    want = np.zeros(9, dtype=complex)
    want[2] = _SQRT_2PI
    want[4] = -_SQRT_2PI / 2.0
    want[6] = _SQRT_2PI / 8.0
    want[8] = -_SQRT_2PI / 48.0
    assert_allclose(cs, want, rtol=1e-14, atol=0.0)
    # the zeros are structural, not merely small
    assert cs[0] == 0.0 and cs[1] == 0.0
    assert all(cs[s] == 0.0 for s in (3, 5, 7))


def test_haar_coefficient_values():
    spec = make_wavelet(WaveletKind.Haar)
    cs = small_u_coefficients(spec, 4).coefficients
    want = np.array([0.0, -0.25j, 0.125, 7j / 192.0])
    assert_allclose(cs, want, rtol=1e-15, atol=0.0)
    assert cs[0] == 0.0


def test_transform_point_values():
    morlet = make_wavelet(WaveletKind.Morlet, u0=5.0)
    assert_allclose(psi_hat_conj(morlet, np.array([5.0]))[0], _SQRT_2PI, rtol=1e-15)

    mexhat = make_wavelet(WaveletKind.MexicanHat)
    assert_allclose(
        psi_hat_conj(mexhat, np.array([math.sqrt(2.0)]))[0],
        _SQRT_2PI * 2.0 / math.e,
        rtol=1e-15,
    )

    haar = make_wavelet(WaveletKind.Haar)
    vals = psi_hat_conj(haar, np.array([0.0, 2.0 * math.pi]))
    assert vals[0] == 0.0
    assert_allclose(vals[1], 2j / math.pi, rtol=1e-14)


@pytest.mark.parametrize("spec", _specs(), ids=lambda s: f"{s.kind.value}-u0={s.u0:g}")
def test_transform_of_real_arguments_in_real_arithmetic(spec):
    # nodes on both sides of the step wavelet's series cutover as well
    u = np.concatenate([np.linspace(-12.0, 12.0, 241), [-9.99e-4, 1.001e-3]])
    got = psi_hat_conj(spec, u)
    if spec.kind != WaveletKind.Haar:
        assert got.dtype == np.float64
    reference = psi_hat_conj(spec, u.astype(complex))
    assert np.max(np.abs(got - reference)) <= 2.0 * np.spacing(spec.hat_sup)


@pytest.mark.parametrize("spec", _specs()[:3], ids=lambda s: f"{s.kind.value}-u0={s.u0:g}")
def test_time_envelope_bounds_the_wavelet(spec):
    """|psi(t)| <= C e^{-rate t^2} on a fine grid; the Mexican hat's
    7 e^{-0.45 t^2} is tight to 2e-4 at t^2 = 21, where |1 - t^2| e^{-t^2/2}
    over e^{-0.45 t^2} peaks at 20 e^{-1.05} = 6.9988, and the modulated
    Gaussian's e^{-t^2/2} is its exact modulus, C a few ulp above 1."""
    kind, c, rate = spec.time_envelope
    assert kind == "gauss"
    t = np.linspace(-12.0, 12.0, 240_001)
    ratio = np.abs(psi_conj(spec, t)) / (c * np.exp(-rate * t * t))
    assert ratio.max() <= 1.0
    if spec.kind == WaveletKind.MexicanHat:
        assert ratio.max() > 1.0 - 2e-4
    if spec.kind == WaveletKind.Morlet:
        assert rate == 0.5 and ratio.max() > 1.0 - 1e-15


def test_step_wavelet_time_values():
    haar = make_wavelet(WaveletKind.Haar)
    got = psi_conj(haar, np.array([0.0, 0.5, 1.0, -0.1]))
    assert np.array_equal(got, [1.0, -1.0, 0.0, 0.0])


def test_haar_series_cutover_continuity():
    """The series and closed-form branches agree across the switch point."""
    spec = make_wavelet(WaveletKind.Haar)
    with mp.workdps(30):
        for u in (9.99e-4, 1.001e-3, -9.99e-4, -1.001e-3):
            um = mp.mpf(u)
            ref = -4j * mp.exp(0.5j * um) * mp.sin(0.25 * um) ** 2 / um
            got = psi_hat_conj(spec, np.array([u]))[0]
            assert abs(got - complex(ref)) < 1e-18


@pytest.mark.parametrize("u", [0.2, 3.0])
def test_morlet_tail_vs_highprec(u):
    spec = make_wavelet(WaveletKind.Morlet, u0=2.0)
    n = 2
    cs = small_u_coefficients(spec, n).coefficients
    with mp.workdps(40):
        full = mp.sqrt(2 * mp.pi) * mp.exp(-mp.mpf(u - 2.0) ** 2 / 2)
        ref = full - (cs[0].real + cs[1].real * u)
    got = psi_hat_tail(spec, n, np.array([u]))[0]
    assert abs(got - complex(ref)) < 5e-14 * abs(complex(ref))


@pytest.mark.parametrize("spec", _specs(), ids=lambda s: f"{s.kind.value}-u0={s.u0:g}")
@pytest.mark.parametrize("n", [1, 3])
def test_tail_leading_order(spec, n):
    # psi_hat_tail(u) ~ c_n u^n as u -> 0 (next nonzero coefficient if c_n = 0)
    cs = small_u_coefficients(spec, n + 8).coefficients
    u = 1e-5
    got = psi_hat_tail(spec, n, np.array([u]))[0]
    want = sum(cs[s] * u ** s for s in range(n, n + 8))
    assert abs(got - want) < 1e-12 * max(abs(want), 1e-30)


def test_tail_branch_values_at_switch():
    """Series and direct-subtraction branches both match high precision."""
    spec = make_wavelet(WaveletKind.MexicanHat)
    with mp.workdps(40):
        for u in (0.2499, 0.2501):
            um = mp.mpf(u)
            full = mp.sqrt(2 * mp.pi) * um ** 2 * mp.exp(-um ** 2 / 2)
            ref = full - mp.sqrt(2 * mp.pi) * um ** 2  # n = 3 removes only c_2
            got = psi_hat_tail(spec, 3, np.array([u]))[0]
            assert abs(got - complex(ref)) < 1e-10 * abs(complex(ref))


def test_make_wavelet_validation():
    with pytest.raises(ValueError):
        make_wavelet(WaveletKind.Morlet, u0=0.0)
    with pytest.raises(ValueError):
        make_wavelet(WaveletKind.Morlet, u0=-2.0)
    with pytest.raises(ValueError):
        make_wavelet("spline")


@pytest.mark.parametrize("u0", [math.inf, -math.inf, math.nan])
def test_make_wavelet_rejects_a_non_finite_u0(u0):
    """A modulated Gaussian at infinite u0 has no finite transform: it is
    refused, not carried to a NaN quadrature or an all-zero expansion."""
    with pytest.raises(ValueError, match="u0"):
        make_wavelet(WaveletKind.Morlet, u0=u0)


def _line_integral(spec, sign, a, y):
    """int_0^inf |conj(psi_hat)(sign*a*(x + i*y))| dx, to 20 digits."""
    def f(x):
        v = sign * a * mp.mpc(x, y) - spec.u0
        return abs(mp.sqrt(2 * mp.pi) * v ** int(spec.gauss_power) * mp.exp(-v * v / 2))

    with mp.workdps(20):
        return float(mp.quad(f, [0, spec.u0 / a, mp.inf]))


@pytest.mark.parametrize("kind", list(WaveletKind))
def test_spec_fields_follow_the_transform(kind):
    """Each fact a WaveletSpec carries agrees with the wavelet's one
    transform formula, on seeded arguments: ``real`` is conjugate symmetry
    on the real line; a Gaussian power k gives sqrt(2 pi) v^k e^{-v^2/2},
    v = u - u0, and its ``ray_log_line`` bounds the transform's integral
    along lines Im w = y up to |rate|/a^2; pure phases give
    (i/u) sum amp e^{i mu u}; and each side's largest |psi_hat| on
    (0.01, 20] lies within 0.01 of one of that side's features (given to
    two decimals), or at the least |u| where it lists none."""
    spec = make_wavelet(kind)
    rng = np.random.default_rng(32)
    u = np.concatenate([rng.uniform(-20.0, 20.0, 400),
                        rng.uniform(-2e-3, 2e-3, 50)])
    got = psi_hat_conj(spec, u)
    mirror_is_conj = np.array_equal(psi_hat_conj(spec, -u), np.conj(got))
    assert spec.real == mirror_is_conj
    assert spec.real == (kind != WaveletKind.Morlet)

    if spec.gauss_power is None:
        assert spec.ray_log_line is None
    else:
        v = u - spec.u0
        want = _SQRT_2PI * v ** spec.gauss_power * np.exp(-0.5 * v * v)
        assert_allclose(got, want, rtol=4e-16, atol=0.0)
        for a, rate in ((0.05, 0.3), (0.5, 2.0)):
            log_c = spec.ray_log_line(a, rate)
            for sign in (1, -1):
                for y in (0.0, 0.5 * rate / a ** 2, rate / a ** 2):
                    bound = math.exp(log_c + 0.5 * a * a * y * y)
                    assert _line_integral(spec, sign, a, y) <= bound * (1 + 1e-12)

    big = u[np.abs(u) >= 1e-3]
    phases = sum(amp * np.exp(1j * mu * big) for amp, mu in spec.phases)
    if spec.phases:
        size = sum(abs(amp) for amp, _ in spec.phases) / np.abs(big)
        gap = np.abs(1j / big * phases - psi_hat_conj(spec, big))
        assert np.all(gap <= 4.0 * np.finfo(float).eps * size)
    else:
        assert kind != WaveletKind.Haar

    grid = np.linspace(0.01, 20.0, 20_000)
    for sign, features in zip((1, -1), spec.side_features):
        peak = grid[np.argmax(np.abs(psi_hat_conj(spec, sign * grid)))]
        assert min((abs(peak - f) for f in features), default=peak - grid[0]) <= 0.01


@pytest.mark.parametrize("kind", list(WaveletKind))
def test_l1_norm_is_the_integral_of_abs_psi(kind):
    """``l1_norm``, which weighs the time remainder's series error, is the
    exact integral of |psi|, against a 30-digit quadrature."""
    spec = make_wavelet(kind)
    with mp.workdps(30):
        if kind == WaveletKind.Haar:
            want = 1.0
        elif kind == WaveletKind.MexicanHat:
            want = float(mp.quad(lambda t: abs(1 - t * t) * mp.exp(-t * t / 2),
                                 [-mp.inf, -1, 1, mp.inf]))
        else:
            want = float(mp.quad(lambda t: mp.exp(-t * t / 2), [-mp.inf, mp.inf]))
    assert spec.l1_norm == pytest.approx(want, rel=1e-15)


def test_contour_extraction_validation():
    spec = make_wavelet(WaveletKind.Morlet, u0=2.0)
    with pytest.raises(ValueError):
        small_u_coefficients_numeric(spec, 0)
    with pytest.raises(ValueError):
        small_u_coefficients_numeric(spec, 8, points=8)
