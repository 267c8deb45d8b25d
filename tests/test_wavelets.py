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
    assert table.n == numeric.n == n
    assert table.lam == spec.lam == 1
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


def test_contour_extraction_validation():
    spec = make_wavelet(WaveletKind.Morlet, u0=2.0)
    with pytest.raises(ValueError):
        small_u_coefficients_numeric(spec, 0)
    with pytest.raises(ValueError):
        small_u_coefficients_numeric(spec, 8, points=8)
