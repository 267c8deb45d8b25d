"""Integrand closures: each evaluates the one signal/wavelet formula it names."""

import numpy as np
from numpy.testing import assert_allclose

import cwtasym.expansion as expansion
import cwtasym.oracle as oracle
from cwtasym.checks import _time_moment_closed
from cwtasym.expansion import _time_moment_quadrature
from cwtasym.mellin import _integrand as mellin_integrand
from cwtasym.quadrature import QuadratureConfig
from cwtasym.signals import SignalKind, make_h, make_signal
from cwtasym.wavelets import WaveletKind, make_wavelet

_SQRT_2PI = np.sqrt(2.0 * np.pi)  # shared constant of every smooth transform

# strictly positive nodes (power-law integrands take logs), including a pair
# bracketing the small-argument series cutover of the discontinuous wavelet
_POS = np.concatenate([np.geomspace(1e-4, 30.0, 37), [3.3e-3, 0.5, 1.0]])
_SIGNED = np.concatenate([-_POS[::-1], [0.0], _POS])


def _integrands(monkeypatch, module, call):
    """The integrands ``call`` hands to ``module.integrate``, in call order."""
    seen = []
    real = module.integrate

    def spy(integrand, *args, **kwargs):
        seen.append(integrand)
        return real(integrand, *args, **kwargs)

    monkeypatch.setattr(module, "integrate", spy)
    call()
    return seen


def test_time_integrand_matches_formula(monkeypatch):
    # one row per dilation, the one-dilation call included
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, 5.0)
    for grid in ([0.25], [0.25, 0.7]):
        (integrand,) = _integrands(
            monkeypatch, oracle, lambda: oracle.cwt_time(sig, wav, grid, 0.8)
        )
        x = _SIGNED
        want = [
            (1.0 / (1.0 + (0.8 + a * x) ** 2)) * np.exp(-5j * x - 0.5 * x * x)
            for a in grid
        ]
        assert_allclose(integrand(x), want, rtol=1e-14)


def test_fourier_integrand_mirror_sign(monkeypatch):
    # one integrand on x > 0 carries g(x) + g(-x), the minus side mirrored;
    # it is integrated last, after the two sides' analytic tails
    a, b = 0.3, -1.2
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = make_wavelet(WaveletKind.MexicanHat)
    *_, integrand = _integrands(
        monkeypatch, oracle, lambda: oracle.cwt_fourier(sig, wav, a, b)
    )

    def g(w):
        return (
            np.exp(1j * b * w)
            * (2.0 / (1.0 + w * w))
            * (_SQRT_2PI * (a * w) ** 2 * np.exp(-0.5 * (a * w) ** 2))
        )

    x = _POS
    assert_allclose(integrand(x), g(x) + g(-x), rtol=1e-14)


def test_mellin_integrand_phase():
    z = 1.5 + 0.2j
    h = make_h(make_signal(SignalKind.Gaussian), 0.4)
    integrand = mellin_integrand(h, z, True)
    x = _POS
    want = (
        np.exp((z - 1.0) * np.log(x))
        * np.exp(-1j * 0.4 * x)
        * (_SQRT_2PI * np.exp(-0.5 * x * x))
    )
    assert_allclose(integrand(x), want, rtol=1e-14)


def test_haar_moment_integrand_piecewise_values(monkeypatch):
    # the two-step wavelet is +1 on [0, 1/2), -1 on [1/2, 1), 0 outside
    wav = make_wavelet(WaveletKind.Haar)
    (integrand,) = _integrands(
        monkeypatch,
        expansion,
        lambda: _time_moment_quadrature(wav, 1.5, False, QuadratureConfig()),
    )
    x = np.array([0.25, 0.5, 0.75, 1.0, 1.5])
    want = np.array([0.25 ** 0.5, -(0.5 ** 0.5), -(0.75 ** 0.5), 0.0, 0.0])
    assert_allclose(integrand(x), want, rtol=1e-15)


def test_moment_substitution_matches_closed_form():
    # nu < 1 puts an integrable singularity at t = 0, which quadrature
    # removes with the t = y^2 substitution
    cfg = QuadratureConfig()
    for kind in WaveletKind:
        wav = make_wavelet(kind)
        for nu in (0.3, 0.75):
            for mirror in (False, True):
                quad, quad_err = _time_moment_quadrature(wav, nu, mirror, cfg)
                closed, closed_err = _time_moment_closed(wav, nu, mirror)
                tol = quad_err + closed_err
                assert abs(quad - closed) <= tol, (kind, nu, mirror)
