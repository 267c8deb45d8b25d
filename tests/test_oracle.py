"""Reference transform values: the two quadrature routes and closed forms."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cwtasym.oracle import cwt_fourier, cwt_time
from cwtasym.signals import SignalKind, custom_signal, make_signal
from cwtasym.wavelets import WaveletKind, make_wavelet


def test_gaussian_morlet_closed_form():
    """Gaussian signal, modulated-Gaussian wavelet, b = 0: fully explicit."""
    sig = make_signal(SignalKind.Gaussian)
    for u0 in (2.0, 5.0):
        wav = make_wavelet(WaveletKind.Morlet, u0=u0)
        for a in (0.3, 1.0):
            want = (
                math.sqrt(a)
                * math.sqrt(2.0 * math.pi / (1.0 + a * a))
                * math.exp(-u0 * u0 / (2.0 * (1.0 + a * a)))
            )
            for res in (cwt_time(sig, wav, a, 0.0), cwt_fourier(sig, wav, a, 0.0)):
                assert res.converged
                assert_allclose(res.value, want, rtol=1e-10)


def test_lorentzian_haar_exact_value():
    # a = 1, b = 0: the two-step wavelet integrates the signal directly
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Haar)
    want = 2.0 * math.atan(0.5) - math.pi / 4.0
    assert_allclose(cwt_time(sig, wav, 1.0, 0.0).value, want, rtol=1e-13)
    assert_allclose(cwt_fourier(sig, wav, 1.0, 0.0).value, want, rtol=1e-9)


def test_morlet_gaussian_offset_vs_highprec():
    sig = make_signal(SignalKind.Gaussian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    a, b = 0.4, 0.7
    with mp.workdps(25):
        ref = mp.sqrt(a) * mp.quad(
            lambda s: mp.exp(-(b + a * s) ** 2 / 2)
            * mp.exp(-1j * 5.0 * s - s ** 2 / 2),
            [-mp.inf, mp.inf],
        )
    got = cwt_time(sig, wav, a, b).value
    assert abs(got - complex(ref)) < 1e-12 * abs(complex(ref))


@pytest.mark.parametrize(
    "kind,wav_kind,u0",
    [
        (SignalKind.Lorentzian, WaveletKind.Morlet, 5.0),
        (SignalKind.TwoSidedExp, WaveletKind.Haar, 0.0),
        (SignalKind.Gaussian, WaveletKind.MexicanHat, 0.0),
    ],
)
@pytest.mark.parametrize("b", [0.0, 1.0])
def test_routes_agree(kind, wav_kind, u0, b):
    sig = make_signal(kind)
    wav = make_wavelet(wav_kind, u0=u0) if u0 else make_wavelet(wav_kind)
    rt = cwt_time(sig, wav, 0.3, b)
    rf = cwt_fourier(sig, wav, 0.3, b)
    assert rt.converged and rf.converged
    scale = max(abs(rt.value), 1e-10)
    assert abs(rt.value - rf.value) / scale < 1e-9


def test_slow_decay_pair_uses_series_tail():
    """Both transforms algebraic: the half-line integrals need the
    oscillatory series tail, and still match the time route."""
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = make_wavelet(WaveletKind.Haar)
    rt = cwt_time(sig, wav, 0.7, 0.4)
    rf = cwt_fourier(sig, wav, 0.7, 0.4)
    assert rf.converged
    assert abs(rt.value - rf.value) < 1e-9 * abs(rt.value)


def test_scaled_copy_identity():
    # W for A*f(t/s) equals A*sqrt(s) times W of f at (b/s, a/s)
    A, s = 2.0, 0.5
    base = make_signal(SignalKind.Lorentzian)
    cus = custom_signal(SignalKind.Lorentzian, amplitude=A, time_scale=s)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    a, b = 0.2, 0.6
    want = A * math.sqrt(s) * cwt_time(base, wav, a / s, b / s).value
    assert_allclose(cwt_time(cus, wav, a, b).value, want, rtol=1e-10)
    assert_allclose(cwt_fourier(cus, wav, a, b).value, want, rtol=1e-9)


def test_error_estimates_and_counters():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    res = cwt_fourier(sig, wav, 0.25, 0.0)
    assert res.converged
    assert res.abs_error_estimate < 1e-8 * max(1.0, abs(res.value))
    assert res.n_panels >= 2
    assert res.n_evaluations >= 15 * res.n_panels


def test_time_route_stops_at_the_roundoff_floor():
    # The error estimate reaches the panels' roundoff floor (50 eps int|f|)
    # above the 1e-14 target; bisecting to the budget's end would cost
    # 61,080 evaluations without lowering it.
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    a = 0.01
    res = cwt_time(sig, wav, a, 0.0)
    assert res.status == "roundoff" and res.converged
    assert res.n_evaluations <= 5000
    with mp.workdps(30):
        am = mp.mpf(a)
        ref = mp.sqrt(am) * mp.quad(
            lambda s: mp.exp(-5j * s - s * s / 2) / (1 + (am * s) ** 2),
            mp.linspace(-14, 14, 29),
        )
    assert abs(res.value - complex(ref)) <= res.abs_error_estimate


# Both routes over every built-in signal x wavelet at three small dilations
# take 146,550 evaluations; refining panels already at their roundoff floor
# took 1,089,060.  The ceiling leaves about 20% of headroom.
_EVALUATION_CEILING = 176_000


def test_oracle_evaluation_count_ceiling():
    wavelets = (make_wavelet(WaveletKind.Morlet, u0=5.0),
                make_wavelet(WaveletKind.MexicanHat),
                make_wavelet(WaveletKind.Haar))
    total = 0
    for kind in (SignalKind.Lorentzian, SignalKind.TwoSidedExp,
                 SignalKind.Gaussian):
        sig = make_signal(kind)
        for wav in wavelets:
            for a in (1e-3, 1e-2, 0.1):
                total += cwt_time(sig, wav, a, 0.5).n_evaluations
                total += cwt_fourier(sig, wav, a, 0.5).n_evaluations
    assert total <= _EVALUATION_CEILING


def test_scale_must_be_positive():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    with pytest.raises(ValueError):
        cwt_time(sig, wav, 0.0, 0.0)
    with pytest.raises(ValueError):
        cwt_fourier(sig, wav, -0.5, 0.0)
