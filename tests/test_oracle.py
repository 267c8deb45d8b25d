"""Reference transform values: the two quadrature routes and closed forms."""

import dataclasses
import json
import math
import random
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import cwtasym.oracle as oracle
import cwtasym.quadrature as quadrature
import cwtasym.specfun as specfun
from cwtasym.oracle import _phase_alg_tail, cwt_fourier, cwt_time
from cwtasym.quadrature import QuadratureConfig, _cut_radius
from cwtasym.signals import SignalKind, make_signal
from cwtasym.wavelets import WaveletKind, make_wavelet, psi_hat_conj
from mp_reference import MP_SIGNALS, mp_wavelet


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
    """The oracle promises its estimate, not more: at abs_tol 1e-14 its
    roundoff floor is about 1e-14 on a value of 2.5e-5 (the seeded audit
    below checks the estimate across signals and dilations)."""
    sig = make_signal(SignalKind.Gaussian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    a, b = 0.4, 0.7
    with mp.workdps(25):
        ref = mp.sqrt(a) * mp.quad(
            lambda s: mp.exp(-(b + a * s) ** 2 / 2)
            * mp.exp(-1j * 5.0 * s - s ** 2 / 2),
            [-mp.inf, mp.inf],
        )
    got = cwt_time(sig, wav, a, b)
    assert got.converged
    assert abs(got.value - complex(ref)) <= got.abs_error_estimate


@pytest.mark.parametrize("kind,u0", [(WaveletKind.Morlet, 2.0),
                                     (WaveletKind.Morlet, 5.0),
                                     (WaveletKind.MexicanHat, 0.0)])
def test_time_route_estimate_covers_its_error(kind, u0):
    """Seeded audit of ``cwt_time``: for each signal at 8 points, a
    log-uniform on [1e-3, 1] and b uniform on [-2, 2], the error against a
    30-digit Gauss-Legendre reference is at most the returned estimate.
    The reference covers |s| <= 10, whose tails are below 1e-21, with a
    breakpoint at the two-sided exponential's kink -b/a; its own error
    estimate is checked too."""
    wav = make_wavelet(kind, u0) if u0 else make_wavelet(kind)
    rng = random.Random(f"cwt_time audit {kind.value} {u0}")
    psi_at = mp_wavelet(kind, u0)
    for sig_kind, f in MP_SIGNALS.items():
        for _ in range(8):
            a, b = 10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(-2.0, 2.0)
            got = cwt_time(make_signal(sig_kind), wav, a, b)
            with mp.workdps(30):
                points = [mp.mpf(k) for k in range(-10, 11, 2)]
                if sig_kind == SignalKind.TwoSidedExp and abs(b / a) < 10:
                    points = sorted(points + [-mp.mpf(b) / a])
                ref, ref_err = mp.quad(lambda s: f(b + a * s) * psi_at(s),
                                       points, method="gauss-legendre",
                                       error=True)
                ref, ref_err = mp.sqrt(a) * ref, mp.sqrt(a) * ref_err
            case = (sig_kind.value, a, b)
            assert got.converged, case
            assert float(ref_err) <= 1e-3 * got.abs_error_estimate, case
            assert abs(got.value - complex(ref)) <= got.abs_error_estimate, case


# The step wavelet's two pieces, +1 on [0, 1/2) and -1 on [1/2, 1).
_MP_HAAR_PIECES = (((0, mp.mpf(1) / 2), 1), ((mp.mpf(1) / 2, 1), -1))


@pytest.mark.parametrize("wavelet", ["morlet", "mexhat", "haar"])
def test_fourier_route_estimate_covers_its_error(wavelet):
    """Seeded audit of ``cwt_fourier``: for each built-in signal, and the
    two-sided exponential at time scales 0.2 and 5, at 3 points with a
    log-uniform on [1e-3, 1] and b uniform on [-2, 2], the error against
    the 30-digit time-domain reference of the time route's audit is at
    most the returned estimate.  The step wavelet's reference is its two
    pieces, each with the signal's kink -b/a as a breakpoint where it
    falls inside."""
    wav = _WAVELETS[wavelet]
    rng = random.Random(f"cwt_fourier audit {wavelet}")
    psi_at = mp_wavelet(wav.kind, wav.u0)
    cases = [(kind, 1.0) for kind in MP_SIGNALS]
    cases += [(SignalKind.TwoSidedExp, 0.2), (SignalKind.TwoSidedExp, 5.0)]
    for sig_kind, scale in cases:
        f = MP_SIGNALS[sig_kind]
        for _ in range(3):
            a, b = 10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(-2.0, 2.0)
            got = cwt_fourier(make_signal(sig_kind, time_scale=scale), wav, a, b)
            with mp.workdps(30):
                kink = -mp.mpf(b) / a

                def fa(s):
                    return f((b + a * s) / scale)

                if wav.kind == WaveletKind.Haar:
                    ref = ref_err = 0
                    for (lo, hi), sign in _MP_HAAR_PIECES:
                        points = sorted({lo, hi} | ({kink} if lo < kink < hi else set()))
                        v, e = mp.quad(fa, points, method="gauss-legendre", error=True)
                        ref, ref_err = ref + sign * v, ref_err + e
                else:
                    points = [mp.mpf(k) for k in range(-10, 11, 2)]
                    if sig_kind == SignalKind.TwoSidedExp and abs(kink) < 10:
                        points = sorted(points + [kink])
                    ref, ref_err = mp.quad(lambda s: fa(s) * psi_at(s), points,
                                           method="gauss-legendre", error=True)
                ref, ref_err = mp.sqrt(a) * ref, mp.sqrt(a) * ref_err
            case = (sig_kind.value, scale, a, b)
            assert got.converged, case
            assert float(ref_err) <= 1e-3 * got.abs_error_estimate, case
            assert abs(got.value - complex(ref)) <= got.abs_error_estimate, case


def test_fourier_route_is_judged_in_its_units():
    """The Fourier route's flag reads the estimate in the units returned,
    after the sqrt(a)/(2 pi) factor.  For the Lorentzian against the
    modulated Gaussian, W = pi/sqrt(a) up to terms of order a^-3/2 at huge
    a; at a = 1e20 the route returns 2.77e-10 with an estimate of 1.06e-10,
    which covers the error against pi*1e-10 but is far above the target
    max(abs_tol, rel_tol*|W|), so it is not converged."""
    sig = make_signal(SignalKind.Lorentzian)
    wav = _WAVELETS["morlet"]
    a = 1e20
    got = cwt_fourier(sig, wav, a, 0.3)
    assert abs(got.value - math.pi / math.sqrt(a)) <= got.abs_error_estimate
    assert got.abs_error_estimate > 10.0 * 1e-10 * abs(got.value)
    assert not got.converged


def _head_batches(monkeypatch, sig, wav, a, b):
    """GK15 batches of ``cwt_fourier``'s folded head, its last quadrature."""
    batches = []
    real_eval, real_integrate = quadrature._panel_eval, oracle.integrate

    def counted_eval(*args, **kwargs):
        batches[-1] += 1
        return real_eval(*args, **kwargs)

    def counted_integrate(*args, **kwargs):
        batches.append(0)
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_panel_eval", counted_eval)
    monkeypatch.setattr(oracle, "integrate", counted_integrate)
    res = cwt_fourier(sig, wav, a, b)
    monkeypatch.undo()
    assert res.converged
    return batches[-1]


# Points of the test below whose head still takes a second pass, as
# (wavelet, time scale, index of the point): none is the pole's.
_HEAD_STILL_BISECTS = {
    # a = 0.56, b = 1.07: the panel [2.53, 5] from the hat's peak to the pole
    # distance spans 2.6 radians of e^{ibw} on the hat's flank, and its
    # estimate is 2.1 times the target.
    ("mexhat", 0.2, 3),
    # a = 0.068, |I| below 1e-4: the estimate of 44 panels, each far below
    # abs_tol = 1e-14, adds up to 1.7 times it.
    ("mexhat", 0.2, 6),
    # a = 1.7e-3, |I| below 1e-4: the first panel [0, q/2] = [0, 2.5] alone
    # is at 1.17 times abs_tol.
    ("haar", 0.2, 1),
}


@pytest.mark.parametrize("scale", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("wavelet", ["morlet", "mexhat", "haar"])
def test_two_sided_exp_fourier_head_is_one_pass(monkeypatch, wavelet, scale):
    """The two-sided exponential's transform 2s/(1 + s^2 w^2) has poles at
    +-i/s.  The head's first mesh has an edge at each octave from 1/(2s)
    (``_octaves``), so no panel is wider than its distance from the pole,
    and one GK15 pass meets the target at 12 seeded points, a log-uniform
    on [1e-3, 1] and b uniform on [-2, 2]; the parent's panels of width 2
    to 5 from 0 bisected at 82 of these 108 points."""
    sig = make_signal(SignalKind.TwoSidedExp, time_scale=scale)
    wav = _WAVELETS[wavelet]
    rng = random.Random(f"two-sided head {wavelet} {scale}")
    for k in range(12):
        a, b = 10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(-2.0, 2.0)
        want = 2 if (wavelet, scale, k) in _HEAD_STILL_BISECTS else 1
        assert _head_batches(monkeypatch, sig, wav, a, b) == want, (k, a, b)


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
    scaled = make_signal(SignalKind.Lorentzian, amplitude=A, time_scale=s)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    a, b = 0.2, 0.6
    want = A * math.sqrt(s) * cwt_time(base, wav, a / s, b / s).value
    assert_allclose(cwt_time(scaled, wav, a, b).value, want, rtol=1e-10)
    assert_allclose(cwt_fourier(scaled, wav, a, b).value, want, rtol=1e-9)


def test_error_estimates_and_counters():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    res = cwt_fourier(sig, wav, 0.25, 0.0)
    assert res.converged
    assert res.abs_error_estimate < 1e-8 * max(1.0, abs(res.value))
    assert res.n_panels >= 2
    assert res.n_evaluations >= 15 * res.n_panels


@pytest.mark.parametrize("kind,wavelet,a,b", [
    (SignalKind.Lorentzian, "morlet", 0.01, 0.0),
    (SignalKind.Gaussian, "morlet", 0.001, 0.37),
    (SignalKind.Gaussian, "mexhat", 0.001, 0.37),
])
def test_time_route_stops_at_the_roundoff_floor(kind, wavelet, a, b):
    # The summed roundoff floors (50 eps int|f| per panel) sit above the
    # 1e-14 target, so the route stops after one pass on the wavelet-scale
    # mesh; for the Lorentzian, bisecting to the budget's end would cost
    # 61,080 evaluations without lowering the estimate.  The Fourier route
    # converges and agrees within the summed estimates.
    sig = make_signal(kind)
    wav = _WAVELETS[wavelet]
    res = cwt_time(sig, wav, a, b)
    assert res.status == "roundoff" and res.converged
    assert res.n_evaluations <= 5000
    f, psi_at = MP_SIGNALS[kind], mp_wavelet(wav.kind, wav.u0)
    with mp.workdps(30):
        am, bm = mp.mpf(a), mp.mpf(b)
        ref = mp.sqrt(am) * mp.quad(lambda s: f(bm + am * s) * psi_at(s),
                                    mp.linspace(-14, 14, 29))
    assert abs(res.value - complex(ref)) <= res.abs_error_estimate
    fourier = cwt_fourier(sig, wav, a, b)
    assert fourier.converged
    gap = abs(res.value - fourier.value)
    assert gap <= res.abs_error_estimate + fourier.abs_error_estimate


# Both routes over every built-in signal x wavelet at three small dilations
# take 20,190 evaluations, 6,360 of them on the Fourier route.  A time route
# from half-period panels that bisected until every panel sat at its
# roundoff floor took 31,620; one quadrature per half-line took 36,165 and
# 10,905, filling the two-sided exponential's algebraic tail with
# half-period panels 146,550, and refining panels already at their roundoff
# floor 1,089,060.
_EVALUATION_CEILING = 24_000
_FOURIER_EVALUATION_CEILING = 8_000


def test_oracle_evaluation_count_ceiling():
    wavelets = (make_wavelet(WaveletKind.Morlet, u0=5.0),
                make_wavelet(WaveletKind.MexicanHat),
                make_wavelet(WaveletKind.Haar))
    total = fourier = 0
    for kind in (SignalKind.Lorentzian, SignalKind.TwoSidedExp,
                 SignalKind.Gaussian):
        sig = make_signal(kind)
        for wav in wavelets:
            for a in (1e-3, 1e-2, 0.1):
                total += cwt_time(sig, wav, a, 0.5).n_evaluations
                fourier += cwt_fourier(sig, wav, a, 0.5).n_evaluations
    assert total + fourier <= _EVALUATION_CEILING
    assert fourier <= _FOURIER_EVALUATION_CEILING


_WAVELETS = {
    "morlet": make_wavelet(WaveletKind.Morlet, u0=5.0),
    "mexhat": make_wavelet(WaveletKind.MexicanHat),
    "haar": make_wavelet(WaveletKind.Haar),
}


@pytest.mark.parametrize("time_scale", [0.2, 0.05])
@pytest.mark.parametrize("wavelet", sorted(_WAVELETS))
@pytest.mark.parametrize("a,b", [(0.05, 0.6), (0.3, -1.1)])
def test_scaled_two_sided_exp_routes_agree(wavelet, a, b, time_scale):
    """The tail series of A f(t/s) converges only past |w| = 1/s, so a
    split radius that ignores that (a fixed 25 against the step wavelet)
    misses the time route by ~1e-10 (s = 0.2) or ~1e-4 (s = 0.05) while
    claiming ~1e-15."""
    sig = make_signal(SignalKind.TwoSidedExp, amplitude=-2.0,
                      time_scale=time_scale)
    wav = _WAVELETS[wavelet]
    rt = cwt_time(sig, wav, a, b)
    rf = cwt_fourier(sig, wav, a, b)
    assert rt.converged and rf.converged
    assert abs(rt.value - rf.value) <= rt.abs_error_estimate + rf.abs_error_estimate


@pytest.mark.parametrize("a", [1e-20, 1e-15])
@pytest.mark.parametrize("wavelet", ["morlet", "mexhat"])
def test_real_axis_tail_holds_at_tiny_dilations(wavelet, a):
    """At b = 0 the analytic tail has no ray and integrates the series on
    the real axis from R = 16 to the wavelet's cut, 11/a to 17/a.  On
    panels of one octave each the Fourier route agrees with the time route
    within their summed estimates; the wavelet's breakpoints alone left
    first panels that missed the series' bulk near R, and the routes were
    7e6 times their estimates apart."""
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = _WAVELETS[wavelet]
    rt = cwt_time(sig, wav, a, 0.0)
    rf = cwt_fourier(sig, wav, a, 0.0)
    assert rt.converged and rf.converged
    gap = abs(rt.value - rf.value)
    assert gap <= rt.abs_error_estimate + rf.abs_error_estimate


@pytest.mark.parametrize("wavelet", ["morlet", "mexhat"])
def test_gaussian_cut_below_split_radius(wavelet):
    # With s = 0.02 the split radius is at least 2/s = 100, far past the
    # Gaussian cut ~13/a at a = 4: the side stays one quadrature up to the
    # cut, whose panels resolve the wavelet; splitting at R would stretch
    # the last panel over [3.5/a, R] and miss it by ~1e-4.
    sig = make_signal(SignalKind.TwoSidedExp, amplitude=-2.0, time_scale=0.02)
    wav = _WAVELETS[wavelet]
    rt = cwt_time(sig, wav, 4.0, 0.0)
    rf = cwt_fourier(sig, wav, 4.0, 0.0)
    assert rt.converged and rf.converged
    assert abs(rt.value - rf.value) <= rt.abs_error_estimate + rf.abs_error_estimate


@pytest.mark.parametrize("wavelet", ["morlet", "mexhat"])
def test_algebraic_tail_gaussian_wavelet_evaluation_ceiling(wavelet):
    # The tail above the split radius runs along a steepest-descent ray
    # (630 evaluations for either wavelet); half-period panels up to the
    # Gaussian cut took 42,705 (Morlet) and 52,260 (Mexican hat).
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = _WAVELETS[wavelet]
    rf = cwt_fourier(sig, wav, 1e-3, 0.5)
    rt = cwt_time(sig, wav, 1e-3, 0.5)
    assert rf.converged and rf.n_evaluations <= 3_000
    assert abs(rt.value - rf.value) <= rt.abs_error_estimate + rf.abs_error_estimate


@pytest.mark.parametrize(
    "wavelet,a,split_sides",
    [("haar", 0.05, 2), ("morlet", 0.7, 1), ("mexhat", 0.7, 0)],
)
def test_each_split_side_adds_the_truncation_bound(
        monkeypatch, wavelet, a, split_sides):
    """Each side split at R adds the series' truncation bound at R, times
    sqrt(a)/(2 pi), to the estimate; a side cut below R adds none."""
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = _WAVELETS[wavelet]
    base = cwt_fourier(sig, wav, a, 0.5)
    extra = 1e-9
    real = oracle._split_radius

    def padded(*args, **kwargs):
        radius, bound, q = real(*args, **kwargs)
        return radius, bound + extra, q

    monkeypatch.setattr(oracle, "_split_radius", padded)
    got = cwt_fourier(sig, wav, a, 0.5)
    assert got.value == base.value
    rise = got.abs_error_estimate - base.abs_error_estimate
    want = split_sides * extra * math.sqrt(a) / (2.0 * math.pi)
    assert_allclose(rise, want, rtol=1e-12, atol=0.0)


def test_fast_decay_signals_unchanged():
    """Signals with faster-than-algebraic transforms take one folded
    quadrature up to the larger Gaussian cut; every field of the result is
    pinned (recorded from the fold with numpy on x86-64), so any change
    that moves one shows here."""
    path = Path(__file__).parent / "data" / "cwt_fourier_fast_decay.json"
    want = json.loads(path.read_text())
    got = {}
    for kind in (SignalKind.Lorentzian, SignalKind.Gaussian):
        for wav in _WAVELETS.values():
            for a in (1e-3, 1e-2, 0.1):
                for b in (0.0, 0.5, -1.3):
                    r = cwt_fourier(make_signal(kind), wav, a, b)
                    got[f"{kind.value} {wav.kind.value} {a!r} {b!r}"] = [
                        repr(r.value), repr(r.abs_error_estimate),
                        repr(r.n_evaluations), repr(r.n_panels),
                        repr(r.converged), repr(r.status),
                    ]
    assert got == want


def test_haar_tail_takes_one_incomplete_gamma_per_phase(monkeypatch):
    calls = []
    original = specfun.upper_incomplete_gamma

    def counting(s, x):
        calls.append(s)
        return original(s, x)

    monkeypatch.setattr(specfun, "upper_incomplete_gamma", counting)
    sig = make_signal(SignalKind.TwoSidedExp)
    _phase_alg_tail(sig, make_wavelet(WaveletKind.Haar), 1, 0.05, 0.6, 16.0)
    assert len(calls) == 3


def test_scale_must_be_positive():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    with pytest.raises(ValueError):
        cwt_time(sig, wav, 0.0, 0.0)
    with pytest.raises(ValueError):
        cwt_fourier(sig, wav, -0.5, 0.0)


# The benchmark's sweep grid.
_SWEEP_GRID = np.geomspace(1e-3, 0.3, 16)


@pytest.mark.parametrize("scale", [(1.0, 1.0), (-2.0, 0.2)])
@pytest.mark.parametrize("b", [0.0, 0.37, -1.3])
@pytest.mark.parametrize("wavelet", sorted(_WAVELETS))
@pytest.mark.parametrize("kind", list(SignalKind))
def test_grid_matches_one_dilation_calls(kind, wavelet, b, scale):
    """One shared mesh over the whole grid gives each dilation's value
    within the summed estimates of its own one-dilation call, with the same
    convergence flag and stop reason."""
    sig = make_signal(kind, amplitude=scale[0], time_scale=scale[1])
    wav = _WAVELETS[wavelet]
    grid = cwt_time(sig, wav, _SWEEP_GRID, b)
    assert len(grid) == _SWEEP_GRID.size
    for a, g in zip(_SWEEP_GRID, grid):
        one = cwt_time(sig, wav, float(a), b)
        assert abs(g.value - one.value) <= g.abs_error_estimate + one.abs_error_estimate
        assert (g.converged, g.status) == (one.converged, one.status)


def test_one_dilation_reproduces_the_scalar_results():
    """A float dilation is the one-element grid; it reproduces every field
    the scalar quadrature gave (recorded with numpy on x86-64) bit for bit."""
    path = Path(__file__).parent / "data" / "cwt_time_scalar.json"
    want = json.loads(path.read_text())
    got = {}
    for kind in (SignalKind.Lorentzian, SignalKind.TwoSidedExp,
                 SignalKind.Gaussian):
        for wav in _WAVELETS.values():
            for a in (1e-3, 0.05, 1.0):
                r = cwt_time(make_signal(kind), wav, a, 0.37)
                got[f"{kind.value} {wav.kind.value} {a!r}"] = {
                    "value": [r.value.real.hex(), r.value.imag.hex()],
                    "abs_error_estimate": r.abs_error_estimate.hex(),
                    "n_evaluations": r.n_evaluations,
                    "n_panels": r.n_panels,
                    "status": r.status,
                    "converged": r.converged,
                }
    assert got == want


# A grid call evaluates the signal once per batch of panels, for every
# dilation at once.  On a first mesh at the wavelet's own scale that is one
# batch for every case below (half-period panels took up to 6); one call
# per dilation takes at least one batch each.
@pytest.mark.parametrize("b", [-1.3, -0.383, 0.0, 0.37])
@pytest.mark.parametrize("wavelet", sorted(_WAVELETS))
@pytest.mark.parametrize("kind", list(SignalKind))
def test_grid_evaluates_the_signal_in_one_batch(kind, wavelet, b):
    batches = []
    base = make_signal(kind)

    def counted(t):
        batches.append(1)
        return base.f_time(t)

    sig = dataclasses.replace(base, f_time=counted)
    wav = _WAVELETS[wavelet]
    grid = cwt_time(sig, wav, _SWEEP_GRID, b)
    assert all(r.converged for r in grid)
    assert len(batches) == 1
    batches.clear()
    for a in _SWEEP_GRID:
        cwt_time(sig, wav, float(a), b)
    assert len(batches) >= _SWEEP_GRID.size


def test_grid_keeps_the_dilations_order_and_rejects_nonpositive():
    sig = make_signal(SignalKind.Lorentzian)
    wav = _WAVELETS["morlet"]
    # unsorted, and longer than one mesh holds
    grid = np.concatenate([[0.3, 0.01, 0.1], np.geomspace(1e-3, 1.0, 37)])
    results = cwt_time(sig, wav, grid, 0.2)
    assert len(results) == grid.size
    for i in (0, 1, 2, 31, 32, 39):
        one = cwt_time(sig, wav, float(grid[i]), 0.2)
        r = results[i]
        assert abs(r.value - one.value) <= r.abs_error_estimate + one.abs_error_estimate
    assert cwt_time(sig, wav, [], 0.2) == []
    for bad in ([0.1, 0.0], [0.1, math.nan], -1.0):
        with pytest.raises(ValueError):
            cwt_time(sig, wav, bad, 0.2)


@pytest.mark.parametrize("grid", [1e-3, _SWEEP_GRID], ids=["one", "grid"])
@pytest.mark.parametrize("wavelet", ["morlet", "mexhat"])
def test_gaussian_wavelet_line_is_cut_once(wavelet, grid):
    """The Gaussian wavelets' line is cut once, at the radius where the
    bound sup|f| |psi| on each side's tail meets abs_tol: no node lies past
    it (doubling that radius until the tail met half the smallest target
    reached twice as far)."""
    base = make_signal(SignalKind.Gaussian)
    wav = _WAVELETS[wavelet]
    b = 0.37
    times = []

    def recorded(t):
        times.append(np.array(t))
        return base.f_time(t)

    sig = dataclasses.replace(base, f_time=recorded)
    kind, c_w, rate = wav.time_envelope
    radius = _cut_radius((kind, c_w * base.sup_time, rate),
                         QuadratureConfig().abs_tol)
    results = cwt_time(sig, wav, grid, b)
    assert all(r.converged for r in np.atleast_1d(results))
    scales = np.atleast_1d(grid)[:, None]
    reach = max(np.abs((t - b) / scales).max() for t in times)
    assert reach <= radius


def _gauss_wavelet_tail(wavelet, sign, a, radius):
    """int_R^inf |psi_hat(sign*a*w)| dw exactly (mpmath), R = radius."""
    with mp.workdps(30):
        v = mp.mpf(a) * radius - sign * wavelet.u0
        gauss = mp.sqrt(mp.pi / 2) * mp.erfc(v / mp.sqrt(2))
        if wavelet.kind == WaveletKind.MexicanHat:
            gauss += v * mp.exp(-v * v / 2)
        return float(mp.sqrt(2 * mp.pi) / a * gauss)


@pytest.mark.parametrize("a", [1e-3, 0.05, 1.0])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("wavelet", ["morlet", "mexhat"])
def test_gaussian_wavelet_cut_bounds_its_tail(wavelet, sign, a):
    """The Fourier route's wavelet cut is the cut rule in v = a*w - sign*u0
    (power 0 for the modulated Gaussian, 2 for the Mexican hat): at the cut
    its bound is about delta and at any radius at least the exact tail of
    |psi_hat|; where the rule's bound does not hold it is infinite."""
    wav = _WAVELETS[wavelet]
    delta = 5e-15
    cut, t_w = oracle._gauss_wavelet_cut(wav, sign, a, 1.0, delta)
    assert t_w(cut) <= 1.05 * delta
    for radius in (cut, 0.5 * cut, (sign * wav.u0 + 1.5) / a):
        if radius > 0.0:
            exact = _gauss_wavelet_tail(wav, sign, a, radius)
            assert exact <= t_w(radius) * (1.0 + 1e-12)
    # v = 0 for the modulated Gaussian, v = 1 for the Mexican hat
    edge = sign * wav.u0 + (1.0 if wavelet == "mexhat" else 0.0)
    assert t_w(edge / a) == math.inf


def _integrate_calls(monkeypatch, signal, wavelet, a, b):
    """How many quadratures ``cwt_fourier`` runs for one value."""
    calls = []
    real = oracle.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "integrate", counting)
    cwt_fourier(signal, wavelet, a, b)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("a,b", [(1e-3, 0.5), (0.05, -1.3), (0.7, 0.0)])
def test_fourier_route_is_one_folded_quadrature(monkeypatch, a, b):
    """Both half-lines fold onto one quadrature; only a ray or real-axis
    tail above the split radius adds one per side."""
    for kind in (SignalKind.Lorentzian, SignalKind.Gaussian):
        for wav in _WAVELETS.values():
            sig = make_signal(kind)
            assert _integrate_calls(monkeypatch, sig, wav, a, b) == 1
    sig = make_signal(SignalKind.TwoSidedExp)
    assert _integrate_calls(monkeypatch, sig, _WAVELETS["haar"], a, b) == 1
    for name in ("morlet", "mexhat"):
        assert _integrate_calls(monkeypatch, sig, _WAVELETS[name], a, b) <= 3


@pytest.mark.parametrize("amplitude,time_scale", [(1.0, 1.0), (-2.0, 0.2), (0.5, 3.0)])
@pytest.mark.parametrize("kind", list(SignalKind))
def test_real_transforms_stay_exactly_real(monkeypatch, kind, amplitude, time_scale):
    """A real signal against a real wavelet has a real transform: g(-x) is
    conj(g(x)) node by node, so the fold integrates 2 Re g(x), the same
    bits as g(x) + g(-x) at every node, and no imaginary rounding is left."""
    sig = make_signal(kind, amplitude=amplitude, time_scale=time_scale)
    calls = []
    real = oracle.integrate

    def spy(integrand, *args, **kwargs):
        nodes = []

        def recorded(x):
            nodes.append(np.array(x))
            return integrand(x)

        calls.append((integrand, nodes))
        return real(recorded, *args, **kwargs)

    monkeypatch.setattr(oracle, "integrate", spy)
    for name in ("mexhat", "haar"):
        wav = _WAVELETS[name]
        for a in (1e-3, 0.05, 0.7):
            for b in (0.0, 0.37, -1.3):

                def g(w):
                    return (np.exp(1j * b * w) * sig.f_freq(w)
                            * psi_hat_conj(wav, a * w))

                calls.clear()
                assert cwt_fourier(sig, wav, a, b).value.imag == 0.0
                # the folded quadrature runs after any tail's
                integrand, nodes = calls[-1]
                x = np.concatenate(nodes)
                got = np.asarray(integrand(x), dtype=complex)
                assert got.tobytes() == (g(x) + g(-x)).tobytes()


@pytest.mark.parametrize("kind", list(SignalKind))
def test_folded_morlet_integrand_is_the_pair_bit_for_bit(monkeypatch, kind):
    """The modulated Gaussian's fold evaluates g once on the nodes and their
    mirrors; node by node its sum is g(x) + g(-x) from two separate calls."""
    sig, wav = make_signal(kind), _WAVELETS["morlet"]
    calls = []
    real = oracle.integrate

    def spy(integrand, *args, **kwargs):
        calls.append(integrand)
        return real(integrand, *args, **kwargs)

    monkeypatch.setattr(oracle, "integrate", spy)
    for a, b in ((0.01, 0.37), (0.2, -1.3), (0.05, 0.002)):

        def g(w):
            return (np.exp(1j * b * w) * sig.f_freq(w)
                    * psi_hat_conj(wav, a * w))

        calls.clear()
        cwt_fourier(sig, wav, a, b)
        x = np.linspace(0.0, 40.0, 301)
        # the folded quadrature runs after any tail's
        got = np.asarray(calls[-1](x), dtype=complex)
        assert got.tobytes() == (g(x) + g(-x)).tobytes()


@pytest.mark.parametrize("a,b", [(0.05, 0.6), (0.01, -1.3), (0.02, 1.95)])
def test_real_wavelet_split_takes_one_tail(monkeypatch, a, b):
    """A real wavelet's - side tail past the split radius is the conjugate
    of its + side's: the Mexican hat runs one ray quadrature, not two, and
    the step wavelet takes one incomplete Gamma per phase, three, not six.
    The result counts only the evaluations made, and each value stays
    within the summed estimates of the time route."""
    sig = make_signal(SignalKind.TwoSidedExp)
    runs, gammas = [], []
    real_integrate, real_gamma = oracle.integrate, specfun.upper_incomplete_gamma

    def counting(*args, **kwargs):
        res = real_integrate(*args, **kwargs)
        runs.append(res)
        return res

    def counting_gamma(s, x):
        gammas.append(s)
        return real_gamma(s, x)

    monkeypatch.setattr(oracle, "integrate", counting)
    monkeypatch.setattr(specfun, "upper_incomplete_gamma", counting_gamma)
    for name, quadratures, incomplete in (("mexhat", 2, 0), ("haar", 1, 3)):
        runs.clear()
        gammas.clear()
        wav = _WAVELETS[name]
        res = cwt_fourier(sig, wav, a, b)
        assert (len(runs), len(gammas)) == (quadratures, incomplete), name
        assert res.n_evaluations == sum(r.n_evaluations for r in runs)
        ref = cwt_time(sig, wav, a, b)
        budget = res.abs_error_estimate + ref.abs_error_estimate
        assert abs(res.value - ref.value) <= budget, name
