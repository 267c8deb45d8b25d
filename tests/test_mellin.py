"""Regularized power moments of the boundary function, by both routes."""

import cmath
import math

import mpmath as mp
import pytest
from numpy.testing import assert_allclose

from cwtasym.mellin import (
    MellinError,
    MellinMethod,
    MellinValue,
    mellin_morlet_time,
    mellin_transform,
)
from cwtasym.signals import SignalKind, make_h, make_signal
from cwtasym.specfun import oscillatory_power_tails, upper_incomplete_gamma
from mellin_reference import two_sided_exp_moment as _two_sided_exp_moment


def _h(kind, b):
    return make_h(make_signal(kind), b)


@pytest.mark.parametrize("z", [1.0, 1.5, 2.0, 3.5])
def test_lorentzian_zero_offset(z):
    """M at b = 0 reduces to pi * Gamma(z) for the slowly-decaying signal."""
    got = mellin_transform(_h(SignalKind.Lorentzian, 0.0), z).value
    want = math.pi * float(mp.gamma(z))
    assert abs(got - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("z", [1.0, 2.0, 3.5, 1.5 + 0.5j])
def test_lorentzian_offset_one(z):
    got = mellin_transform(_h(SignalKind.Lorentzian, 1.0), z).value
    with mp.workdps(30):
        want = mp.pi * mp.gamma(z) * (1 - 1j) ** (-mp.mpc(z))
    assert abs(got - complex(want)) < 1e-9 * abs(complex(want))


def test_frozen_halfline_moment():
    # z = 2, b = 1: pi * Gamma(2) * (1-i)^-2 = pi * i / 2
    got = mellin_transform(_h(SignalKind.Lorentzian, 1.0), 2.0).value
    assert_allclose([got.real, got.imag], [0.0, math.pi / 2.0], atol=1e-12)


def test_mirror_flips_the_offset():
    h = _h(SignalKind.Lorentzian, 1.0)
    plain = mellin_transform(h, 2.5).value
    mirrored = mellin_transform(h, 2.5, mirror=True).value
    # h(-u) carries e^{-ibu}: same as the +b transform conjugated (real f_hat)
    assert abs(mirrored - plain.conjugate()) < 1e-10 * abs(plain)


def test_gaussian_closed_route():
    h = _h(SignalKind.Gaussian, 0.8)
    closed = mellin_transform(h, 1.75, MellinMethod.ClosedForm)
    quad = mellin_transform(h, 1.75)
    assert closed.method == MellinMethod.ClosedForm
    assert quad.method == MellinMethod.PureQuadrature
    assert abs(closed.value - quad.value) < 1e-10 * abs(closed.value)


def test_two_sided_exp_zero_offset_window():
    h = _h(SignalKind.TwoSidedExp, 0.0)
    got = mellin_transform(h, 1.5, MellinMethod.ClosedForm)
    want = math.pi / math.sin(0.75 * math.pi)
    assert_allclose(got.value, want, rtol=1e-13)
    # outside the convergence strip the undamped moment does not exist
    with pytest.raises(MellinError, match="converges"):
        mellin_transform(h, 2.5, MellinMethod.ClosedForm)


def test_auto_routing():
    fast = mellin_transform(_h(SignalKind.Gaussian, 0.0), 2.0)
    assert fast.method == MellinMethod.PureQuadrature
    slow = mellin_transform(_h(SignalKind.TwoSidedExp, 2.0), 2.0)
    assert slow.method == MellinMethod.SplitTailAnalytic


def test_method_preconditions():
    # the signal's tail chooses the numeric route: a caller cannot
    with pytest.raises(ValueError, match="Re\\(z\\) > 0"):
        mellin_transform(_h(SignalKind.Lorentzian, 0.0), -1.0)
    for method in (MellinMethod.PureQuadrature, MellinMethod.SplitTailAnalytic,
                   "quad", "newton"):
        for kind in (SignalKind.Lorentzian, SignalKind.TwoSidedExp):
            with pytest.raises(ValueError, match="'auto' or MellinMethod"):
                mellin_transform(_h(kind, 0.0), 1.5, method)


def test_split_tail_and_closed_form_agree():
    """At b = 2 the two share no incomplete-Gamma branch (series against
    continued fraction); they agree within their summed estimates."""
    h = _h(SignalKind.TwoSidedExp, 2.0)
    for z in (1.5, 2.5):
        for mirror in (False, True):
            tail = mellin_transform(h, z, mirror=mirror)
            closed = mellin_transform(h, z, MellinMethod.ClosedForm,
                                      mirror=mirror)
            assert tail.method == MellinMethod.SplitTailAnalytic
            budget = tail.abs_error_estimate + closed.abs_error_estimate
            assert abs(tail.value - closed.value) <= budget, (z, mirror)


@pytest.mark.parametrize("scale", [1.0, 0.2, 3.0])
def test_split_tail_against_reference(scale):
    """Split-tail moments of a scaled two-sided exponential against a
    60-digit closed form, within their own error estimates; s = 0.2, z = 5
    near b = 0 is the tightest case (about 0.99 of its estimate)."""
    amplitude = 1.0 if scale == 1.0 else -2.0
    if scale == 1.0:
        sig = make_signal(SignalKind.TwoSidedExp)
    else:
        sig = make_signal(SignalKind.TwoSidedExp, amplitude=amplitude,
                          time_scale=scale)
    for b in (-0.02, 0.7, -1.3):
        for z in (1, 2, 3, 4, 5, 1.5 + 0.5j):
            for mirror in (False, True):
                got = mellin_transform(make_h(sig, b), z, mirror=mirror)
                assert got.method == MellinMethod.SplitTailAnalytic
                want = _two_sided_exp_moment(amplitude, scale, b, z, mirror)
                assert abs(got.value - want) <= got.abs_error_estimate, (b, z, mirror)


@pytest.mark.parametrize("amplitude,scale", [(-2.0, 0.2), (3.0, 3.0)])
def test_scaled_two_sided_exp_closed_form(amplitude, scale):
    """A*f(t/s) at b = 0: A s^(1-z) times the built-in's closed form."""
    sig = make_signal(SignalKind.TwoSidedExp, amplitude, scale)
    for z in (0.5, 1.5, 1.2 + 0.3j):
        for mirror in (False, True):
            got = mellin_transform(make_h(sig, 0.0), z, MellinMethod.ClosedForm,
                                   mirror=mirror)
            want = _two_sided_exp_moment(amplitude, scale, 0.0, z, mirror)
            assert abs(got.value - want) <= got.abs_error_estimate, (z, mirror)


@pytest.mark.parametrize("amplitude,scale", [(-2.0, 0.2), (3.0, 3.0)])
def test_two_sided_exp_offset_closed_form(amplitude, scale):
    """The two-sided exponential at b != 0 by Gradshteyn-Ryzhik 3.383.10,
    against the 60-digit reference within its own estimate, on both sides,
    for |b| from 2 down to 1e-3, z up to 5 and complex z."""
    sig = make_signal(SignalKind.TwoSidedExp, amplitude, scale)
    for b in (2.0, -1.3, 0.37, -0.05, 0.01, -1e-3):
        h = make_h(sig, b)
        for z in (1, 1.5, 2, 3, 4, 5, 1.2 + 0.3j):
            for mirror in (False, True):
                got = mellin_transform(h, z, MellinMethod.ClosedForm,
                                       mirror=mirror)
                assert got.method == MellinMethod.ClosedForm
                want = _two_sided_exp_moment(amplitude, scale, b, z, mirror)
                assert abs(got.value - want) <= got.abs_error_estimate, (
                    b, z, mirror)


def test_two_sided_exp_closed_form_estimate_grows_near_zero_offset():
    """The two incomplete Gammas cancel as b -> 0, and the estimate says
    so: at z = 5 it is below 1e-10 relative at b = 0.01 and above it at
    b = 1e-4, where the plan takes the split tail instead."""
    sig = make_signal(SignalKind.TwoSidedExp)
    rel = {}
    for b in (0.01, 1e-4):
        got = mellin_transform(make_h(sig, b), 5, MellinMethod.ClosedForm)
        rel[b] = got.abs_error_estimate / abs(got.value)
    assert rel[0.01] < 1e-10 < rel[1e-4]


@pytest.mark.parametrize("b", [1.9, -1.1])
def test_closed_form_out_of_range_raises_mellin_error(b):
    """b/sigma beyond the parabolic cylinder series' range |z| <= 30 is a
    MellinError ("no closed form"), not the special function's own error."""
    h = make_h(make_signal(SignalKind.Gaussian, 1.0, 0.03), b)
    for z in (1, 2, 3, 4):
        for mirror in (False, True):
            with pytest.raises(MellinError, match="no closed form"):
                mellin_transform(h, z, MellinMethod.ClosedForm, mirror=mirror)


@pytest.mark.parametrize("amplitude,scale", [(-2.0, 0.2), (3.0, 3.0)])
@pytest.mark.parametrize("kind", [SignalKind.Lorentzian, SignalKind.Gaussian])
def test_scaled_closed_form_matches_quadrature(kind, amplitude, scale):
    """The change of variables in the closed forms against direct
    quadrature of the scaled transform, on both sides."""
    sig = make_signal(kind, amplitude, scale)
    for b in (0.0, 0.7):
        h = make_h(sig, b)
        for z in (1.0, 2.5, 1.5 + 0.5j):
            for mirror in (False, True):
                closed = mellin_transform(h, z, MellinMethod.ClosedForm,
                                          mirror=mirror)
                quad = mellin_transform(h, z, mirror=mirror)
                assert closed.method == MellinMethod.ClosedForm
                assert quad.method == MellinMethod.PureQuadrature
                budget = closed.abs_error_estimate + quad.abs_error_estimate
                assert abs(closed.value - quad.value) <= budget, (b, z, mirror)


def test_split_tail_takes_one_incomplete_gamma_per_cut(monkeypatch):
    """Each cut of the ladder integrates the whole series with one batched
    call, which takes one incomplete Gamma (12 per moment, one per order,
    before)."""
    import cwtasym.mellin as mellin
    import cwtasym.specfun as specfun

    gammas, cuts = [], []

    def counting_gamma(s, x):
        gammas.append(s)
        return upper_incomplete_gamma(s, x)

    def recording_tails(sigma, count, c, radius):
        cuts.append(radius)
        return oscillatory_power_tails(sigma, count, c, radius)

    monkeypatch.setattr(specfun, "upper_incomplete_gamma", counting_gamma)
    monkeypatch.setattr(mellin, "oscillatory_power_tails", recording_tails)
    steps = []
    for z in (1.0, 3.0, 4.5 + 0.5j):
        gammas.clear(), cuts.clear()
        mellin_transform(_h(SignalKind.TwoSidedExp, 0.7), z)
        assert len(gammas) == len(cuts), z
        ladder = [max(10.0, 2.0 * abs(z))]
        while len(ladder) < len(cuts):
            ladder.append(ladder[-1] * 1.6)
        assert cuts == ladder, z
        steps.append(len(cuts))
    assert min(steps) >= 1 and max(steps) >= 2


def test_split_tail_detects_divergence():
    """Moments past the decay rate have no undamped limit at b = 0: the
    non-oscillating power tail diverges and the split tail says so."""
    h = _h(SignalKind.TwoSidedExp, 0.0)
    for mirror in (False, True):
        with pytest.raises(MellinError, match="tail term of order 0 diverges"):
            mellin_transform(h, 2.5, mirror=mirror)


def test_morlet_time_moments_vs_highprec():
    u0 = 2.0
    with mp.workdps(30):
        for nu in (1.0, 2.5, 1.5 + 0.5j):
            for sign, arg in ((1, -1j * u0), (-1, 1j * u0)):
                want = mp.gamma(nu) * mp.exp(-u0 * u0 / 4) * mp.pcfd(-mp.mpc(nu), arg)
                got = mellin_morlet_time(nu, u0, sign)
                assert got.method == MellinMethod.ClosedForm
                assert abs(got.value - complex(want)) < 1e-11 * abs(complex(want))


def test_morlet_time_moment_validation():
    with pytest.raises(ValueError, match="Re\\(nu\\) > 0"):
        mellin_morlet_time(-0.5, 2.0, 1)
    with pytest.raises(ValueError, match="sign"):
        mellin_morlet_time(1.5, 2.0, 2)


def test_value_container_fields():
    res = mellin_transform(_h(SignalKind.Lorentzian, 0.0), 1.5)
    assert isinstance(res, MellinValue)
    assert res.abs_error_estimate >= 0.0
    assert cmath.isfinite(res.value)


_SCALINGS = [(1.0, 1.0), (-2.0, 0.2), (0.5, 3.0)]
_OFFSETS = [-1.7, -0.3, 1e-3, 0.6, 1.9]


@pytest.mark.parametrize("amplitude,scale", _SCALINGS)
@pytest.mark.parametrize("kind", list(SignalKind))
def test_closed_form_mirror_is_the_conjugate(kind, amplitude, scale):
    """Every built-in signal is real and even, so h(-u) = conj(h(u)) and at
    real z the mirror moment is the plus moment's conjugate: the closed
    forms give it exactly, with the same estimate, which is why
    ``expansion_plan`` takes the mirror by conjugation."""
    sig = make_signal(kind, amplitude, scale)
    for b in _OFFSETS:
        h = make_h(sig, b)
        for z in range(1, 6):
            plus = mellin_transform(h, z, MellinMethod.ClosedForm)
            minus = mellin_transform(h, z, MellinMethod.ClosedForm, mirror=True)
            assert minus.value == plus.value.conjugate(), (b, z)
            assert minus.abs_error_estimate == plus.abs_error_estimate, (b, z)


@pytest.mark.parametrize("amplitude,scale", _SCALINGS)
@pytest.mark.parametrize("kind", list(SignalKind))
def test_numeric_mirror_is_the_conjugate(kind, amplitude, scale):
    """The same identity for the quadrature routes ``"auto"`` picks (the
    split tail for the two-sided exponential, direct quadrature otherwise):
    within the summed estimates."""
    sig = make_signal(kind, amplitude, scale)
    for b in _OFFSETS:
        h = make_h(sig, b)
        for z in range(1, 6):
            plus = mellin_transform(h, z)
            minus = mellin_transform(h, z, mirror=True)
            budget = plus.abs_error_estimate + minus.abs_error_estimate
            assert abs(minus.value - plus.value.conjugate()) <= budget, (b, z)


@pytest.mark.parametrize("kind,scale,b", [
    (SignalKind.TwoSidedExp, 1.0, 1e-4),  # where the closed form cancels
    (SignalKind.Gaussian, 0.03, 1.9),  # past the closed form's range
])
def test_fallback_mirror_is_the_conjugate(kind, scale, b):
    """The two cases where ``expansion_plan`` falls back to ``"auto"``."""
    h = make_h(make_signal(kind, 1.0, scale), b)
    for z in range(1, 6):
        plus = mellin_transform(h, z)
        minus = mellin_transform(h, z, mirror=True)
        budget = plus.abs_error_estimate + minus.abs_error_estimate
        assert abs(minus.value - plus.value.conjugate()) <= budget, z


@pytest.mark.parametrize("u0", [2.0, 5.0])
def test_morlet_time_mirror_is_the_conjugate(u0):
    """psi(-t) = conj(psi(t)) for the modulated Gaussian: its two one-sided
    time moments at real nu are conjugates, bit for bit."""
    for nu in range(1, 6):
        plus = mellin_morlet_time(nu, u0, -1)
        minus = mellin_morlet_time(nu, u0, 1)
        assert minus.value == plus.value.conjugate(), nu
        assert minus.abs_error_estimate == plus.abs_error_estimate, nu


@pytest.mark.parametrize("kind", [SignalKind.Lorentzian, SignalKind.TwoSidedExp,
                                  SignalKind.Gaussian])
def test_moment_that_is_not_finite_raises(kind):
    """Near z = 0, u^(z-1) overflows at the numeric route's smallest nodes;
    a moment that is not finite raises instead of coming back as NaN."""
    h = make_h(make_signal(kind), 0.0)
    with pytest.raises(MellinError, match="not finite"):
        mellin_transform(h, 0.02)
    assert math.isfinite(mellin_transform(h, 0.05).value.real)
