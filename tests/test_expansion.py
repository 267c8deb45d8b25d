"""Small-dilation expansions: terms, exact remainders, measured orders."""

import dataclasses
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cwtasym.expansion import (
    ExpansionResult,
    RemainderKind,
    _poly_tail_cut,
    _time_moment_quadrature,
    convergence_order,
    expansion_plan,
)
from cwtasym.checks import _time_moment_closed, mirror_sign, moment_products
from cwtasym.mellin import MellinMethod, mellin_transform
from cwtasym.oracle import (
    _SPLIT_START,
    _alg_tail,
    _phase_alg_tail,
    _split_radius,
    cwt_fourier,
    cwt_time,
)
from cwtasym.quadrature import QuadratureConfig, integrate
from cwtasym.specfun import _TAIL_TERMS
from cwtasym.signals import (
    SignalKind,
    make_h,
    make_signal,
    time_coefficient_table,
    time_coefficients,
)
from cwtasym.wavelets import (
    WaveletKind,
    make_wavelet,
    psi_hat_conj,
    small_u_coefficients,
)
from mellin_reference import two_sided_exp_moment as _two_sided_exp_moment
from mp_reference import MP_SIGNALS, mp_wavelet


def test_mirror_sign_integer_orders():
    # lam = 1 for every built-in: the factor alternates with the term order
    assert mirror_sign(0, 1) == 1.0
    assert mirror_sign(1, 1) == -1.0
    assert mirror_sign(2, 1) == 1.0
    assert mirror_sign(5, 1) == -1.0


def test_zero_coefficient_terms_are_exact_zeros():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.MexicanHat)
    res = expansion_plan(sig, wav, 0.0, 4).at(0.1)
    # the transform starts at the quadratic order: terms 0 and 1 are absent
    assert res.terms[0] == 0.0 and res.terms[1] == 0.0
    assert res.terms[2] != 0.0
    assert res.term_error_estimates[0] == 0.0


def test_odd_terms_vanish_at_zero_offset():
    """The Lorentzian is even, so its odd Taylor coefficients at b = 0, and
    with them the odd-order products, are exact zeros."""
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    res = expansion_plan(sig, wav, 0.0, 6).at(0.1)
    for s in (1, 3, 5):
        assert abs(res.terms[s]) < 1e-20
    for s in (0, 2, 4):
        assert abs(res.terms[s]) > 0.0


@pytest.mark.parametrize(
    "kind,wav_kind,amplitude,scale,a,b,n",
    [
        (SignalKind.Lorentzian, WaveletKind.Morlet, 1.0, 1.0, 0.1, 0.0, 3),
        (SignalKind.Gaussian, WaveletKind.MexicanHat, 1.0, 1.0, 0.2, 0.0, 4),
        (SignalKind.TwoSidedExp, WaveletKind.Morlet, 1.0, 1.0, 0.1, 2.0, 3),
        (SignalKind.TwoSidedExp, WaveletKind.Haar, -2.0, 0.2, 0.05, 0.6, 4),
        # b/sigma past the parabolic cylinder series' range
        (SignalKind.Gaussian, WaveletKind.Morlet, 1.0, 0.03, 0.01, 1.9, 4),
        # so near the kink that the closed-form Mellin moments cancel
        (SignalKind.TwoSidedExp, WaveletKind.MexicanHat, 1.0, 1.0, 0.02, 1e-4, 4),
    ] + [
        # every signal x wavelet pair, fast-decay and split, unit and scaled
        (kind, wav_kind, amplitude, scale, a, b, 4)
        for kind in SignalKind
        for wav_kind in WaveletKind
        for b in (0.37, -1.3)
        for amplitude, scale in ((1.0, 1.0), (-2.0, 0.2))
        for a in (0.01, 0.3)
    ],
)
def test_remainder_reconstructs_the_fourier_oracle(
    kind, wav_kind, amplitude, scale, a, b, n
):
    """Truncation plus the exact remainder integral equals the transform
    of ``cwt_fourier``, which shares only the transform pair with it."""
    sig = make_signal(kind, amplitude, scale)
    wav = make_wavelet(wav_kind)
    res = expansion_plan(sig, wav, b, n).at(a, "integral_m0")
    orc = cwt_fourier(sig, wav, a, b)
    assert res.remainder_kind == RemainderKind.IntegralM0
    diff = abs(res.prediction - orc.value)
    budget = (
        res.abs_error_estimate
        + res.remainder_error_estimate
        + orc.abs_error_estimate
    )
    assert diff <= budget


@pytest.mark.parametrize("kind", list(SignalKind))
@pytest.mark.parametrize("wav_kind", list(WaveletKind))
def test_each_remainder_is_one_head_quadrature(monkeypatch, kind, wav_kind):
    """The remainder integrates its Taylor tail in one call, not once per
    half-line: over the whole truncated line, or the step wavelet's
    support."""
    import cwtasym.expansion as expansion

    plan = expansion_plan(make_signal(kind), make_wavelet(wav_kind), 0.37, 4)
    domains = []

    def counting(integrand, dom, *args, **kwargs):
        domains.append(dom)
        return integrate(integrand, dom, *args, **kwargs)

    monkeypatch.setattr(expansion, "integrate", counting)
    plan.at(0.05, "integral_m0")
    assert len(domains) == 1
    lo, hi = domains[0]
    if wav_kind == WaveletKind.Haar:
        assert (lo, hi) == (0.0, 1.0)
    else:
        assert lo == -hi < 0.0


@pytest.mark.parametrize("wav_kind", [WaveletKind.MexicanHat, WaveletKind.Haar])
@pytest.mark.parametrize("kind", list(SignalKind))
def test_real_pair_remainders_are_exactly_real(kind, wav_kind):
    """A real signal against a real wavelet has a real remainder: the
    Taylor tail and the wavelet are real at every node, so no imaginary
    rounding is left."""
    sig = make_signal(kind)
    wav = make_wavelet(wav_kind)
    for b in (0.37, -1.3):
        for n in (2, 4):
            plan = expansion_plan(sig, wav, b, n)
            for a in (0.01, 0.2):
                res = plan.at(a, "integral_m0")
                assert res.remainder_estimate.imag == 0.0, (b, n, a)


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_a_longer_table_starts_with_the_shorter_bit_for_bit(n):
    """The remainder takes its first n coefficients from the n + 40 table
    that its Taylor tail sums.  That gives the bits of the n table only
    because no entry depends on the table's length: checked for every
    signal, plain and scaled with a nonzero residual of b/sigma, values and
    rounding bounds alike."""
    longer = n + _TAIL_TERMS
    for kind in SignalKind:
        for amplitude, scale in ((1.0, 1.0), (-2.0, 0.2), (1.3, 3.0)):
            sig = make_signal(kind, amplitude, scale)
            for b in (0.37, -0.61, 1.95, 7.1):
                if scale != 1.0:
                    assert Fraction(b) / Fraction(scale) != Fraction(b / scale)
                short = time_coefficient_table(sig, b, n)
                long = time_coefficient_table(sig, b, longer)
                for got, want in zip(long, short):
                    assert got[:n].tobytes() == want.tobytes(), (kind, scale, b)


@pytest.mark.parametrize("kind", list(SignalKind))
@pytest.mark.parametrize("wav_kind", list(WaveletKind))
def test_each_remainder_head_takes_one_gk15_batch(kind, wav_kind):
    """The remainder's first mesh is at its integrand's scale, so one GK15
    pass meets the target: the signal is evaluated in one batch.  The
    modulated Gaussian's half-period panels take a second pass at a = 0.3
    (on 7 of the 16 Lorentzian and Gaussian cases there), so it is held
    to two batches there, and to one up to a = 0.05."""
    base = make_signal(kind)
    batches = []

    def counted(x):
        batches.append(1)
        return base.f_time(x)

    sig = dataclasses.replace(base, f_time=counted)
    wav = make_wavelet(wav_kind)
    for b in (0.002, 0.37, -1.3, 1.95):
        for n in (2, 4):
            plan = expansion_plan(sig, wav, b, n)
            for a in (0.01, 0.05, 0.3):
                batches.clear()
                plan.at(a, "integral_m0")
                most = 2 if wav_kind == WaveletKind.Morlet and a > 0.05 else 1
                assert 1 <= len(batches) <= most, (b, n, a)


@pytest.mark.parametrize("b", [0.05, -1.3, 1.95])
@pytest.mark.parametrize("wav_kind", list(WaveletKind))
def test_algebraic_tail_remainder_within_budget(wav_kind, b):
    """The two-sided exponential's transform decays like 1/v^2, so the
    Fourier oracle takes its analytic-tail split; the remainder, one
    quadrature in the time domain, stays within the summed budgets, and
    every piece is bounded."""
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = make_wavelet(wav_kind)
    plan = expansion_plan(sig, wav, b, 3)
    for a in (0.01, 0.3):
        res = plan.at(a, "integral_m0")
        orc = cwt_fourier(sig, wav, a, b)
        budget = (
            res.abs_error_estimate
            + res.remainder_error_estimate
            + orc.abs_error_estimate
        )
        assert abs(res.prediction - orc.value) <= budget, a
        # every piece is bounded: no infinite or loose tail estimate
        assert budget < 1e-10, a


@pytest.mark.parametrize("sign", [1, -1])
def test_haar_closed_form_tail_matches_quadrature(sign):
    """The step wavelet's three phases against the signal's inverse-power
    series, taken in closed form from two radii, differ by the integral
    between them, which quadrature of the exact integrand gives directly."""
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = make_wavelet(WaveletKind.Haar)
    a, b, near, far = 0.1, 0.7, 40.0, 400.0
    v_near, e_near = _phase_alg_tail(sig, wav, sign, a, b, near)
    v_far, e_far = _phase_alg_tail(sig, wav, sign, a, b, far)

    def integrand(v):
        return (psi_hat_conj(wav, sign * a * v)
                * np.exp(1j * sign * b * v) * sig.f_freq(sign * v))

    res = integrate(integrand, (near, far), panel_width=math.pi / b)
    # the series omits 2 v^-14 / (1 + v^-2) past v = 40: below 1e-24 here
    assert abs((v_near - v_far) - res.value) <= (
        e_near + e_far + res.abs_error_estimate)
    assert abs(v_near - v_far) > 1e-4


def test_time_remainder_reconstructs_transform():
    sig = make_signal(SignalKind.Gaussian)
    wav = make_wavelet(WaveletKind.MexicanHat)
    res = expansion_plan(sig, wav, 0.0, 4).at(0.3, "integral_m0")
    orc = cwt_time(sig, wav, 0.3, 0.0)
    diff = abs(res.prediction - orc.value)
    budget = (
        res.abs_error_estimate
        + res.remainder_error_estimate
        + orc.abs_error_estimate
        + 1e-13 * abs(orc.value)
    )
    assert diff <= budget


@pytest.mark.parametrize("amplitude,time_scale", [(1.0, 1.0), (1.0, 0.2),
                                                  (0.5, 0.05), (-1.0, 3.0)])
@pytest.mark.parametrize("wav_kind", list(WaveletKind))
@pytest.mark.parametrize("kind", [SignalKind.Lorentzian, SignalKind.TwoSidedExp,
                                  SignalKind.Gaussian])
def test_scaled_time_remainder_reconstructs_transform(
    kind, wav_kind, amplitude, time_scale
):
    """A*f(t/s): Taylor coefficients by the change of variables, and a
    remainder series cut over at 0.25*s, as the series' radius scales with
    s.  A cutover of 0.25 whatever s is sums the series of the s = 0.05
    signals far past where it is accurate: at a = 0.3 the Gaussian's
    prediction then misses cwt_time by up to 9e10 times the budget."""
    sig = make_signal(kind, amplitude, time_scale)
    wav = make_wavelet(wav_kind, u0=5.0)
    plan = expansion_plan(sig, wav, 0.37, 4)
    for a in (0.01, 0.3):
        res = plan.at(a, "integral_m0")
        orc = cwt_time(sig, wav, a, 0.37)
        budget = (
            res.abs_error_estimate
            + res.remainder_error_estimate
            + orc.abs_error_estimate
        )
        assert abs(res.prediction - orc.value) <= budget, a


def test_step_wavelet_identity_at_unit_scale():
    # every piece is computable at a = 1, so the identity is fully testable
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Haar)
    res = expansion_plan(sig, wav, 0.0, 6).at(1.0, "integral_m0")
    orc = cwt_time(sig, wav, 1.0, 0.0)
    assert abs(res.prediction - orc.value) < 1e-10 * abs(orc.value)


def test_closed_and_quadrature_time_moments_agree():
    """The modulated Gaussian's closed-form moments (a parabolic cylinder
    function) against quadrature, on both sides.  Unlike the elementary
    wavelets' (below), its nu = 1 moment is not zero."""
    cfg = QuadratureConfig()
    for u0 in (2.0, 5.0):
        wav = make_wavelet(WaveletKind.Morlet, u0=u0)
        for mirror in (False, True):
            for nu in range(1, 7):
                closed, closed_err = _time_moment_closed(wav, float(nu), mirror)
                quad, quad_err = _time_moment_quadrature(wav, float(nu), mirror,
                                                         cfg)
                assert abs(closed - quad) <= quad_err + closed_err, (u0, mirror, nu)
                assert abs(closed) > 0.0


@pytest.mark.parametrize("wav_kind", [WaveletKind.MexicanHat, WaveletKind.Haar])
@pytest.mark.parametrize("mirror", [False, True], ids=["plus", "mirror"])
def test_elementary_time_moments_match_quadrature(wav_kind, mirror):
    wav = make_wavelet(wav_kind)
    cfg = QuadratureConfig()
    # admissibility: the first moment vanishes, exactly and with no error
    assert _time_moment_closed(wav, 1.0, mirror) == (0.0, 0.0)
    for nu in range(1, 7):
        closed, closed_err = _time_moment_closed(wav, float(nu), mirror)
        quad, quad_err = _time_moment_quadrature(wav, float(nu), mirror, cfg)
        assert abs(closed - quad) <= quad_err + closed_err, nu


def test_empirical_remainder_closes_the_gap():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    res = expansion_plan(sig, wav, 0.0, 3).at(0.1, "empirical")
    orc = cwt_time(sig, wav, 0.1, 0.0)
    assert res.remainder_kind == RemainderKind.Empirical
    # by construction the prediction then matches the reference value
    assert abs(res.prediction - orc.value) < 1e-13 * abs(orc.value)
    assert res.remainder_error_estimate == (orc.abs_error_estimate
                                            + res.abs_error_estimate)


def test_frequency_prediction_accuracy_small_scale():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    a = 0.05
    plan = expansion_plan(sig, wav, 0.0, 3)
    res = plan.at(a)
    orc = cwt_fourier(sig, wav, a, 0.0)
    rel = abs(res.partial_sum - orc.value) / abs(orc.value)
    # relative truncation error is O(a^4), but the first omitted
    # coefficient-moment product is large at this modulation frequency
    assert rel < 1e-2
    res2 = plan.at(a / 2.0)
    orc2 = cwt_fourier(sig, wav, a / 2.0, 0.0)
    rel2 = abs(res2.partial_sum - orc2.value) / abs(orc2.value)
    assert rel2 < 0.1 * rel  # halving a should cut the error ~16x


def test_measured_order_matches_first_omitted_term():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    a_grid = np.geomspace(0.1, 0.01, 6)
    plan = expansion_plan(sig, wav, 0.0, 2)
    errs = []
    for a in a_grid:
        res = plan.at(a)
        orc = cwt_fourier(sig, wav, a, 0.0)
        errs.append(abs(res.partial_sum - orc.value))
    # b = 0 kills the odd orders, so truncating after s = 1 leaves s = 2:
    # the error scales like a^{2 + 1/2}
    order = convergence_order(a_grid, np.asarray(errs))
    assert abs(order - 2.5) < 0.1


def test_convergence_order_synthetic():
    a = np.geomspace(0.2, 0.01, 8)
    errs = 3.0 * a ** 1.75
    assert abs(convergence_order(a, errs) - 1.75) < 1e-12


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order([0.1], [0.2])
    with pytest.raises(ValueError):
        convergence_order([0.1, 0.2], [0.1, -0.2])
    with pytest.raises(ValueError):
        convergence_order([0.1, -0.2], [0.1, 0.2])
    with pytest.raises(ValueError):
        convergence_order([0.1, 0.2], [0.1, 0.2, 0.3])
    # one abscissa: no slope through the points
    with pytest.raises(ValueError, match="equal"):
        convergence_order([0.1, 0.1, 0.1], [0.1, 0.2, 0.3])


def test_convergence_order_matches_polyfit():
    """The closed-form slope is the least-squares fit's, to rounding."""
    rng = np.random.default_rng(1107)
    for _ in range(50):
        k = int(rng.integers(2, 33))
        a = np.exp(rng.uniform(math.log(1e-4), 0.0, k))
        errs = (np.exp(rng.normal(0.0, 0.5, k)) * rng.uniform(0.1, 10.0)
                * a ** rng.uniform(0.5, 6.0))
        want = np.polyfit(np.log(a), np.log(errs), 1)[0]
        assert abs(convergence_order(a, errs) - want) <= 1e-12 * abs(want)


def test_parameter_validation():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    with pytest.raises(ValueError):
        expansion_plan(sig, wav, 0.0, 3).at(-0.1)
    with pytest.raises(ValueError):
        expansion_plan(sig, wav, 0.0, 0)
    with pytest.raises(ValueError):
        expansion_plan(sig, wav, 0.0, 3).at(0.0)
    with pytest.raises(ValueError):
        expansion_plan(sig, wav, 0.0, 3).at(0.1, remainder="exact")


def test_result_metadata():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    res = expansion_plan(sig, wav, 0.5, 3).at(0.1)
    assert isinstance(res, ExpansionResult)
    assert (res.a, res.b, res.n) == (0.1, 0.5, 3)
    assert res.remainder_kind == RemainderKind.NONE
    assert res.remainder_estimate == 0.0
    assert res.prediction == res.partial_sum


def test_moment_products_use_the_expected_mellin_strategies(monkeypatch):
    """The frequency moments that ``checks.moment_products`` holds the plan
    against are closed forms for every built-in away from b = 0; the
    fallback, "auto", stays the split tail or direct quadrature by the
    signal's tail."""
    seen = _record_moments(monkeypatch)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    for kind in SignalKind:
        moment_products(make_signal(kind), wav, 0.7, 3, "frequency")
    assert {name for *_, name, _ in seen} == {"closed_form"}
    h_split = make_h(make_signal(SignalKind.TwoSidedExp), 0.7)
    h_quad = make_h(make_signal(SignalKind.Gaussian), 0.7)
    assert mellin_transform(h_split, 1).method == MellinMethod.SplitTailAnalytic
    assert mellin_transform(h_quad, 1).method == MellinMethod.PureQuadrature


def test_plan_terms_match_the_one_expression_form():
    """Each product is s! c^psi_s, times c^f_s(b), times (-i)^s, and each
    term that product times a^(s + 1/2), left to right: the bits of the
    whole written as one expression per dilation."""
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    b, n = 0.7, 4
    cf = time_coefficients(sig, b, n)
    cw = small_u_coefficients(wav, n).coefficients
    plan = expansion_plan(sig, wav, b, n)
    for a in np.geomspace(1e-3, 0.3, 16):
        a = float(a)
        terms = plan.at(a).terms
        for s in range(n):
            want = (math.factorial(s) * cw[s] * cf[s] * (-1j) ** s
                    * a ** (s + 0.5))
            assert terms[s] == want, (a, s)


@pytest.mark.parametrize("n", [1, 4])
def test_plan_terms_on_a_grid_match_at_bit_for_bit(n):
    """One array evaluation over a grid gives each dilation's terms, error
    bounds and, summed along its row, partial sum with the bits of ``at``
    and of the scalar product P_s a^(s + 1/2), zero coefficients (the
    Mexican hat's, the step's at s = 0) included."""
    grid = np.geomspace(1e-3, 0.3, 16)
    for sig_kind in SignalKind:
        for wav_kind in WaveletKind:
            plan = expansion_plan(make_signal(sig_kind), make_wavelet(wav_kind),
                                  0.3, n)
            terms, errors = plan.terms(grid)
            assert terms.shape == errors.shape == (grid.size, n)
            sums = terms.sum(axis=1).tolist()
            for i, a in enumerate(grid.tolist()):
                res = plan.at(a)
                assert terms[i].tobytes() == res.terms.tobytes()
                assert errors[i].tobytes() == res.term_error_estimates.tobytes()
                assert sums[i] == res.partial_sum
                for s in range(n):
                    power = a ** (s + 0.5)
                    assert terms[i, s] == plan.products[s] * power
                    assert errors[i, s] == plan.product_errors[s] * power
    with pytest.raises(ValueError, match="dilation"):
        plan.terms([0.1, -0.1])


def test_plan_is_read_only():
    plan = expansion_plan(make_signal(SignalKind.Lorentzian),
                          make_wavelet(WaveletKind.Morlet, u0=5.0), 0.0, 3)
    with pytest.raises(ValueError):
        plan.products[0] = 0.0


def test_plan_parameter_validation():
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=5.0)
    with pytest.raises(ValueError, match="expansion term"):
        expansion_plan(sig, wav, 0.0, 0)
    # closed forms cover every built-in wavelet: the products are the
    # Taylor coefficients times the elementary moment pairs, nu = s + 1,
    # with the mirror moment entering as (-1)**s
    b, n = 0.3, 5
    cs = time_coefficients(sig, b, n)
    nus = np.arange(1.0, n + 1.0)
    haar = (2.0 ** (1.0 - nus) - 1.0) / nus  # nothing on t < 0
    mexhat = np.array([2.0 ** (0.5 * nu - 1.0) * math.gamma(0.5 * nu)
                       * (1.0 - nu) for nu in nus]) * (1.0 + (-1.0) ** (nus - 1))
    for wav_kind, pairs in ((WaveletKind.Haar, haar),
                            (WaveletKind.MexicanHat, mexhat)):
        plan = expansion_plan(sig, make_wavelet(wav_kind), b, n)
        assert_allclose(plan.products, cs * pairs, rtol=1e-15, atol=0.0)
    plan = expansion_plan(sig, wav, 0.0, 2)
    with pytest.raises(ValueError, match="dilation"):
        plan.at(0.0)
    with pytest.raises(ValueError, match="remainder"):
        plan.at(0.1, remainder="exact")


_PLAN_OFFSETS = (0.37, -1.3, 2.0)


def _record_moments(monkeypatch):
    """Record (z, mirror, method name, result) of every Mellin moment that
    ``checks.moment_products`` takes."""
    import cwtasym.checks as checks

    seen = []

    def recording(h, z, method, config, mirror=False):
        res = mellin_transform(h, z, method, config, mirror=mirror)
        name = method if isinstance(method, str) else method.value
        seen.append((z, mirror, name, res))
        return res

    monkeypatch.setattr(checks, "mellin_transform", recording)
    return seen


def _auto_products(sig, wav, b, n, cfg):
    """P_s from ``mellin_transform``'s "auto" moments, c^psi_s (M+ + sigma
    M-) / (2 pi), with its bound; the methods each moment took."""
    h = make_h(sig, b)
    cs = small_u_coefficients(wav, n).coefficients
    products, errors, methods = np.zeros(n, dtype=complex), np.zeros(n), set()
    for s, c in enumerate(cs):
        if c == 0.0:
            continue
        plus, minus = (mellin_transform(h, s + wav.lam, "auto", cfg, mirror=m)
                       for m in (False, True))
        methods |= {plus.method, minus.method}
        products[s] = c * (plus.value + mirror_sign(s, wav.lam) * minus.value)
        errors[s] = abs(c) * (plus.abs_error_estimate + minus.abs_error_estimate)
    return products / (2.0 * math.pi), errors / (2.0 * math.pi), methods


@pytest.mark.parametrize("amplitude,scale", [(1.0, 1.0), (-2.0, 0.2)])
def test_frequency_plan_integrates_no_moment(monkeypatch, amplitude, scale):
    """Every moment of these plans is a closed form: not one quadrature."""
    import cwtasym.expansion as expansion
    import cwtasym.mellin as mellin
    import cwtasym.oracle as oracle

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return integrate(*args, **kwargs)

    for module in (expansion, mellin, oracle):
        monkeypatch.setattr(module, "integrate", counting)
    for kind in SignalKind:
        sig = make_signal(kind, amplitude, scale)
        for wav_kind in WaveletKind:
            for b in _PLAN_OFFSETS:
                expansion_plan(sig, make_wavelet(wav_kind), b, 4)
    assert calls == []


@pytest.mark.parametrize("amplitude,scale", [(1.0, 1.0), (-2.0, 0.2)])
def test_frequency_plan_matches_quadrature_moments(amplitude, scale):
    """The products against products of mellin_transform's "auto" moments
    (quadrature, or the split tail for the two-sided exponential), within
    their summed estimates."""
    cfg = QuadratureConfig()
    for kind in SignalKind:
        sig = make_signal(kind, amplitude, scale)
        for b in _PLAN_OFFSETS:
            for wav_kind in WaveletKind:
                wav = make_wavelet(wav_kind)
                plan = expansion_plan(sig, wav, b, 4, config=cfg)
                want, want_err, _ = _auto_products(sig, wav, b, 4, cfg)
                budget = plan.product_errors + want_err
                assert np.all(np.abs(plan.products - want) <= budget), (
                    kind, wav_kind, b)


def test_plan_matches_auto_moments_where_the_closed_form_cancels():
    """Two-sided exponential at b = 1e-4, where the closed-form moments'
    two incomplete Gammas cancel: the products stay within their summed
    estimates of the "auto" (split-tail) moment products and of the
    60-digit reference moments."""
    sig = make_signal(SignalKind.TwoSidedExp)
    wav = make_wavelet(WaveletKind.MexicanHat)
    b, cfg = 1e-4, QuadratureConfig()
    plan = expansion_plan(sig, wav, b, 4, config=cfg)
    want, want_err, methods = _auto_products(sig, wav, b, 4, cfg)
    assert methods == {MellinMethod.SplitTailAnalytic}
    assert np.all(np.abs(plan.products - want) <= plan.product_errors + want_err)
    cs = small_u_coefficients(wav, 4).coefficients
    for s, c in enumerate(cs):
        plus, minus = (_two_sided_exp_moment(1.0, 1.0, b, s + 1, m)
                       for m in (False, True))
        ref = c * (plus + mirror_sign(s, 1) * minus) / (2.0 * math.pi)
        assert abs(plan.products[s] - ref) <= plan.product_errors[s], s


def test_plan_matches_auto_moments_outside_the_closed_form_range():
    """A Gaussian of time scale 0.03 at b = 1.9 puts b/sigma past the
    parabolic cylinder series' range: the products stay within their
    summed estimates of the "auto" (direct quadrature) moment products."""
    sig = make_signal(SignalKind.Gaussian, 1.0, 0.03)
    wav = make_wavelet(WaveletKind.Morlet)
    b, cfg = 1.9, QuadratureConfig()
    plan = expansion_plan(sig, wav, b, 4, config=cfg)
    want, want_err, methods = _auto_products(sig, wav, b, 4, cfg)
    assert methods == {MellinMethod.PureQuadrature}
    assert np.all(np.abs(plan.products - want) <= plan.product_errors + want_err)


def test_steep_scaled_time_route_within_its_estimates():
    """A Gaussian of time scale 0.05 at b = -1.1 (b/sigma = -22): each
    evaluation of f at a rounded argument carries about 2.5 (b/sigma)^2 eps
    relative, which the remainder's roundoff floors now count.  With the
    default floor of 50 eps the prediction missed cwt_time by 1.04 times
    the summed estimates."""
    sig = make_signal(SignalKind.Gaussian, 0.5, 0.05)
    wav = make_wavelet(WaveletKind.Haar)
    res = expansion_plan(sig, wav, -1.1, 4).at(0.05, "integral_m0")
    orc = cwt_time(sig, wav, 0.05, -1.1)
    budget = (res.abs_error_estimate + res.remainder_error_estimate
              + orc.abs_error_estimate)
    assert abs(res.prediction - orc.value) <= budget


@pytest.mark.parametrize("u0", [2.0, 5.0])
@pytest.mark.parametrize("wav_kind", [WaveletKind.Morlet, WaveletKind.MexicanHat])
def test_gaussian_wavelet_time_mirror_is_the_conjugate(wav_kind, u0):
    """psi(-t) = conj(psi(t)) for both Gaussian wavelets, so the closed-form
    mirror time moment equals the plus moment's conjugate (a zero's sign
    aside), with the same estimate."""
    wav = make_wavelet(wav_kind, u0=u0)
    for nu in (1.0, 2.0, 3.0, 4.0, 5.0):
        plus, e_plus = _time_moment_closed(wav, nu, False)
        minus, e_minus = _time_moment_closed(wav, nu, True)
        assert minus == plus.conjugate() and e_minus == e_plus, nu


@pytest.mark.parametrize("scale", [(1.0, 1.0), (-2.0, 0.2)])
@pytest.mark.parametrize("wav_kind", [WaveletKind.MexicanHat, WaveletKind.Haar])
def test_real_wavelet_minus_tail_is_the_conjugate(wav_kind, scale):
    """For a real wavelet against the two-sided exponential, the - side's
    Abel tail of the Fourier oracle (``_alg_tail``) is the conjugate of the
    + side's, within the summed estimates of a direct ``sign=-1`` call."""
    sig = make_signal(SignalKind.TwoSidedExp, *scale)
    wav = make_wavelet(wav_kind)
    cfg = QuadratureConfig()
    radius, _, _ = _split_radius(sig, wav.hat_sup, _SPLIT_START, cfg)
    for a in (0.01, 0.05, 0.3):
        for b in (-1.3, 0.002, 0.6, 1.95):
            plus = _alg_tail(sig, wav, 1, a, b, radius, cfg)
            minus = _alg_tail(sig, wav, -1, a, b, radius, cfg)
            budget = plus.abs_error_estimate + minus.abs_error_estimate
            assert abs(minus.value - plus.value.conjugate()) <= budget, (a, b)


@pytest.mark.parametrize("kind", list(SignalKind))
def test_mexican_hat_time_route_within_its_estimates_of_highprec(kind):
    """The Mexican hat's envelope 7 e^{-0.45 t^2} cuts its line nearer than
    the looser 2 e^{-t^2/4} did; at seeded points, ``cwt_time`` and the
    time expansion with its exact remainder stay within their estimates of
    a 30-digit quadrature."""
    sig, wav = make_signal(kind), make_wavelet(WaveletKind.MexicanHat)
    f = MP_SIGNALS[kind]
    rng = np.random.default_rng(9)
    for a, b in zip(10.0 ** rng.uniform(-3.0, -0.5, 3), rng.uniform(-2.0, 2.0, 3)):
        a, b = float(a), float(b)
        with mp.workdps(30):
            points = sorted({-mp.inf, -1, 0, 1, mp.inf, mp.mpf(-b) / a})
            ref = complex(mp.sqrt(a) * mp.quad(
                lambda s: f(b + a * s) * (1 - s * s) * mp.exp(-s * s / 2),
                points))
        res = cwt_time(sig, wav, a, b)
        assert abs(res.value - ref) <= res.abs_error_estimate, (a, b)
        exp = expansion_plan(sig, wav, b, 4).at(a, "integral_m0")
        budget = exp.abs_error_estimate + exp.remainder_error_estimate
        assert abs(exp.prediction - ref) <= budget, (a, b)


def _mp_transform(kind, wav, a, b):
    """W(b, a) of the unit signal ``kind`` at 30 digits, and mpmath's
    estimate of its error.  The step wavelet's is a^(-1/2) times the
    integral of f over [b, b + a/2] less that over [b + a/2, b + a], the
    Gaussian wavelets' sqrt(a) int f(b + a s) conj(psi)(s) ds over
    [-12, 12], where |psi| < 1e-29; the two-sided exponential's kink is a
    breakpoint wherever it falls inside."""
    f = MP_SIGNALS[kind]
    with mp.workdps(30):
        am, bm = mp.mpf(a), mp.mpf(b)
        kinks = [mp.mpf(0)] if kind == SignalKind.TwoSidedExp else []
        if wav.kind == WaveletKind.Haar:
            total = error = 0
            mid = bm + am / 2
            for lo, hi, sign in ((bm, mid, 1), (mid, bm + am, -1)):
                points = [lo] + [k for k in kinks if lo < k < hi] + [hi]
                v, e = mp.quad(f, points, method="gauss-legendre", error=True)
                total, error = total + sign * v, error + e
            return complex(total / mp.sqrt(am)), float(error / mp.sqrt(am))
        psi_at = mp_wavelet(wav.kind, wav.u0)
        points = [mp.mpf(k) for k in range(-12, 13, 2)]
        points += [(k - bm) / am for k in kinks if abs((k - bm) / am) < 12]
        v, e = mp.quad(lambda s: f(bm + am * s) * psi_at(s), sorted(points),
                       method="gauss-legendre", error=True)
        return complex(mp.sqrt(am) * v), float(mp.sqrt(am) * e)


@pytest.mark.parametrize("wav_kind", list(WaveletKind))
def test_remainder_within_its_estimate_of_30_digits(wav_kind):
    """Seeded audit of the exact remainder, the time route's Taylor tail:
    for every signal at 6 points, a log-uniform on [1e-2, 0.3] and b
    uniform on [-2, 2], the prediction of n = 2, 3 and 4 terms is within
    its estimate (the partial sum's plus the remainder's) of the transform
    at 30 digits."""
    wav = make_wavelet(wav_kind)
    rng = random.Random(f"remainder audit {wav_kind.value}")
    for kind in SignalKind:
        sig = make_signal(kind)
        for _ in range(6):
            a = 10.0 ** rng.uniform(-2.0, math.log10(0.3))
            b = rng.uniform(-2.0, 2.0)
            ref, ref_err = _mp_transform(kind, wav, a, b)
            for n in (2, 3, 4):
                res = expansion_plan(sig, wav, b, n).at(a, "integral_m0")
                budget = res.abs_error_estimate + res.remainder_error_estimate
                case = (kind.value, a, b, n)
                assert ref_err <= 1e-3 * budget, case
                assert abs(res.prediction - ref) <= budget, case


@pytest.mark.parametrize("a,deg", [(0.05, 3), (1.0, 4), (3.0, 1)])
@pytest.mark.parametrize("env", [("exp", 3.14, 1.0), ("gauss", 7.0, 0.45)])
def test_poly_tail_cut_bounds_both_terms(env, a, deg):
    """The remainders' cut: past it, the integral of env(v) K (1 + (a v)^deg)
    is within the returned bound, which is about delta per term or less."""
    kind, c, p = env
    k_const, delta = 2.5, 5e-15
    cut, bound = _poly_tail_cut(env, k_const, a, deg, delta)
    with mp.workdps(40):
        c, p, r, k, a_ = (mp.mpf(v) for v in (c, p, cut, k_const, a))
        if kind == "exp":
            tails = [mp.gammainc(s + 1, p * r) / p ** (s + 1) for s in (0, deg)]
        else:
            tails = [mp.gammainc(mp.mpf(s + 1) / 2, p * r * r)
                     / (2 * p ** (mp.mpf(s + 1) / 2)) for s in (0, deg)]
        exact = float(c * k * (tails[0] + a_ ** deg * tails[1]))
    assert exact <= bound <= 2.1 * delta


def _mp_hermite_taylor(x, n):
    """e^{-x^2/2} He_s(x) / s!, s < n, in the working precision."""
    he = [mp.mpf(1), x]
    for s in range(2, n):
        he.append(x * he[s - 1] - (s - 1) * he[s - 2])
    return [mp.exp(-x * x / 2) * he[s] / mp.factorial(s) for s in range(n)]


def _mp_signal_taylor(kind, amplitude, scale, b, n):
    """c^f_s(b) of amplitude * f(t / scale), from the closed forms at b/scale."""
    x = mp.mpf(b) / mp.mpf(scale)
    if kind == SignalKind.Lorentzian:
        base = [(-1) ** (s + 1) * mp.im(mp.mpc(x, 1) ** -(s + 1))
                for s in range(n)]
    elif kind == SignalKind.Gaussian:
        base = [(-1) ** s * c for s, c in enumerate(_mp_hermite_taylor(x, n))]
    else:
        base = [mp.exp(-abs(x)) * (-mp.sign(x)) ** s / mp.factorial(s)
                for s in range(n)]
    return [mp.mpf(amplitude) * c / mp.mpf(scale) ** s for s, c in enumerate(base)]


def _mp_wavelet_taylor(wav, n):
    if wav.kind == WaveletKind.Morlet:
        return [mp.sqrt(2 * mp.pi) * c
                for c in _mp_hermite_taylor(mp.mpf(wav.u0), n)]
    if wav.kind == WaveletKind.MexicanHat:
        return [mp.sqrt(2 * mp.pi) * (-1) ** (s // 2 - 1)
                / (2 ** (s // 2 - 1) * mp.factorial(s // 2 - 1))
                if s >= 2 and s % 2 == 0 else mp.mpf(0) for s in range(n)]
    return [mp.mpc(0, 1) ** (s + 2) * (1 - mp.mpf(2) ** -s) / mp.factorial(s + 1)
            for s in range(n)]


def _audit_products(sig, wav, b, n, amplitude, scale):
    """|P_s - 30-digit reference| / estimate for each s of one plan."""
    plan = expansion_plan(sig, wav, b, n)
    with mp.workdps(30):
        cf = _mp_signal_taylor(sig.kind, amplitude, scale, b, n)
        cw = _mp_wavelet_taylor(wav, n)
        refs = [complex(mp.factorial(s) * (-1j) ** s * cf[s] * cw[s])
                for s in range(n)]
    ratios = []
    for s, ref in enumerate(refs):
        gap, est = abs(plan.products[s] - ref), plan.product_errors[s]
        assert gap <= est, (sig.kind, wav.kind, wav.u0, scale, b, s, gap, est)
        ratios.append(gap / est if est > 0.0 else 0.0)
    return ratios


_AUDIT_WAVELETS = [make_wavelet(WaveletKind.Morlet, u0=u0) for u0 in (2.0, 5.0, 12.0)] + [
    make_wavelet(WaveletKind.MexicanHat), make_wavelet(WaveletKind.Haar)]


@pytest.mark.parametrize("scale", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("kind", list(SignalKind))
def test_products_within_their_estimates_of_30_digits(kind, scale):
    """Every P_s = s! (-i)^s c^f_s(b) c^psi_s of A f(t/sigma), A = 1.3, is
    within its rounding estimate of the same formula at 30 digits: each
    wavelet (the modulated Gaussian at u0 = 2, 5, 12), 10 seeded b with |b|
    log-uniform on [1e-4, 3] and either sign, n = 8."""
    rng = np.random.default_rng(31)
    offsets = rng.choice((-1.0, 1.0), 10) * 10.0 ** rng.uniform(-4.0, math.log10(3.0), 10)
    sig = make_signal(kind, 1.3, scale)
    for wav in _AUDIT_WAVELETS:
        for b in offsets.tolist():
            _audit_products(sig, wav, b, 8, 1.3, scale)


@pytest.mark.parametrize("b,scale", [
    (8.0, 1.0), (-15.0, 1.0), (25.0, 1.0), (-33.0, 1.0), (37.9, 1.0),
    (38.4, 1.0), (-39.0, 1.0), (45.0, 1.0), (5.5, 0.2), (-7.63, 0.2),
    (170.0, 5.0),
])
def test_far_gaussian_products_within_their_estimates_of_30_digits(b, scale):
    """At large |b|/sigma the Hermite recurrence and e^{-b^2/2} are
    ill-conditioned, up to and past the underflow at |b|/sigma = 38.6: the
    products stay within their estimates of 30 digits."""
    sig = make_signal(SignalKind.Gaussian, 1.3, scale)
    for wav in _AUDIT_WAVELETS:
        _audit_products(sig, wav, b, 8, 1.3, scale)


@pytest.mark.parametrize("b", [0.7419637843027258, 1.3556261799742657,
                               1.7320508075688772, -2.3344142183389773,
                               2.8569700138728056, 3.7504397177257425])
def test_gaussian_products_near_hermite_roots_within_their_estimates(b):
    """Near a root of He_s the recurrence cancels, and only its own error
    recurrence bounds what is left: the products of the Gaussian at roots
    of He_4, He_5, He_3, He_4, He_5 and He_7 stay within their estimates of
    30 digits, and so does the modulated Gaussian's table at those u0."""
    for scale in (1.0, 0.2):
        sig = make_signal(SignalKind.Gaussian, 1.3, scale)
        for wav in _AUDIT_WAVELETS:
            _audit_products(sig, wav, b * scale, 8, 1.3, scale)
    _audit_products(make_signal(SignalKind.Lorentzian, 1.3, 1.0),
                    make_wavelet(WaveletKind.Morlet, u0=abs(b)), 0.3, 8, 1.3, 1.0)
