"""Small-dilation asymptotic expansion of the CWT with computable remainders.

The frequency-domain route expands the conjugated wavelet transform about
zero argument and pairs each Taylor coefficient with a regularized Mellin
moment of the boundary function h(u) = e^{ibu} f_hat(u); the time-domain
route expands the signal about the translation point and pairs each
coefficient with a one-sided moment of the wavelet.  Both carry an exact
integral remainder, so the truncated sum plus remainder reproduces the
transform identically (up to quadrature error), and the remainder can also
be estimated empirically against the brute-force oracle.

Each remainder integrates the Taylor tail of one factor (from
``specfun.taylor_tail``) against the other in one quadrature whose first
mesh is at its integrand's scale, so that one GK15 pass usually meets the
target: the time route over the wavelet's support or its truncated line,
the frequency route over a truncated line folded onto one half-line, as
``cwt_fourier`` folds it, which keeps the remainder of a real signal
against a real wavelet exactly real.  When the signal transform decays
only algebraically (the two-sided exponential), the frequency remainder is
a conditionally convergent Mellin-convolution tail, so
``remainder_frequency`` integrates only up to |w| = R, a radius past which
the transform's inverse-power series converges, and adds on each side
closed-form incomplete-gamma tails for the Taylor polynomial and the
wavelet's own tail from the oracle's analytic-tail engine, the same one
``cwt_fourier`` uses.

None of the coefficients or moments depends on the dilation a, so
``expansion_plan`` computes them once; ``ExpansionPlan.terms`` evaluates the
terms at a whole grid of dilations in one array product, and
``ExpansionPlan.at`` the expansion at one dilation from the same formula.
That is the one way to build an expansion.  Each term pairs a
coefficient with a moment M+ and its mirror M-; wherever conjugate
symmetry makes M- the conjugate of M+ (``oracle._real_wavelet``), the
plan conjugates instead of computing it.  The frequency route takes its
Mellin moments in closed form, falling back to
``mellin_transform``'s ``"auto"`` choice (quadrature or the split tail)
where the closed form does not apply or its own estimate misses the
quadrature target; the time route takes its wavelet moments from the
closed forms of ``_time_moment_closed``.  ``_time_moment_quadrature`` and
``"auto"`` stay as the tests' independent references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .mellin import (
    MellinError,
    MellinMethod,
    _cpow,
    mellin_morlet_time,
    mellin_transform,
)
from .oracle import (
    _alg_tail,
    _conjugate_time_mirror,
    _fold_hints,
    _fold_integrand,
    _real_wavelet,
    _side_coeffs,
    _split_radius,
    cwt_fourier,
    cwt_time,
)
from .quadrature import (
    QuadratureConfig,
    _cut_radius,
    _envelope_tail_bound,
    integrate,
)
from .signals import (
    SignalSpec,
    f_time_conditioning,
    h_eval,
    make_h,
    time_coefficients,
)
from .specfun import SpecFunError, oscillatory_power_tails, taylor_tail
from .wavelets import (
    WaveletKind,
    WaveletSpec,
    psi_conj,
    psi_hat_tail_evaluator,
    small_u_coefficients,
    time_panel_width,
    time_period,
)

_TWO_PI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TAIL_CUTOVER = 0.25
_EPS = 2.220446049250313e-16
_LN2 = math.log(2.0)
# Measured against 40-digit references over 0 < nu <= 60, the elementary
# time moments are within 4.3 ulp (Mexican hat) and 1.8 ulp (Haar).
_CLOSED_ULPS = 8.0
# Least number of first panels over the folded frequency head [0, upper]:
# the half period pi/|b| alone is 1,571 wide at b = 0.002, and such a mesh
# bisects, while a fixed width cap of 1 doubles the Lorentzian's nodes.
_HEAD_PANELS = 16


class RemainderKind(Enum):
    IntegralM0 = "integral_m0"
    Empirical = "empirical"
    NONE = "none"


_REMAINDER_KINDS = {k.value: k for k in RemainderKind}
_REMAINDER_KINDS.update((k, k) for k in RemainderKind)


def _as_remainder_kind(value: Union[str, RemainderKind]) -> RemainderKind:
    try:
        return _REMAINDER_KINDS[value]
    except (KeyError, TypeError):
        choices = ", ".join(k.value for k in RemainderKind)
        raise ValueError(
            f"unknown remainder kind {value!r} (choices: {choices})"
        ) from None


def _check_dilation(a: float) -> None:
    if not a > 0.0:
        raise ValueError("the dilation parameter must be positive")


@dataclass(frozen=True)
class ExpansionResult:
    """A truncated expansion of W(b, a) with error accounting.

    ``terms[s]`` is the complete s-th term including prefactors and the
    dilation power; ``partial_sum`` is their sum.  ``remainder_estimate``
    holds the unscaled remainder integral delta_n, so the reconstruction is
    ``partial_sum + remainder_scale * remainder_estimate``
    (``remainder_scale`` is 1/(2*pi) for the frequency route, 1 for the time
    route).  ``abs_error_estimate`` bounds the numerical error of
    ``partial_sum`` alone.
    """

    domain: str
    a: float
    b: float
    n: int
    lam: int
    terms: np.ndarray
    term_error_estimates: np.ndarray
    partial_sum: complex
    abs_error_estimate: float
    remainder_kind: RemainderKind
    remainder_estimate: complex
    remainder_error_estimate: float
    remainder_scale: float

    @property
    def prediction(self) -> complex:
        """partial_sum plus the scaled remainder (when one was computed)."""
        return self.partial_sum + self.remainder_scale * self.remainder_estimate


def mirror_sign(s: int, lam: int) -> complex:
    """The reflection factor (-1)**(s + lam + 1)."""
    return -1.0 + 0.0j if (s + lam + 1) % 2 else 1.0 + 0.0j


def _poly_tail_cut(env: tuple, k_const: float, a: float, deg: int, delta: float):
    """Cut radius and tail bound for an integrand at most env(v) * K *
    (1 + (a*v)**deg): the larger of the two terms' ``_cut_radius`` at
    ``delta``, the second term's with power ``deg``, and the sum of their
    ``_envelope_tail_bound`` there."""
    kind, c, p = env
    terms = (((kind, c * k_const, p), 0.0),
             ((kind, c * k_const * a ** deg, p), float(deg)))
    cut = max(_cut_radius(e, delta, power) for e, power in terms)
    return cut, sum(_envelope_tail_bound(e, cut, power) for e, power in terms)


def _analytic_tail_side(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    cs: np.ndarray,
    sign: int,
    a: float,
    b: float,
    radius: float,
    cfg: QuadratureConfig,
) -> tuple[complex, float]:
    """The remainder's two Abel tails past ``radius`` on one side (see the
    caller): the wavelet tail from the oracle's analytic-tail engine plus
    the closed-form polynomial tail, and their error; the series
    truncation is the caller's to add."""
    tail = _alg_tail(signal, wavelet, sign, a, b, radius, cfg)
    value, err = tail.value, tail.abs_error_estimate

    # -sum_s c_s (sign*a)^s int_radius^inf v^s h(sign*v) dv, with h's tail
    # e^{i*rate*v} sum_r b_r v^-(r+beta): the products share an exponent
    # whenever s - r does, and the orders k + 1 - beta, k = s - r, are one
    # integer ladder from the top k down, so the side takes one batched call.
    rate = sign * b
    side_coeffs = _side_coeffs(signal, sign)
    by_order: dict = {}
    for s, c_s in enumerate(cs):
        if c_s == 0.0:
            continue
        weight = c_s * (sign * a) ** s
        for r, b_r in enumerate(side_coeffs):
            if b_r != 0.0:
                by_order[s - r] = by_order.get(s - r, 0.0) + weight * b_r
    if not by_order:
        return value, err
    top = max(by_order)
    try:
        tails = oscillatory_power_tails(
            top + 1.0 - signal.tail_beta, top - min(by_order) + 1, rate, radius
        )
    except SpecFunError as exc:
        raise MellinError(f"remainder tail term diverges: {exc}") from None
    for k, coef in by_order.items():
        term, term_err = tails[top - k]
        value -= coef * term
        err += abs(coef) * term_err
    return value, err


def remainder_frequency(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    a: float,
    b: float,
    n: int,
    config: Optional[QuadratureConfig] = None,
) -> tuple[complex, float]:
    """The exact frequency-domain remainder delta_n(a) and its error estimate.

    delta_n(a) = sqrt(a) * int psi_tail(a*w) h(w) dw over the real line,
    where psi_tail is the wavelet transform less its first n Taylor terms
    c_s u^s and h(w) = e^{ibw} f_hat(w).

    The line is folded: with g(w) = psi_tail(a*w) h(w), one quadrature of
    g(x) + g(-x) over [0, upper] covers both sides, with the oracle's fold
    (``oracle._fold_integrand``).  For the real wavelets (the Mexican hat
    and the step) against a real signal that is 2 Re g(x), one evaluation
    per node, and the remainder is exactly real; for the modulated
    Gaussian, g is evaluated once on the nodes and their mirrors.
    The breakpoints are both sides' features (``oracle._fold_hints``) and
    cutover/a, where psi_tail's series branch ends; the first panels are no
    wider than the helper's half period of the phase, about pi/|b|, and
    upper/16.

    When the signal transform decays faster than algebraically, upper is the
    cut of both sides, with their tail bound.  When it decays
    algebraically, the integral converges only in the Abel sense, and the
    line is split at upper = R >= cutover/a, past which h's inverse-power
    series converges:

    * the head, int_{-R}^{R} psi_tail(a*w) h(w) dw, by the folded quadrature;
    * on each side sign = +-1, the polynomial tail,
      -sum_s c_s (sign*a)^s int_R^inf v^s h(sign*v) dv, from the series in
      closed-form oscillatory power integrals;
    * on each side, the wavelet tail,
      int_R^inf conj(psi_hat)(sign*a*v) h(sign*v) dv, from the series by
      the oracle's analytic-tail engine (``oracle._alg_tail``): closed form
      for the step wavelet, a steepest-descent ray for the Gaussian ones.

    For the real wavelets the - side's two tails are the conjugate of the
    + side's (``oracle._real_wavelet``), so only the + side is computed.

    R is doubled from there until the bound on truncating the series (in
    both tails) is below half the absolute tolerance; that bound is part of
    the returned error estimate, as is the bound on truncating psi_tail's
    own series, against int |h| = 2*pi*|f(0)| (every built-in's transform
    is nonnegative, so that is at most 2*pi*sup_time).
    """
    _check_dilation(a)
    cfg = config if config is not None else QuadratureConfig()
    h = make_h(signal, b)
    cs = small_u_coefficients(wavelet, n).coefficients
    psi_tail, cutover, series_err = psi_hat_tail_evaluator(wavelet, n)
    tails, err = 0.0 + 0.0j, series_err * _TWO_PI * signal.sup_time

    if math.isfinite(signal.tail_beta):
        weights = [(abs(c) * a ** s, s) for s, c in enumerate(cs) if c != 0.0]
        weights.append((wavelet.hat_sup, 0))  # the wavelet tail's series
        upper, truncation = _split_radius(signal, weights, cutover / a, cfg)
        tail_bound = 0.0
        for sign in (1, -1):
            if sign < 0 and _real_wavelet(wavelet):
                value = value.conjugate()  # with the + side's error
            else:
                value, side_err = _analytic_tail_side(
                    signal, wavelet, cs, sign, a, b, upper, cfg
                )
            tails += value
            err += side_err + truncation
    else:
        k_const = wavelet.hat_sup + float(np.sum(np.abs(cs)))
        upper, per_side = _poly_tail_cut(
            signal.freq_envelope, k_const, a, n - 1, 0.5 * cfg.abs_tol
        )
        tail_bound = 2.0 * per_side

    # psi_tail keeps the transform's symmetry through its Taylor
    # coefficients, so the real wavelets' fold of g is 2 Re g as well.
    def g(w):
        return psi_tail(a * w) * h_eval(h, w)

    breakpoints, width = _fold_hints(wavelet, a, b)
    breakpoints.append(cutover / a)
    cap = upper / _HEAD_PANELS
    head = integrate(
        _fold_integrand(g, wavelet),
        (0.0, upper),
        cfg,
        breakpoints=breakpoints,
        panel_width=cap if width is None else min(width, cap),
        tail_bound=tail_bound,
    )
    root_a = math.sqrt(a)
    return root_a * (head.value + tails), root_a * (head.abs_error_estimate + err)


def _time_route_panel_width(wavelet: WaveletSpec) -> Optional[float]:
    """Widest first panel of the time route's remainder and its moment
    reference, in wavelet coordinates.

    Half the period for the modulated Gaussian: the Taylor tail, or
    t^(nu-1), times the wavelet converges in about one pass on it, and the
    finer ``time_panel_width`` (at most 0.4 of the period) adds nodes: on
    the perfbench ``remainder`` task lists of seeds 5 and 201, the
    modulated Gaussian's time remainders took 80,040 GK15 nodes on it and
    69,615 on half periods.  Otherwise ``time_panel_width``: unit panels
    for the Mexican hat, and None for the step wavelet, whose mesh is its
    support.
    """
    period = time_period(wavelet)
    return time_panel_width(wavelet) if period is None else 0.5 * period


def _time_moment_quadrature(
    wavelet: WaveletSpec, nu: float, mirror: bool, cfg: QuadratureConfig
) -> tuple[complex, float]:
    """One-sided wavelet moment int_0^inf t^(nu-1) conj(psi)(+-t) dt.

    The tests' reference for ``_time_moment_closed``: the Gaussian
    wavelets' line is cut where the rule's tail bound is at most one
    rounding of 1 (or 0.5 abs_tol, if smaller), so that a moment of size
    one or more keeps its last bits.
    """
    sign = -1.0 if mirror else 1.0
    zm1 = complex(nu) - 1.0

    def integrand(t):
        return _cpow(t, zm1) * psi_conj(wavelet, sign * t)

    if wavelet.time_support is not None:
        if mirror:
            return 0.0 + 0.0j, 0.0  # the support lies entirely on t >= 0
        upper, hints = wavelet.time_support[1], {"breakpoints": [0.5]}
    else:
        envelope = wavelet.time_envelope
        upper = _cut_radius(envelope, min(0.5 * cfg.abs_tol, _EPS), nu - 1.0)
        hints = {
            "panel_width": _time_route_panel_width(wavelet),
            "tail_bound": _envelope_tail_bound(envelope, upper, nu - 1.0),
        }
    res = integrate(
        integrand,
        (0.0, upper),
        cfg,
        left_singularity=(nu - 1.0) if nu < 1.0 else None,
        **hints,
    )
    return res.value, res.abs_error_estimate


def _time_moment_closed(
    wavelet: WaveletSpec, nu: float, mirror: bool
) -> tuple[complex, float]:
    """One-sided wavelet moment int_0^inf t^(nu-1) conj(psi)(+-t) dt, closed form.

    Modulated Gaussian: a parabolic cylinder function.  Mexican hat:
    2^(nu/2-1) Gamma(nu/2) (1-nu) on both sides, since the wavelet is even.
    Haar: (2^(1-nu) - 1)/nu on the + side, written with expm1 so that it
    keeps its relative accuracy near nu = 1, and 0 on the mirror side.  Both
    elementary forms are exactly 0 at nu = 1 (admissibility) and carry an
    error bar of a few ulp.
    """
    if wavelet.kind == WaveletKind.Morlet:
        m = mellin_morlet_time(nu, wavelet.u0, 1 if mirror else -1)
        return m.value, m.abs_error_estimate
    if wavelet.kind == WaveletKind.MexicanHat:
        value = 2.0 ** (0.5 * nu - 1.0) * math.gamma(0.5 * nu) * (1.0 - nu)
    elif mirror:
        return 0.0 + 0.0j, 0.0  # the support lies entirely on t >= 0
    else:
        value = math.expm1((1.0 - nu) * _LN2) / nu
    return complex(value), _CLOSED_ULPS * _EPS * abs(value)


def _taylor_remainder_factory(signal: SignalSpec, b: float, n: int):
    """Evaluator for f(b+x) - (first n Taylor terms), stable near x = 0.

    ``specfun.taylor_tail`` with the signal's Taylor coefficients at b:
    below the cutover it sums the series, above it subtracts directly.
    The cutover scales with the signal's time scale, as the series' radius
    does, and stays below 0.45 of the distance to a kink; where the
    coefficients past the n-th do not exist (at a kink), every argument
    takes the direct subtraction.  Returns the evaluator, the cutover and
    the bound on the series' truncation error below it.
    """
    cutover = _TAIL_CUTOVER * signal.time_scale
    for k in signal.kinks:
        gap = abs(b - k)
        if gap > 0.0:
            cutover = min(cutover, 0.45 * gap)
    evaluate, omitted = taylor_tail(
        lambda x: signal.f_time(b + x),
        lambda m: time_coefficients(signal, b, m),
        n,
        cutover,
    )
    return evaluate, cutover, omitted


def _abs_integral_bound(wavelet: WaveletSpec) -> float:
    """The integral of |psi(t)| over the real line, exactly: sqrt(2*pi) for
    the modulated Gaussian, 4/sqrt(e) for the Mexican hat (the antiderivative
    of (1 - t^2) e^{-t^2/2} is t e^{-t^2/2}), 1 for the step wavelet."""
    if wavelet.kind == WaveletKind.Morlet:
        return _SQRT_2PI
    if wavelet.kind == WaveletKind.MexicanHat:
        return 4.0 / math.sqrt(math.e)
    return 1.0


def _steep_conditioning(
    signal: SignalSpec, b: float, step: float, lo: float, hi: float
):
    """f's conditioning at b + step*s as a function of s, for ``integrate``,
    or None where it stays within the default floor of 50 on lo <= s <= hi
    (it grows with |t|, so its largest value there is at an end)."""
    ends = max(abs(b + step * lo), abs(b + step * hi))
    if f_time_conditioning(signal, ends) <= 50.0:
        return None
    return lambda s: f_time_conditioning(signal, b + step * np.asarray(s))


def _remainder_time(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    a: float,
    b: float,
    n: int,
    cfg: QuadratureConfig,
) -> tuple[complex, float]:
    """Exact time-domain remainder: the Taylor tail of f against the wavelet.

    sqrt(a) * int f_tail(a*s) conj(psi)(s) ds, one quadrature over the
    wavelet's support, or over (-cut, cut) with the tail bound of both
    sides, with breakpoints where the series branch of f_tail ends and at
    the signal's kinks, and first panels from ``_time_route_panel_width``
    (half a period for the modulated Gaussian, unit for the Mexican hat),
    on which one GK15 pass usually meets the target.  Each evaluation of f
    at a rounded argument carries the relative error of
    ``f_time_conditioning``, which the quadrature counts in its roundoff
    floors; it matters where f is steep in units of its time scale.
    """
    f_tail, cutover, series_err = _taylor_remainder_factory(signal, b, n)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        return f_tail(a * s) * psi_conj(wavelet, s)

    breakpoints = [cutover / a, -cutover / a]
    breakpoints += [(k - b) / a for k in signal.kinks]
    if wavelet.time_support is not None:
        (lo, hi), tail_bound = wavelet.time_support, 0.0
        breakpoints.append(0.5)  # the step wavelet's jump
    else:
        cs_abs = float(np.sum(np.abs(time_coefficients(signal, b, n))))
        hi, per_side = _poly_tail_cut(
            wavelet.time_envelope, signal.sup_time + cs_abs, a, n - 1,
            0.5 * cfg.abs_tol,
        )
        lo, tail_bound = -hi, 2.0 * per_side
    res = integrate(
        integrand,
        (lo, hi),
        cfg,
        breakpoints=breakpoints,
        panel_width=_time_route_panel_width(wavelet),
        tail_bound=tail_bound,
        conditioning=_steep_conditioning(signal, b, a, lo, hi),
    )
    # the series branch's truncation error, against |psi| over the line
    err = res.abs_error_estimate + series_err * _abs_integral_bound(wavelet)
    root_a = math.sqrt(a)
    return root_a * res.value, root_a * err


@dataclass(frozen=True)
class ExpansionPlan:
    """The dilation-independent part of an n-term expansion of W(b, a).

    Term s at dilation a is ``products[s] * a**(s + power_offset)``, divided
    by 2*pi on the frequency route.  ``products[s]`` is the coefficient times
    its moment pair, c_s (M+_s + sigma_s M-_s), and ``product_errors[s]``
    bounds its numerical error by |c_s| (e+_s + |sigma_s| e-_s); both are 0
    where c_s is.  Neither depends on a, so :meth:`terms` evaluates every
    term at a whole grid of dilations in one array product, and :meth:`at`,
    the full result at one dilation, takes its terms from the same formula.
    The arrays are read-only, so threads can share one plan.
    """

    domain: str
    signal: SignalSpec
    wavelet: WaveletSpec
    b: float
    n: int
    lam: int
    coefficients: np.ndarray
    products: np.ndarray
    product_errors: np.ndarray
    power_offset: float
    remainder_scale: float
    config: QuadratureConfig

    def terms(self, a_values) -> tuple[np.ndarray, np.ndarray]:
        """Every term and its error bound at each dilation of ``a_values``.

        Returns two (k, n) arrays for k dilations: row i holds the terms at
        ``a_values[i]``, so a row's sum is the partial sum there.  The
        powers are Python float powers, which numpy's vectorised power does
        not match bit for bit.
        """
        grid = [float(a) for a in a_values]
        for a in grid:
            _check_dilation(a)
        n, offset = self.n, self.power_offset
        powers = np.array([a ** (s + offset) for a in grid for s in range(n)])
        powers.shape = (len(grid), n)
        terms = self.products * powers
        errors = self.product_errors * powers
        if self.domain == "frequency":
            terms /= _TWO_PI
            errors /= _TWO_PI
        return terms, errors

    def at(
        self, a: float, remainder: Union[str, RemainderKind] = "none"
    ) -> ExpansionResult:
        """The expansion at dilation a, with an optional remainder."""
        kind = _as_remainder_kind(remainder)
        frequency = self.domain == "frequency"
        rows, err_rows = self.terms((a,))
        terms, term_errs = rows[0], err_rows[0]
        # ndarray.sum's reduction without its Python wrapper: the same bits
        partial = complex(np.add.reduce(terms))
        part_err = float(np.add.reduce(term_errs))

        rem_val, rem_err = 0.0 + 0.0j, 0.0
        if kind == RemainderKind.IntegralM0:
            remainder_fn = remainder_frequency if frequency else _remainder_time
            rem_val, rem_err = remainder_fn(
                self.signal, self.wavelet, a, self.b, self.n, self.config
            )
        elif kind == RemainderKind.Empirical:
            oracle_fn = cwt_fourier if frequency else cwt_time
            oracle = oracle_fn(self.signal, self.wavelet, a, self.b, self.config)
            rem_val = oracle.value - partial
            rem_err = oracle.abs_error_estimate + part_err
            if frequency:
                rem_val *= _TWO_PI
                rem_err *= _TWO_PI

        return ExpansionResult(
            domain=self.domain,
            a=float(a),
            b=float(self.b),
            n=self.n,
            lam=self.lam,
            terms=terms,
            term_error_estimates=term_errs,
            partial_sum=partial,
            abs_error_estimate=part_err,
            remainder_kind=kind,
            remainder_estimate=rem_val,
            remainder_error_estimate=rem_err,
            remainder_scale=self.remainder_scale,
        )


def expansion_plan(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    b: float,
    n: int,
    domain: str = "frequency",
    config: Optional[QuadratureConfig] = None,
) -> ExpansionPlan:
    """Compute the coefficients and moments of an n-term expansion once.

    ``domain="frequency"`` pairs the wavelet's small-argument coefficients
    with regularized Mellin moments of h(u) = e^{ibu} f_hat(u).  Each moment
    is the closed form (``MellinMethod.ClosedForm``) unless that raises
    ``MellinError`` or its estimate exceeds max(abs_tol, rel_tol*|value|);
    then it is ``mellin_transform``'s ``"auto"`` choice.  That happens for
    the two-sided exponential near b = 0, where the closed form's two
    incomplete Gammas cancel, and for a Gaussian whose |b|/sigma exceeds
    the parabolic cylinder series' range.  ``domain="time"`` pairs the
    signal's Taylor coefficients at b with one-sided wavelet moments in
    closed form (every built-in wavelet has one).

    Each mirror moment is the conjugate of its plus moment, with the same
    estimate, wherever conjugate symmetry gives it (``oracle._real_wavelet``):
    on the frequency route for every signal, since z = s + lam is real, and
    on the time route for the Gaussian wavelets.  So a plan takes one
    moment per nonzero coefficient; the step wavelet's mirror time moment
    is its own, 0.
    """
    if n < 1:
        raise ValueError("need at least one expansion term")
    cfg = config if config is not None else QuadratureConfig()
    lam = wavelet.lam
    if domain == "frequency":
        cs = small_u_coefficients(wavelet, n).coefficients
        h = make_h(signal, b)

        def moment(s, mirror):
            try:
                m = mellin_transform(
                    h, s + lam, MellinMethod.ClosedForm, cfg, mirror=mirror
                )
            except MellinError:
                m = None
            # written so that a NaN estimate also falls back
            if m is None or not m.abs_error_estimate <= max(
                cfg.abs_tol, cfg.rel_tol * abs(m.value)
            ):
                m = mellin_transform(h, s + lam, "auto", cfg, mirror=mirror)
            return m.value, m.abs_error_estimate

        # h(-u) = conj(h(u)) and z is real
        conjugate_mirror = True
        power_offset, remainder_scale = lam - 0.5, 1.0 / _TWO_PI
    elif domain == "time":
        cs = time_coefficients(signal, b, n)

        def moment(s, mirror):
            return _time_moment_closed(wavelet, float(s + 1), mirror)

        conjugate_mirror = _conjugate_time_mirror(wavelet)
        power_offset, remainder_scale = 0.5, 1.0
    else:
        raise ValueError(
            f"unknown expansion domain {domain!r} (choices: frequency, time)"
        )

    products = np.zeros(n, dtype=complex)
    product_errors = np.zeros(n)
    for s in range(n):
        c = cs[s]
        if c == 0.0:
            continue
        m_plus, e_plus = moment(s, False)
        if conjugate_mirror:
            m_minus, e_minus = m_plus.conjugate(), e_plus
        else:
            m_minus, e_minus = moment(s, True)
        # on the time route this equals (-1)**(s+lam-1), the same factor
        msign = mirror_sign(s, lam)
        products[s] = c * (m_plus + msign * m_minus)
        product_errors[s] = abs(c) * (e_plus + abs(msign) * e_minus)
    for arr in (cs, products, product_errors):
        arr.flags.writeable = False
    return ExpansionPlan(
        domain=domain,
        signal=signal,
        wavelet=wavelet,
        b=b,
        n=n,
        lam=lam,
        coefficients=cs,
        products=products,
        product_errors=product_errors,
        power_offset=power_offset,
        remainder_scale=remainder_scale,
        config=cfg,
    )


def convergence_order(a_values, errors) -> float:
    """Least-squares slope of log|error| against log(dilation).

    The closed form of the two-parameter fit, sum (x - xm)(y - ym) over
    sum (x - xm)^2 with x = log a and y = log|error|, each sum exactly
    rounded.  Raises ``ValueError`` unless the two sequences match and hold
    at least two points, every dilation and error is positive, and the
    log-dilations are not all equal (then the slope is undefined).
    """
    a_values = np.asarray(a_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if a_values.shape != errors.shape or a_values.size < 2:
        raise ValueError("need matching arrays with at least two points")
    xs, ys = a_values.ravel().tolist(), errors.ravel().tolist()
    # written so that NaN fails it
    if not all(v > 0.0 for v in xs + ys):
        raise ValueError("dilations and errors must be positive for a log fit")
    xs = [math.log(v) for v in xs]
    ys = [math.log(v) for v in ys]
    if min(xs) == max(xs):
        raise ValueError("the dilations must not all be equal")
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    sxy = math.fsum(d * (y - y_mean) for d, y in zip(dx, ys))
    return sxy / math.fsum(d * d for d in dx)
