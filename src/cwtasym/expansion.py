"""Small-dilation asymptotic expansion of the CWT with computable remainders.

Both routes expand W(b, a) = sqrt(a) int f(b + a t) conj(psi)(t) dt as
sum_s P_s a^(s + 1/2) with P_s = s! (-i)^s c^f_s(b) c^psi_s, from the
signal's Taylor coefficients at b (``signals.time_coefficient_table``)
and the conjugated wavelet transform's at zero
(``wavelets.small_u_coefficients``).  s! (-i)^s c^psi_s is the wavelet's
moment int t^s conj(psi)(t) dt, the time route's; s! (-i)^s c^f_s(b) is
(1/2pi) int u^s e^{ibu} f_hat(u) du, the frequency route's Mellin moment
of h(u) = e^{ibu} f_hat(u) plus its mirror (Wong's Mellin-convolution
technique).  So the routes differ only in their remainders and empirical
oracles; the moments (``mellin_transform``, ``checks._time_moment_closed``,
``_time_moment_quadrature``) stay as references for the checks
(``checks.moment_products``) and tests.  Each P_s carries an a-priori
bound on its rounding, from the tables' bounds (which count the Hermite
recurrence's conditioning at large |b| or u0 and the scaled signal's
residual step) and the product's own roundings.

Each exact remainder integrates the Taylor tail of one factor (from
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
``cwt_fourier`` uses.  The remainder can also be estimated empirically
against the brute-force oracle.

``expansion_plan`` computes the products, which do not depend on the
dilation, once; ``ExpansionPlan.terms`` evaluates the terms at a whole grid
of dilations in one array product, and ``ExpansionPlan.at`` the expansion
at one dilation from the same formula.  That is the one way to build an
expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .oracle import (
    _alg_tail,
    _fold_hints,
    _fold_integrand,
    _pole_mesh,
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
    time_coefficient_table,
    time_coefficients,
)
from .specfun import (_EPS, _TAIL_TERMS, _TINY, _TWO_PI, SpecFunError,
                      _cpow, oscillatory_power_tails, taylor_tail)
from .wavelets import (
    WaveletSpec,
    psi_conj,
    psi_hat_tail_evaluator,
    small_u_coefficients,
)

_TAIL_CUTOVER = 0.25
# Least number of first panels over the folded frequency head [0, upper]
# of a fast-decaying signal: the half period pi/|b| alone is 1,571 wide at
# b = 0.002, and such a mesh bisects, while a fixed width cap of 1 doubles
# the Lorentzian's nodes.
_HEAD_PANELS = 16
# (-i)^s by s mod 4: multiplying by one of these is exact
_MINUS_I_POW = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)


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
        raise SpecFunError(f"remainder tail term diverges: {exc}") from None
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
    (``oracle._fold_integrand``).  For a real wavelet (``wavelet.real``:
    the Mexican hat, the step) against a real signal that is 2 Re g(x), one
    evaluation per node, and the remainder is exactly real; for the
    modulated Gaussian, g is evaluated once on the nodes and their mirrors.
    The breakpoints are both sides' features (``oracle._fold_hints``) and
    cutover/a, where psi_tail's series branch ends; the first panels are no
    wider than the helper's half period of the phase, about pi/|b|, and
    upper/16, except where f_hat decays algebraically: there the head
    takes the Fourier oracle's first mesh (``oracle._pole_mesh``), an edge
    at each octave from half the poles' distance and Gaussian-wavelet
    panels at most 1.5/a wide, in place of the upper/16 cap.  On the
    perfbench ``remainder`` lists of seeds 5 and 201 (seconds 10, 57
    two-sided-exponential frequency tasks per wavelet) that took the head
    from 1.02-1.26 GK15 passes and 248-261 nodes per task to 1.00 and
    165-181; the octave edges with the cap kept took it to 1.00 passes
    but 286-295 nodes.

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
    + side's (``oracle._fold_integrand``), so only the + side is computed.

    R is doubled from there until the bound on truncating the series (in
    both tails) is below half the absolute tolerance; that bound is part of
    the returned error estimate, as is the bound on truncating psi_tail's
    own series, against int |h| = 2*pi*|f(0)| (every built-in's transform
    is nonnegative, so that is at most 2*pi*sup_time).
    """
    _check_dilation(a)
    cfg = config if config is not None else QuadratureConfig()
    h = make_h(signal, b)
    psi_tail, cutover, series_err, cs = psi_hat_tail_evaluator(wavelet, n)
    tails, err = 0.0 + 0.0j, series_err * _TWO_PI * signal.sup_time

    if math.isfinite(signal.tail_beta):
        weights = [(abs(c) * a ** s, s) for s, c in enumerate(cs) if c != 0.0]
        weights.append((wavelet.hat_sup, 0))  # the wavelet tail's series
        upper, truncation, q = _split_radius(signal, weights, cutover / a, cfg)
        tail_bound = 0.0
        for sign in (1, -1):
            if sign < 0 and wavelet.real:
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
    if math.isfinite(signal.tail_beta):
        breakpoints, width = _pole_mesh(breakpoints, width, wavelet, a, q, upper)
    else:
        cap = upper / _HEAD_PANELS
        width = cap if width is None else min(width, cap)
    head = integrate(
        _fold_integrand(g, wavelet),
        (0.0, upper),
        cfg,
        breakpoints=breakpoints,
        panel_width=width,
        tail_bound=tail_bound,
    )
    root_a = math.sqrt(a)
    return root_a * (head.value + tails), root_a * (head.abs_error_estimate + err)


def _time_route_panel_width(wavelet: WaveletSpec) -> Optional[float]:
    """Widest first panel of the time route's remainder and its moment
    reference, in wavelet coordinates.

    Half the period for the modulated Gaussian: the Taylor tail, or
    t^(nu-1), times the wavelet converges in about one pass on it, and the
    finer ``wavelet.time_panel_width`` (at most 0.4 of the period) adds
    nodes: on the perfbench ``remainder`` task lists of seeds 5 and 201,
    the modulated Gaussian's time remainders took 80,040 GK15 nodes on it
    and 69,615 on half periods.  Otherwise ``time_panel_width``: unit
    panels for the Mexican hat, and None for the step wavelet, whose mesh
    is its support.
    """
    period = wavelet.time_period
    return wavelet.time_panel_width if period is None else 0.5 * period


def _time_moment_quadrature(
    wavelet: WaveletSpec, nu: float, mirror: bool, cfg: QuadratureConfig
) -> tuple[complex, float]:
    """One-sided wavelet moment int_0^inf t^(nu-1) conj(psi)(+-t) dt.

    The tests' reference for ``checks._time_moment_closed``: the Gaussian
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

    f_tail(x) = f(b + x) less its first n Taylor terms is
    ``specfun.taylor_tail`` on one table of the signal's coefficients at b,
    whose first n also size the line's tail bound.  Below the cutover it
    sums the series, above it subtracts directly.  The cutover scales with
    the signal's time scale, as the series' radius does, and stays below
    0.45 of the distance to a kink.  Where the coefficients past the n-th
    do not exist (the two-sided exponential at its kink, or a scaled
    signal whose longer table leaves the float range), the table holds n
    and every argument takes the direct subtraction.
    """
    try:
        cs = time_coefficients(signal, b, n + _TAIL_TERMS)
    except ValueError:
        cs = time_coefficients(signal, b, n)
    cutover = _TAIL_CUTOVER * signal.time_scale
    for k in signal.kinks:
        gap = abs(b - k)
        if gap > 0.0:
            cutover = min(cutover, 0.45 * gap)
    f_tail, series_err = taylor_tail(
        lambda x: signal.f_time(b + x), cs, n, cutover
    )

    def integrand(s):
        s = np.asarray(s, dtype=float)
        return f_tail(a * s) * psi_conj(wavelet, s)

    breakpoints = [cutover / a, -cutover / a]
    breakpoints += [(k - b) / a for k in signal.kinks]
    if wavelet.time_support is not None:
        (lo, hi), tail_bound = wavelet.time_support, 0.0
        breakpoints.append(0.5)  # the step wavelet's jump
    else:
        cs_abs = float(np.sum(np.abs(cs[:n])))
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
    err = res.abs_error_estimate + series_err * wavelet.l1_norm
    root_a = math.sqrt(a)
    return root_a * res.value, root_a * err


@dataclass(frozen=True)
class ExpansionPlan:
    """The dilation-independent part of an n-term expansion of W(b, a).

    Term s at dilation a is ``products[s] * a**(s + 1/2)`` on both routes,
    with products[s] = P_s = s! (-i)^s c^f_s(b) c^psi_s, and
    ``product_errors[s]`` bounds its rounding.  Neither depends on a, so
    :meth:`terms` evaluates every term at a whole grid of dilations in one
    array product, and :meth:`at`, the full result at one dilation, takes
    its terms from the same formula; ``domain`` picks only the remainder
    and the empirical oracle.  The arrays are read-only, so a caller
    cannot change a plan's terms.
    """

    domain: str
    signal: SignalSpec
    wavelet: WaveletSpec
    b: float
    n: int
    products: np.ndarray
    product_errors: np.ndarray
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
        n = self.n
        powers = np.array([a ** (s + 0.5) for a in grid for s in range(n)])
        powers.shape = (len(grid), n)
        return self.products * powers, self.product_errors * powers

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
            terms=terms,
            term_error_estimates=term_errs,
            partial_sum=partial,
            abs_error_estimate=part_err,
            remainder_kind=kind,
            remainder_estimate=rem_val,
            remainder_error_estimate=rem_err,
            remainder_scale=1.0 / _TWO_PI if frequency else 1.0,
        )


def expansion_plan(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    b: float,
    n: int,
    domain: str = "frequency",
    config: Optional[QuadratureConfig] = None,
) -> ExpansionPlan:
    """The n products P_s = s! (-i)^s c^f_s(b) c^psi_s of an expansion, once.

    P_s's bound is s! (e^f |c^psi| + |c^f| e^psi + e^f e^psi), from the
    tables' bounds e^f and e^psi, plus 2 eps |P_s| and one least subnormal
    for its own roundings, or 0 where a factor is an exact zero.  ``domain``
    ("frequency" or "time") selects only the remainder and the empirical
    oracle.  At a kink of the signal (the two-sided exponential at b = 0)
    the coefficients past order zero do not exist: n > 1 raises ValueError.
    """
    if n < 1:
        raise ValueError("need at least one expansion term")
    if domain not in ("frequency", "time"):
        raise ValueError(
            f"unknown expansion domain {domain!r} (choices: frequency, time)"
        )
    cf, ef = time_coefficient_table(signal, b, n)
    table = small_u_coefficients(wavelet, n)
    # s! c^psi_s, the s-th derivative of conj(psi_hat) at 0, is of moderate
    # size where s! and c^psi_s are not
    fact = np.array([float(math.factorial(s)) for s in range(n)])
    deriv, deriv_err = fact * table.coefficients, fact * table.error_estimates
    products = deriv * cf * np.array([_MINUS_I_POW[s % 4] for s in range(n)])
    live = ((cf != 0.0) | (ef > 0.0)) & ((deriv != 0.0) | (deriv_err > 0.0))
    product_errors = (ef * np.abs(deriv) + np.abs(cf) * deriv_err + ef * deriv_err
                      + np.where(live, 2.0 * _EPS * np.abs(products) + _TINY, 0.0))
    for arr in (products, product_errors):
        arr.flags.writeable = False
    cfg = config if config is not None else QuadratureConfig()
    return ExpansionPlan(domain=domain, signal=signal, wavelet=wavelet, b=b,
                         n=n, products=products, product_errors=product_errors,
                         config=cfg)


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
