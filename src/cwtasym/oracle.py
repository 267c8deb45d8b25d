"""Ground-truth CWT evaluation by adaptive quadrature, two independent routes.

``cwt_time`` integrates the signal against the scaled wavelet in the time
domain, a whole grid of dilations on one shared mesh; ``cwt_fourier``
integrates the product of Fourier transforms over the line folded onto
one half-line, g(x) + g(-x), one dilation per call.  The two share no
analytic ingredients beyond the transform pair definitions, so their
agreement is a meaningful cross-check.

When the signal transform decays only algebraically, f_hat(w) ~ sum_r b_r
w^-(r + beta), a side whose cut lies past a radius R is split there; R
starts at max(16, 2q) (q the series' apparent convergence radius) and
doubles until the bound on truncating the series, valid for |w| >= 2q, is
below half the absolute tolerance (``_split_radius``).  [0, R] is part of
the folded quadrature of the exact integrand; above R the analytic-tail
engine ``_alg_tail`` integrates the series against the wavelet.

The two-sided exponential of time scale s, the one such built-in, has the
transform 2s/(1 + s^2 w^2) with poles at +-i/s, and q = 1/s is their
distance from the real line.  The folded head's first mesh, split or not,
has edges at q/2 and q 2^k below its upper end (``_octaves``): no panel
is wider than its distance from the poles, and one GK15 pass usually meets
the target.  In the tail:

* the step wavelet's tail is closed form, one incomplete Gamma per phase;
* the Gaussian wavelets' tail e^{i rate w} series(w) conj(psi_hat)(+-a w),
  rate = +-b, is analytic for Re w >= R >= 2q, which keeps the poles of
  f_hat (|w| <= q) outside, so the path moves onto the steepest-descent ray
  w = R + i sgn(rate) y and stops at the least height whose closing
  horizontal line is bounded by a quarter of the absolute tolerance (that
  bound is at most about e^{-rate^2/(2a^2)}, at height |rate|/a^2).  Where
  no height meets it (|b| of order a or less), the series is integrated
  along the real axis up to the Gaussian cut instead, on a first mesh of
  one panel per octave of w; where that cut is below R the side is not
  split, and the fold covers it up to the cut.

A real wavelet's - side tail is the conjugate of its + side's, so only
the + side's is computed (``_fold_integrand`` states where conjugate
symmetry holds).  The truncation bound, the horizontal-line bound and
every quadrature's estimate are added to the result's error estimate, and
the quadratures' counts and worst status are carried into it.  This
module is the one owner of the Fourier tail engine: no other module
integrates a split line's tail against the wavelet.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Optional, Sequence, Union

import numpy as np

from .quadrature import (
    QuadratureConfig,
    QuadratureResult,
    TRUNCATION_RADIUS,
    _cut_radius,
    _envelope_tail_bound,
    integrate,
    within_tolerance,
    worst_status,
)
from .signals import SignalSpec
from .specfun import _SQRT_2PI, _TWO_PI, horner, oscillatory_power_tails
from .wavelets import WaveletSpec, psi_conj, psi_hat_conj

# Least split radius for signals whose transform decays algebraically.  The
# step wavelet's three closed-form phases cancel to about (aR)^2 of their
# size, so at small a their rounding sets the error: at a = 2e-3 it is
# 1.5e-13 from R = 1 and 3e-16 from R = 16, past the tolerance at R = 1.
_SPLIT_START = 16.0

# Widest first panel of a Gaussian wavelet's transform on a head meshed by
# octaves (``cwt_fourier``), in units of 1/a, the transform's own scale in
# w.  On the perfbench ``oracle`` lists of seeds 5 and 201, the two-sided
# exponential's Morlet and Mexican-hat heads took at most 1.01 GK15 passes
# per task with it, up to 1.06 with 2.5 and up to 1.11 with no cap.
_WAVELET_PANEL = 1.5

# Most dilations ``cwt_time`` puts on one mesh.  Its memory grows with the
# dilations on it, and one bisection budget serves them all.
_GRID_BLOCK = 32


def cwt_time(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    a: Union[float, Sequence[float]],
    b: float,
    config: Optional[QuadratureConfig] = None,
) -> Union[QuadratureResult, list]:
    """Transform value W(b, a) from the time-domain definition.

    ``a`` is one dilation, giving one result, or a sequence of them, giving
    one result per dilation in order.  In wavelet coordinates every
    dilation integrates f(b + a*s) conj(psi)(s) over the same s, so a
    sequence is one vector-valued quadrature on a shared mesh (at most
    ``_GRID_BLOCK`` dilations per mesh), with breakpoints at every
    dilation's kinks and peaks.  The step wavelet's integral is over its
    support; the Gaussian wavelets' line is cut once, at the radius the
    cut rule (``_cut_radius``, power 0) gives for sup|f| times the
    wavelet's envelope at abs_tol, and both sides' tail bounds
    (``_envelope_tail_bound``) join each error estimate.  The first mesh
    is at the wavelet's own scale (``wavelet.time_panel_width``: panels at
    most min(0.7, 0.4 T) wide for the modulated Gaussian of period T, 1
    for the Mexican hat), on which one GK15 pass usually meets the target
    or leaves only a negligible excess over the roundoff floors.

    A result is ``converged`` when the quadrature of the unscaled integral
    I converged and, in the units returned, sqrt(a)*err is also within 10x
    max(abs_tol, rel_tol*sqrt(a)*|I|); for a <= 1 the first implies the
    second.
    """
    grid = np.asarray(a, dtype=float)
    if not (grid > 0.0).all():
        raise ValueError("the dilation parameter must be positive")
    cfg = config if config is not None else QuadratureConfig()
    flat = grid.reshape(-1)
    results = []
    for start in range(0, flat.size, _GRID_BLOCK):
        block = flat[start:start + _GRID_BLOCK]
        results.extend(_cwt_time_block(signal, wavelet, block, b, cfg))
    return results[0] if grid.ndim == 0 else results


def _cwt_time_block(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    grid: np.ndarray,
    b: float,
    cfg: QuadratureConfig,
) -> list:
    """``cwt_time`` at each dilation of ``grid``, on one shared mesh."""
    f = signal.f_time
    scales = grid[:, None]
    dilations = grid.tolist()

    def integrand(s):
        return f(b + scales * s) * psi_conj(wavelet, s)

    breakpoints = [(k - b) / a for a in dilations for k in signal.kinks]
    breakpoints += [(p - b) / a for a in dilations for p in signal.peaks]

    if wavelet.time_support is not None:
        lo, hi = wavelet.time_support
        inner = [0.5] + [p for p in breakpoints if lo < p < hi]
        res = integrate(integrand, (lo, hi), cfg, breakpoints=inner)
    else:
        # abs_tol is at most every dilation's target, so one cut serves
        # the whole grid.
        kind, c_w, rate = wavelet.time_envelope
        envelope = (kind, c_w * signal.sup_time, rate)
        radius = _cut_radius(envelope, cfg.abs_tol)
        res = integrate(
            integrand,
            (-radius, radius),
            cfg,
            breakpoints=breakpoints,
            panel_width=wavelet.time_panel_width,
            tail_bound=2.0 * _envelope_tail_bound(envelope, radius),
        )
    out = []
    for a, r in zip(dilations, res):
        root_a = math.sqrt(a)
        value, err = r.value * root_a, r.abs_error_estimate * root_a
        out.append(QuadratureResult(
            value,
            err,
            r.n_evaluations,
            r.n_panels,
            r.converged and within_tolerance(value, err, cfg),
            r.status,
        ))
    return out


def _fourier_side_hints(wavelet: WaveletSpec, sign: int, a: float, b: float):
    """Panel breakpoints and widest first panel for one half-line integrand.

    The breakpoints sit at the features of the wavelet transform at sign*a*w
    (``wavelet.side_features``, |u|/a); the panel width is half a period of
    e^{i*sign*b*w}, its phase rate |b| raised by the fastest of the
    wavelet's own phases, mu*a.  Callers add their own extra breakpoints to
    the returned list.
    """
    breakpoints = [u / a for u in wavelet.side_features[0 if sign > 0 else 1]]
    osc = abs(b)
    if wavelet.phases:
        osc += a * max(mu for _, mu in wavelet.phases)
    width = math.pi / osc if osc > 0.0 else None
    return breakpoints, width


def _fold_integrand(g, wavelet: WaveletSpec):
    """The folded integrand g(x) + g(-x), x >= 0, of a line integral of g.

    A complex wavelet's g is evaluated once on the nodes and their
    mirrors: one call on 2N nodes costs less than two on N, and the sums
    are the same bits.  Where conjugate symmetry holds, the one place it is
    stated: every built-in signal is real and even, so f_hat is real, and
    against a real wavelet (``wavelet.real``) the Fourier integrand has
    g(-w) = conj(g(w)): the pair is 2 Re g(x), exactly real, from one
    evaluation per node, and a split line's - side Abel tail is the
    conjugate of its + side's (``cwt_fourier``).
    """
    if not wavelet.real:

        def integrand(x):
            x = np.asarray(x, dtype=float)
            both = g(np.concatenate((x, -x)))
            return both[:x.size] + both[x.size:]

    else:

        def integrand(x):
            return 2.0 * g(np.asarray(x, dtype=float)).real

    return integrand


def _gauss_wavelet_cut(
    wavelet: WaveletSpec, sign: int, a: float, sup_freq: float, delta: float
):
    """Cut radius for a Gaussian wavelet's transform, and its tail bound.

    Against a signal transform bounded by ``sup_freq``,
    |conj(psi_hat)(sign*a*w)| is at most sqrt(2 pi) sup_freq v^k e^{-v^2/2}
    in v = a*w - sign*u0, k = ``wavelet.gauss_power`` (0 for the modulated
    Gaussian, 2 for the Mexican hat).  Per unit of v (dw = dv/a) that is
    the cut rule's envelope ("gauss", sqrt(2 pi) sup_freq/a, 1/2) with
    power k: the cut is its ``_cut_radius`` at ``delta`` mapped back to w,
    and the bound beyond any radius its ``_envelope_tail_bound`` there
    (infinite where v has not passed the range where that bound holds).
    """
    power = wavelet.gauss_power
    if power is None:
        raise ValueError(f"the {wavelet.kind.value!r} transform has no Gaussian cut")
    shift = sign * wavelet.u0
    envelope = ("gauss", _SQRT_2PI * sup_freq / a, 0.5)

    def t_w(u):
        return _envelope_tail_bound(envelope, a * u - shift, power)

    return (_cut_radius(envelope, delta, power) + shift) / a, t_w


def _series_truncation(signal: SignalSpec) -> tuple[float, float]:
    """The stored inverse-power series of f_hat and what it omits.

    With K = len(tail_coeffs) stored terms and the first nonzero one b_r0,
    the stored terms fix an apparent convergence radius
    q = max_r (|b_r|/|b_r0|)^(1/(r - r0)).  Assuming the omitted terms keep
    |b_r| <= |b_r0| q^(r - r0), past |v| >= 2q (complex v too) they sum to
    at most 2 |b_r0| q^(K - r0) |v|^-(K + beta).  Returns q and that
    factor 2 |b_r0| q^(K - r0).
    """
    coeffs = signal.tail_coeffs
    nonzero = [r for r, c in enumerate(coeffs) if c != 0.0]
    if not nonzero:
        return 0.0, 0.0  # an all-zero series (zero amplitude) is exact
    r0 = nonzero[0]
    b0 = abs(coeffs[r0])
    q = max(
        ((abs(coeffs[r]) / b0) ** (1.0 / (r - r0)) for r in nonzero[1:]),
        default=0.0,
    )
    return q, 2.0 * b0 * q ** (len(coeffs) - r0)


def _split_radius(
    signal: SignalSpec, weight: float, start: float, cfg: QuadratureConfig
) -> tuple[float, float, float]:
    """Radius past which f_hat is replaced by its inverse-power series.

    Starts at max(start, 2q) (see ``_series_truncation``) and doubles until
    the bound on the integral over (R, inf) of ``weight`` times the
    series' truncation error is below half the absolute tolerance or the
    radius reaches the truncation cap.  Returns the radius, that bound and
    q: for the two-sided exponential of time scale s, whose transform
    2s/(1 + s^2 w^2) has poles at +-i/s, q = 1/s is the poles' distance
    from the real line, the scale of the head's octave mesh below the
    radius (``cwt_fourier``).
    """
    q, omitted = _series_truncation(signal)
    decay = len(signal.tail_coeffs) + signal.tail_beta

    def truncation(radius: float) -> float:
        return omitted * (weight * radius ** (1.0 - decay) / (decay - 1.0))

    radius = max(start, 2.0 * q)
    while truncation(radius) > 0.5 * cfg.abs_tol and radius < TRUNCATION_RADIUS:
        radius = min(2.0 * radius, TRUNCATION_RADIUS)
    return radius, truncation(radius), q


def _octaves(start: float, end: float) -> list:
    """Panel edges start * 2^k, k >= 0, below ``end`` (none unless start > 0).

    Each panel between two edges is at most as wide as its distance from
    0, so a singularity near 0, such as a pole at +-iq with start <= q, is
    at least one panel width away from every panel: the Bernstein ellipse
    of each is at least as large, and a Gauss rule converges on each at
    least at one rate (Trefethen, Approximation Theory and Approximation
    Practice, SIAM 2013, ch. 19).  At most about two thousand edges,
    between the least positive float and the largest.
    """
    edges = []
    edge = start
    while 0.0 < edge < end:
        edges.append(edge)
        edge *= 2.0
    return edges


def _side_coeffs(signal: SignalSpec, sign: int) -> list:
    """The tail series of f_hat(sign*v), v > 0 (conjugated on the mirror side)."""
    if sign > 0:
        return list(signal.tail_coeffs)
    return [complex(c).conjugate() for c in signal.tail_coeffs]


def _tail_series(coeffs, beta: float, w: np.ndarray) -> np.ndarray:
    """sum_r coeffs[r] * w^-(r + beta) by Horner in 1/w (principal branch)."""
    return horner(coeffs, 1.0 / w) * np.exp(-beta * np.log(w))


def _phase_alg_tail(
    signal: SignalSpec, wavelet: WaveletSpec, sign: int, a: float, b: float,
    radius: float,
) -> tuple[complex, float]:
    """int_radius^inf conj(psi_hat)(sign*a*w) e^{i*sign*b*w} f_hat(sign*w) dw.

    For a transform of pure phases over u, (i/u) sum amp e^{i mu u}
    (``wavelet.phases``; the step wavelet's is (i/u)(1 - 2 e^{iu/2} +
    e^{iu})).  Against the inverse-power series of the signal transform
    (``signal.tail_coeffs``) every product is a closed-form oscillatory
    power integral; the orders of one phase differ by integers, so each
    phase takes one incomplete Gamma.  Returns the value and the error of
    those integrals; the error of truncating the series is the caller's to
    bound.
    """
    beta = signal.tail_beta
    cs = _side_coeffs(signal, sign)
    tail_val = 0.0 + 0.0j
    tail_err = 0.0
    for amp, mu in wavelet.phases:
        phase_rate = sign * (b + mu * a)
        terms = oscillatory_power_tails(-beta, len(cs), phase_rate, radius)
        for c_r, (term, err) in zip(cs, terms):
            if c_r == 0.0:
                continue
            coef = 1j * c_r * amp / (sign * a)
            tail_val += coef * term
            tail_err += abs(coef) * err
    return tail_val, tail_err


def _ray_height(
    wavelet: WaveletSpec, a: float, rate: float, size: float, delta: float
) -> Optional[tuple[float, float]]:
    """Height y of the ray w = R + i*sgn(rate)*y at which to close the contour.

    The integral along the horizontal line Im w = sgn(rate)*y, Re w >= R,
    is at most C * size * e^{a^2 y^2/2 - |rate| y}: ``size`` bounds the
    series there, e^{-|rate| y} is the phase factor, and C e^{a^2 y^2/2}
    bounds the line integral of the wavelet for y up to Y = |rate|/a^2,
    where the bound is least (``wavelet.ray_log_line`` gives log C).
    Returns the least y whose bound is ``delta`` (0 if it already is at
    y = 0) and that bound, or None if no y <= Y reaches it: there the ray
    cannot pay.  The bound is taken in logarithms, so that no dilation
    small enough to overflow 1/a or underflow a^3 breaks it.
    """
    log_line = wavelet.ray_log_line(a, rate)
    log_ratio = log_line + math.log(size / delta) if size > 0.0 else -math.inf
    if log_ratio <= 0.0:
        return 0.0, delta * math.exp(log_ratio)
    disc = rate * rate - 2.0 * a * a * log_ratio
    if not disc > 0.0:
        return None
    # Smaller root of a^2 y^2/2 - |rate| y + log_ratio, without cancellation.
    height = 2.0 * log_ratio / (abs(rate) + math.sqrt(disc))
    exponent = log_ratio + a * a * height * height / 2.0 - abs(rate) * height
    return height, delta * math.exp(exponent)


def _alg_tail(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    sign: int,
    a: float,
    b: float,
    radius: float,
    cfg: QuadratureConfig,
) -> QuadratureResult:
    """int_R^inf conj(psi_hat)(sign*a*v) e^{i*sign*b*v} f_hat(sign*v) dv, R = radius.

    f_hat is replaced by its inverse-power series sum_r b_r v^-(r + beta)
    (``signal.tail_coeffs``); bounding that truncation is the caller's
    (``_split_radius``).  A transform of pure phases (the step wavelet's)
    has a closed-form tail (``_phase_alg_tail``).  For a Gaussian one the
    integrand e^{i*rate*w} * series(w) * conj(psi_hat)(sign*a*w), rate =
    sign*b, is analytic for Re w > 0, so the path moves onto the ray
    w = R + i*sgn(rate)*y, where e^{i*rate*w} decays instead of oscillating,
    up to the height from ``_ray_height``; the horizontal line closing the
    contour there is bounded, not integrated.  Where that bound cannot reach
    the tolerance (|rate| of order a or less), the series is integrated
    along the real axis up to the Gaussian cut instead, with breakpoints at
    R 2^k: at small dilations the cut lies many decades past R, and panels
    wider than the series' scale near R would miss its bulk.
    """
    if wavelet.phases:
        value, err = _phase_alg_tail(signal, wavelet, sign, a, b, radius)
        return QuadratureResult(value, err, 0, 0, True)

    coeffs = _side_coeffs(signal, sign)
    beta = signal.tail_beta
    rate = sign * b
    # |series(w)| for |w| >= R, the sup the Gaussian bounds need.
    size = sum(abs(c) * radius ** -(r + beta) for r, c in enumerate(coeffs))
    delta = 0.5 * cfg.abs_tol
    cut, t_w = _gauss_wavelet_cut(wavelet, sign, a, size, delta)
    if cut <= radius:
        return QuadratureResult(0.0j, t_w(radius), 0, 0, True)

    ray = _ray_height(wavelet, a, rate, size, 0.5 * delta)
    if ray is None:

        def on_axis(v):
            v = np.asarray(v, dtype=float)
            return (
                np.exp(1j * rate * v)
                * _tail_series(coeffs, beta, v.astype(complex))
                * psi_hat_conj(wavelet, sign * a * v)
            )

        breakpoints, width = _fourier_side_hints(wavelet, sign, a, b)
        # The series varies on the scale of v itself: one panel per octave.
        breakpoints += _octaves(2.0 * radius, cut)
        return integrate(
            on_axis,
            (radius, cut),
            cfg,
            breakpoints=breakpoints,
            panel_width=width,
            tail_bound=t_w(cut),
        )
    height, line_bound = ray
    if height == 0.0:
        return QuadratureResult(0.0j, line_bound, 0, 0, True)

    up = 1.0 if rate > 0.0 else -1.0
    start = 1j * up * cmath.exp(1j * rate * radius)
    # e^{i rate w} = e^{i rate R} e^{-|rate| y} on the ray.

    def on_ray(y):
        y = np.asarray(y, dtype=float)
        w = radius + 1j * up * y
        return (
            start
            * np.exp(-abs(rate) * y)
            * _tail_series(coeffs, beta, w)
            * psi_hat_conj(wavelet, sign * a * w)
        )

    # The wavelet's Gaussian turns along the ray at a*|sign*a*R - u0|.
    turn = a * abs(sign * a * radius - wavelet.u0)
    return integrate(
        on_ray,
        (0.0, height),
        cfg,
        panel_width=math.pi / turn if turn > 0.0 else None,
        tail_bound=line_bound,
    )


def cwt_fourier(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    a: float,
    b: float,
    config: Optional[QuadratureConfig] = None,
) -> QuadratureResult:
    """Transform value W(b, a) from the frequency-domain definition.

    sqrt(a)/(2 pi) times the integral of g(w) = e^{ibw} f_hat(w)
    conj(psi_hat)(a w) over the line, folded onto one quadrature of
    g(x) + g(-x) over [0, L] (2 Re g(x) for the real wavelets, the Mexican
    hat and the step), with the panel breakpoints of both sides.
    Each side w = sign*x is cut where the signal's or the wavelet's decay
    bound leaves half the absolute tolerance, and that side's tail bound
    joins the quadrature's.  For a signal whose transform decays
    algebraically, a side whose cut lies past the split radius R from
    ``_split_radius`` is split there instead: the fold covers it up to R,
    the analytic tail (``_alg_tail``) above, and the series' truncation
    bound joins the error estimate.  L is R where a side is split (the
    other side's cut is then at most R), otherwise the larger cut.  A real
    wavelet's sides have equal cuts, so both are split or neither, and its
    - side's tail is the conjugate of its + side's (``_fold_integrand``):
    one analytic tail, whose counts the result carries once.

    The fold's first mesh has the breakpoints of both sides
    (``_fourier_side_hints``) and of ``wavelet.head_features``, and panels
    at most half a period of e^{ibw}; for an algebraically decaying signal,
    split or not, it also has an edge at each octave q 2^k from q/2 below
    L (``_octaves``), q from ``_split_radius`` (for the two-sided
    exponential, the distance of f_hat's poles from the real line), and a
    Gaussian wavelet's first panels are at most ``_WAVELET_PANEL``/a wide.

    A result is ``converged`` when its quadratures converged and, in the
    units returned (after the factor sqrt(a)/(2 pi)), its whole estimate,
    tails and truncation bounds included, is within 10x
    max(abs_tol, rel_tol*|W|), as ``cwt_time``'s is.
    """
    if not a > 0.0:
        raise ValueError("the dilation parameter must be positive")
    cfg = config if config is not None else QuadratureConfig()
    split = None
    if math.isfinite(signal.tail_beta):
        split = _split_radius(signal, wavelet.hat_sup, _SPLIT_START, cfg)
    f_freq = signal.f_freq

    def g(w):
        return np.exp(1j * b * w) * f_freq(w) * psi_hat_conj(wavelet, a * w)

    # (cut radius, tail bound beyond any radius) from each decay bound
    delta = 0.5 * cfg.abs_tol
    kind, c_f, p_f = signal.freq_envelope
    env_f = (kind, c_f * wavelet.hat_sup, p_f)
    signal_cut = (_cut_radius(env_f, delta), lambda u: _envelope_tail_bound(env_f, u))
    # both sides' features as distances from 0; both have the period of
    # e^{ibw}, so one panel width
    breakpoints, width = _fourier_side_hints(wavelet, 1, a, b)
    mirrored, _ = _fourier_side_hints(wavelet, -1, a, b)
    breakpoints += mirrored + [u / a for u in wavelet.head_features]
    reach, tail_bound, tails = 0.0, 0.0, []
    for sign in (1, -1):
        cuts = [signal_cut]
        if wavelet.gauss_power is not None:
            cuts.append(_gauss_wavelet_cut(wavelet, sign, a, signal.sup_freq, delta))
        cut = min(min(c for c, _ in cuts), TRUNCATION_RADIUS)
        if split is not None and split[0] < cut:
            if tails and wavelet.real:
                # both sides' cuts are equal; the - side's tail mirrors the
                # + side's and costs no evaluation
                plus = tails[0]
                tails.append(dataclasses.replace(
                    plus, value=plus.value.conjugate(), n_evaluations=0, n_panels=0
                ))
            else:
                tails.append(_alg_tail(signal, wavelet, sign, a, b, split[0], cfg))
        else:
            reach = max(reach, cut)
            tail_bound += min(t(cut) for _, t in cuts)

    upper = split[0] if tails else reach
    if split is not None:
        # no panel wider than its distance from the poles; a Gaussian
        # wavelet's first panels at most its transform's own scale, since
        # ``integrate`` splits every panel evenly only on a mesh of fewer
        # than eight and the octave edges alone would leave its flanks on
        # single wide panels at dilations of order one
        breakpoints += _octaves(0.5 * split[2], upper)
        if wavelet.gauss_power is not None:
            width = min(width or math.inf, _WAVELET_PANEL / a)
    head = integrate(
        _fold_integrand(g, wavelet),
        (0.0, upper),
        cfg,
        breakpoints=breakpoints,
        panel_width=width,
        tail_bound=tail_bound,
    )
    factor = math.sqrt(a) / _TWO_PI
    value = (head.value + sum(t.value for t in tails)) * factor
    err = (
        head.abs_error_estimate
        + sum(t.abs_error_estimate + split[1] for t in tails)
    ) * factor
    parts = (head, *tails)
    return QuadratureResult(
        value=value,
        abs_error_estimate=err,
        n_evaluations=sum(p.n_evaluations for p in parts),
        n_panels=sum(p.n_panels for p in parts),
        converged=(all(p.converged for p in parts)
                   and within_tolerance(value, err, cfg)),
        status=worst_status("tolerance", *(p.status for p in parts)),
    )
