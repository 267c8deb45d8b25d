"""Small-dilation asymptotic expansion of the CWT with its exact remainder.

The expansion writes W(b, a) = sqrt(a) int f(b + a t) conj(psi)(t) dt as
sum_s P_s a^(s + 1/2) with P_s = s! (-i)^s c^f_s(b) c^psi_s, from the
signal's Taylor coefficients at b (``signals.time_coefficient_table``)
and the conjugated wavelet transform's at zero
(``wavelets.small_u_coefficients``).  s! (-i)^s c^psi_s is the wavelet's
moment int t^s conj(psi)(t) dt, the time route's; s! (-i)^s c^f_s(b) is
(1/2pi) int u^s e^{ibu} f_hat(u) du, the frequency route's Mellin moment
of h(u) = e^{ibu} f_hat(u) plus its mirror (Wong's Mellin-convolution
technique).  The moments (``mellin_transform``,
``checks._time_moment_closed``, ``_time_moment_quadrature``) stay as
references for the checks (``checks.moment_products``) and tests.  Each
P_s carries an a-priori bound on its rounding, from the tables' bounds
(which count the Hermite recurrence's conditioning at large |b| or u0 and
the scaled signal's residual step) and the product's own roundings.

The exact remainder delta_n(a), W(b, a) less the n terms, is computed one
way (``_remainder_time``): the Taylor tail of f (from
``specfun.taylor_tail``) against the wavelet, in one quadrature over the
wavelet's support or its truncated line whose first mesh is at its
integrand's scale, so that one GK15 pass usually meets the target.  The
remainder can also be estimated empirically against the time-domain
oracle ``cwt_time``.

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

from .oracle import cwt_time
from .quadrature import (
    QuadratureConfig,
    _cut_radius,
    _envelope_tail_bound,
    integrate,
)
from .signals import (
    SignalSpec,
    f_time_conditioning,
    time_coefficient_table,
    time_coefficients,
)
from .specfun import _EPS, _TAIL_TERMS, _TINY, _cpow, taylor_tail
from .wavelets import WaveletSpec, psi_conj, small_u_coefficients

_TAIL_CUTOVER = 0.25
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
    holds the remainder delta_n (zero when none was asked for), so the
    reconstruction is ``partial_sum + remainder_estimate``.
    ``abs_error_estimate`` bounds the numerical error of ``partial_sum``
    alone.
    """

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

    @property
    def prediction(self) -> complex:
        """partial_sum plus the remainder (when one was computed)."""
        return self.partial_sum + self.remainder_estimate


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
    """The exact remainder delta_n(a): f's Taylor tail against the wavelet.

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

    Term s at dilation a is ``products[s] * a**(s + 1/2)``, with
    products[s] = P_s = s! (-i)^s c^f_s(b) c^psi_s, and
    ``product_errors[s]`` bounds its rounding.  Neither depends on a, so
    :meth:`terms` evaluates every term at a whole grid of dilations in one
    array product, and :meth:`at`, the full result at one dilation, takes
    its terms from the same formula.  The arrays are read-only, so a caller
    cannot change a plan's terms.
    """

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
        rows, err_rows = self.terms((a,))
        terms, term_errs = rows[0], err_rows[0]
        # ndarray.sum's reduction without its Python wrapper: the same bits
        partial = complex(np.add.reduce(terms))
        part_err = float(np.add.reduce(term_errs))

        rem_val, rem_err = 0.0 + 0.0j, 0.0
        if kind == RemainderKind.IntegralM0:
            rem_val, rem_err = _remainder_time(
                self.signal, self.wavelet, a, self.b, self.n, self.config
            )
        elif kind == RemainderKind.Empirical:
            oracle = cwt_time(self.signal, self.wavelet, a, self.b,
                              self.config)
            rem_val = oracle.value - partial
            rem_err = oracle.abs_error_estimate + part_err

        return ExpansionResult(
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
        )


def expansion_plan(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    b: float,
    n: int,
    config: Optional[QuadratureConfig] = None,
) -> ExpansionPlan:
    """The n products P_s = s! (-i)^s c^f_s(b) c^psi_s of an expansion, once.

    P_s's bound is s! (e^f |c^psi| + |c^f| e^psi + e^f e^psi), from the
    tables' bounds e^f and e^psi, plus 2 eps |P_s| and one least subnormal
    for its own roundings, or 0 where a factor is an exact zero.  At a kink
    of the signal (the two-sided exponential at b = 0) the coefficients
    past order zero do not exist: n > 1 raises ValueError.
    """
    if n < 1:
        raise ValueError("need at least one expansion term")
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
    return ExpansionPlan(signal=signal, wavelet=wavelet, b=b, n=n,
                         products=products, product_errors=product_errors,
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
