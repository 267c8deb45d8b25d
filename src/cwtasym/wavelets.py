"""Built-in analyzing wavelets and their small-argument expansion data.

Each wavelet carries its conjugated time-domain form (``psi_conj``) and
Fourier transform (``psi_hat_conj``), the one definition of each that every
integrand in the package evaluates; the Taylor coefficients of that
transform about zero (closed form and an independent numeric extractor
based on contour moments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .specfun import _EPS, _SQRT_2PI, _TWO_PI, gaussian_taylor, horner

_I_POW = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)

# The modulated Gaussian's |psi(t)| is e^{-t^2/2}; computed, it exceeds
# that by up to 2 ulp (the modulus of a rounded complex exponential).
_MORLET_ENVELOPE_C = 1.0 + 4.0 * _EPS

_HAAR_SERIES_CUT = 1e-3


class WaveletKind(Enum):
    Morlet = "morlet"
    MexicanHat = "mexhat"
    Haar = "haar"


@dataclass(frozen=True)
class WaveletSpec:
    """A concrete analyzing wavelet: its formulas are this module's
    functions, and every other fact the package needs of it is a field,
    set once in ``make_wavelet``, so no other module branches on ``kind``.

    ``lam`` is the leading power in the small-argument behaviour of the
    conjugated Fourier transform (all built-ins start at the linear order,
    so ``lam`` is 1 with the zeroth Taylor coefficient possibly vanishing).
    ``time_envelope``/``time_support`` bound psi for domain truncation,
    ``hat_sup`` bounds psi_hat_conj on the real line, ``l1_norm`` is the
    integral of |psi|, and ``real`` means psi is real, so that
    psi_hat_conj(-u) = conj(psi_hat_conj(u)) on the real line.
    ``time_period``: psi's period, if it oscillates; ``time_panel_width``:
    the widest first panel of a time mesh (None: the mesh is the support).

    The transform's form, if it has one of these: ``gauss_power`` k with
    psi_hat_conj(u) = sqrt(2 pi) v^k e^{-v^2/2}, v = u - u0, and
    ``ray_log_line``(a, rate), log C where C e^{a^2 y^2/2} bounds the
    integral of |psi_hat_conj(+-a w)| along Im w = y, Re w >= 0, for y up
    to |rate|/a^2; or ``phases``, (amp, mu) pairs with psi_hat_conj(u) =
    (i/u) sum amp e^{i mu u}.  ``side_features``: the |u| of the
    transform's features on u > 0 and on u < 0, where the Fourier meshes
    put an edge at |u|/a; ``head_features``: more for the Fourier oracle's
    folded head alone.
    """

    kind: WaveletKind
    u0: float
    lam: int
    hat_sup: float
    time_envelope: Optional[tuple]
    time_support: Optional[tuple]
    real: bool
    l1_norm: float
    time_period: Optional[float]
    time_panel_width: Optional[float]
    side_features: tuple
    gauss_power: Optional[float] = None
    ray_log_line: Optional[Callable[[float, float], float]] = None
    phases: tuple = ()
    head_features: tuple = ()


@dataclass(frozen=True)
class CoefficientTable:
    """Taylor coefficients c_0..c_{n-1} of the conjugated transform at zero,
    with a bound on each one's error."""

    coefficients: np.ndarray
    error_estimates: np.ndarray


def _morlet_ray_log_line(a: float, rate: float) -> float:
    return math.log(_TWO_PI) - math.log(a)  # 2 pi/a: the whole line


def _mexhat_ray_log_line(a: float, rate: float) -> float:
    # pi (1/a + a Y^2), Y = |rate|/a^2, as pi (a^2 + rate^2)/a^3 in logs:
    # no dilation that overflows 1/a or underflows a^3 breaks it
    return (math.log(math.pi) + 2.0 * math.log(math.hypot(a, rate))
            - 3.0 * math.log(a))


def make_wavelet(kind: WaveletKind, u0: float = 5.0) -> WaveletSpec:
    """The built-in wavelet of ``kind`` (``u0``: the modulated Gaussian's
    centre frequency, finite and positive).

    ``time_envelope`` ("gauss", C, rate) bounds |psi(t)| by C e^{-rate t^2}:
    its exact e^{-t^2/2} for the modulated Gaussian, with C a few ulp above
    1 because the computed |psi| exceeds e^{-t^2/2} by up to 2 ulp, and
    7 e^{-0.45 t^2} for the Mexican hat, |1 - t^2| e^{-t^2/2}, whose L1 norm
    is 4/sqrt(e) (its antiderivative is t e^{-t^2/2}).  The step wavelet has
    a support instead, and the transform (i/u)(1 - 2 e^{iu/2} + e^{iu}).
    The features are the modulated Gaussian's peak and +-3 flanks (u > 0
    only), the Mexican hat's peak, decay point and (folded head) rise, and
    the step wavelet's first lobe.

    The modulated Gaussian's time panels, min(0.7, 0.4 T), are measured on
    3 signals x 21 b in [-2, 2] x (the 16-point sweep grid, a = 1e-3, 0.05,
    1): no call of ``oracle.cwt_time`` bisects at u0 in {1, 2, 3, 5, 8,
    12}.  A cap of 0.75 bisects 6 of those 252 calls at u0 = 3, and panels
    of 0.55 bisect 61 of 252 at u0 = 5.
    """
    if kind == WaveletKind.Morlet:
        if not u0 > 0.0:
            raise ValueError(f"the modulated-Gaussian wavelet needs u0 > 0, got {u0!r}")
        if not math.isfinite(u0):
            raise ValueError(
                f"the modulated-Gaussian wavelet needs a finite u0, got {u0!r}")
        u0 = float(u0)
        period = _TWO_PI / u0
        return WaveletSpec(
            kind=kind,
            u0=u0,
            lam=1,
            hat_sup=_SQRT_2PI,
            time_envelope=("gauss", _MORLET_ENVELOPE_C, 0.5),
            time_support=None,
            real=False,
            l1_norm=_SQRT_2PI,
            time_period=period,
            time_panel_width=min(0.7, 0.4 * period),
            side_features=((u0 - 3.0, u0, u0 + 3.0), ()),
            gauss_power=0.0,
            ray_log_line=_morlet_ray_log_line,
        )
    if kind == WaveletKind.MexicanHat:
        features = (math.sqrt(2.0), 3.5)
        return WaveletSpec(
            kind=kind,
            u0=0.0,
            lam=1,
            hat_sup=_SQRT_2PI * 2.0 / math.e,
            # max over x >= 0 of |1 - x| e^{-0.05 x} is 20 e^{-1.05} < 7
            time_envelope=("gauss", 7.0, 0.45),
            time_support=None,
            real=True,
            l1_norm=4.0 / math.sqrt(math.e),
            time_period=None,
            time_panel_width=1.0,
            side_features=(features, features),
            gauss_power=2.0,
            ray_log_line=_mexhat_ray_log_line,
            head_features=(0.5,),
        )
    if kind == WaveletKind.Haar:
        return WaveletSpec(
            kind=kind,
            u0=0.0,
            lam=1,
            hat_sup=0.7246113537767084,
            time_envelope=None,
            time_support=(0.0, 1.0),
            real=True,
            l1_norm=1.0,
            time_period=None,
            time_panel_width=None,
            side_features=((4.66,), (4.66,)),
            phases=((1.0, 0.0), (-2.0, 0.5), (1.0, 1.0)),
        )
    raise ValueError(f"unknown wavelet kind {kind!r}")


def _haar_series_coefficients(n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    for s in range(1, n):
        out[s] = _I_POW[(s + 2) % 4] * (1.0 - 2.0 ** (-s)) / math.factorial(s + 1)
    return out


# The step wavelet's transform below the series cutover, where the closed
# form cancels 0/0.
_HAAR_HAT_SERIES = _haar_series_coefficients(8)


def psi_conj(spec: WaveletSpec, s) -> np.ndarray:
    """Conjugated time-domain wavelet at real s (complex output)."""
    s = np.asarray(s, dtype=float)
    if spec.kind == WaveletKind.Morlet:
        return np.exp(-1j * spec.u0 * s - 0.5 * s * s)
    if spec.kind == WaveletKind.MexicanHat:
        return ((1.0 - s * s) * np.exp(-0.5 * s * s)).astype(complex)
    out = np.zeros(s.shape, dtype=complex)
    out[(s >= 0.0) & (s < 0.5)] = 1.0
    out[(s >= 0.5) & (s < 1.0)] = -1.0
    return out


def psi_hat_conj(spec: WaveletSpec, u) -> np.ndarray:
    """Conjugated Fourier transform of the wavelet, complex-argument capable.

    Real arguments stay in real arithmetic: the Gaussian wavelets then give
    a float array, the step wavelet (complex on the real line) a complex one.
    """
    u = np.asarray(u, dtype=complex if np.iscomplexobj(u) else float)
    if spec.kind == WaveletKind.Morlet:
        d = u - spec.u0
        return _SQRT_2PI * np.exp(-0.5 * d * d)
    if spec.kind == WaveletKind.MexicanHat:
        return _SQRT_2PI * u * u * np.exp(-0.5 * u * u)
    out = np.empty(u.shape, dtype=complex)
    small = np.abs(u) < _HAAR_SERIES_CUT
    out[small] = horner(_HAAR_HAT_SERIES, u[small])
    ub = u[~small]
    q = np.sin(0.25 * ub)
    out[~small] = -4j * np.exp(0.5j * ub) * q * q / ub
    return out


def small_u_coefficients(spec: WaveletSpec, n: int) -> CoefficientTable:
    """Closed-form Taylor coefficients c_0..c_{n-1} at zero argument, with
    bounds on their rounding: ``specfun.gaussian_taylor``'s for the
    modulated Gaussian, 2 eps relative for the others' rationals."""
    if n < 1:
        raise ValueError("need at least one coefficient")
    if spec.kind == WaveletKind.Morlet:
        cs, errs = gaussian_taylor(spec.u0, n, _SQRT_2PI)
        return CoefficientTable(cs, errs)
    cs = np.zeros(n, dtype=complex)
    if spec.kind == WaveletKind.MexicanHat:
        for s in range(2, n, 2):
            l = s // 2
            cs[s] = _SQRT_2PI * (-1.0) ** (l - 1) / (2.0 ** (l - 1) * math.factorial(l - 1))
    else:
        cs = _haar_series_coefficients(n)
    return CoefficientTable(cs, 2.0 * _EPS * np.abs(cs))


def small_u_coefficients_numeric(
    spec: WaveletSpec, n: int, radius: float = 0.5, points: int = 128
) -> CoefficientTable:
    """Taylor coefficients extracted from contour moments of the transform.

    Moments of psi_hat_conj on two circles (radius and radius/2) are combined
    to cancel the leading aliasing term of the discrete moment sum; the
    spread between the two circles provides the per-coefficient error
    estimate.  Raises if the combination fails to settle, which catches
    transforms that are not analytic on the contour.
    """
    if n < 1:
        raise ValueError("need at least one coefficient")
    if points <= n:
        raise ValueError("need more contour points than coefficients")
    k = np.arange(points)
    theta = 2.0 * np.pi * k / points
    rot = np.exp(1j * theta)

    def moments(r: float) -> np.ndarray:
        vals = psi_hat_conj(spec, r * rot)
        coef = np.fft.fft(vals) / points
        return coef[:n] / r ** np.arange(n)

    m1 = moments(radius)
    m2 = moments(0.5 * radius)
    # Aliasing in the discrete moments scales as radius**points; one
    # extrapolation step against the half-radius contour removes it.
    denom = 2.0 ** points - 1.0
    combined = m2 + (m2 - m1) / denom
    scale = float(np.max(np.abs(psi_hat_conj(spec, radius * rot))))
    spread = np.abs(m2 - m1) / denom
    round_off = 10.0 * _EPS * scale / (0.5 * radius) ** np.arange(n)
    errs = spread + round_off
    bad = errs > 1e-6 * np.maximum(1.0, np.abs(combined))
    if np.any(bad):
        worst = int(np.argmax(errs / np.maximum(1.0, np.abs(combined))))
        raise ValueError(
            "contour moments did not settle at order "
            f"{worst} (error estimate {errs[worst]:.3e}); the transform is "
            "not analytic enough on the contour"
        )
    return CoefficientTable(coefficients=combined, error_estimates=errs)
