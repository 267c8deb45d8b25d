"""Built-in analyzing wavelets and their small-argument expansion data.

Each wavelet carries its conjugated time-domain form (``psi_conj``) and
Fourier transform (``psi_hat_conj``), the one definition of each that every
integrand in the package evaluates; the Taylor coefficients of that
transform about zero (closed form and an independent numeric extractor
based on contour moments); and the exact tail left after removing a
truncated Taylor polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .specfun import gaussian_taylor, horner, taylor_tail

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_EPS = 2.220446049250313e-16
_I_POW = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)

# The modulated Gaussian's |psi(t)| is e^{-t^2/2}; computed, it exceeds
# that by up to 2 ulp (the modulus of a rounded complex exponential).
_MORLET_ENVELOPE_C = 1.0 + 4.0 * _EPS

_HAAR_SERIES_CUT = 1e-3
_TAIL_SERIES_CUT = 0.25


class WaveletKind(Enum):
    Morlet = "morlet"
    MexicanHat = "mexhat"
    Haar = "haar"


@dataclass(frozen=True)
class WaveletSpec:
    """A concrete analyzing wavelet.

    ``lam`` is the leading power in the small-argument behaviour of the
    conjugated Fourier transform (all built-ins start at the linear order,
    so ``lam`` is 1 with the zeroth Taylor coefficient possibly vanishing).
    The envelope/support fields bound the time-domain wavelet for domain
    truncation; ``hat_sup`` bounds the conjugated transform on the real line.
    """

    kind: WaveletKind
    u0: float
    lam: int
    hat_sup: float
    time_envelope: Optional[tuple]
    time_support: Optional[tuple]


@dataclass(frozen=True)
class CoefficientTable:
    """Taylor coefficients c_0..c_{n-1} of the conjugated transform at zero,
    with a bound on each one's error."""

    coefficients: np.ndarray
    lam: int
    n: int
    error_estimates: np.ndarray


def make_wavelet(kind: WaveletKind, u0: float = 5.0) -> WaveletSpec:
    """The built-in wavelet of ``kind`` (``u0``: the modulated Gaussian's
    centre frequency).

    ``time_envelope`` ("gauss", C, rate) bounds |psi(t)| by C e^{-rate t^2}:
    its exact e^{-t^2/2} for the modulated Gaussian, with C a few ulp above
    1 because the computed |psi| exceeds e^{-t^2/2} by up to 2 ulp, and
    7 e^{-0.45 t^2} for the Mexican hat, |1 - t^2| e^{-t^2/2}.  The step
    wavelet has a support instead.  Both Gaussian wavelets satisfy
    psi(-t) = conj(psi(t)), and the Mexican hat and the step are real, so
    half of each pair of mirrored moments or tails is the conjugate of the
    other (``oracle._real_wavelet``).
    """
    if kind == WaveletKind.Morlet:
        if not u0 > 0.0:
            raise ValueError(f"the modulated-Gaussian wavelet needs u0 > 0, got {u0!r}")
        return WaveletSpec(
            kind=kind,
            u0=float(u0),
            lam=1,
            hat_sup=_SQRT_2PI,
            time_envelope=("gauss", _MORLET_ENVELOPE_C, 0.5),
            time_support=None,
        )
    if kind == WaveletKind.MexicanHat:
        return WaveletSpec(
            kind=kind,
            u0=0.0,
            lam=1,
            hat_sup=_SQRT_2PI * 2.0 / math.e,
            # max over x >= 0 of |1 - x| e^{-0.05 x} is 20 e^{-1.05} < 7
            time_envelope=("gauss", 7.0, 0.45),
            time_support=None,
        )
    if kind == WaveletKind.Haar:
        return WaveletSpec(
            kind=kind,
            u0=0.0,
            lam=1,
            hat_sup=0.7246113537767084,
            time_envelope=None,
            time_support=(0.0, 1.0),
        )
    raise ValueError(f"unknown wavelet kind {kind!r}")


def time_period(spec: WaveletSpec) -> Optional[float]:
    """The time-domain oscillation period, 2*pi/u0 for the modulated
    Gaussian; None for the wavelets that do not oscillate."""
    return _TWO_PI / spec.u0 if spec.kind == WaveletKind.Morlet else None


def time_panel_width(spec: WaveletSpec) -> Optional[float]:
    """The widest first panel of a time-domain transform's mesh, in wavelet
    coordinates: min(0.7, 0.4 T) for the modulated Gaussian (T its period),
    1 for the Mexican hat, so one GK15 pass resolves the wavelet's own
    scale; None for the step wavelet, whose mesh is its support.

    The modulated Gaussian's rule is measured on 3 signals x 21 b in
    [-2, 2] x (the 16-point sweep grid, a = 1e-3, 0.05, 1): no call of
    ``oracle.cwt_time`` bisects at u0 in {1, 2, 3, 5, 8, 12}.  A cap of
    0.75 bisects 6 of those 252 calls at u0 = 3, and panels of 0.55
    bisect 61 of 252 at u0 = 5."""
    if spec.kind == WaveletKind.Morlet:
        return min(0.7, 0.4 * time_period(spec))
    if spec.kind == WaveletKind.MexicanHat:
        return 1.0
    return None


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
        return CoefficientTable(cs, spec.lam, n, errs)
    cs = np.zeros(n, dtype=complex)
    if spec.kind == WaveletKind.MexicanHat:
        for s in range(2, n, 2):
            l = s // 2
            cs[s] = _SQRT_2PI * (-1.0) ** (l - 1) / (2.0 ** (l - 1) * math.factorial(l - 1))
    else:
        cs = _haar_series_coefficients(n)
    return CoefficientTable(cs, spec.lam, n, 2.0 * _EPS * np.abs(cs))


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
    return CoefficientTable(
        coefficients=combined, lam=spec.lam, n=n, error_estimates=errs
    )


def psi_hat_tail_evaluator(spec: WaveletSpec, n: int):
    """``psi_hat_tail(spec, n, .)`` with its coefficient table built once.

    Returns the evaluator, its series cutover and the bound on the series'
    truncation error below that cutover (see ``specfun.taylor_tail``).
    """
    evaluate, omitted = taylor_tail(
        lambda u: psi_hat_conj(spec, u),
        lambda m: small_u_coefficients(spec, m).coefficients,
        n,
        _TAIL_SERIES_CUT,
    )
    return evaluate, _TAIL_SERIES_CUT, omitted


def psi_hat_tail(spec: WaveletSpec, n: int, u) -> np.ndarray:
    """The transform with its first n Taylor terms removed.

    For small arguments the direct subtraction cancels catastrophically, so
    the tail is summed from the higher-order coefficients instead.
    """
    return psi_hat_tail_evaluator(spec, n)[0](u)
