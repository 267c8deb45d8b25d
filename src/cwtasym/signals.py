"""Input signals: time/frequency evaluations, tail data, Taylor coefficients.

The built-ins are an algebraic bump, a two-sided exponential and a Gaussian.
``make_signal`` also scales one to A*f(t/sigma); a scaled signal keeps its
kind, and each kind-specific formula applies that one change of variables.
Frequency-domain tails are recorded as
  f_hat(w) ~ sum_r tail_coeffs[r] * w**-(r + tail_beta)
for w -> +inf; an infinite tail_beta marks faster-than-algebraic decay.
A signal's time and frequency formulas are defined once, as the vectorized
``f_time``/``f_freq`` of its SignalSpec, and every integrand closes over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .quadrature import _scaled_envelope
from .specfun import _EPS, _TINY, gaussian_taylor

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SignalKind(Enum):
    Lorentzian = "lorentzian"
    TwoSidedExp = "two_sided_exp"
    Gaussian = "gaussian"


@dataclass(frozen=True)
class SignalSpec:
    kind: SignalKind
    tail_beta: float
    tail_coeffs: tuple
    f_time: Callable[[np.ndarray], np.ndarray]
    f_freq: Callable[[np.ndarray], np.ndarray]
    sup_time: float
    sup_freq: float
    kinks: tuple
    freq_envelope: tuple
    amplitude: float = 1.0
    time_scale: float = 1.0


@dataclass(frozen=True)
class HSpec:
    """The boundary function h(u) = e^{ibu} f_hat(u) for a fixed offset b."""

    signal: SignalSpec
    b: float


def _on_reals(formula):
    """The vectorized formula, applied to its argument as a float array."""
    return lambda x: formula(np.asarray(x, dtype=float))


def _overflow_to_zero(formula):
    """A formula of t*t whose value is 0 where t*t overflows (|t| above
    about 1e154): the inf it gets there gives that 0, so the overflow is
    not reported."""

    def quiet(t):
        with np.errstate(over="ignore"):
            return formula(t)

    return quiet


# The one time- and frequency-domain formula of each built-in signal.
_lorentzian_time = _on_reals(_overflow_to_zero(lambda t: 1.0 / (1.0 + t * t)))
_lorentzian_freq = _on_reals(lambda w: np.pi * np.exp(-np.abs(w)))
_two_sided_exp_time = _on_reals(lambda t: np.exp(-np.abs(t)))
_two_sided_exp_freq = _on_reals(lambda w: 2.0 / (1.0 + w * w))
_gaussian_time = _on_reals(_overflow_to_zero(lambda t: np.exp(-0.5 * t * t)))
_gaussian_freq = _on_reals(lambda w: _SQRT_2PI * np.exp(-0.5 * w * w))


_TWO_SIDED_TAIL_LEN = 12


def _builtin(kind: SignalKind) -> SignalSpec:
    if kind == SignalKind.Lorentzian:
        return SignalSpec(
            kind=kind,
            tail_beta=math.inf,
            tail_coeffs=(),
            f_time=_lorentzian_time,
            f_freq=_lorentzian_freq,
            sup_time=1.0,
            sup_freq=math.pi,
            kinks=(),
            freq_envelope=("exp", math.pi, 1.0),
        )
    if kind == SignalKind.TwoSidedExp:
        coeffs = tuple(
            2.0 * (-1.0) ** (r // 2) if r % 2 == 0 else 0.0
            for r in range(_TWO_SIDED_TAIL_LEN)
        )
        return SignalSpec(
            kind=kind,
            tail_beta=2.0,
            tail_coeffs=coeffs,
            f_time=_two_sided_exp_time,
            f_freq=_two_sided_exp_freq,
            sup_time=1.0,
            sup_freq=2.0,
            kinks=(0.0,),
            freq_envelope=("alg", 2.0, 2.0),
        )
    if kind == SignalKind.Gaussian:
        return SignalSpec(
            kind=kind,
            tail_beta=math.inf,
            tail_coeffs=(),
            f_time=_gaussian_time,
            f_freq=_gaussian_freq,
            sup_time=1.0,
            sup_freq=_SQRT_2PI,
            kinks=(),
            freq_envelope=("gauss", _SQRT_2PI, 0.5),
        )
    raise ValueError(f"unknown signal kind {kind!r}")


def make_signal(
    kind: SignalKind, amplitude: float = 1.0, time_scale: float = 1.0
) -> SignalSpec:
    """The built-in signal of this kind, scaled to A*f(t/sigma).

    At unit amplitude and time scale this is the built-in itself.  A scaled
    signal keeps its kind: its transform is A*sigma*f_hat(sigma*w), and each
    kind-specific formula (Taylor coefficients, closed-form Mellin moments)
    applies that change of variables to the built-in's.
    """
    base = _builtin(kind)
    a, s = float(amplitude), float(time_scale)
    if a == 1.0 and s == 1.0:
        return base
    if not s > 0.0:
        raise ValueError("time_scale must be positive")

    def f_time(t):
        return a * base.f_time(np.asarray(t, dtype=float) / s)

    def f_freq(w):
        return a * s * base.f_freq(s * np.asarray(w, dtype=float))

    tail_coeffs = tuple(
        a * s * c * s ** (-(r + base.tail_beta))
        for r, c in enumerate(base.tail_coeffs)
    )
    return SignalSpec(
        kind=kind,
        tail_beta=base.tail_beta,
        tail_coeffs=tail_coeffs,
        f_time=f_time,
        f_freq=f_freq,
        sup_time=abs(a) * base.sup_time,
        sup_freq=abs(a) * s * base.sup_freq,
        kinks=tuple(s * k for k in base.kinks),
        freq_envelope=_scaled_envelope(base.freq_envelope, abs(a), s),
        amplitude=a,
        time_scale=s,
    )


def f_hat(signal: SignalSpec, w) -> np.ndarray:
    """The signal's Fourier transform at real frequencies."""
    return np.asarray(signal.f_freq(w), dtype=complex)


def f_time_conditioning(signal: SignalSpec, t) -> np.ndarray:
    """A bound, in units of eps, on the relative error of ``f_time(t)``
    when t is itself rounded.

    With u = t/sigma carrying 2 eps (t's rounding and the division), the
    error is |u f'(u)/f(u)| * 2 plus the rounding of the formula: about
    2.5 u^2 + 2 for the Gaussian, 2|u| + 2 for the two-sided exponential
    and at most 8 for the Lorentzian.  Where f is steep in units of sigma,
    this is far above the 50 eps that quadrature assumes by default.  Each
    grows with |t|.
    """
    u = np.asarray(t, dtype=float) / signal.time_scale
    if signal.kind == SignalKind.Gaussian:
        return 2.5 * u * u + 2.0
    if signal.kind == SignalKind.TwoSidedExp:
        return 2.0 * np.abs(u) + 2.0
    return np.full(u.shape, 8.0)


def make_h(signal: SignalSpec, b: float) -> HSpec:
    return HSpec(signal=signal, b=float(b))


def h_eval(h: HSpec, u, mirror: bool = False) -> np.ndarray:
    """Evaluate h(u) or its reflection h(-u) on u > 0."""
    u = np.asarray(u, dtype=float)
    sgn = -1.0 if mirror else 1.0
    return np.exp(1j * sgn * h.b * u) * f_hat(h.signal, sgn * u)


def time_coefficients(signal: SignalSpec, b: float, n: int) -> np.ndarray:
    """Taylor coefficients c_s = f^(s)(b)/s!, s < n, of ``time_coefficient_table``."""
    return time_coefficient_table(signal, b, n)[0]


def time_coefficient_table(signal: SignalSpec, b: float, n: int):
    """Taylor coefficients c_s = f^(s)(b)/s!, s < n, and bounds on their
    rounding, finite for every finite b; an extreme sigma raises ValueError.

    For a scaled signal A*f(t/sigma) they are A*sigma**-s times the
    built-in's coefficients at b/sigma.  That point is the rounded quotient
    q = fl(b/sigma) plus the exact residual d of the division, and the
    built-in's coefficients at q + d are those at q moved to first order,
    c_s + (s+1) c_(s+1) d: where f is steep in units of sigma, expanding
    about q alone would shift the whole expansion by f'(b) sigma d.  The
    bound counts the step's roundings, not its second-order term, of
    relative size (eps q)^2, or (eps q^2)^2 for the Gaussian (q < 39).
    """
    if n < 1:
        raise ValueError("need at least one coefficient")
    amplitude, scale = signal.amplitude, signal.time_scale
    if amplitude == 1.0 and scale == 1.0:
        return _builtin_time_coefficients(signal.kind, b, n)
    from fractions import Fraction  # only scaled signals pay for the import

    center = b / scale
    if math.isinf(center):  # past the float range as at its end: zeros
        center, residual = math.copysign(np.finfo(float).max, center), 0.0
    else:
        residual = float(Fraction(b) / Fraction(scale) - Fraction(center))
    if residual == 0.0:
        out, err = _builtin_time_coefficients(signal.kind, center, n)
    else:
        ext, ext_err = _builtin_time_coefficients(signal.kind, center, n + 1)
        step = np.arange(1, n + 1) * ext[1:] * residual
        out = ext[:n] + step
        err = (ext_err[:n] + np.arange(1, n + 1) * abs(residual) * ext_err[1:]
               + _EPS * (np.abs(ext[:n]) + 2.0 * np.abs(step)))
    with np.errstate(all="ignore"):  # sigma^s may leave the float range
        powers = scale ** np.arange(n)
        out = amplitude * out / powers
        err = abs(amplitude) * err / powers + 2.0 * _EPS * np.abs(out)
    if not np.all(np.isfinite(err)):  # NaN or inf values have such bounds too
        raise ValueError(f"time_scale {scale!r} puts the Taylor coefficients at "
                         f"b={b!r} outside the float range")
    return out, err


def _builtin_time_coefficients(kind: SignalKind, b: float, n: int):
    """The built-in's Taylor coefficients at b and their rounding bounds:
    the Lorentzian's (-1)^(s+1) Im(w^(s+1)), w = 1/(b + i), which underflow
    at huge |b|, each power within 4(s+1) eps of |w|^(s+1) (w's rounding,
    raised, and the binary powering's products) plus an underflow; the
    Gaussian's from ``specfun.gaussian_taylor`` at -b; the two-sided
    exponential's e^{-|b|} (-sgn b)^s / s!."""
    if kind == SignalKind.Gaussian:
        return gaussian_taylor(-b, n)
    out, err = np.zeros(n, dtype=complex), np.zeros(n)
    if kind == SignalKind.Lorentzian:
        w = 1.0 / complex(b, 1.0)
        for s in range(n):
            power = w ** (s + 1)
            out[s] = (-1.0) ** (s + 1) * power.imag
            err[s] = 4.0 * (s + 1) * _EPS * abs(power) + _TINY
        return out, err
    # the two-sided exponential
    if b == 0.0:
        if n > 1:
            raise ValueError(
                "the two-sided exponential is not differentiable at 0; "
                "coefficients beyond order zero do not exist there"
            )
        out[0] = 1.0
        return out, err
    sgn = -1.0 if b > 0.0 else 1.0
    pre = math.exp(-abs(b))
    for s in range(n):
        out[s] = pre * sgn ** s / math.factorial(s)
    return out, 2.0 * _EPS * np.abs(out) + _TINY
