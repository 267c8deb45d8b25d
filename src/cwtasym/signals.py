"""Input signals: time/frequency evaluations, tail data, Taylor coefficients.

Built-ins are an algebraic bump, a two-sided exponential and a Gaussian; a
custom signal is a scaled/weighted copy of one of those with user-supplied
large-frequency tail data.  Frequency-domain tails are recorded as
  f_hat(w) ~ e^{i*rho*w} * sum_r tail_coeffs[r] * w**-(r + tail_beta)
for w -> +inf; an infinite tail_beta marks faster-than-algebraic decay.
A signal's time and frequency formulas are defined once, as the vectorized
``f_time``/``f_freq`` of its SignalSpec, and every integrand closes over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .specfun import hermite_he

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SignalKind(Enum):
    Lorentzian = "lorentzian"
    TwoSidedExp = "two_sided_exp"
    Gaussian = "gaussian"
    Custom = "custom"


@dataclass(frozen=True)
class SignalSpec:
    kind: SignalKind
    tail_beta: float
    tail_coeffs: tuple
    rho: float
    f_time: Callable[[np.ndarray], np.ndarray]
    f_freq: Callable[[np.ndarray], np.ndarray]
    sup_time: float
    sup_freq: float
    kinks: tuple
    time_envelope: tuple
    freq_envelope: tuple
    amplitude: float = 1.0
    time_scale: float = 1.0
    base: Optional[SignalKind] = None


@dataclass(frozen=True)
class HSpec:
    """The boundary function h(u) = e^{ibu} f_hat(u) for a fixed offset b."""

    signal: SignalSpec
    b: float


def _on_reals(formula):
    """The vectorized formula, applied to its argument as a float array."""
    return lambda x: formula(np.asarray(x, dtype=float))


# The one time- and frequency-domain formula of each built-in signal.
_lorentzian_time = _on_reals(lambda t: 1.0 / (1.0 + t * t))
_lorentzian_freq = _on_reals(lambda w: np.pi * np.exp(-np.abs(w)))
_two_sided_exp_time = _on_reals(lambda t: np.exp(-np.abs(t)))
_two_sided_exp_freq = _on_reals(lambda w: 2.0 / (1.0 + w * w))
_gaussian_time = _on_reals(lambda t: np.exp(-0.5 * t * t))
_gaussian_freq = _on_reals(lambda w: _SQRT_2PI * np.exp(-0.5 * w * w))


_TWO_SIDED_TAIL_LEN = 12


def _builtin(kind: SignalKind) -> SignalSpec:
    if kind == SignalKind.Lorentzian:
        return SignalSpec(
            kind=kind,
            tail_beta=math.inf,
            tail_coeffs=(),
            rho=0.0,
            f_time=_lorentzian_time,
            f_freq=_lorentzian_freq,
            sup_time=1.0,
            sup_freq=math.pi,
            kinks=(),
            time_envelope=("alg", 1.0, 2.0),
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
            rho=0.0,
            f_time=_two_sided_exp_time,
            f_freq=_two_sided_exp_freq,
            sup_time=1.0,
            sup_freq=2.0,
            kinks=(0.0,),
            time_envelope=("exp", 1.0, 1.0),
            freq_envelope=("alg", 2.0, 2.0),
        )
    if kind == SignalKind.Gaussian:
        return SignalSpec(
            kind=kind,
            tail_beta=math.inf,
            tail_coeffs=(),
            rho=0.0,
            f_time=_gaussian_time,
            f_freq=_gaussian_freq,
            sup_time=1.0,
            sup_freq=_SQRT_2PI,
            kinks=(),
            time_envelope=("gauss", 1.0, 0.5),
            freq_envelope=("gauss", _SQRT_2PI, 0.5),
        )
    raise ValueError(f"{kind!r} is not a built-in signal; use custom_signal")


def make_signal(kind: SignalKind) -> SignalSpec:
    """Construct one of the built-in signals."""
    return _builtin(kind)


def custom_signal(
    base: SignalKind,
    amplitude: float = 1.0,
    time_scale: float = 1.0,
    tail_beta: Optional[float] = None,
    tail_coeffs: Optional[tuple] = None,
    rho: Optional[float] = None,
) -> SignalSpec:
    """A scaled copy A*f_base(t/sigma) treated as an opaque custom signal.

    Its transform is A*sigma*f_hat_base(sigma*w).  Tail data defaults to the
    correctly rescaled base tail but may be overridden.
    """
    if base == SignalKind.Custom:
        raise ValueError("custom signals must name a concrete base kind")
    if not time_scale > 0.0:
        raise ValueError("time_scale must be positive")
    b = _builtin(base)
    a, s = float(amplitude), float(time_scale)

    def f_time(t):
        return a * b.f_time(np.asarray(t, dtype=float) / s)

    def f_freq(w):
        return a * s * b.f_freq(s * np.asarray(w, dtype=float))

    if tail_beta is None:
        tail_beta = b.tail_beta
    if tail_coeffs is None:
        tail_coeffs = tuple(
            a * s * c * s ** (-(r + b.tail_beta))
            for r, c in enumerate(b.tail_coeffs)
        )
    if rho is None:
        rho = s * b.rho

    ek, ec, ep = b.time_envelope
    if ek == "alg":
        time_env = (ek, abs(a) * s ** ep * ec, ep)
    elif ek == "exp":
        time_env = (ek, abs(a) * ec, ep / s)
    else:
        time_env = (ek, abs(a) * ec, ep / (s * s))
    fk, fc, fp = b.freq_envelope
    if fk == "alg":
        freq_env = (fk, abs(a) / s ** (fp - 1.0) * fc, fp)
    elif fk == "exp":
        freq_env = (fk, abs(a) * s * fc, fp * s)
    else:
        freq_env = (fk, abs(a) * s * fc, fp * s * s)

    return SignalSpec(
        kind=SignalKind.Custom,
        tail_beta=float(tail_beta),
        tail_coeffs=tuple(tail_coeffs),
        rho=float(rho),
        f_time=f_time,
        f_freq=f_freq,
        sup_time=abs(a) * b.sup_time,
        sup_freq=abs(a) * s * b.sup_freq,
        kinks=tuple(s * k for k in b.kinks),
        time_envelope=time_env,
        freq_envelope=freq_env,
        amplitude=a,
        time_scale=s,
        base=base,
    )


def f_hat(signal: SignalSpec, w) -> np.ndarray:
    """The signal's Fourier transform at real frequencies."""
    return np.asarray(signal.f_freq(w), dtype=complex)


def make_h(signal: SignalSpec, b: float) -> HSpec:
    return HSpec(signal=signal, b=float(b))


def h_eval(h: HSpec, u, mirror: bool = False) -> np.ndarray:
    """Evaluate h(u) or its reflection h(-u) on u > 0."""
    u = np.asarray(u, dtype=float)
    sgn = -1.0 if mirror else 1.0
    return np.exp(1j * sgn * h.b * u) * f_hat(h.signal, sgn * u)


def _chebyshev_like_fit(f, b: float, h: float, degree: int) -> np.ndarray:
    nodes = b + h * np.linspace(-1.0, 1.0, 2 * degree + 1)
    vals = np.asarray(f(nodes), dtype=float)
    coef = np.polynomial.polynomial.polyfit(nodes - b, vals, degree)
    return coef


def time_coefficients(signal: SignalSpec, b: float, n: int) -> np.ndarray:
    """Taylor coefficients c_s = f^(s)(b)/s! for s = 0..n-1."""
    if n < 1:
        raise ValueError("need at least one coefficient")
    out = np.zeros(n, dtype=complex)
    if signal.kind == SignalKind.Lorentzian:
        zm = complex(b, -1.0)
        zp = complex(b, 1.0)
        for s in range(n):
            out[s] = ((-1.0) ** s / 2j) * (zm ** (-s - 1) - zp ** (-s - 1))
        return out
    if signal.kind == SignalKind.Gaussian:
        he = hermite_he(b, n)
        pre = math.exp(-0.5 * b * b)
        for s in range(n):
            out[s] = (-1.0) ** s * he[s] * pre / math.factorial(s)
        return out
    if signal.kind == SignalKind.TwoSidedExp:
        if b == 0.0:
            if n > 1:
                raise ValueError(
                    "the two-sided exponential is not differentiable at 0; "
                    "coefficients beyond order zero do not exist there"
                )
            out[0] = 1.0
            return out
        sgn = -1.0 if b > 0.0 else 1.0
        pre = math.exp(-abs(b))
        for s in range(n):
            out[s] = pre * sgn ** s / math.factorial(s)
        return out

    # Opaque custom signal: differentiate numerically by local polynomial
    # fits at two step sizes with one extrapolation step, and insist the two
    # fits agree before accepting the result.
    degree = n + 3
    h0 = 0.05 * max(1.0, abs(b))
    for k in signal.kinks:
        gap = abs(b - k)
        if gap == 0.0:
            if n > 1:
                raise ValueError(
                    f"signal is not smooth at b={b:g}; higher coefficients "
                    "do not exist there"
                )
        elif gap < 2.0 * h0:
            h0 = 0.45 * gap
    c1 = _chebyshev_like_fit(signal.f_time, b, h0, degree)[:n]
    c2 = _chebyshev_like_fit(signal.f_time, b, 0.5 * h0, degree)[:n]
    orders = degree + 1 - np.arange(n)
    gain = 2.0 ** orders - 1.0
    combined = c2 + (c2 - c1) / gain
    spread = np.abs(c2 - c1)
    tol = 1e-6 * np.maximum(1.0, np.abs(combined))
    if np.any(spread > tol):
        worst = int(np.argmax(spread / np.maximum(1.0, np.abs(combined))))
        raise ValueError(
            "numerical derivative extraction did not converge at order "
            f"{worst} (spread {spread[worst]:.3e}); the signal may not be "
            f"smooth near b={b:g}"
        )
    return combined.astype(complex)
