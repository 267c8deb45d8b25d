"""Ground-truth CWT evaluation by adaptive quadrature, two independent routes.

``cwt_time`` integrates the signal against the scaled wavelet in the time
domain; ``cwt_fourier`` integrates the product of Fourier transforms over
each half-line.  The two share no analytic ingredients beyond the transform
pair definitions, so their agreement is a meaningful cross-check.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .backends import cwt_fourier_descriptor, cwt_time_descriptor
from .quadrature import QuadratureConfig, QuadratureResult, integrate, worst_status
from .signals import SignalSpec, f_hat
from .specfun import oscillatory_power_tail
from .wavelets import WaveletKind, WaveletSpec, psi_hat_conj

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# Radius and series depth for the analytic tail used when both the signal
# transform and the wavelet transform decay only algebraically.
_ALG_TAIL_RADIUS = 25.0
_ALG_TAIL_TERMS = 10


def _psi_time_conj(wavelet: WaveletSpec, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if wavelet.kind == WaveletKind.Morlet:
        return np.exp(-1j * wavelet.u0 * s - 0.5 * s * s)
    if wavelet.kind == WaveletKind.MexicanHat:
        return ((1.0 - s * s) * np.exp(-0.5 * s * s)).astype(complex)
    out = np.zeros(s.shape, dtype=complex)
    out[(s >= 0.0) & (s < 0.5)] = 1.0
    out[(s >= 0.5) & (s < 1.0)] = -1.0
    return out


def _scaled(result: QuadratureResult, factor: float) -> QuadratureResult:
    return QuadratureResult(
        value=result.value * factor,
        abs_error_estimate=result.abs_error_estimate * abs(factor),
        n_evaluations=result.n_evaluations,
        n_panels=result.n_panels,
        converged=result.converged,
        status=result.status,
    )


def cwt_time(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    a: float,
    b: float,
    config: Optional[QuadratureConfig] = None,
) -> QuadratureResult:
    """Transform value W(b, a) from the time-domain definition."""
    if not a > 0.0:
        raise ValueError("the dilation parameter must be positive")
    cfg = config if config is not None else QuadratureConfig()

    if signal.kernel_id is not None:
        integrand = cwt_time_descriptor(
            signal.kernel_id, wavelet.wav_id, a, b, wavelet.u0
        )
    else:
        f = signal.f_time

        def integrand(s):
            return f(b + a * s) * _psi_time_conj(wavelet, s)

    breakpoints = [(k - b) / a for k in signal.kinks]
    if signal.kind.value == "lorentzian" or signal.base is not None:
        breakpoints.append(-b / a)  # the signal's peak in wavelet coordinates

    if wavelet.time_support is not None:
        lo, hi = wavelet.time_support
        inner = [0.5] + [p for p in breakpoints if lo < p < hi]
        res = integrate(
            integrand, (lo, hi), cfg, breakpoints=inner, period_hint=None
        )
    else:
        kind, c_w, rate = wavelet.time_envelope
        envelope = (kind, c_w * signal.sup_time, rate)
        period = _TWO_PI / wavelet.u0 if wavelet.kind == WaveletKind.Morlet else None
        res = integrate(
            integrand,
            (-math.inf, math.inf),
            cfg,
            breakpoints=breakpoints,
            period_hint=period,
            envelope=envelope,
        )
    return _scaled(res, math.sqrt(a))


def _scale_envelope(env: tuple, factor: float) -> tuple:
    kind, c, p = env
    return (kind, c * factor, p)


def _gauss_cut_width(c_over_delta: float) -> float:
    """Smallest w with exp(-w*w/2)/w <= 1/c_over_delta (c_over_delta >= 1)."""
    w = math.sqrt(2.0 * math.log(max(c_over_delta, 2.0)))
    for _ in range(3):
        w = math.sqrt(2.0 * math.log(max(c_over_delta / w, 2.0)))
    return max(w, 1.0)


def _fourier_side_hints(wavelet: WaveletSpec, sign: int, a: float, b: float):
    """Panel breakpoints and oscillation period for one half-line integrand.

    The breakpoints sit at the features of the wavelet transform at sign*a*w
    (the modulated Gaussian's peak and its +-3 flanks, the Mexican hat's
    inflection and decay points, the step wavelet's first lobe); the period
    is that of e^{i*sign*b*w}, plus the step wavelet's own phase rate a.
    Callers add their own extra breakpoints to the returned list.
    """
    breakpoints = []
    if wavelet.kind == WaveletKind.Morlet and sign > 0:
        u0 = wavelet.u0
        breakpoints += [(u0 - 3.0) / a, u0 / a, (u0 + 3.0) / a]
    elif wavelet.kind == WaveletKind.MexicanHat:
        breakpoints += [math.sqrt(2.0) / a, 3.5 / a]
    elif wavelet.kind == WaveletKind.Haar:
        breakpoints += [4.66 / a]
    osc = abs(b) + (a if wavelet.kind == WaveletKind.Haar else 0.0)
    period = _TWO_PI / osc if osc > 0.0 else None
    return breakpoints, period


def _gauss_wavelet_cut(
    wavelet: WaveletSpec, sign: int, a: float, sup_freq: float, delta: float
):
    """Cut radius for a Gaussian-decaying wavelet transform, and its tail bound.

    For the modulated Gaussian and the Mexican hat, returns the radius past
    which conj(psi_hat)(sign*a*w), against a signal transform bounded by
    ``sup_freq``, leaves about ``delta`` of the half-line integral, and a
    function giving the bound on that integral beyond any radius (infinite
    where the Gaussian bound does not yet apply).
    """
    ratio = _SQRT_2PI * sup_freq / (a * delta)
    if wavelet.kind == WaveletKind.Morlet:
        u0 = wavelet.u0
        w = _gauss_cut_width(ratio)
        if sign > 0:
            u_w = (u0 + w) / a
        else:
            u_w = max((w - u0) / a, 0.3 / a)

        def t_w(u):
            arg = a * u - u0 if sign > 0 else a * u + u0
            if arg <= 0.5:
                return math.inf
            return (
                sup_freq
                * (_SQRT_2PI / a)
                * math.exp(-0.5 * arg * arg)
                / arg
            )

        return u_w, t_w
    if wavelet.kind == WaveletKind.MexicanHat:
        w = _gauss_cut_width(ratio) + 2.0
        u_w = w / a

        def t_w(u):
            v = a * u
            if v <= 0.5:
                return math.inf
            return (
                sup_freq
                * (_SQRT_2PI / a)
                * (v + 1.0 / v)
                * math.exp(-0.5 * v * v)
            )

        return u_w, t_w
    raise ValueError(f"the {wavelet.kind.value!r} transform has no Gaussian cut")


def _fourier_side(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    sign: int,
    a: float,
    b: float,
    cfg: QuadratureConfig,
) -> QuadratureResult:
    """One half-line factor integral of the frequency-domain route."""
    if signal.kernel_id is not None:
        integrand = cwt_fourier_descriptor(
            signal.kernel_id, wavelet.wav_id, sign, a, b, wavelet.u0
        )
    else:

        def integrand(w):
            w = np.asarray(w, dtype=float)
            return (
                np.exp(1j * sign * b * w)
                * f_hat(signal, sign * w)
                * psi_hat_conj(wavelet, sign * a * w)
            )

    if wavelet.kind == WaveletKind.Haar and math.isfinite(signal.tail_beta):
        return _fourier_side_alg_tail(signal, wavelet, sign, a, b, cfg, integrand)

    delta = 0.5 * cfg.abs_tol
    candidates = []

    env_f = _scale_envelope(signal.freq_envelope, wavelet.hat_sup)

    def t_f(u):
        from .quadrature import _envelope_tail_bound

        return _envelope_tail_bound(env_f, u)

    from .quadrature import _cut_radius

    u_f = _cut_radius(env_f, delta, cfg.truncation_radius)
    candidates.append((u_f, t_f))

    if wavelet.kind != WaveletKind.Haar:
        candidates.append(
            _gauss_wavelet_cut(wavelet, sign, a, signal.sup_freq, delta)
        )

    cut = min(c[0] for c in candidates)
    cut = min(cut, cfg.truncation_radius)
    tail = min(t(cut) for _, t in candidates)

    breakpoints, period = _fourier_side_hints(wavelet, sign, a, b)
    if wavelet.kind == WaveletKind.MexicanHat:
        breakpoints.append(0.5 / a)

    return integrate(
        integrand,
        (0.0, cut),
        cfg,
        breakpoints=breakpoints,
        period_hint=period,
        tail_bound=tail,
    )


def _haar_alg_tail(
    signal: SignalSpec, sign: int, a: float, b: float, coeffs, radius: float
) -> tuple[complex, float]:
    """int_radius^inf conj(psi_hat)(sign*a*w) e^{i*sign*b*w} f_hat(sign*w) dw.

    The step wavelet's transform is (i/u)(1 - 2 e^{iu/2} + e^{iu}): three pure
    phases over u.  Against the inverse-power series of the signal transform
    (``coeffs``, the first terms of ``signal.tail_coeffs``) every product is
    a closed-form oscillatory power integral.  Returns the value and the
    error of those integrals; the error of truncating the series is the
    caller's to bound.
    """
    beta = signal.tail_beta
    rho = signal.rho
    tail_val = 0.0 + 0.0j
    tail_err = 0.0
    for r, b_r in enumerate(coeffs):
        if b_r == 0.0:
            continue
        c_r = b_r if sign > 0 else complex(b_r).conjugate()
        for amp, mu in ((1.0, 0.0), (-2.0, 0.5), (1.0, 1.0)):
            phase_rate = sign * (b + rho + mu * a)
            coef = 1j * c_r * amp / (sign * a)
            term, err = oscillatory_power_tail(-(r + beta), phase_rate, radius)
            tail_val += coef * term
            tail_err += abs(coef) * err
    return tail_val, tail_err


def _fourier_side_alg_tail(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    sign: int,
    a: float,
    b: float,
    cfg: QuadratureConfig,
    integrand,
) -> QuadratureResult:
    """Half-line factor integral when both transforms decay algebraically.

    The head is integrated numerically; past the cut radius the wavelet
    transform is expanded into its three pure phases and the signal tail into
    inverse powers, leaving closed-form oscillatory power integrals.
    """
    cut = _ALG_TAIL_RADIUS
    beta = signal.tail_beta
    coeffs = signal.tail_coeffs[:_ALG_TAIL_TERMS]

    breakpoints, period = _fourier_side_hints(wavelet, sign, a, b)
    head = integrate(
        integrand, (0.0, cut), cfg, breakpoints=breakpoints, period_hint=period
    )

    tail_val, tail_err = _haar_alg_tail(signal, sign, a, b, coeffs, cut)
    # Truncating the inverse-power expansion of the signal transform: the
    # first omitted order bounds the series remainder.
    r_cut = len(coeffs)
    omitted = (
        abs(signal.sup_freq)
        * cut ** (1.0 - (r_cut + beta))
        / max(r_cut + beta - 1.0, 1.0)
        * (4.0 / (a * cut))
    )
    tail_err += omitted

    return QuadratureResult(
        value=head.value + tail_val,
        abs_error_estimate=head.abs_error_estimate + tail_err,
        n_evaluations=head.n_evaluations,
        n_panels=head.n_panels,
        converged=head.converged,
        status=head.status,
    )


def cwt_fourier(
    signal: SignalSpec,
    wavelet: WaveletSpec,
    a: float,
    b: float,
    config: Optional[QuadratureConfig] = None,
) -> QuadratureResult:
    """Transform value W(b, a) from the frequency-domain definition."""
    if not a > 0.0:
        raise ValueError("the dilation parameter must be positive")
    cfg = config if config is not None else QuadratureConfig()
    plus = _fourier_side(signal, wavelet, 1, a, b, cfg)
    minus = _fourier_side(signal, wavelet, -1, a, b, cfg)
    factor = math.sqrt(a) / _TWO_PI
    return QuadratureResult(
        value=(plus.value + minus.value) * factor,
        abs_error_estimate=(plus.abs_error_estimate + minus.abs_error_estimate)
        * factor,
        n_evaluations=plus.n_evaluations + minus.n_evaluations,
        n_panels=plus.n_panels + minus.n_panels,
        converged=plus.converged and minus.converged,
        status=worst_status(plus.status, minus.status),
    )
