"""Generalized (Abel-regularized) Mellin transform of the boundary function.

M[h; z] = lim_{eps->0+} int_0^inf u^{z-1} h(u) e^{-eps u} du, with
h(u) = e^{ibu} f_hat(u) and the mirror variant h(-u).  Two routes:

* ``"auto"`` — the numeric route, chosen by the signal's transform tail:
  direct truncated quadrature (PureQuadrature) when it decays faster than
  algebraically, so the limit is trivial, and otherwise quadrature on a
  head interval plus closed-form oscillatory power tails from its
  inverse-power expansion (SplitTailAnalytic);
* ClosedForm — exact values for every built-in and scaled signal: the
  Lorentzian and the Gaussian at any offset, the two-sided exponential at
  b = 0 and, by Gradshteyn-Ryzhik 3.383.10, at b != 0.

Each ``MellinValue`` names the route that ran.  Expansions take no moment;
``checks.moment_products`` rebuilds their products from ClosedForm moments,
falling back to ``"auto"`` where the closed form raises ``MellinError`` or
its estimate misses the quadrature target.  ``"auto"`` never picks
ClosedForm, so ``cwtasym mellin`` and the validation checks compare the
numeric route against it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .oracle import _octaves, _series_truncation, _side_coeffs
from .quadrature import (
    QuadratureConfig,
    TRUNCATION_RADIUS,
    _cut_radius,
    _envelope_tail_bound,
    integrate,
)
from .signals import HSpec, SignalKind
from .specfun import (
    _EPS,
    _SQRT_2PI,
    SpecFunError,
    _cpow,
    gamma_complex,
    oscillatory_power_tails,
    parabolic_cylinder_D,
    upper_incomplete_gamma,
)


class MellinMethod(Enum):
    SplitTailAnalytic = "split_tail_analytic"
    ClosedForm = "closed_form"
    PureQuadrature = "pure_quadrature"


class MellinError(RuntimeError):
    """Raised where no closed form applies or the moment's tail diverges."""


@dataclass(frozen=True)
class MellinValue:
    value: complex
    abs_error_estimate: float
    method: MellinMethod


def _integrand(h: HSpec, z: complex, mirror: bool):
    """u^{z-1} h(+-u) on u > 0, evaluated in that order."""
    zm1 = z - 1.0
    sign = -1.0 if mirror else 1.0

    def f(u):
        u = np.asarray(u, dtype=float)
        phase = np.exp(1j * (sign * h.b) * u)
        return _cpow(u, zm1) * phase * h.signal.f_freq(sign * u)

    return f


def _pure_quadrature(h, z, mirror, cfg) -> MellinValue:
    """The truncated integral with a cut from the transform's envelope:
    |u^(z-1) h(u)| is at most u^(Re z - 1) times it."""
    envelope = h.signal.freq_envelope
    sigma = z.real - 1.0
    cut = _cut_radius(envelope, 0.5 * cfg.abs_tol, sigma)
    rate = abs(h.b)  # of the phase e^{+-ibu}
    res = integrate(
        _integrand(h, z, mirror),
        (0.0, cut),
        cfg,
        panel_width=math.pi / rate if rate > 0.0 else None,
        left_singularity=sigma if z.real < 1.0 else None,
        tail_bound=_envelope_tail_bound(envelope, cut, sigma),
    )
    return MellinValue(res.value, res.abs_error_estimate, MellinMethod.PureQuadrature)


def _split_tail_analytic(h, z, mirror, cfg) -> MellinValue:
    """Quadrature on [0, cut] plus the Abel-regularized tail above it.

    Above the cut, h's inverse-power series is integrated term by term: the
    orders z - r - beta differ by integers, so each cut costs one batched
    ``oscillatory_power_tails`` call (one incomplete Gamma), from the first
    nonzero coefficient on.  The series is truncated at its smallest term,
    whose size is the truncation error, and the cut grows by 1.6 until that
    term is below 1e-12 of the largest.

    The head has an edge at each octave q 2^k from q/2 below the cut
    (``oracle._octaves``), q the series' apparent convergence radius: for
    the two-sided exponential of time scale s, 1/s, the distance of f_hat's
    poles from the real line.  On 156
    moments (s in {0.2, 1, 5}, five offsets b, z from 0.5 to 4, both
    mirrors) that took the heads from 1,166 GK15 batches and 76,080 nodes
    to 882 and 69,240, every one still within the summed estimates of the
    closed form.

    The cut does not come from the series' truncation bound
    (``oracle._split_radius``, which the Fourier oracle uses).
    For a two-sided exponential of time scale 0.2, that bound at abs_tol
    with weight u^{Re z - 1} pushed the cut to 160-640 for z >= 3.  There
    the head integrand u^{z-1} h(u) grows and cancels, and a moment took up
    to 2,634 evaluations at z = 5.  This ladder takes 468-516 for z = 1..5,
    and both stayed within their estimates of a 60-digit reference on 1,500
    moments.
    """
    sig = h.signal
    beta = sig.tail_beta
    coeffs = _side_coeffs(sig, -1 if mirror else 1)
    nonzero = [r for r, b_r in enumerate(coeffs) if b_r != 0.0]
    rate = -h.b if mirror else h.b  # of the phase e^{+-ibu}
    width = math.pi / abs(rate) if rate != 0.0 else None

    cut = max(10.0, 2.0 * abs(z))
    terms, errs, trunc_idx, trunc_err = [], [], 0, 0.0  # all-zero: exact
    for step in range(40 if nonzero else 0):
        if step:
            cut *= 1.6
        r0 = nonzero[0]
        try:
            tails = oscillatory_power_tails(z - r0 - beta, len(coeffs) - r0, rate, cut)
        except SpecFunError as exc:
            raise MellinError(f"tail term of order {r0} diverges: {exc}") from None
        terms = [0j] * r0 + [b_r * t for b_r, (t, _) in zip(coeffs[r0:], tails)]
        errs = [0.0] * r0 + [abs(b_r) * e for b_r, (_, e) in zip(coeffs[r0:], tails)]
        # Truncate the (possibly asymptotic) series at its smallest term.
        trunc_err, trunc_idx = min((abs(terms[r]), r) for r in nonzero)
        largest = max(abs(terms[r]) for r in nonzero)
        if trunc_err < 1e-12 * max(largest, 1e-300) or cut >= 0.5 * TRUNCATION_RADIUS:
            break
    q, _ = _series_truncation(sig)
    head = integrate(
        _integrand(h, z, mirror),
        (0.0, cut),
        cfg,
        breakpoints=_octaves(0.5 * q, cut),
        panel_width=width,
        left_singularity=(z.real - 1.0) if z.real < 1.0 else None,
    )
    tail_val = sum(terms[:trunc_idx])
    tail_err = sum(errs[:trunc_idx]) + trunc_err
    return MellinValue(
        head.value + tail_val,
        head.abs_error_estimate + tail_err,
        MellinMethod.SplitTailAnalytic,
    )


def _closed_form(h, z, mirror) -> MellinValue:
    """Exact moments.  A scaled signal A*f(t/sigma) has A*sigma^(1-z) times
    the built-in's moment at offset b/sigma (substitute v = sigma*u).

    Raises ``MellinError`` where no closed form applies, including where a
    special function leaves its supported range."""
    sig = h.signal
    b_eff = (-h.b if mirror else h.b) / sig.time_scale
    try:
        val, err = _builtin_closed_form(sig.kind, z, b_eff)
    except SpecFunError as exc:
        raise MellinError(
            f"no closed form for signal kind {sig.kind.value!r} at b={h.b:g}, "
            f"z={z}: {exc}"
        ) from None
    if sig.amplitude != 1.0 or sig.time_scale != 1.0:
        factor = sig.amplitude * cmath.exp((1.0 - z) * math.log(sig.time_scale))
        val, err = factor * val, abs(factor) * err
    return MellinValue(val, err, MellinMethod.ClosedForm)


def _builtin_closed_form(kind: SignalKind, z: complex, b: float):
    """The built-in signal's moment at offset b and its error estimate."""
    if kind == SignalKind.Lorentzian:
        g = gamma_complex(z)
        w = cmath.exp(-z * cmath.log(complex(1.0, -b)))
        val = math.pi * g.value * w
        return val, math.pi * g.abs_error_estimate * abs(w) + 1e-15 * abs(val)
    if kind == SignalKind.Gaussian:
        # h(u) = sqrt(2*pi) e^{i*b*u - u^2/2}: the modulated-Gaussian moment
        m = mellin_morlet_time(z, b, 1)
        return _SQRT_2PI * m.value, _SQRT_2PI * m.abs_error_estimate
    if b == 0.0:  # the two-sided exponential
        if not 0.0 < z.real < 2.0:
            raise MellinError(
                "the undamped transform of this signal only converges for "
                "0 < Re(z) < 2 at zero offset"
            )
        val = math.pi / cmath.sin(0.5 * math.pi * z)
        return val, 1e-14 * abs(val)
    return _two_sided_exp_closed_form(z, b)


def _two_sided_exp_closed_form(z: complex, b: float):
    """M[e^{ibu} 2/(1+u^2); z] at b != 0, by Gradshteyn-Ryzhik 3.383.10.

    2/(1+u^2) = -i [1/(u-i) - 1/(u+i)], and with the Abel damping,
    int_0^inf u^{z-1} e^{-mu u}/(u + beta) du
    = beta^{z-1} e^{beta mu} Gamma(z) Gamma(1-z, beta mu),  mu = eps - ib,
    for beta = -i and +i.  Then beta*mu = -b - i*eps and b + i*eps: on
    Gamma's branch cut when that is negative, approached from below for
    beta = -i and from above for beta = +i (DLMF 8.2(ii)), which the signed
    zero passes to the principal logarithm.  The error estimate counts both
    incomplete Gammas, Gamma(z), and the rounding of the exponential
    prefactors; near b = 0 the two terms cancel and it grows accordingly.
    """
    g = gamma_complex(z)
    cond = _EPS * (4.0 + abs(b) + 2.0 * abs(z - 1.0))
    total, err_inc, size = 0j, 0.0, 0.0
    for beta, x, sign in ((-1j, complex(-b, -0.0), 1.0), (1j, complex(b, 0.0), -1.0)):
        pre = cmath.exp((z - 1.0) * cmath.log(beta) + x)  # beta^(z-1) e^(beta mu)
        inc = upper_incomplete_gamma(1.0 - z, x)
        term = pre * inc.value
        total += sign * term
        err_inc += abs(pre) * inc.abs_error_estimate + cond * abs(term)
        size += abs(term)
    val = -1j * g.value * total
    return val, abs(g.value) * err_inc + g.abs_error_estimate * size


def mellin_transform(
    h: HSpec,
    z: complex,
    method: Union[str, MellinMethod] = "auto",
    config: Optional[QuadratureConfig] = None,
    mirror: bool = False,
) -> MellinValue:
    """Regularized Mellin transform M[h; z] (or of the mirrored h(-u)).

    ``method="auto"`` takes the analytic-tail split when the signal's
    transform decays algebraically (finite ``tail_beta``) and direct
    quadrature otherwise; ``MellinMethod.ClosedForm`` takes the closed form.
    The result's ``method`` names the route that ran.  A value or estimate
    that is not finite (near z = 0 the numeric routes' u^(z-1) overflows
    at the smallest nodes) raises ``MellinError``.
    """
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError(f"the transform needs Re(z) > 0, got z={z}")
    if method == MellinMethod.ClosedForm:
        result = _closed_form(h, z, mirror)
    elif method == "auto":
        cfg = config if config is not None else QuadratureConfig()
        route = (_split_tail_analytic if math.isfinite(h.signal.tail_beta)
                 else _pure_quadrature)
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            result = route(h, z, mirror, cfg)
    else:
        raise ValueError(
            f"method must be 'auto' or MellinMethod.ClosedForm, got {method!r}"
        )
    if not (cmath.isfinite(result.value) and math.isfinite(result.abs_error_estimate)):
        raise MellinError(f"the moment at z={z} is not finite ({result.method.value})")
    return result


def mellin_morlet_time(nu: complex, omega0: float, sign: int) -> MellinValue:
    """Closed-form moment int_0^inf t^{nu-1} e^{i*sign*omega0*t - t^2/2} dt.

    Equals Gamma(nu) e^{-omega0^2/4} D_{-nu}(-i*sign*omega0) with the
    parabolic cylinder function D.
    """
    nu = complex(nu)
    if nu.real <= 0.0:
        raise ValueError(f"the moment needs Re(nu) > 0, got nu={nu}")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    g = gamma_complex(nu)
    d = parabolic_cylinder_D(-nu, complex(0.0, -sign * omega0))
    pre = math.exp(-0.25 * omega0 * omega0)
    val = pre * g.value * d.value
    err = pre * (
        g.abs_error_estimate * abs(d.value) + abs(g.value) * d.abs_error_estimate
    )
    return MellinValue(val, err + 1e-15 * abs(val), MellinMethod.ClosedForm)
