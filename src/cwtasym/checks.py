"""Validation checks covering the package's numerical claims end to end.

Each check is registered with a stable name and can be run individually
(``cwtasym validate --only NAME``) or as a batch.  The same registry backs
the acceptance test suite, so the command-line gate and the pytest gate
cannot drift apart.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expansion import convergence_order, expansion_plan
from .mellin import MellinError, MellinMethod, mellin_morlet_time, mellin_transform
from .oracle import cwt_fourier, cwt_time
from .quadrature import QuadratureConfig, _cut_radius, _envelope_tail_bound, integrate
from .signals import SignalKind, make_h, make_signal, time_coefficient_table
from .specfun import _EPS, _TWO_PI, gamma_complex, parabolic_cylinder_D
from .wavelets import (
    WaveletKind,
    make_wavelet,
    small_u_coefficients,
    small_u_coefficients_numeric,
)

_LN2 = math.log(2.0)
# Measured against 40-digit references over 0 < nu <= 60, the elementary
# time moments are within 4.3 ulp (Mexican hat) and 1.8 ulp (Haar).
_CLOSED_ULPS = 8.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_REGISTRY: "list[tuple[str, str, Callable[[], tuple[bool, str]]]]" = []


def _register(name: str, description: str):
    def wrap(func):
        _REGISTRY.append((name, description, func))
        return func

    return wrap


def available_checks() -> list:
    """(name, description) pairs in registration order."""
    return [(name, desc) for name, desc, _ in _REGISTRY]


def run_check(name: str) -> CheckResult:
    for cname, _, func in _REGISTRY:
        if cname == name:
            passed, detail = func()
            return CheckResult(name=name, passed=passed, detail=detail)
    known = ", ".join(n for n, _, _ in _REGISTRY)
    raise KeyError(f"unknown check {name!r} (known: {known})")


def run_all(names: Optional[list] = None) -> list:
    if names is None:
        names = [n for n, _, _ in _REGISTRY]
    return [run_check(n) for n in names]


def _rel(x: complex, y: complex) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0.0 else 0.0


def mirror_sign(s: int, lam: int) -> complex:
    """The reflection factor (-1)**(s + lam + 1)."""
    return -1.0 + 0.0j if (s + lam + 1) % 2 else 1.0 + 0.0j


def _time_moment_closed(wavelet, nu: float, mirror: bool) -> tuple[complex, float]:
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


def moment_products(signal, wavelet, b: float, n: int, domain: str,
                    config: Optional[QuadratureConfig] = None):
    """The expansion's products P_s and their bounds rebuilt from one-sided
    moments, c_s (M+_s + ``mirror_sign(s, lam)`` M-_s) with each mirror
    computed: the plan's reference, sharing none of its formula.  Frequency:
    c^psi_s and the Mellin moments of h(u) = e^{ibu} f_hat(u) at s + lam
    over 2 pi, closed forms or, where one raises or misses max(abs_tol,
    rel_tol |value|), "auto".  Time: c^f_s(b) and ``_time_moment_closed``.
    """
    cfg = config if config is not None else QuadratureConfig()
    lam, h = wavelet.lam, make_h(signal, b)
    if domain == "frequency":
        table = small_u_coefficients(wavelet, n)
        cs, c_errs = table.coefficients, table.error_estimates
    else:
        cs, c_errs = time_coefficient_table(signal, b, n)

    def moment(s, mirror):
        if domain != "frequency":
            return _time_moment_closed(wavelet, float(s + 1), mirror)
        try:
            m = mellin_transform(
                h, s + lam, MellinMethod.ClosedForm, cfg, mirror=mirror)
            # written so that a NaN estimate also falls back
            if m.abs_error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(m.value)):
                return m.value / _TWO_PI, m.abs_error_estimate / _TWO_PI
        except MellinError:
            pass
        m = mellin_transform(h, s + lam, "auto", cfg, mirror=mirror)
        return m.value / _TWO_PI, m.abs_error_estimate / _TWO_PI

    products, errors = np.zeros(n, dtype=complex), np.zeros(n)
    for s, (c, c_err) in enumerate(zip(cs, c_errs)):
        if c != 0.0 or c_err != 0.0:
            (m_plus, e_plus), (m_minus, e_minus) = moment(s, False), moment(s, True)
            pair = m_plus + mirror_sign(s, lam) * m_minus
            products[s] = c * pair
            errors[s] = abs(c) * (e_plus + e_minus) + c_err * abs(pair)
    return products, errors


@_register(
    "coefficient_tables",
    "closed-form small-argument wavelet coefficients vs contour-moment oracle",
)
def _check_coefficient_tables():
    wavelets = [
        ("morlet u0=2", make_wavelet(WaveletKind.Morlet, u0=2.0)),
        ("morlet u0=5", make_wavelet(WaveletKind.Morlet, u0=5.0)),
        ("mexhat", make_wavelet(WaveletKind.MexicanHat)),
        ("haar", make_wavelet(WaveletKind.Haar)),
    ]
    worst = 0.0
    worst_at = ""
    for label, spec in wavelets:
        closed = small_u_coefficients(spec, 11).coefficients
        # The rounding of coefficient s is about eps*max|psi_hat|/r^s on a
        # circle of radius r, so a larger circle loses less on the high
        # orders (Bornemann, Found. Comput. Math. 11, 2011, on the radius of
        # Cauchy-integral differentiation): the worst difference is 9.9e-12
        # at radius 0.5 and 7e-16 at radius 2.
        numeric = small_u_coefficients_numeric(spec, 11, radius=2.0).coefficients
        diffs = np.abs(closed - numeric)
        k = int(np.argmax(diffs))
        if diffs[k] > worst:
            worst, worst_at = float(diffs[k]), f"{label} s={k}"
        if spec.kind == WaveletKind.Haar and closed[0] != 0.0:
            return False, f"haar c_0 = {closed[0]} is not an exact zero"
        if spec.kind == WaveletKind.MexicanHat:
            bad = [s for s in range(11) if (s % 2 or s == 0) and closed[s] != 0.0]
            if bad:
                return False, f"mexhat structural zeros violated at s={bad}"
    ok = worst <= 1e-10
    return ok, f"max |closed - numeric| = {worst:.3e} ({worst_at}); tol 1e-10"


@_register(
    "oracle_consistency",
    "time-domain vs frequency-domain transform oracle on a parameter grid",
)
def _check_oracle_consistency():
    cfg = QuadratureConfig()
    signals = [
        make_signal(SignalKind.Lorentzian),
        make_signal(SignalKind.TwoSidedExp),
        make_signal(SignalKind.Gaussian),
    ]
    wavelets = [
        make_wavelet(WaveletKind.Morlet, u0=5.0),
        make_wavelet(WaveletKind.MexicanHat),
        make_wavelet(WaveletKind.Haar),
    ]
    worst = 0.0
    worst_at = ""
    grid = (0.05, 0.2, 1.0)
    for sig in signals:
        for wav in wavelets:
            for b in (0.0, 1.0):
                # one grid call: the shared-mesh path, held per point
                for a, wt in zip(grid, cwt_time(sig, wav, grid, b, cfg)):
                    wf = cwt_fourier(sig, wav, a, b, cfg)
                    r = _rel(wt.value, wf.value)
                    if r > worst:
                        worst = r
                        worst_at = (
                            f"{sig.kind.value} x {wav.kind.value} a={a} b={b}"
                        )
    ok = worst <= 1e-6
    return ok, f"max relative disagreement = {worst:.3e} ({worst_at}); tol 1e-6"


@_register(
    "mellin_reference_values",
    "regularized Mellin moments of the rational-decay signal vs gamma closed forms",
)
def _check_mellin_reference_values():
    cfg = QuadratureConfig()
    sig = make_signal(SignalKind.Lorentzian)
    worst0 = 0.0
    for z in (1.0, 1.5, 2.0, 3.5):
        got = mellin_transform(make_h(sig, 0.0), z, "auto", cfg).value
        ref = math.pi * math.gamma(z)
        worst0 = max(worst0, _rel(got, ref))
    worst1 = 0.0
    for z in (1.0, 1.5, 2.0, 3.5):
        got = mellin_transform(make_h(sig, 1.0), z, "auto", cfg).value
        ref = math.pi * math.gamma(z) * (1.0 - 1.0j) ** (-z)
        worst1 = max(worst1, _rel(got, ref))
    ok = worst0 <= 1e-8 and worst1 <= 1e-7
    return ok, (
        f"b=0: max rel = {worst0:.3e} (tol 1e-8); "
        f"b=1: max rel = {worst1:.3e} (tol 1e-7)"
    )


@_register(
    "mellin_method_agreement",
    "analytic-tail splitting vs the closed form on a conditionally convergent case",
)
def _check_mellin_method_agreement():
    # At b = 2 the closed form's incomplete Gammas take the series branch
    # (|x| = 2) and the split tail's the continued fraction (|x| = 2 cut,
    # at least 20), so the two share no numerical branch; the mirror adds
    # the tail of rate -b.
    cfg = QuadratureConfig()
    sig = make_signal(SignalKind.TwoSidedExp)
    h = make_h(sig, 2.0)
    worst, routes = 0.0, set()
    for z in (1.5, 2.5):
        for mirror in (False, True):
            tail, closed = (
                mellin_transform(h, z, method, cfg, mirror=mirror)
                for method in ("auto", MellinMethod.ClosedForm)
            )
            routes.add(tail.method)
            worst = max(worst, _rel(tail.value, closed.value))
    if routes != {MellinMethod.SplitTailAnalytic}:
        taken = ", ".join(sorted(r.value for r in routes))
        return False, f"auto took {taken}, not the split tail"
    ok = worst <= 1e-6
    return ok, f"max relative disagreement = {worst:.3e}; tol 1e-6"


@_register(
    "cylinder_function_identity",
    "oscillatory Gaussian moment quadrature vs the parabolic cylinder function",
)
def _check_cylinder_function_identity():
    cfg = QuadratureConfig()
    worst_ratio = 0.0
    worst_at = ""
    for nu in (1.0, 2.0, 3.5):
        gam = gamma_complex(nu).value
        for w0 in (1.0, 5.0):

            def integrand(t, _nu=nu, _w0=w0):
                t = np.asarray(t, dtype=float)
                return t ** (_nu - 1.0) * np.exp(1j * _w0 * t - 0.5 * t * t)

            envelope = ("gauss", 1.0, 0.5)
            cut = _cut_radius(envelope, 1e-16, nu - 1.0)
            quad = integrate(
                integrand,
                (0.0, cut),
                cfg,
                panel_width=math.pi / w0,
                tail_bound=_envelope_tail_bound(envelope, cut, nu - 1.0),
            )
            closed = (
                gam
                * cmath.exp(-w0 * w0 / 4.0)
                * parabolic_cylinder_D(-nu, -1j * w0).value
            )
            ratio = abs(quad.value - closed) / abs(gam)
            if ratio > worst_ratio:
                worst_ratio, worst_at = ratio, f"nu={nu} w0={w0}"
    ok = worst_ratio <= 1e-7
    return ok, (
        f"max |quadrature - closed| / Gamma(nu) = {worst_ratio:.3e} "
        f"({worst_at}); tol 1e-7"
    )


@_register(
    "remainder_identity",
    "truncated expansion plus computed remainder reproduces the transform exactly",
)
def _check_remainder_identity():
    cfg = QuadratureConfig()
    morlet = make_wavelet(WaveletKind.Morlet, u0=5.0)
    # The two-sided exponential's transform decays only algebraically, so its
    # remainder takes the analytic-tail split rather than one quadrature.
    # That split shares its tail engine with cwt_fourier, so those cases are
    # also held against cwt_time, which shares nothing with either.
    cases = [
        (SignalKind.Lorentzian, morlet, 0.5, 0.0),
        (SignalKind.Lorentzian, morlet, 0.1, 0.0),
        (SignalKind.TwoSidedExp, morlet, 0.1, 1.0),
        (SignalKind.TwoSidedExp, make_wavelet(WaveletKind.Haar), 0.1, 1.0),
    ]
    lines = []
    ok = True
    for kind, wav, a, b in cases:
        sig = make_signal(kind)
        res = expansion_plan(sig, wav, b, 3, config=cfg).at(a, "integral_m0")
        oracle = cwt_fourier(sig, wav, a, b, cfg)
        own = (
            res.abs_error_estimate
            + res.remainder_scale * res.remainder_error_estimate
        )
        diff = abs(oracle.value - res.prediction)
        budget = own + oracle.abs_error_estimate
        ok = ok and diff <= budget
        line = (
            f"{kind.value} x {wav.kind.value} a={a} b={b}: "
            f"|oracle - reconstruction| = {diff:.3e} <= {budget:.3e}"
        )
        if math.isfinite(sig.tail_beta):
            timed = cwt_time(sig, wav, a, b, cfg)
            diff = abs(timed.value - res.prediction)
            budget = own + timed.abs_error_estimate
            ok = ok and diff <= budget
            line += f", |time - reconstruction| = {diff:.3e} <= {budget:.3e}"
        lines.append(line)
    return ok, "; ".join(lines)


@_register(
    "convergence_orders",
    "fitted log-log error orders of the truncated expansion in the small-dilation limit",
)
def _check_convergence_orders():
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16)
    sig = make_signal(SignalKind.Lorentzian)
    # Expected order = (first omitted term with a nonzero product) + 1/2.
    # At b=1 the s=3 product vanishes identically, since the Lorentzian's
    # f'''(t) = 24 t (1 - t^2) / (1 + t^2)^4 is 0 at t = 1, so for n=3 the
    # leading omitted term is s=4.
    cases = [
        (make_wavelet(WaveletKind.Morlet, u0=5.0), 1.0, 1, 1.5, 0.15),
        (make_wavelet(WaveletKind.Morlet, u0=5.0), 1.0, 3, 4.5, 0.15),
        (make_wavelet(WaveletKind.MexicanHat), 0.0, 3, 4.5, 0.15),
        (make_wavelet(WaveletKind.Haar), 0.0, 2, 2.5, 0.20),
    ]
    a_values = 10.0 ** np.array([-1.0, -1.5, -2.0, -2.5])
    lines = []
    ok = True
    for wav, b, n, expected, tol_frac in cases:
        plan = expansion_plan(sig, wav, b, n, config=cfg)
        errors = []
        for a in a_values:
            res = plan.at(float(a))
            oracle = cwt_fourier(sig, wav, float(a), b, cfg)
            errors.append(abs(oracle.value - res.partial_sum))
        order = convergence_order(a_values, errors)
        good = abs(order - expected) <= tol_frac * expected
        ok = ok and good
        lines.append(
            f"{wav.kind.value} b={b} n={n}: fitted {order:.3f}, "
            f"expected {expected} +-{int(tol_frac * 100)}%"
        )
    return ok, "; ".join(lines)


@_register(
    "route_agreement",
    "expansion products match both routes' moments and the partial sum tracks the oracle",
)
def _check_route_agreement():
    # at b = 0.7 the Lorentzian's odd Taylor coefficients are not zero, so
    # an odd-order sign error shows
    cfg = QuadratureConfig()
    sig = make_signal(SignalKind.Lorentzian)
    wav = make_wavelet(WaveletKind.Morlet, u0=2.0)
    a, n = 0.05, 4
    worst = {"frequency": 0.0, "time": 0.0}
    for b, domain in itertools.product((0.0, 0.7), worst):
        plan = expansion_plan(sig, wav, b, n, config=cfg)
        ref, ref_err = moment_products(sig, wav, b, n, domain, cfg)
        gap, budget = np.abs(plan.products - ref), plan.product_errors + ref_err
        # a budget of 0 is two exact zeros, and then so must the gap be
        ratio = np.divide(gap, budget, where=budget > 0.0,
                          out=np.where(gap > 0.0, math.inf, 0.0))
        worst[domain] = max(worst[domain], float(ratio.max()))
    partial = expansion_plan(sig, wav, 0.0, n, config=cfg).at(a).partial_sum
    oracle = cwt_fourier(sig, wav, a, 0.0, cfg)
    rel = abs(partial - oracle.value) / abs(oracle.value)
    ok = max(worst.values()) <= 1.0 and rel <= 0.05
    return ok, (
        f"|P_s - moment products| / summed estimates <= "
        f"{worst['frequency']:.3f} (frequency), {worst['time']:.3f} (time) "
        f"at b = 0, 0.7; partial sum vs oracle: {rel:.3%}; tol 1, 5%"
    )


@_register(
    "leading_order_limit",
    "small-dilation limit reproduces the closed-form leading coefficient",
)
def _check_leading_order_limit():
    cfg = QuadratureConfig()
    sig = make_signal(SignalKind.Lorentzian)
    a = 1e-3
    lines = []
    ok = True
    for u0 in (2.0, 5.0):
        wav = make_wavelet(WaveletKind.Morlet, u0=u0)
        oracle = cwt_fourier(sig, wav, a, 0.0, cfg)
        lead = math.sqrt(_TWO_PI) * math.exp(-0.5 * u0 * u0) * math.sqrt(a)
        ratio = oracle.value / lead
        good = abs(ratio - 1.0) <= 0.02
        ok = ok and good
        lines.append(f"u0={u0}: ratio = {ratio.real:.6f}{ratio.imag:+.2e}j")
    return ok, "; ".join(lines) + "; tol |ratio - 1| <= 2%"


@_register(
    "sweep_determinism",
    "sweep output is byte-identical across repeats and worker counts",
)
def _check_sweep_determinism():
    from .cli import main as cli_main

    argv_base = [
        "sweep",
        "--signal",
        "lorentzian",
        "--wavelet",
        "morlet",
        "--u0",
        "5",
        "--b",
        "0",
        "--a-min",
        "0.01",
        "--a-max",
        "0.1",
        "--a-count",
        "4",
        "--log",
        "--n",
        "2",
        "--tol",
        "1e-8",
    ]
    # The time oracle runs on one thread whatever --jobs says, so the worker
    # counts are compared on the Fourier oracle, which splits points over them.
    runs = (
        ["--jobs", "1"],
        ["--jobs", "1"],
        ["--jobs", "1", "--oracle", "fourier"],
        ["--jobs", "8", "--oracle", "fourier"],
    )
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, extra in enumerate(runs):
            path = os.path.join(tmp, f"sweep_{i}.csv")
            code = cli_main(argv_base + extra + ["--out", path])
            if code != 0:
                return False, f"sweep run {i} exited with code {code}"
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    same_repeat = outputs[0] == outputs[1]
    same_jobs = outputs[2] == outputs[3]
    ok = same_repeat and same_jobs
    return ok, (
        f"repeat runs identical: {same_repeat}; "
        f"fourier oracle jobs 1 vs 8 identical: {same_jobs} "
        f"({len(outputs[0])}, {len(outputs[2])} bytes)"
    )
