"""Complex special functions: Gamma, upper incomplete Gamma, parabolic cylinder D.

Everything here is self-contained double-precision code.  Each routine returns
a SpecFunResult carrying the value, a (heuristic but conservative) absolute
error estimate, and the evaluation method that was used.
``oscillatory_power_tails`` is the one routine that integrates an
inverse-power series against a phase beyond a radius: a run of orders that
differ by integers, from one incomplete Gamma and its recurrence.
``gaussian_taylor`` gives the Gaussian wavelet's and the Gaussian
signal's Taylor coefficients, from the probabilists' Hermite polynomials,
with bounds on their rounding, and
``taylor_tail`` is the one evaluator of a function less its Taylor
polynomial, behind the exact remainder.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_EPS = 2.220446049250313e-16
_TINY = 5e-324  # the least subnormal: the absolute rounding of an underflow
_SQRT_PI = math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SpecFunMethod(Enum):
    Series = "series"
    ContinuedFraction = "continued_fraction"
    Reflection = "reflection"


@dataclass(frozen=True)
class SpecFunResult:
    value: complex
    abs_error_estimate: float
    method: SpecFunMethod


class SpecFunError(ArithmeticError):
    """Raised on poles, series divergence, or loss of convergence."""


# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(z: complex, tol: float = 0.0) -> bool:
    if abs(z.imag) > tol:
        return False
    r = z.real
    return r <= 0.5 and abs(r - round(r)) <= tol and round(r) <= 0


def _lanczos(z: complex) -> complex:
    # valid for Re z >= 0.5
    zm = z - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (zm + i)
    t = zm + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (zm + 0.5) * cmath.exp(-t) * acc


def gamma_complex(z: complex) -> SpecFunResult:
    """Gamma(z) for complex z away from the nonpositive-integer poles."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise SpecFunError(f"gamma pole at z={z}")
    if z.real >= 0.5:
        val = _lanczos(z)
        est = abs(val) * 1e-13 * (1.0 + abs(z) / 25.0)
        return SpecFunResult(val, est, SpecFunMethod.Series)
    s = cmath.sin(math.pi * z)
    if s == 0:
        raise SpecFunError(f"gamma pole at z={z}")
    val = math.pi / (s * _lanczos(1.0 - z))
    # conditioning of the reflection is governed by distance to the poles
    cond = 1.0 + abs(math.pi * z) * abs(cmath.cos(math.pi * z) / s)
    est = abs(val) * (1e-13 * (1.0 + abs(z) / 25.0) + _EPS * cond)
    return SpecFunResult(val, est, SpecFunMethod.Reflection)


def _e1_series(x: complex) -> tuple[complex, float]:
    """E1(x) = Gamma(0, x) by the classical small-argument series."""
    euler = 0.5772156649015328606
    total = -euler - cmath.log(x)
    term = 1.0 + 0j
    abs_sum = abs(total)
    for k in range(1, 400):
        term *= -x / k
        inc = -term / k
        total += inc
        abs_sum += abs(inc)
        if abs(inc) <= _EPS * abs(total):
            return total, _EPS * abs_sum * 4.0 + abs(inc)
    raise SpecFunError(f"E1 series failed to converge at x={x}")


def _lower_gamma_series(a: complex, x: complex) -> tuple[complex, float]:
    """lower gamma(a, x) = x^a e^(-x) sum_k x^k / (a (a+1) ... (a+k))."""
    term = 1.0 / a
    total = term
    abs_sum = abs(term)
    for k in range(1, 1000):
        term *= x / (a + k)
        total += term
        abs_sum += abs(term)
        if abs(term) <= _EPS * abs(total):
            scale = cmath.exp(a * cmath.log(x) - x)
            return scale * total, abs(scale) * (_EPS * abs_sum * 4.0 + abs(term))
    raise SpecFunError(f"incomplete-gamma series failed to converge (a={a}, x={x})")


def _upper_gamma_cf(s: complex, x: complex) -> tuple[complex, float, int]:
    """Gamma(s, x) by the Lentz continued fraction; returns (value, residual, iters)."""
    tiny = 1e-300
    b0 = x + 1.0 - s
    f = b0 if abs(b0) > tiny else tiny
    c = f
    d = 0.0 + 0j
    delta = 2.0 + 0j
    for k in range(1, 600):
        ak = k * (s - k)
        bk = b0 + 2.0 * k
        d = bk + ak * d
        if abs(d) < tiny:
            d = tiny
        c = bk + ak / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            val = cmath.exp(-x + s * cmath.log(x)) / f
            return val, abs(val) * (abs(delta - 1.0) + _EPS * k), k
    raise SpecFunError(
        f"incomplete-gamma continued fraction stalled (s={s}, x={x}, "
        f"residual={abs(delta - 1.0):.3e})"
    )


def _exp_cond(s: complex, x: complex, log_x: complex) -> float:
    """Relative error of e^{s log x - x}: eps times the size of its argument,
    since x itself comes rounded from the caller."""
    return _EPS * (1.0 + abs(x) + abs(s * log_x))


def upper_incomplete_gamma(s: complex, x: complex) -> SpecFunResult:
    """Gamma(s, x) with the principal branch of x^s.

    Continued fraction for large |x|, series plus downward recurrence
    otherwise; supports purely imaginary x.  The error estimate includes
    the conditioning of every e^{s log x - x} the route evaluates.
    """
    s = complex(s)
    x = complex(x)
    if x == 0:
        if s.real > 0:
            g = gamma_complex(s)
            return SpecFunResult(g.value, g.abs_error_estimate, SpecFunMethod.Series)
        raise SpecFunError("Gamma(s, 0) requires Re s > 0")
    log_x = cmath.log(x)
    if abs(x) >= max(4.0, abs(s)) and abs(cmath.phase(x)) <= 0.9 * math.pi:
        val, est, _ = _upper_gamma_cf(s, x)
        est += _exp_cond(s, x, log_x) * abs(val)
        return SpecFunResult(val, est, SpecFunMethod.ContinuedFraction)

    # Series route: raise Re s above 1/2, then recur back down.
    m = 0 if s.real > 0.5 else int(math.ceil(0.5 - s.real)) + 1
    top = s + m
    low, low_err = _lower_gamma_series(top, x)
    g = gamma_complex(top)
    val = g.value - low
    est = g.abs_error_estimate + low_err + _EPS * (abs(g.value) + abs(low))
    for j in range(m - 1, -1, -1):
        sj = s + j
        piece = cmath.exp(sj * log_x - x)
        if sj == 0:
            # The recurrence cannot cross s = 0; restart from Gamma(0, x) = E1(x).
            val, est = _e1_series(x)
            continue
        val = (val - piece) / sj
        est = (est + _EPS * abs(piece)) / abs(sj)
    est += _exp_cond(s, x, log_x) * abs(val)
    return SpecFunResult(val, est, SpecFunMethod.Series)


def _kummer_series(a: complex, b: complex, w: complex) -> tuple[complex, float]:
    term = 1.0 + 0j
    total = term
    abs_sum = 1.0
    for k in range(0, 20000):
        term *= (a + k) * w / ((b + k) * (k + 1.0))
        total += term
        abs_sum += abs(term)
        if abs(term) <= _EPS * abs(total) and k > 2:
            return total, _EPS * abs_sum * 4.0 + abs(term) * 4.0
    raise SpecFunError(f"confluent series failed to converge (a={a}, b={b}, w={w})")


def _kummer(a: complex, b: complex, w: complex) -> tuple[complex, float]:
    """M(a, b, w); for Re w < 0 apply the e^w M(b-a, b, -w) transformation."""
    if w.real < 0:
        val, err = _kummer_series(b - a, b, -w)
        scale = cmath.exp(w)
        return scale * val, abs(scale) * err + _EPS * abs(scale * val) * 4.0
    val, err = _kummer_series(a, b, w)
    return val, err


def _recip_gamma(z: complex) -> complex:
    if abs(z.imag) < 1e-12 and abs(z.real - round(z.real)) < 1e-12 and round(z.real) <= 0:
        return 0.0 + 0j
    return 1.0 / gamma_complex(z).value


def parabolic_cylinder_D(nu: complex, z: complex) -> SpecFunResult:
    """D_nu(z) via the two-Kummer-series decomposition in w = z^2/2."""
    nu = complex(nu)
    z = complex(z)
    if abs(z) > 30.0 or nu.real < -20.0:
        raise SpecFunError(
            f"parabolic cylinder series outside supported range (nu={nu}, z={z})"
        )
    w = 0.5 * z * z
    m1, e1 = _kummer(-0.5 * nu, 0.5, w)
    m2, e2 = _kummer(0.5 * (1.0 - nu), 1.5, w)
    r1 = _recip_gamma(0.5 * (1.0 - nu))
    r2 = _recip_gamma(-0.5 * nu)
    pre = cmath.exp(0.5 * nu * math.log(2.0) - 0.5 * w)
    val = pre * (_SQRT_PI * r1 * m1 - _SQRT_2PI * z * r2 * m2)
    est = abs(pre) * (_SQRT_PI * abs(r1) * e1 + _SQRT_2PI * abs(z) * abs(r2) * e2)
    est += 8.0 * _EPS * abs(val)
    return SpecFunResult(val, est, SpecFunMethod.Series)


def oscillatory_power_tails(
    sigma: complex, count: int, c: float, radius: float
) -> list[tuple[complex, float]]:
    """The Abel-regularized integrals of t**(s-1) * e^{ict} over (radius, inf)
    for the orders s = sigma - k, k = 0..count-1: (value, error) pairs.

    For c != 0 each rotates onto the incomplete Gamma function,
    (-ic)**(-s) * Gamma(s, x) with x = -ic*radius, and the orders differ by
    integers, so one incomplete Gamma serves them all through
    Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}.  Upward in s the recurrence
    is stable where |s| < |x|, downward where |s| > |x|, so it starts from
    the order with |s| nearest |x| from below and runs outward both ways;
    each step carries the error already made, times the recurrence's gain,
    plus the rounding of that step and the conditioning of its exponential
    (see ``_exp_cond``).  For c*radius < 1e-8 the phase is dropped and each
    tail is the elementary -radius**s / s, which needs Re(sigma) < 0.
    """
    sigma = complex(sigma)
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    if count <= 0:
        return []
    orders = [sigma - k for k in range(count)]
    if abs(c) * radius < 1e-8:
        if sigma.real >= 0.0:
            raise SpecFunError(
                f"power tail with Re(sigma)={sigma.real:g} >= 0 diverges at c=0"
            )
        vals = [-cmath.exp(s * math.log(radius)) / s for s in orders]
        # First-order sensitivity to the dropped phase.
        return [(v, abs(c) * radius * abs(v) + 4.0 * _EPS * abs(v)) for v in vals]
    q = complex(0.0, -c)
    x = q * radius
    log_x = cmath.log(x)

    # The anchor is the last order with |s| <= |x|, where the continued
    # fraction converges; the orders before it (larger s) are reached
    # upward, those after it downward.  s = 0 satisfies |s| <= |x|, so the
    # downward steps never divide by it.
    start = max((k for k in range(count) if abs(orders[k]) <= abs(x)), default=0)
    vals = [0j] * count
    errs = [0.0] * count
    g = upper_incomplete_gamma(orders[start], x)
    vals[start], errs[start] = g.value, g.abs_error_estimate
    for k in range(start, 0, -1):  # up: Gamma(s+1) from Gamma(s), s = orders[k]
        s = orders[k]
        step, p = s * vals[k], cmath.exp(s * log_x - x)
        vals[k - 1] = step + p
        p_err = _exp_cond(s, x, log_x) * abs(p)
        errs[k - 1] = abs(s) * errs[k] + _EPS * abs(step) + p_err
    for k in range(start + 1, count):  # down: Gamma(s) from Gamma(s+1)
        s = orders[k]
        p = cmath.exp(s * log_x - x)
        vals[k] = (vals[k - 1] - p) / s
        p_err = _exp_cond(s, x, log_x) * abs(p)
        errs[k] = (errs[k - 1] + _EPS * abs(vals[k - 1]) + p_err) / abs(s)
    log_q = cmath.log(q)
    out = []
    for s, v, e in zip(orders, vals, errs):
        scale = cmath.exp(-s * log_q)
        val = scale * v
        out.append((val, abs(scale) * e + 4.0 * _EPS * abs(val)))
    return out


def gaussian_taylor(x: float, n: int, scale: float = 1.0):
    """Taylor coefficients at t = 0 of scale * e^{-(t - x)^2/2}, that is
    scale * e^{-x^2/2} He_s(x) / s! for s < n, and bounds on their rounding
    (x exact, scale rounded once): e^{-x^2/2}'s relative eps x^2/2 (x*x
    rounds) and the Hermite recurrence's 2 (s-1) eps A_s, A_s = |x| A_(s-1)
    + (s-1) A_(s-2), which bounds by induction the error recurrence
    e_s = |x| e_(s-1) + (s-1) e_(s-2) + 2 eps A_s of each step's roundings.
    Where e^{-x^2/2} underflows the coefficients are 0, bounded in logs by
    |scale| e^{-x^2/2} (|x| + sqrt(s))^s / s! (|He_s(x)| <= (|x| + sqrt(s))^s
    by induction).  Each bound but an exact zero's adds the least subnormal
    for each rounding that may underflow (exp's, scaled, and the product's).
    """
    pre = scale * math.exp(-0.5 * x * x)
    if pre == 0.0:
        log_bound = [s * math.log(abs(x) + math.sqrt(s)) - 0.5 * x * x
                     - math.lgamma(s + 1.0) for s in range(n)]
        return np.zeros(n, dtype=complex), abs(scale) * np.exp(log_bound) + _TINY
    # He_s = x He_(s-1) - (s-1) He_(s-2), and its absolute recurrence A_s
    he, big = [1.0, x], [1.0, abs(x)]
    for s in range(2, n):
        he.append(x * he[s - 1] - (s - 1) * he[s - 2])
        big.append(abs(x) * big[s - 1] + (s - 1) * big[s - 2])
    he = np.array(he[:n])
    he_err = 2.0 * _EPS * np.maximum(np.arange(n) - 1.0, 0.0) * np.array(big[:n])
    fact = np.array([math.factorial(s) for s in range(n)], dtype=float)
    pre_err = abs(pre) * _EPS * (0.5 * x * x + 2.0) + (abs(scale) + 1.0) * _TINY
    values = pre * he / fact
    errors = ((abs(pre) * he_err + np.abs(he) * pre_err) / fact
              + 2.0 * _EPS * np.abs(values) + _TINY)
    return values.astype(complex), np.where(he != 0.0, errors, 0.0)  # exact zeros


# Taylor coefficients past the n-th in the tables that ``taylor_tail`` sums.
_TAIL_TERMS = 40


def horner(coeffs, x) -> np.ndarray:
    """sum_k coeffs[k] * x**k by Horner's rule, complex, shaped like x."""
    acc = np.zeros(np.shape(x), dtype=complex)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _cpow(x: np.ndarray, zm1: complex) -> np.ndarray:
    """x**zm1 for x > 0 with complex exponent, vectorized."""
    if zm1 == 0:
        return np.ones(x.shape, dtype=complex)
    return np.exp(zm1 * np.log(x))


def taylor_tail(full, coefficients, n: int, cutover: float):
    """Evaluator of full(x) less its first n Taylor terms, stable near x = 0.

    ``coefficients`` is the array of full's Taylor coefficients c_0, c_1,
    ... at 0, at least n of them; callers build it with n + _TAIL_TERMS
    where those exist, and take their own first n from it.  Below the
    cutover the tail is summed from c_n, c_(n+1), ..., stopping where the
    omitted terms, each at its largest |c_k| cutover^k, add up to less than
    eps times the kept ones; above it (everywhere, when the array holds
    only n) it is full(x) less the polynomial.  Returns the evaluator and
    that sum of omitted terms, which bounds the series' truncation error
    anywhere below the cutover.  Terms past the array are not counted;
    callers choose the cutover well inside the series' radius, so they are
    negligible.
    """
    cs = np.asarray(coefficients)
    head, tail = cs[:n], cs[n:]
    series, omitted = tail, 0.0
    if tail.size == 0:
        cutover = 0.0
    else:
        sizes = np.abs(tail) * cutover ** np.arange(n, n + tail.size)
        kept = np.cumsum(sizes)
        rest = np.append(np.cumsum(sizes[::-1])[-2::-1], 0.0)
        stop = np.flatnonzero(rest <= _EPS * kept)
        count = int(stop[0]) + 1 if stop.size else tail.size
        series = tail[:count]
        omitted = float(sizes[count:].sum())

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        small = np.abs(x) < cutover
        xs = x[small]
        out[small] = horner(series, xs) * xs ** n
        xb = x[~small]
        out[~small] = full(xb) - horner(head, xb)
        return out

    return evaluate, omitted
