import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cwtasym.expansion import _time_moment_quadrature
from cwtasym.quadrature import (
    _NODES,
    _WG15,
    _WK15,
    TRUNCATION_RADIUS,
    QuadratureConfig,
    QuadratureError,
    _cut_radius,
    _envelope_tail_bound,
    _initial_edges,
    integrate,
    worst_status,
)
from cwtasym.wavelets import WaveletKind, make_wavelet


_EPS = np.finfo(float).eps


def _bisections(res):
    # every panel costs 15 evaluations and each bisection adds one panel at
    # the price of two: n_evaluations = 15 * (n_panels + bisections)
    return res.n_evaluations // 15 - res.n_panels


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=1e-18)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
    cfg = QuadratureConfig(rel_tol=1e-8)
    assert cfg.rel_tol == 1e-8


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        QuadratureConfig(**{field: math.nan})


@pytest.mark.parametrize(
    "f,domain,ref",
    [
        (lambda x: x ** 3 - 2 * x + 1.0, (0.0, 2.0), 2.0),
        (lambda x: np.exp(-x), (0.0, 50.0), 1.0 - math.exp(-50.0)),
        (lambda x: np.sin(x), (0.0, math.pi), 2.0),
        (lambda x: 1.0 / (1.0 + x * x), (-40.0, 40.0), 2.0 * math.atan(40.0)),
    ],
)
def test_finite_interval_values(f, domain, ref):
    res = integrate(f, domain)
    assert_allclose(res.value, ref, rtol=1e-12, atol=1e-14)
    assert res.converged
    # bisected panels are evaluated before splitting, so the total
    # evaluation count exceeds 15 per surviving panel
    assert res.n_evaluations >= 15 * res.n_panels


# Each integral over an infinite range below is cut where a bound on its
# tail meets the absolute tolerance, and that bound joins the estimate.
_ABS_TOL = QuadratureConfig().abs_tol


def _cut(envelope, tol, power=0.0):
    """The rule's radius for u^power * envelope at tol, and its bound there."""
    radius = _cut_radius(envelope, tol, power)
    return radius, _envelope_tail_bound(envelope, radius, power)


def test_infinite_domain_gaussian():
    cut, bound = _cut(("gauss", 1.0, 1.0), _ABS_TOL)
    res = integrate(
        lambda x: np.exp(-x * x),
        (-cut, cut),
        tail_bound=2.0 * bound,
    )
    assert_allclose(res.value, math.sqrt(math.pi), rtol=1e-12)
    assert abs(res.value - math.sqrt(math.pi)) <= res.abs_error_estimate


def test_semi_infinite_oscillatory_with_period_hint():
    w = 37.0
    cut, bound = _cut(("exp", 1.0, 1.0), _ABS_TOL)
    res = integrate(
        lambda x: np.cos(w * x) * np.exp(-x),
        (0.0, cut),
        panel_width=math.pi / w,
        tail_bound=bound,
    )
    assert_allclose(res.value, 1.0 / (1.0 + w * w), rtol=1e-11, atol=1e-15)
    # the older spelling passes the whole period: the same first mesh
    old = integrate(
        lambda x: np.cos(w * x) * np.exp(-x),
        (0.0, cut),
        period_hint=2.0 * math.pi / w,
        tail_bound=bound,
    )
    assert old == res


def test_left_singularity_substitution():
    # x^(-1/2) * exp(-x) over (0, inf) = sqrt(pi)
    cut, bound = _cut(("exp", 1.0, 1.0), _ABS_TOL, -0.5)
    res = integrate(
        lambda x: np.exp(-x) / np.sqrt(x),
        (0.0, cut),
        left_singularity=-0.5,
        tail_bound=bound,
    )
    assert_allclose(res.value, math.sqrt(math.pi), rtol=1e-11)


@pytest.mark.parametrize(
    "domain",
    [(math.nan, 1.0), (0.0, math.nan), (1.0, 0.0), (2.0, 2.0),
     (-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf)],
)
def test_domain_must_be_finite_and_increasing(domain):
    with pytest.raises(QuadratureError, match="invalid domain"):
        integrate(lambda x: np.exp(-x * x), domain)


def test_breakpoints_resolve_kinks():
    ref = 2.0 - math.exp(-2.3) - math.exp(-3.7)
    res = integrate(
        lambda x: np.exp(-np.abs(x - 0.3)), (-2.0, 4.0), breakpoints=[0.3]
    )
    assert_allclose(res.value, ref, rtol=1e-12)


def test_tail_bound_enters_error_estimate():
    cfg = QuadratureConfig()
    res0 = integrate(lambda x: np.exp(-x), (0.0, 30.0), cfg)
    res1 = integrate(lambda x: np.exp(-x), (0.0, 30.0), cfg, tail_bound=1e-9)
    assert res1.abs_error_estimate >= res0.abs_error_estimate + 0.9e-9
    assert_allclose(res1.value, res0.value, rtol=1e-14)


def test_subdivision_budget_exhaustion_flags_nonconvergence():
    cfg = QuadratureConfig(max_subdivisions=4)
    res = integrate(
        lambda x: np.cos(300.0 * x) * np.cos(7.0 * x), (0.0, 20.0), cfg
    )
    assert not res.converged


@pytest.mark.parametrize("span", [1e-14, 4e-15, 1e-15])
def test_panels_at_rounding_width_stop_as_unsplittable(span):
    """An integrand oscillating far faster than the spacing of the floats
    near 1 never meets an absolute target of 0; once its worst panels are
    too narrow to bisect, refinement stops with status "unsplittable"."""
    res = integrate(lambda x: np.cos(1e20 * x), (1.0, 1.0 + span),
                    QuadratureConfig(abs_tol=0.0))
    assert res.status == "unsplittable"
    assert not res.converged


def test_body_refines_from_the_budget_the_singular_edge_left():
    def f(x):
        # an oscillating singular edge on (0, 1), and a kink at x = 2.5 in
        # the body that needs more bisections than the edge leaves
        return np.cos(40.0 * x) / np.sqrt(x) + 1e-3 * np.abs(x - 2.5)

    cfg = QuadratureConfig(max_subdivisions=20)
    edge = integrate(f, (0.0, 1.0), cfg, left_singularity=-0.5)
    body = integrate(f, (1.0, 4.0), cfg)
    assert edge.converged and 0 < _bisections(edge) < cfg.max_subdivisions
    assert body.status == "budget"
    res = integrate(f, (0.0, 4.0), cfg, left_singularity=-0.5)
    assert _bisections(res) == cfg.max_subdivisions
    assert res.status == "budget"
    assert not res.converged


def test_gk15_weights_sum_to_two():
    assert abs(math.fsum(_WK15) - 2.0) <= 2.0 * math.ulp(2.0)
    assert abs(math.fsum(_WG15) - 2.0) <= 2.0 * math.ulp(2.0)


def test_gk15_polynomial_exactness():
    # K15 is exact through degree 22, G7 through degree 13, on [-1, 1]
    assert abs(_NODES ** 22 @ _WK15 - 2.0 / 23.0) < 2e-16
    assert abs(_NODES ** 12 @ _WG15 - 2.0 / 13.0) < 2e-16


def test_mexican_hat_moment_is_exact_to_rounding():
    # int_0^inf t (1 - t^2) exp(-t^2/2) dt = 1 - 2 = -1
    wav = make_wavelet(WaveletKind.MexicanHat)
    value, _ = _time_moment_quadrature(wav, 2.0, False, QuadratureConfig())
    assert abs(value - (-1.0)) <= 4.0 * math.ulp(1.0)


def test_refinement_stops_at_the_roundoff_floor():
    # the target 1e-13*|I| ~ 1e-18 is far below the summed roundoff floors
    # 50*eps*int|f| ~ 1.8e-14: every panel reaches its floor first
    cfg = QuadratureConfig(abs_tol=0.0, rel_tol=1e-13)
    res = integrate(lambda x: np.exp(-0.5 * x * x) * np.cos(5.0 * x),
                    (-20.0, 20.0), cfg)
    exact = math.sqrt(2.0 * math.pi) * math.exp(-12.5)
    assert res.status == "roundoff"
    assert _bisections(res) < cfg.max_subdivisions
    assert abs(res.value - exact) <= res.abs_error_estimate


def _cos5_gauss(x):
    return np.exp(-0.5 * x * x) * np.cos(5.0 * x)


_COS5_GAUSS = math.sqrt(2.0 * math.pi) * math.exp(-12.5)
_COS5_GAUSS_ABS = 1.5958  # int |exp(-x^2/2) cos 5x| dx, to 4 digits


def test_a_floor_limited_integral_stops_after_one_pass():
    # the summed floors 50*eps*int|f| ~ 1.8e-14 exceed the target
    # 1e-13*|I| ~ 9e-19, and on half-unit panels the first pass leaves
    # nothing above them that a bisection could remove
    cfg = QuadratureConfig(abs_tol=0.0, rel_tol=1e-13)
    res = integrate(_cos5_gauss, (-20.0, 20.0), cfg, panel_width=0.5)
    assert res.status == "roundoff"
    assert _bisections(res) == 0
    assert res.abs_error_estimate >= 0.99 * 50.0 * _EPS * _COS5_GAUSS_ABS
    assert abs(res.value - _COS5_GAUSS) <= res.abs_error_estimate


def test_a_retired_component_ranks_no_panels():
    """A floor-limited component is retired on the first mesh while a
    narrow peak keeps refining: the peak gets the mesh it gets alone, and
    the retired component keeps status "roundoff" and an estimate that
    bounds its error."""
    cfg = QuadratureConfig(abs_tol=0.0, rel_tol=1e-13)

    def peak(x):
        return 1.0 / (1e-4 + (x - 0.3) ** 2)

    exact_peak = (math.atan(19.7 / 1e-2) + math.atan(20.3 / 1e-2)) / 1e-2
    floor_limited, refined = integrate(
        lambda x: np.stack([_cos5_gauss(x), peak(x)]), (-20.0, 20.0), cfg,
        panel_width=0.5,
    )
    alone = integrate(peak, (-20.0, 20.0), cfg, panel_width=0.5)
    assert _bisections(alone) > 0
    assert (refined.value, refined.n_evaluations, refined.status) == (
        alone.value, alone.n_evaluations, alone.status)
    assert abs(refined.value - exact_peak) <= refined.abs_error_estimate
    assert floor_limited.status == "roundoff"
    assert floor_limited.abs_error_estimate >= (
        0.99 * 50.0 * _EPS * _COS5_GAUSS_ABS)
    assert abs(floor_limited.value - _COS5_GAUSS) <= (
        floor_limited.abs_error_estimate)


def test_a_nan_value_is_never_retired_as_roundoff():
    def f(x):
        return np.where(np.abs(x - 0.3) < 0.05, math.nan, np.exp(-x * x))

    res = integrate(f, (-5.0, 5.0))
    assert res.status not in ("tolerance", "roundoff")
    assert not res.converged
    # bisection cannot remove a NaN: the first pass (8 panels of 15 nodes)
    # is the last
    assert res.status == "nonfinite"
    assert res.n_evaluations == 120
    assert worst_status("budget", "nonfinite") == "nonfinite"


def test_conditioning_raises_the_roundoff_floor():
    """A conditioning of at most 50 leaves every bit as it was; above 50 it
    becomes the floor, eps*int(conditioning*|f|), so the estimate covers
    an integrand evaluated with that relative error."""
    cfg = QuadratureConfig(abs_tol=0.0, rel_tol=1e-13)

    def f(x):
        return np.exp(-0.5 * x * x) * np.cos(5.0 * x)

    plain = integrate(f, (-20.0, 20.0), cfg)
    low = integrate(f, (-20.0, 20.0), cfg,
                    conditioning=lambda x: np.full(np.shape(x), 50.0))
    assert low == plain
    kappa, eps = 1e6, np.finfo(float).eps
    noisy = integrate(f, (-20.0, 20.0), cfg,
                      conditioning=lambda x: np.full(np.shape(x), kappa))
    int_abs = 1.5958  # int |exp(-x^2/2) cos 5x| dx, to 4 digits
    assert noisy.abs_error_estimate >= 0.99 * kappa * eps * int_abs
    assert noisy.status == "roundoff"
    # the substituted piece of a left singularity counts it too:
    # int_0^1 x^(-1/2) dx = 2
    sing = integrate(lambda x: 1.0 / np.sqrt(x), (0.0, 1.0), cfg,
                     left_singularity=-0.5,
                     conditioning=lambda x: np.full(np.shape(x), kappa))
    assert sing.abs_error_estimate >= 0.99 * kappa * eps * 2.0


def test_status_of_a_converged_integral_and_ordering():
    res = integrate(lambda x: np.exp(-x), (0.0, 5.0))
    assert res.status == "tolerance" and res.converged
    assert worst_status("tolerance", "roundoff") == "roundoff"
    assert worst_status("budget", "unsplittable", "tolerance") == "budget"


def test_complex_valued_integrand():
    cut, bound = _cut(("exp", 1.0, 1.0), _ABS_TOL)
    res = integrate(lambda x: np.exp(1j * x - x), (0.0, cut),
                    tail_bound=bound)
    assert_allclose(res.value, 1.0 / (1.0 - 1j), rtol=1e-12)


def _exact_tail(envelope, radius, power):
    """int_R^inf u^power env(u) du in closed form, at 40 digits."""
    kind, c, p = envelope
    with mp.workdps(40):
        c, p, r, s = (mp.mpf(v) for v in (c, p, radius, power))
        if kind == "exp":
            return float(c * mp.gammainc(s + 1, p * r) / p ** (s + 1))
        if kind == "gauss":
            k = (s + 1) / 2
            return float(c * mp.gammainc(k, p * r * r) / (2 * p ** k))
        return float(c * r ** (s + 1 - p) / (p - 1 - s))


def _least_radius(envelope, power):
    """The radius below which the rule's bound does not hold (0: every R > 0)."""
    kind, _, p = envelope
    if kind == "exp":
        return max(power, 0.0) / p
    if kind == "gauss":
        return math.sqrt(max(power - 1.0, 0.0) / (2.0 * p))
    return 0.0


@pytest.mark.parametrize("tol", [1e-16, 1e-11, 1e-6])
@pytest.mark.parametrize("power", [-0.5, 0.0, 1.0, 2.5, 4.0, 9.0])
@pytest.mark.parametrize("envelope", [
    ("exp", 1.0, 1.0), ("exp", 3.0, 0.3), ("exp", 0.5, 2.0),
    ("gauss", 1.0, 0.5), ("gauss", 2.0, 0.25), ("gauss", 7.0, 0.45),
    ("alg", 2.0, 2.0), ("alg", 0.5, 12.0),
], ids=lambda e: "-".join(map(str, e)))
def test_cut_rule_bound_is_valid(envelope, power, tol):
    """One rule for every truncated line: at the radius ``_cut_radius``
    gives, and just inside the range where it holds, the bound is at least
    the exact tail of u^power * envelope; at the radius it is at most
    1.05 tol unless the radius is clamped to [1, TRUNCATION_RADIUS]; below
    that range it is infinite.  An algebraic tail that diverges has an
    infinite bound and no radius."""
    kind, _, p = envelope
    if kind == "alg" and not p - 1.0 - power > 0.0:
        with pytest.raises(QuadratureError, match="does not converge"):
            _cut_radius(envelope, tol, power)
        assert _envelope_tail_bound(envelope, 2.0, power) == math.inf
        return
    radius, bound = _cut(envelope, tol, power)
    least = _least_radius(envelope, power)
    assert radius > least
    if 1.0 < radius < TRUNCATION_RADIUS:
        assert bound <= 1.05 * tol
    for r in (radius, 1.1 * least + 0.05):
        tail = _exact_tail(envelope, r, power)
        assert tail <= _envelope_tail_bound(envelope, r, power) * (1 + 1e-12)
    for r in (0.5 * least, 0.0, -1.0):
        assert _envelope_tail_bound(envelope, r, power) == math.inf


def test_cut_rule_at_power_zero_and_an_infinite_constant():
    # power 0 takes the bound without the power's factor, bit for bit
    assert _envelope_tail_bound(("exp", 3.0, 0.5), 40.0) == (
        3.0 * math.exp(-0.5 * 40.0) / 0.5)
    assert _envelope_tail_bound(("gauss", 3.0, 0.5), 8.0) == (
        3.0 * math.exp(-0.5 * 8.0 * 8.0) / (2.0 * 0.5 * 8.0))
    # an envelope scaled past the float range bounds nothing
    for kind in ("exp", "gauss", "alg"):
        envelope = (kind, math.inf, 2.5)
        assert _cut_radius(envelope, 1e-15, 1.0) == TRUNCATION_RADIUS
        assert _envelope_tail_bound(envelope, 1e3, 1.0) == math.inf
    with pytest.raises(QuadratureError, match="unknown envelope kind"):
        _cut_radius(("cauchy", 1.0, 1.0), 1e-15)


def _one_row(f):
    """f as the m = 1 case of a vector-valued integrand."""
    return lambda x: np.asarray(f(x))[None, :]


@pytest.mark.parametrize("case", ["finite", "infinite", "singular", "noisy",
                                  "budget"])
def test_one_component_integrand_gives_the_same_bits(case):
    cfg = QuadratureConfig()
    kw = {}
    f = lambda x: np.exp(-0.5 * x * x) * np.cos(5.0 * x)  # noqa: E731
    domain = (-20.0, 20.0)
    if case == "infinite":
        f = lambda x: np.exp(1j * x - np.abs(x))  # noqa: E731
        cut, bound = _cut(("exp", 1.0, 1.0), cfg.abs_tol)
        domain = (-cut, cut)
        kw = dict(breakpoints=[0.0], tail_bound=2.0 * bound)
    elif case == "singular":
        f = lambda x: np.cos(x) / np.sqrt(x)  # noqa: E731
        domain = (0.0, 3.0)
        kw = dict(left_singularity=-0.5)
    elif case == "noisy":
        kw = dict(conditioning=lambda x: 60.0 + x * x)
        cfg = QuadratureConfig(abs_tol=0.0, rel_tol=1e-13)
    elif case == "budget":
        f = lambda x: np.cos(300.0 * x) * np.cos(7.0 * x)  # noqa: E731
        cfg = QuadratureConfig(max_subdivisions=70)
    scalar = integrate(f, domain, cfg, **kw)
    (row,) = integrate(_one_row(f), domain, cfg, **kw)
    assert row == scalar
    assert row.value.real.hex() == scalar.value.real.hex()
    assert row.value.imag.hex() == scalar.value.imag.hex()


def test_each_component_meets_its_own_target():
    # magnitudes 1 to 1e-12 and no absolute floor: the small components
    # need their own relative target, not the large one's
    cfg = QuadratureConfig(abs_tol=0.0, rel_tol=1e-10)
    scales = np.array([1.0, 1e-6, 1e-12])[:, None]
    freqs = np.array([0.5, 3.0, 6.0])[:, None]

    def f(x):
        return scales * np.exp(-x * x) * np.cos(freqs * x)

    # every component is at most e^(-x^2); cut below the smallest target
    cut, bound = _cut(("gauss", 1.0, 1.0), 1e-30)
    results = integrate(f, (-cut, cut), cfg, tail_bound=2.0 * bound)
    assert len(results) == 3
    for r, c, k in zip(results, scales[:, 0], freqs[:, 0]):
        exact = c * math.sqrt(math.pi) * math.exp(-k * k / 4.0)
        assert r.converged and r.status in ("tolerance", "roundoff")
        assert abs(r.value - exact) <= r.abs_error_estimate
        assert abs(r.value - exact) <= 1e-9 * exact
        # the shared mesh is counted once, on the whole and in each result
        assert (r.n_evaluations, r.n_panels) == (
            results.n_evaluations, results.n_panels)
    assert results.converged


def test_components_stop_for_their_own_reasons():
    # a smooth component meets its target on the first mesh; an
    # oscillatory one uses up the shared budget
    cfg = QuadratureConfig(max_subdivisions=4)

    def f(x):
        return np.stack([np.exp(-x), np.cos(300.0 * x) * np.cos(7.0 * x)])

    smooth, wild = integrate(f, (0.0, 20.0), cfg)
    assert smooth.status == "tolerance" and smooth.converged
    assert abs(smooth.value - (1.0 - math.exp(-20.0))) <= smooth.abs_error_estimate
    assert wild.status == "budget" and not wild.converged
    assert _bisections(wild) <= cfg.max_subdivisions


def _initial_edges_linspace(lo, hi, breakpoints, panel_width):
    """The first mesh as numpy's linspace builds it: the reference that
    ``_initial_edges`` must match bit for bit."""
    pts = [lo, hi]
    for p in breakpoints:
        if lo < p < hi:
            pts.append(float(p))
    pts = sorted(set(pts))
    edges = []
    for left, right in zip(pts[:-1], pts[1:]):
        edges.append(left)
        if panel_width is None or not np.isfinite(panel_width) or panel_width <= 0.0:
            continue
        n = int(math.ceil((right - left) / panel_width))
        n = min(max(n, 1), 16384)
        if n > 1:
            edges.extend(np.linspace(left, right, n + 1)[1:-1].tolist())
    edges.append(pts[-1])
    edges = np.array(sorted(set(edges)))
    if edges.size - 1 < 8:
        per = int(math.ceil(8 / (edges.size - 1)))
        if per > 1:
            parts = [
                np.linspace(a, b, per + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])
            ]
            edges = np.concatenate(parts + [edges[-1:]])
    return edges


def test_initial_edges_match_linspace_bit_for_bit():
    rng = np.random.default_rng(20261018)
    few_panels = capped = 0
    for _ in range(10_000):
        lo = float(rng.choice([0.0, rng.uniform(-50.0, 50.0)]))
        width = float(10.0 ** rng.uniform(-3.0, 2.0))
        hi = lo + width
        breakpoints = []
        for _ in range(int(rng.integers(0, 7))):
            pick = int(rng.integers(0, 5))
            if pick == 0:
                breakpoints.append(float(rng.uniform(lo, hi)))
            elif pick == 1:  # outside the domain
                step = width * rng.uniform(0.01, 2.0)
                breakpoints.append(float(rng.choice([lo - step, hi + step])))
            elif pick == 2:  # at an end
                breakpoints.append(float(rng.choice([lo, hi])))
            elif breakpoints:  # a duplicate
                breakpoints.append(breakpoints[int(rng.integers(len(breakpoints)))])
        pick = int(rng.integers(0, 1000))
        if pick < 500:
            panel = (None, 0.0, math.nan, math.inf, -1.0)[pick % 5]
        elif pick > 500:
            panel = width * float(10.0 ** rng.uniform(-2.0, 1.0))
        else:  # past the per-segment cap
            panel = width * 1e-5
        got = _initial_edges(lo, hi, breakpoints, panel)
        want = _initial_edges_linspace(lo, hi, breakpoints, panel)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (lo, hi, breakpoints, panel)
        inside = set(p for p in breakpoints if lo < p < hi)
        few_panels += pick < 500 and len(inside) < 7
        capped += got.size > 16384
    # the < 8-panel branch and the per-segment cap both ran
    assert few_panels > 1000 and capped >= 5
