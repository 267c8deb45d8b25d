"""Adaptive Gauss-Kronrod quadrature for complex integrands.

Panels are evaluated in batches (one P x 15 node matrix per call of the
vectorized integrand), per-panel errors follow the classical Kronrod rescaling of
|GK15 - G7| against the panel's oscillation measure, and refinement bisects
the worst panels in blocks.  Domains are finite: a caller with an infinite
range cuts it once and passes the tail's bound as ``tail_bound``.  One rule
takes every such cut: ``_cut_radius`` gives the radius at which
``_envelope_tail_bound`` of u^s times an exponential, Gaussian or
algebraic envelope meets the caller's tolerance.  Integrable endpoint
singularities at the left edge are softened with the x = y**2 substitution.

No panel's error estimate goes below its roundoff floor 50*eps*integral(|f|)
(QUADPACK's rule), and refinement bisects only panels above their floor, so
it stops at the first of these, named in ``QuadratureResult.status``:

* ``"tolerance"``: the summed error estimate meets max(abs_tol, rel_tol*|I|);
* ``"roundoff"``: what the panels' errors add above their floors is at most
  ``_ROUNDOFF_EXCESS`` of the target, so no bisection can lower the estimate
  by more than that (QUADPACK QAGS ``ier=2``, which asks for every panel at
  its floor: the case of no excess at all);
* ``"unsplittable"``: the worst panels are at rounding width;
* ``"budget"``: the ``max_subdivisions`` bisections are used up;
* ``"nonfinite"``: the summed error estimate is not finite (the integrand
  returned a NaN or an infinity), so no bisection can help; the component
  stops after the pass that produced it and never counts as converged.

Panel values are summed exactly rounded (``math.fsum``), so the result does
not pick up the rounding of a long floating-point sum.

A vector-valued integrand returns an (m, N) array for N nodes: m integrals
over one shared mesh, the vectorized adaptive quadrature of L. F. Shampine,
J. Comput. Appl. Math. 211 (2008).  Every component keeps its own value,
error estimate, target and status.  A component stops once it meets its
tolerance, or is retired with status ``"roundoff"`` once its excess over the
floors is negligible; those still open when refinement stops take its
reason.  A panel is ranked by max_j err_j/target_j over the open components
in which it is above its floor, and one ``max_subdivisions`` budget serves
the whole call.
A one-dimensional integrand is the m = 1 case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import _EPS

# 15-point Kronrod nodes (positive half) and weights; the embedded 7-point
# Gauss rule lives on the odd-index nodes.  Full-precision values of QUADPACK's
# qk15: Python rounds each literal to the nearest double.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# Termination statuses from best to worst; a combined result takes the worst.
STATUSES = ("tolerance", "roundoff", "unsplittable", "budget", "nonfinite")

_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + [x for x in reversed(_XGK[:7])])
_WK15 = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_WG15 = np.zeros(15)
_WG15[[1, 3, 5]] = _WG[:3]
_WG15[[13, 11, 9]] = _WG[:3]
_WG15[7] = _WG[3]

_BISECT_BLOCK = 64
# A component whose errors add at most this fraction of its target above
# their roundoff floors stops: bisection could lower its estimate by no more.
_ROUNDOFF_EXCESS = 1e-3
# No truncated domain extends past this radius.
TRUNCATION_RADIUS = 1e12
_MIN_INITIAL_PANELS = 8
_MAX_PANELS_PER_PIECE = 16384
# Panels per batch of the first evaluation of a piece.
_CHUNK_PANELS = 65536


class QuadratureError(RuntimeError):
    """Raised for domains or options the integrator cannot handle."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        # Each test is written so that NaN fails it.
        if not self.rel_tol >= 100.0 * _EPS:
            raise ValueError(
                "rel_tol must be at least 100*machine epsilon, "
                f"got {self.rel_tol!r}"
            )
        if not self.abs_tol >= 0.0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    n_evaluations: int
    n_panels: int
    converged: bool
    status: str = "tolerance"


class QuadratureResults(tuple):
    """One ``QuadratureResult`` per component of a vector-valued integrand.

    The components share one mesh, so ``n_evaluations`` and ``n_panels``
    (which each component also carries) count it once, and ``converged``
    holds when every component's does.
    """

    def __new__(cls, results, n_evaluations: int, n_panels: int):
        self = super().__new__(cls, results)
        self.n_evaluations = n_evaluations
        self.n_panels = n_panels
        self.converged = all(r.converged for r in results)
        return self


def worst_status(*statuses: str) -> str:
    """The least favourable of the given termination statuses."""
    return max(statuses, key=STATUSES.index)


def within_tolerance(value, err: float, cfg: QuadratureConfig) -> bool:
    """The one ``converged`` rule on an estimate: ``err`` is within ten
    times the target max(abs_tol, rel_tol*|value|), in the units of
    ``value``."""
    return bool(err <= 10.0 * max(cfg.abs_tol, cfg.rel_tol * abs(value)))


Integrand = Callable[[np.ndarray], np.ndarray]
Envelope = tuple  # ("exp", C, rate) | ("gauss", C, rate) | ("alg", C, power)


def _panel_eval(evalf, lo: np.ndarray, hi: np.ndarray, conditioning=None):
    """Evaluate the GK15 rule on a batch of panels, for every component.

    ``evalf`` maps the P x 15 nodes, flattened, to P*15 values or an
    (m, P*15) array.  Returns (values, errors, roundoff floors), each
    (m, P), and the number of nodes; each error is at least its panel's
    floor 50*eps*integral(|f|), or eps*integral(max(50, conditioning)*|f|)
    given a conditioning.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = c[:, None] + h[:, None] * _NODES[None, :]
    # One row of 15 values per (component, panel), components outermost.
    fv = np.asarray(evalf(nodes.ravel()), dtype=complex).reshape(-1, _NODES.size)
    m = fv.shape[0] // lo.size
    h = np.concatenate((h,) * m)
    resk = fv @ _WK15
    resg = fv @ _WG15
    absfv = np.abs(fv)
    resabs = absfv @ _WK15
    mean = 0.5 * resk
    resasc = np.abs(fv - mean[:, None]) @ _WK15
    raw = np.abs(resk - resg) * h
    resasc_s = resasc * h
    resabs_s = resabs * h
    err = raw.copy()
    mask = (resasc_s != 0.0) & (raw != 0.0)
    err[mask] = resasc_s[mask] * np.minimum(
        1.0, (200.0 * raw[mask] / resasc_s[mask]) ** 1.5
    )
    floor = 50.0 * _EPS * resabs_s
    if conditioning is not None:
        # Only the conditioning above 50 adds to the floor, so where it
        # stays below, every bit is the same as without it.
        kappa = np.asarray(conditioning(nodes.ravel()), dtype=float)
        excess = np.maximum(kappa.reshape(nodes.shape) - 50.0, 0.0)
        floor = floor + _EPS * ((np.concatenate((excess,) * m) * absfv) @ _WK15) * h
    shape = (m, lo.size)
    return (
        (resk * h).reshape(shape),
        np.maximum(err, floor).reshape(shape),
        floor.reshape(shape),
        nodes.size,
    )


def _refine(
    evalf, edges: np.ndarray, config: QuadratureConfig, budget: int, conditioning
):
    """Adaptively bisect the worst panels until every component meets its target.

    A component is open while its summed error is above its target
    max(abs_tol, rel_tol*|value|), until it is retired: once its excess
    sum_p max(err_p - floor_p, 0) over the panels' roundoff floors is at most
    ``_ROUNDOFF_EXCESS`` of its target, no bisection could lower its
    estimate by more than that (the floors of a panel's halves add back up
    to its own), so it stops with status ``"roundoff"`` and ranks no more
    panels.  Its estimate keeps the floors, sum_p max(err_p, floor_p).  A
    component whose summed error is not finite stops at once with status
    ``"nonfinite"``: bisecting cannot remove a NaN or an infinity.  Only
    panels whose error is above their roundoff floor in an open component
    are bisected, worst first by max_j err_j/target_j over those components.

    Returns ([(value, error, status)] per component, n_evaluations,
    n_panels, bisections_used): values summed exactly rounded, a component
    that meets its target ``"tolerance"``, a retired one ``"roundoff"``, a
    non-finite one ``"nonfinite"``, any other the loop's stop reason, one
    of ``STATUSES``.
    """
    lo = edges[:-1].astype(float)
    hi = edges[1:].astype(float)
    vals, errs, floors, neval = _panel_eval(
        evalf, lo[:_CHUNK_PANELS], hi[:_CHUNK_PANELS], conditioning
    )
    for start in range(_CHUNK_PANELS, lo.size, _CHUNK_PANELS):
        sl = slice(start, start + _CHUNK_PANELS)
        more = _panel_eval(evalf, lo[sl], hi[sl], conditioning)
        vals, errs, floors = (
            np.concatenate([old, new], axis=1)
            for old, new in zip((vals, errs, floors), more)
        )
        neval += more[3]
    used = 0
    stopped = {}  # component -> "roundoff" or "nonfinite", once retired
    while True:
        err_totals = errs.sum(axis=1).tolist()
        targets = [
            max(config.abs_tol, config.rel_tol * abs(v))
            for v in vals.sum(axis=1).tolist()
        ]
        # every error is at least its floor, so this sums max(err - floor, 0)
        excess = (errs - floors).sum(axis=1).tolist()
        open_ = []
        for j, (e, t, x) in enumerate(zip(err_totals, targets, excess)):
            if e <= t or j in stopped:
                continue
            if not math.isfinite(e):
                stopped[j] = "nonfinite"
            elif x <= _ROUNDOFF_EXCESS * t:
                stopped[j] = "roundoff"
            else:
                open_.append(j)
        if not open_:
            stop = "tolerance"
            break
        splits = errs[open_] > floors[open_]
        above = np.flatnonzero(splits.any(axis=0))
        ratios = errs[open_][:, above] / np.array(targets)[open_][:, None]
        score = np.where(splits[:, above], ratios, 0.0).max(axis=0)
        if used >= budget:
            stop = "budget"
            break
        nsplit = min(_BISECT_BLOCK, budget - used)
        worst = above[np.argsort(-score, kind="stable")[:nsplit]]
        mid = 0.5 * (lo[worst] + hi[worst])
        # Panels at rounding width cannot be split further; retire them.
        splittable = (mid > lo[worst]) & (mid < hi[worst])
        if not np.any(splittable):
            stop = "unsplittable"
            break
        worst = worst[splittable]
        mid = mid[splittable]
        new_lo = np.concatenate([lo[worst], mid])
        new_hi = np.concatenate([mid, hi[worst]])
        new_vals, new_errs, new_floors, ne = _panel_eval(
            evalf, new_lo, new_hi, conditioning
        )
        neval += ne
        keep = np.ones(lo.size, dtype=bool)
        keep[worst] = False
        kept = np.flatnonzero(keep)
        lo = np.concatenate([lo.take(kept), new_lo])
        hi = np.concatenate([hi.take(kept), new_hi])
        vals = np.concatenate([vals.take(kept, axis=1), new_vals], axis=1)
        errs = np.concatenate([errs.take(kept, axis=1), new_errs], axis=1)
        floors = np.concatenate([floors.take(kept, axis=1), new_floors], axis=1)
        used += worst.size
    components = [
        (
            complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist())),
            err_totals[j],
            "tolerance" if err_totals[j] <= targets[j]
            else stopped.get(j, stop),
        )
        for j, row in enumerate(vals)
    ]
    return components, neval, lo.size, used


def _initial_edges(
    lo: float,
    hi: float,
    breakpoints: Sequence[float],
    panel_width: Optional[float],
) -> np.ndarray:
    """The first mesh over [lo, hi]: edges at the breakpoints inside it,
    each segment split into equal panels at most ``panel_width`` wide (at
    most ``_MAX_PANELS_PER_PIECE`` of them), and every panel split
    evenly if that leaves fewer than ``_MIN_INITIAL_PANELS``.  Built in
    Python floats and converted once; each split is the arithmetic of
    ``np.linspace``, i*step + left with the right end kept exact.
    """
    pts = [lo, hi]
    for p in breakpoints:
        if lo < p < hi:
            pts.append(float(p))
    pts = sorted(set(pts))
    fill = panel_width is not None and math.isfinite(panel_width) and panel_width > 0.0
    edges = []
    for left, right in zip(pts[:-1], pts[1:]):
        n = 1
        if fill:
            n = min(max(math.ceil((right - left) / panel_width), 1),
                    _MAX_PANELS_PER_PIECE)
        edges += _even_split(left, right, n)
    edges.append(pts[-1])
    edges = sorted(set(edges))
    per = math.ceil(_MIN_INITIAL_PANELS / (len(edges) - 1))
    if per > 1:
        split = []
        for left, right in zip(edges[:-1], edges[1:]):
            split += _even_split(left, right, per)
        edges = split + edges[-1:]
    return np.array(edges)


def _even_split(left: float, right: float, n: int) -> list:
    """The left edges of n equal panels over [left, right]: left, then
    i*step + left, as ``np.linspace(left, right, n + 1)`` computes them."""
    step = (right - left) / n
    return [left] + [i * step + left for i in range(1, n)]


def _envelope_tail_bound(envelope: Envelope, radius: float,
                         power: float = 0.0) -> float:
    """Bound on int_R^inf u^s env(u) du, R = ``radius``, s = ``power``:
    C R^s e^(-pR)/(p - s+/R), C R^s e^(-pR^2)/(2pR - (s-1)+/R) and
    C R^(s+1-p)/(p - 1 - s) for env(u) = C e^(-pu), C e^(-pu^2) and C u^(-p)
    (x+ = max(x, 0); one integration by parts each, the last exact), and
    infinite where it does not hold: a denominator that is not positive,
    R <= 0 or C = inf.
    """
    kind, c, p = envelope
    if not (radius > 0.0 and c < math.inf):
        return math.inf
    if kind == "alg":
        slope = p - 1.0 - power
        return c * radius ** (power + 1.0 - p) / slope if slope > 0.0 else math.inf
    if kind == "exp":
        slope = p - max(power, 0.0) / radius
        exponent = power * math.log(radius) - p * radius
    elif kind == "gauss":
        slope = 2.0 * p * radius - max(power - 1.0, 0.0) / radius
        exponent = power * math.log(radius) - p * radius * radius
    else:
        raise QuadratureError(f"unknown envelope kind {kind!r}")
    return c * math.exp(exponent) / slope if slope > 0.0 else math.inf


def _scaled_envelope(envelope: Envelope, factor: float, scale: float) -> Envelope:
    """The envelope of factor * scale * g(scale*u) for g bounded by ``envelope``."""
    kind, c, p = envelope
    if kind == "alg":
        return kind, factor / scale ** (p - 1.0) * c, p
    if kind == "exp":
        return kind, factor * scale * c, p * scale
    if kind == "gauss":
        return kind, factor * scale * c, p * scale * scale
    raise QuadratureError(f"unknown envelope kind {kind!r}")


def _cut_radius(envelope: Envelope, tol: float, power: float = 0.0) -> float:
    """The radius in [1, ``TRUNCATION_RADIUS``] where the tail bound of
    u^s env(u), s = ``power`` (``_envelope_tail_bound``), meets ``tol``.

    Closed form for the algebraic envelope.  The exponential and Gaussian
    radii solve p u = L + s log u (p x = L + s log u, x = u^2), L the log of
    C/(denominator * tol), by Newton steps in the s log u term (6 and 3 of
    them, fewer where one repeats) kept where the denominator is at least
    half its leading term; at s = 0 these are plain fixed-point steps.  An
    envelope past the float range gets the largest radius.
    """
    kind, c, p = envelope
    tol = max(tol, 1e-300)
    if not c / tol < math.inf:
        return TRUNCATION_RADIUS
    s = max(power, 0.0)
    if kind == "exp":
        u = max(1.0, 2.0 * s / p)
        for _ in range(6):
            lead = math.log(max(c / ((p - s / u) * tol), 2.0)) + power * math.log(u)
            last, u = u, min(max(1.0, 2.0 * s / p, (lead - power) / (p - power / u)),
                             TRUNCATION_RADIUS)
            if u == last:
                break
    elif kind == "gauss":
        s1 = max(power - 1.0, 0.0)
        x = max(math.log(max(c / tol, 2.0)) / p, 1.0, s / p)
        u = math.sqrt(x)
        for _ in range(3):
            arg = c / ((2.0 * p * u - s1 / u) * tol)
            lead = math.log(max(arg, 2.0)) + power * math.log(u)
            if lead <= math.log(2.0):
                break
            x = max((lead - 0.5 * power) / (p - 0.5 * power / x), s / p)
            u = min(math.sqrt(x), TRUNCATION_RADIUS)
    elif kind == "alg":
        decay = p - 1.0 - power
        if not decay > 0.0:
            raise QuadratureError(
                f"u^{power:g} times an algebraic envelope of power {p:g} "
                "does not converge"
            )
        u = (c / (decay * tol)) ** (1.0 / decay)
    else:
        raise QuadratureError(f"unknown envelope kind {kind!r}")
    return min(max(u, 1.0), TRUNCATION_RADIUS)


def integrate(
    integrand: Integrand,
    domain: tuple,
    config: Optional[QuadratureConfig] = None,
    *,
    breakpoints: Sequence[float] = (),
    panel_width: Optional[float] = None,
    left_singularity: Optional[float] = None,
    tail_bound: float = 0.0,
    conditioning: Optional[Integrand] = None,
    period_hint: Optional[float] = None,
) -> "QuadratureResult | QuadratureResults":
    """Integrate a complex integrand over the finite ``domain = (lo, hi)``.

    ``integrand`` is a vectorized callable mapping a real node array of
    length N to N complex values, or to an (m, N) array of m components;
    the components are integrated on one shared mesh and the call returns
    ``QuadratureResults``, one result per component, in place of one
    ``QuadratureResult``.  A non-finite endpoint raises ``QuadratureError``:
    a caller integrating over an infinite range cuts it where its own decay
    bound allows and passes that bound as ``tail_bound``.  ``breakpoints``
    seed panel edges at known kinks or features, ``panel_width`` is the
    widest first panel (half an oscillation, say), ``left_singularity``
    softens an integrable singularity at a finite left endpoint via the
    x = y**2 substitution, and ``tail_bound`` is added to the reported error
    for truncations performed by the caller.  ``conditioning`` maps nodes to
    a bound on the integrand's relative evaluation error in units of eps;
    where that exceeds 50 it raises the panels' roundoff floors.
    ``period_hint``, the older spelling, means ``panel_width`` =
    period_hint/2 and is ignored when ``panel_width`` is given.

    Each piece (the substituted singular edge, then the body) is refined on
    its own until each component's error meets the tolerance or exceeds its
    roundoff floors by a negligible amount, its worst panels cannot be
    split, or the ``max_subdivisions`` bisections shared by both pieces and
    all components run out.  A component's ``status`` is the worst of its stops over the
    pieces (see ``STATUSES``).  ``converged`` means the component's error
    estimate, ``tail_bound`` included, is within 10x
    max(abs_tol, rel_tol*|value|), the budget did not run out and the
    estimate is finite.
    """
    cfg = config if config is not None else QuadratureConfig()
    if panel_width is None and period_hint is not None:
        panel_width = 0.5 * period_hint
    lo, hi = float(domain[0]), float(domain[1])
    # Written so that NaN fails it.
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise QuadratureError(f"invalid domain ({lo!r}, {hi!r})")

    # [value, error, status] per component, from the first piece on.
    totals = []
    neval = 0
    npanels = 0
    budget = cfg.max_subdivisions
    ndim = []

    def components(x):
        """The integrand's values, noting whether it returns one per node."""
        fx = integrand(x)
        if not ndim:
            ndim.append(np.ndim(fx))
        return fx

    def add_piece(f, edges, cond=conditioning):
        """Refine one piece with the bisections left and add it to the totals."""
        nonlocal neval, npanels, budget
        parts, ne, npan, used = _refine(f, edges, cfg, budget, cond)
        if not totals:
            totals.extend([0.0 + 0.0j, 0.0, "tolerance"] for _ in parts)
        for total, (v, e, st) in zip(totals, parts):
            total[0] += v
            total[1] += e
            total[2] = worst_status(total[2], st)
        neval += ne
        npanels += npan
        budget -= used

    body_lo = lo
    if left_singularity is not None:
        body_lo = min(lo + 1.0, hi)
        # x = lo + y^2 softens the singularity at x = lo
        add_piece(
            lambda y: 2.0 * y * components(lo + y * y),
            _initial_edges(0.0, math.sqrt(body_lo - lo), (), None),
            None if conditioning is None else (
                lambda y: conditioning(lo + y * y)
            ),
        )

    if body_lo < hi:
        add_piece(components, _initial_edges(body_lo, hi, breakpoints, panel_width))

    results = []
    for value, err, status in totals:
        total_err = err + tail_bound
        results.append(QuadratureResult(
            value=complex(value),
            abs_error_estimate=float(total_err),
            n_evaluations=neval,
            n_panels=npanels,
            converged=within_tolerance(value, total_err, cfg)
            and status not in ("budget", "nonfinite"),
            status=status,
        ))
    if ndim[0] == 1:
        return results[0]
    return QuadratureResults(results, neval, npanels)
