"""Deterministic quadrature over level-set hypersurfaces and the regions
between them.

Level sets are parameterized by rays from the chart base point (all supported
fields have star-shaped level sets about it): along the ray with direction
angles theta, the radius rho(theta) solving u = c is found by bracketing
bisection then Newton polish, and the surface measure of the radial graph is

    dA = f(rho)^{n-1} sqrt(det ghat(theta)) * (|grad u| / d_rho u) dtheta,

with f the radial scale of the chart (f = rho in Cartesian charts) and ghat
the round metric of S^{n-1} in iterated spherical angles.  Angular nodes are
Gauss-Legendre tensor products, with polar angles pulled a fixed margin off
the axis.  Volume integrals between two levels use the coarea fibration
(Gauss-Legendre across levels, 1/|grad u|-weighted surface rule inside).

A rule is evaluated as one stack of nodes, not node by node: the field's
closed-form partials, the surface weights (surface_nodes) and the integrand
each run once on (N, ...) arrays.  The ray root solve (find_level_radii) is
exact for level spheres about the base point and otherwise runs
find_level_radius ray by ray.  The quadratic field, the one field without
stacked closed forms (ScalarField.stacked false), keeps its partials and
Hessian per node, inside the stacked stages.  Integrands
receive the (N, n) point stack.  Rules above _CHUNK nodes, and rules split
over `threads` workers, run as several contiguous stacks.  Every stage
computes each node with the same operations whatever the stack it sits in,
and reductions are fixed-order pairwise sums over the node index, so
results are bit-identical for any split and worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GeometryError, node_error
from .model_manifolds import ModelManifold, _elementwise, metric_diag_stack, radial_profile
from .level_set_geometry import ScalarField, _rowdot, sphere_direction

_ROOT_BISECT_WIDTH = 1e-6
_ROOT_NEWTON_TOL = 1e-12
_RADIAL_TOL = 1e-12
# nodes per kernel call up to dimension 4; above it the limit shrinks with
# n^4, so that the (N, n, n, n, n) curvature stacks stay the same size
_CHUNK = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Orders of the tensor-product rule.

    angular_orders: either one order broadcast to every angle or a tuple with
    one Gauss-Legendre order per angle; level_order: nodes across the level
    interval of coarea integrals; margin: polar-axis exclusion in radians.
    """
    angular_orders: tuple = (16,)
    level_order: int = 8
    margin: float = 1e-6

    def __post_init__(self):
        orders = self.angular_orders
        if isinstance(orders, int):
            orders = (orders,)
        object.__setattr__(self, "angular_orders", tuple(int(o) for o in orders))
        if any(o < 2 for o in self.angular_orders) or self.level_order < 2:
            raise ValueError("all quadrature orders must be >= 2")
        if not 0.0 < self.margin <= 1e-3:
            raise ValueError("margin must lie in (0, 1e-3]")

    def angular_for(self, n: int) -> tuple:
        if len(self.angular_orders) == 1:
            return self.angular_orders * (n - 1)
        if len(self.angular_orders) != n - 1:
            raise ValueError(
                f"need {n - 1} angular orders for dim {n}, got {len(self.angular_orders)}")
        return self.angular_orders

    def coarser(self) -> "QuadratureSpec":
        """Companion rule with halved orders, used for error estimates."""
        return QuadratureSpec(
            angular_orders=tuple(max(2, o // 2) for o in self.angular_orders),
            level_order=max(2, self.level_order // 2),
            margin=self.margin,
        )


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    node_count: int


def pairwise_sum(values):
    """Fixed-order pairwise summation (binary tree over the index range).
    A 1-d input sums to a float; a 2-d input sums down axis 0, column by
    column over the same tree (scalar adds beat adds of short rows)."""
    vals = np.asarray(values, dtype=float)

    def rec(col, lo, hi):
        if hi - lo <= 8:
            s = 0.0
            for k in range(lo, hi):
                s += col[k]
            return s
        mid = (lo + hi) // 2
        return rec(col, lo, mid) + rec(col, mid, hi)

    if vals.ndim == 2:
        return np.array([rec(col, 0, len(col)) for col in vals.T])
    return rec(vals, 0, len(vals))


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gl_on(a: float, b: float, order: int):
    x, w = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@lru_cache(maxsize=None)
def _angular_grid(n: int, orders: tuple, margin: float):
    """All angular nodes of S^{n-1} with weights including sqrt(det ghat).

    Returns (angles array N x (n-1), weights length N, unit ray directions
    N x n); node order is the lexicographic product order, which fixes the
    reduction order.
    """
    per_nodes, per_weights = [], []
    for m in range(n - 2):
        x, w = _gl_on(margin, math.pi - margin, orders[m])
        per_weights.append(w * np.sin(x) ** (n - 2 - m))
        per_nodes.append(x)
    x, w = _gl_on(0.0, 2.0 * math.pi, orders[n - 2])
    per_nodes.append(x)
    per_weights.append(w)
    grids = np.meshgrid(*per_nodes, indexing="ij")
    wgrids = np.meshgrid(*per_weights, indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(angles.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    return angles, weights, np.array([sphere_direction(a) for a in angles])


def _within_working_radius(M: ModelManifold, level: float, radius: float,
                           shape: str = "sphere") -> float:
    """radius, refused past the working radius, as a root solve refuses a crossing there."""
    if not radius <= M.working_radius:   # NaN included
        raise GeometryError(f"the level-{level:g} {shape} (radius {radius:g}) lies beyond "
                            f"the working radius {M.working_radius:g}")
    return radius


def _star_radius(u: ScalarField, M: ModelManifold, level: float):
    """u.star_radius(level), refused beyond the working radius."""
    sr = u.star_radius(level)
    return sr if sr is None else _within_working_radius(M, level, sr)


def find_level_radius(u: ScalarField, M: ModelManifold, level: float, angles) -> float:
    """Radius along one ray where u = level (bisection then Newton), with
    one scalar value() call per evaluation.  Fields radial about the base
    point short-circuit to the exact radius."""
    sr = _star_radius(u, M, level)
    if sr is not None:
        return sr
    angles = np.asarray(angles, dtype=float)
    # a Cartesian ray's direction is fixed; only the radius moves
    direction = None if M.chart == "polar" else sphere_direction(angles)

    def f(rho):
        p = np.concatenate(([rho], angles)) if direction is None else rho * direction
        return u.value(M, p) - level

    lo = 1e-9
    flo = f(lo)
    if not flo < 0:   # NaN included
        raise GeometryError(f"level {level:g} does not enclose the ray origin "
                            f"(u - c = {flo:.3e} at r=0+) (angles {angles.tolist()})")
    hi = 0.25
    fhi = f(hi)
    while fhi < 0:
        if hi >= M.working_radius:
            raise GeometryError(f"no crossing of level {level:g} found within the "
                                f"working radius (angles {angles.tolist()})")
        hi = min(2.0 * hi, M.working_radius)
        fhi = f(hi)
    while hi - lo > _ROOT_BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    hder = 1e-7 * (1.0 + rho)
    for _ in range(20):
        fr = f(rho)
        der = (f(rho + hder) - f(rho - hder)) / (2 * hder)
        if der <= 0:
            break
        step = fr / der
        rho -= step
        if rho <= lo - _ROOT_BISECT_WIDTH or rho >= hi + _ROOT_BISECT_WIDTH:
            rho = min(max(rho, lo), hi)
        if abs(step) <= _ROOT_NEWTON_TOL * max(1.0, rho) and \
           abs(fr) <= _ROOT_NEWTON_TOL * max(1.0, abs(level)):
            break
    resid = abs(f(rho))
    if not resid <= 1e-9 * max(1.0, abs(level)):   # NaN included
        # refuse a half-resolved crossing rather than degrade the quadrature
        raise GeometryError(f"root polish failed: |u - c| = {resid:.3e} "
                            f"(angles {angles.tolist()})")
    return rho


def find_level_radii(u: ScalarField, M: ModelManifold, levels, angles) -> np.ndarray:
    """Radii along a stack of rays where u = level.

    angles: (N, n-1); levels: one level or one per ray.  Levels whose level
    set is a sphere about the base point short-circuit to the exact radius;
    every other ray is solved by find_level_radius.  Raises the error of the
    first ray that fails a guard, naming its node.
    """
    angles = np.asarray(angles, dtype=float)
    N = angles.shape[0]
    levels = np.broadcast_to(np.asarray(levels, dtype=float), (N,))
    rho = np.empty(N)
    todo = np.ones(N, dtype=bool)
    for c in np.unique(levels):
        sr = _star_radius(u, M, float(c))
        if sr is not None:
            sel = levels == c
            rho[sel] = sr
            todo[sel] = False
    for k in np.nonzero(todo)[0]:
        try:
            rho[k] = find_level_radius(u, M, float(levels[k]), angles[k])
        except GeometryError as e:
            raise node_error(GeometryError, int(k), str(e)) from None
    return rho


def surface_nodes(u: ScalarField, M: ModelManifold, levels, angles, weights,
                  directions) -> tuple:
    """(points, surface weights, |grad u|) of a stack of angular nodes,
    each on the level set of its level.

    The surface weight of a node is its angular weight times
    f(rho)^{n-1} |grad u| / d_rho u at the crossing.
    """
    n = M.dim
    rho = find_level_radii(u, M, levels, angles)
    P = np.column_stack((rho, angles)) if M.chart == "polar" else rho[:, None] * directions
    du = u.partials_stack(M, P)
    grad_norm = np.sqrt(_rowdot(du, du / metric_diag_stack(M, P)))
    if M.chart == "polar":
        u_rho = du[:, 0]
        f, _, _ = radial_profile(M)
        scale = _elementwise(lambda t: f(t) ** (n - 1), rho)
    else:
        u_rho = _rowdot(directions, du)
        scale = _elementwise(lambda t: t ** (n - 1), rho)
    if not (u_rho > 0).all():   # NaN included
        k = int(np.argmin(u_rho > 0))
        raise node_error(GeometryError, k, f"u is not increasing along the ray at the "
                                           f"crossing (angles {angles[k].tolist()})")
    return P, weights * scale * grad_norm / u_rho, grad_norm


def _rule_rows(u, M, levels, angles, weights, directions, level_weights,
               integrand, n_comp, threads):
    """Weighted integrand rows, one per node of a rule.

    The node stack is evaluated in contiguous chunks of at most _CHUNK
    nodes (fewer above dimension 4), split further so that `threads`
    workers each get one when threads > 1.  Every stage works node by node,
    so the rows do not depend on the split.  Coarea rules pass level_weights: their rows carry the
    level weight over |grad u|.
    """
    count = len(levels)

    def rows(lo, hi):
        try:
            P, w, grad_norm = surface_nodes(u, M, levels[lo:hi], angles[lo:hi],
                                            weights[lo:hi], directions[lo:hi])
            if level_weights is not None:
                w = w * level_weights[lo:hi] / grad_norm
            return w[:, None] * np.asarray(integrand(P), dtype=float).reshape(len(P), n_comp)
        except Exception as e:
            # errors name nodes within this stack; renumber them for the rule
            if lo and getattr(e, "node", None) is not None:
                raise node_error(type(e), e.node + lo, e.detail) from None
            raise

    cap = min(_CHUNK, max(16, _CHUNK * 4 ** 4 // M.dim ** 4))
    chunk = cap if threads <= 1 or count < 16 else min(cap, -(-count // threads))
    bounds = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    if threads <= 1 or len(bounds) < 2:
        parts = [rows(lo, hi) for lo, hi in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(rows, *zip(*bounds)))
    return np.concatenate(parts)


def _surface_values(u, M, level, integrand, spec, n_comp, threads):
    """Weighted integrand rows (one per angular node)."""
    n = M.dim
    angles, weights, directions = _angular_grid(n, spec.angular_for(n), spec.margin)
    levels = np.full(angles.shape[0], float(level))
    return _rule_rows(u, M, levels, angles, weights, directions, None,
                      integrand, n_comp, threads)


def _cap_bound(M: ModelManifold, spec: QuadratureSpec, value):
    """Analytic bound on the measure omitted by the polar-axis margin.

    The relative measure of each excluded cap is below margin^2, so the
    systematic part of the error (invisible to order halving) is bounded by
    (number of polar angles) * margin^2 * |value|."""
    return (M.dim - 2) * spec.margin ** 2 * abs(value)


def _halving_estimate(rule_rows, M: ModelManifold, spec: QuadratureSpec):
    """(values, error estimates, node count) of a rule and its halved-order
    companion: rule_rows(spec) gives the weighted integrand rows of one rule,
    the values are their pairwise sums, and each estimate is
    |fine - coarse| plus the polar-cap bound."""
    rows = rule_rows(spec)
    values = pairwise_sum(rows)
    values_lo = pairwise_sum(rule_rows(spec.coarser()))
    errs = np.abs(values - values_lo) + _cap_bound(M, spec, values)
    return values, errs, rows.shape[0]


def surface_integral(u: ScalarField, M: ModelManifold, level: float,
                     integrand, spec: QuadratureSpec,
                     threads: int = 1) -> IntegralResult:
    """Integral over the level set {u = level} of integrand, which maps an
    (N, n) point stack to its N values.

    The error estimate is the difference against the next-lower (halved)
    order companion rule plus the analytic polar-cap omission bound.
    """
    values, errs, nodes = _halving_estimate(
        lambda s: _surface_values(u, M, level, integrand, s, 1, threads), M, spec)
    return IntegralResult(value=values[0], error_estimate=errs[0], node_count=nodes)


def _coarea_values(u, M, levels, integrand, spec, n_comp, threads):
    """Weighted integrand rows, level-major over (level node, angular node)."""
    n = M.dim
    c1, c2 = levels
    if not c1 < c2:
        raise ValueError(f"levels must satisfy c1 < c2, got ({c1}, {c2})")
    angles, weights, directions = _angular_grid(n, spec.angular_for(n), spec.margin)
    t_nodes, t_weights = _gl_on(c1, c2, spec.level_order)
    n_ang, n_lev = angles.shape[0], len(t_nodes)
    return _rule_rows(u, M, np.repeat(t_nodes, n_ang), np.tile(angles, (n_lev, 1)),
                      np.tile(weights, n_lev), np.tile(directions, (n_lev, 1)),
                      np.repeat(t_weights, n_ang), integrand, n_comp, threads)


def coarea_volume_integral(u: ScalarField, M: ModelManifold, levels,
                           integrand, spec: QuadratureSpec,
                           threads: int = 1) -> IntegralResult:
    """Integral over the region {c1 < u < c2} of integrand, which maps an
    (N, n) point stack to its N values, computed as a level integral of
    1/|grad u|-weighted surface integrals."""
    values, errs, nodes = _halving_estimate(
        lambda s: _coarea_values(u, M, levels, integrand, s, 1, threads), M, spec)
    return IntegralResult(value=values[0], error_estimate=errs[0], node_count=nodes)


def coarea_volume_integral_multi(u, M, levels, integrand, spec, n_comp,
                                 threads: int = 1):
    """Vector-valued coarea integral: integrand maps an (N, n) point stack
    to its (N, n_comp) rows.

    Returns (values, error_estimates, node_count) as arrays of length n_comp.
    """
    return _halving_estimate(
        lambda s: _coarea_values(u, M, levels, integrand, s, n_comp, threads), M, spec)


def _radial_rule(g, bounds, order: int = 16, max_order: int = 4096):
    """(value, last doubling difference, final order) of radial_integral."""
    a, b = bounds
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("bounds must be finite")
    prev = diff = None
    while order <= max_order:
        x, w = _gl_on(a, b, order)
        val = pairwise_sum([wk * g(xk) for xk, wk in zip(x, w)])
        if prev is not None:
            diff = abs(val - prev)
            if diff <= _RADIAL_TOL * max(1.0, abs(val)):
                return val, diff, order
        prev = val
        order *= 2
    raise GeometryError(f"radial_integral hit the order cap {max_order} without "
                        f"meeting tol={_RADIAL_TOL:g}; last difference "
                        f"{'none' if diff is None else format(diff, '.3e')}")


def radial_integral(g, bounds, order: int = 16, max_order: int = 4096) -> float:
    """1-D Gauss-Legendre integral, doubling the order until two successive
    values differ by less than _RADIAL_TOL (relative).  Raises GeometryError,
    with the last difference, when the order passes max_order first."""
    return _radial_rule(g, bounds, order, max_order)[0]
