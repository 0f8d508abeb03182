"""Deterministic quadrature over level-set hypersurfaces and the regions
between them.

Level sets are parameterized by rays from the chart base point (all supported
fields have star-shaped level sets about it): along the ray with direction
angles theta, the radius rho(theta) solving u = c is found by bracketing
bisection then Newton polish, and the surface measure of the radial graph is

    dA = f(rho)^{n-1} sqrt(det ghat(theta)) * (|grad u| / d_rho u) dtheta,

with f the radial scale of the chart (f = rho in Cartesian charts) and ghat
the round metric of S^{n-1} in iterated spherical angles.  Angular nodes are
the Gauss product rule of S^{n-1} (_angular_grid), whose nodes never reach
the polar axis.  Volume integrals between two levels use the coarea fibration
(Gauss-Legendre across levels, 1/|grad u|-weighted surface rule inside).

On a Cartesian chart a field may warp the rays (ScalarField.ray_map): each
grid direction xi moves to A xi / |A xi| and its weight takes the Jacobian
|det A| / |A xi|^n of that map of S^{n-1} onto itself (_warp), so the rule
still integrates over the whole sphere.  With the quadratic field's
A = Q^{-1/2}, a centred level ellipsoid's nodes are the linear image
sqrt(2c) A xi of the grid's nodes on the unit sphere.  Every other field
keeps the identity map, its plans and its bits.

A rule is evaluated as one stack of nodes, not node by node: the field's
closed-form partials, the surface weights (surface_nodes) and the integrand
each run once on (N, ...) arrays.  Each level value's crossing is resolved
once per integral (_sphere_radii): the exact radius of a level sphere about
the base point (_star_radius), else NaN; find_level_radii solves the NaN
rays by find_level_radius, each ray as the chart reads it (angles, or the
plan's unit direction, warped or not), whose _star_radius check is the one
place a sphere beyond the working radius is refused, at its level's first
node; a node error of surface_nodes names that ray too.
The quadratic field, the one field without stacked closed forms
(ScalarField.stacked false), keeps its partials and Hessian per node,
inside the stacked stages.  Each stack's chart is evaluated once, by
surface_nodes (chart_stack: the metric, the profile f and f' on polar
charts, and the polar guard), with numpy ufuncs on its whole columns.
Integrands are called as integrand(P, chart) with the (N, n) point stack
and that ChartStack, and pass the chart on to the node
kernels that take one (hessian_frame_stack, riemann_stack).  Each integral
joins its rule and the halved-order companion of its error estimate into
one node stack, evaluated in one pass and split again at the rule's node
count.  A surface integral over several levels joins every level's rule,
level-major, then every level's companion, into one stack and one pass as
well.  The columns of that stack that no level value enters are built once
per rule and ray map, as a read-only plan (_rule_plan: angles, weights
and directions), and a call builds only its level columns.  Stacks above
_CHUNK nodes, and stacks split over `threads` workers, run as several
contiguous chunks.  Every stage computes each node with the same
operations whatever the stack and chunk it sits in, and each rule is
reduced by its own fixed-order pairwise sum over its node index, so results
are bit-identical for any split and worker count, and to a rule evaluated
alone.  A failing stack raises the error of its lowest-indexed
failing node, whatever the split.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GeometryError, node_error
from .model_manifolds import ModelManifold, chart_stack
from .level_set_geometry import ScalarField, _rowdot, sphere_direction

_ROOT_BISECT_WIDTH = 1e-6
_ROOT_NEWTON_TOL = 1e-12
_RADIAL_TOL = 1e-12
# first order and order cap of the doubling 1-d rule (radial_integral)
_RADIAL_ORDER = 16
_RADIAL_MAX_ORDER = 4096
# nodes per kernel call up to dimension 4; above it the limit shrinks with
# n^4, so that the (N, n, n, n, n) curvature stacks stay the same size
_CHUNK = 4096
# rule plans kept (_rule_plan): the suites cycle through a few rules at a time
_PLANS = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Orders of the tensor-product rule.

    angular_orders: either one order broadcast to every angle or a tuple with
    one order per angle (its node count, _angular_grid); level_order: nodes
    across the level interval of coarea integrals.
    """
    angular_orders: tuple = (16,)
    level_order: int = 8

    def __post_init__(self):
        orders = self.angular_orders
        if isinstance(orders, int):
            orders = (orders,)
        object.__setattr__(self, "angular_orders", tuple(int(o) for o in orders))
        if any(o < 2 for o in self.angular_orders) or self.level_order < 2:
            raise ValueError("all quadrature orders must be >= 2")

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
        )


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    node_count: int


@lru_cache(maxsize=None)
def _pairwise_leaves(count: int) -> np.ndarray:
    """The summation tree of pairwise_sum over `count` items as a leaf
    layout (8, 2^H), read-only: the range halves (mid = (lo + hi) // 2)
    until a part holds at most 8 items, and a leaf at depth d, reached by
    the branch bits b (left 0), takes column b * 2^(H - d), H the tree's
    height, with its item indices in order, padded with the index `count`.
    A column no leaf takes (under a leaf higher than the bottom) holds
    `count` only, so that halving the columns pairwise merges them as the
    tree does."""
    leaves = {}

    def build(lo, hi, place, depth):
        if hi - lo <= 8:
            leaves[place, depth] = list(range(lo, hi)) + [count] * (8 - (hi - lo))
            return depth
        mid = (lo + hi) // 2
        return max(build(lo, mid, 2 * place, depth + 1),
                   build(mid, hi, 2 * place + 1, depth + 1))

    height = build(0, count, 0, 0)
    layout = np.full((8, 2 ** height), count)
    for (place, depth), items in leaves.items():
        layout[:, place << (height - depth)] = items
    layout.flags.writeable = False
    return layout


def pairwise_sum(values):
    """Fixed-order pairwise summation (binary tree over the index range):
    each leaf of at most 8 items is summed left to right from 0.0, then
    the leaves are merged pairwise up the tree of _pairwise_leaves, one
    strided vector add per tree level.  A leaf higher than the bottom is
    carried up by sums of zero leaves, which leave it unchanged: a sum
    that starts from 0.0 is never -0.0, so x + 0.0 is x.  A 1-d input
    sums to a float (np.float64 when not empty); a 2-d input sums down
    axis 0, every column over the same tree."""
    vals = np.asarray(values, dtype=float)
    cols = vals if vals.ndim == 2 else vals[:, None]
    padded = np.concatenate((cols, np.zeros((1, cols.shape[1])))).take(
        _pairwise_leaves(len(cols)), axis=0)
    acc = 0.0 + padded[0]
    for j in range(1, 8):
        acc += padded[j]
    while len(acc) > 1:
        acc = acc[0::2] + acc[1::2]
    if vals.ndim == 2:
        return acc[0]
    return acc[0, 0] if len(vals) else 0.0


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gl_on(a: float, b: float, order: int):
    x, w = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@lru_cache(maxsize=None)
def _polar_rule(order: int, k: int):
    """(angles ascending, weights), read-only, of the Gauss rule of weight
    sin^k theta on [0, pi]: in t = cos theta the Gauss rule of (1 - t^2)^a,
    a = (k - 1)/2, by Golub-Welsch (Math. Comp. 23, 1969), the eigenvalues
    of its Jacobi matrix, each weighted by mu_0 = B(1/2, a + 1) times the
    squared first component of its unit eigenvector."""
    a = 0.5 * (k - 1)
    j = np.arange(1.0, order)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a - 1) * (2 * j + 2 * a + 1)))
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5)
    angles, weights = np.arccos(t[::-1]), mu0 * v[0, ::-1] ** 2
    angles.flags.writeable = weights.flags.writeable = False
    return angles, weights


@lru_cache(maxsize=None)
def _angular_grid(n: int, orders: tuple):
    """All angular nodes of S^{n-1} with weights including sqrt(det ghat),
    by the Gauss product rule: polar angle m takes the _polar_rule of its
    weight sin^{n-2-m} theta, and the periodic azimuth the trapezoid rule at
    2 pi (j + 1/2) / N, which converges geometrically on a smooth periodic
    integrand (Trefethen and Weideman, SIAM Rev. 56, 2014).

    Returns (angles array N x (n-1), weights length N, unit ray directions
    N x n), read-only; node order is the lexicographic product order, which
    fixes the reduction order.
    """
    per = [_polar_rule(o, n - 2 - m) for m, o in enumerate(orders[:-1])]
    step = 2.0 * math.pi / orders[-1]
    per.append((step * (np.arange(orders[-1]) + 0.5), np.full(orders[-1], step)))
    grids = np.meshgrid(*(x for x, _ in per), indexing="ij")
    wgrids = np.meshgrid(*(w for _, w in per), indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(angles.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    directions = sphere_direction(angles)
    for a in (angles, weights, directions):
        a.flags.writeable = False
    return angles, weights, directions


def _within_working_radius(M: ModelManifold, level: float, radius: float,
                           center: float = 0.0) -> float:
    """radius, refused when the sphere, centred at distance `center` from
    the base point, reaches past the working radius, as a root solve
    refuses a crossing there."""
    if not center + radius <= M.working_radius:   # NaN included
        about = f", centre at distance {center:g}" if center else ""
        raise GeometryError(f"the level-{level:g} sphere (radius {radius:g}{about}) lies "
                            f"beyond the working radius {M.working_radius:g}")
    return radius


def _star_radius(u: ScalarField, M: ModelManifold, level: float):
    """u.ball_radius(level) when u's balls are centred on the chart base
    point (asked first: one call for a field without balls), else None;
    refused beyond the working radius."""
    rho = u.ball_radius(level)
    if rho is None or u.ball_center_distance() != 0.0:
        return None
    return _within_working_radius(M, level, rho)


def find_level_radius(u: ScalarField, M: ModelManifold, level: float, ray) -> float:
    """Radius along one ray where u = level (bisection then Newton), with
    one scalar value() call per evaluation; the ray is its n-1 angles on a
    polar chart, its unit direction on a Cartesian one.  Fields radial about
    the base point short-circuit to the exact radius (_star_radius, which
    refuses a sphere beyond the working radius)."""
    sr = _star_radius(u, M, level)
    if sr is not None:
        return sr
    ray = np.asarray(ray, dtype=float)
    polar = M.chart == "polar"

    def f(rho):
        p = np.concatenate(([rho], ray)) if polar else rho * ray
        return u.value(M, p) - level

    lo = 1e-9
    flo = f(lo)
    if not flo < 0:   # NaN included
        raise GeometryError(f"level {level:g} does not enclose the ray origin "
                            f"(u - c = {flo:.3e} at r=0+) (ray {ray.tolist()})")
    hi = 0.25
    fhi = f(hi)
    while fhi < 0:
        if hi >= M.working_radius:
            raise GeometryError(f"no crossing of level {level:g} found within the "
                                f"working radius (ray {ray.tolist()})")
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
        raise GeometryError(f"root polish failed: |u - c| = {resid:.3e} (ray {ray.tolist()})")
    return rho


def _sphere_radii(u: ScalarField, M: ModelManifold, level_values: np.ndarray) -> np.ndarray:
    """The crossing radius of each level value: _star_radius, asked once
    per distinct value, where the level set is a sphere about the base
    point, else NaN, as also for a sphere refused beyond the working radius,
    which find_level_radius then refuses at the level's first node."""
    values, radii = level_values.tolist(), {}
    for c in values:
        if c not in radii:
            try:
                radii[c] = _star_radius(u, M, c)
            except GeometryError:
                radii[c] = None
    return np.array([radii[c] for c in values], dtype=float)   # None: NaN


def find_level_radii(u: ScalarField, M: ModelManifold, levels, rays, radii) -> np.ndarray:
    """Radii along a stack of rays (N, ...), each as find_level_radius reads
    it, where u = its level (levels, one per ray): radii, the rays'
    _sphere_radii, with each NaN ray solved by find_level_radius.  Raises
    the error of the first ray that fails a guard, naming its node."""
    rho = np.array(radii, dtype=float)
    for k in np.flatnonzero(np.isnan(rho)):
        try:
            rho[k] = find_level_radius(u, M, float(levels[k]), rays[k])
        except GeometryError as e:
            raise node_error(GeometryError, int(k), str(e)) from None
    return rho


def surface_nodes(u: ScalarField, M: ModelManifold, levels, angles, weights,
                  directions, radii) -> tuple:
    """(points, surface weights, |grad u|, chart_stack) of a stack of
    angular nodes, each on the level set of its level.

    The surface weight of a node is its angular weight times
    f(rho)^{n-1} |grad u| / d_rho u at the crossing.  radii: the nodes'
    _sphere_radii (find_level_radii).
    """
    n = M.dim
    polar = M.chart == "polar"
    rays = angles if polar else directions
    rho = find_level_radii(u, M, levels, rays, radii)
    P = np.column_stack((rho, angles)) if polar else rho[:, None] * directions
    du = u.partials_stack(M, P)
    chart = chart_stack(M, P)
    grad_norm = np.sqrt(_rowdot(du, du / chart.D))
    if polar:
        u_rho = du[:, 0]
        scale = chart.f ** (n - 1)
    else:
        u_rho = _rowdot(directions, du)
        scale = rho ** (n - 1)
    if not (u_rho > 0).all():   # NaN included
        k = int(np.argmin(u_rho > 0))
        raise node_error(GeometryError, k, f"u is not increasing along the ray at the "
                                           f"crossing (ray {rays[k].tolist()})")
    return P, weights * scale * grad_norm / u_rho, grad_norm, chart


def _rule_rows(u, M, plan, levels, radii, level_weights, integrand, n_comp, threads):
    """Weighted integrand rows, one per node of a rule plan's node stack
    (the rules of one or more levels and their halved-order companions,
    joined by _halving_estimate), with levels the level value of each node
    and radii its _sphere_radii.

    The node stack is evaluated in contiguous chunks of at most _CHUNK
    nodes (fewer above dimension 4), split further so that `threads`
    workers each get one when threads > 1.  Every stage works node by node,
    so the rows do not depend on the split, nor on which rules share the
    stack.  Coarea rules pass level_weights: their rows carry the level
    weight over |grad u|.  An error naming a node names it within the
    whole stack, and it is the error of the lowest-indexed failing node, at
    the earliest stage where that node fails, whatever the split: a chunk
    raises at its earliest failing stage, naming the first node failing
    there, so on the error path the nodes before the named one are
    evaluated again until they pass (or fail naming no node).
    """

    def rows(lo, hi):
        try:
            P, w, grad_norm, chart = surface_nodes(
                u, M, levels[lo:hi], plan.angles[lo:hi], plan.weights[lo:hi],
                plan.directions[lo:hi], radii[lo:hi])
            if level_weights is not None:
                w = w * level_weights[lo:hi] / grad_norm
            values = np.asarray(integrand(P, chart), dtype=float).reshape(len(P), n_comp)
            return w[:, None] * values
        except Exception as e:
            # errors name nodes within this chunk; renumber them for the stack
            if lo and getattr(e, "node", None) is not None:
                raise node_error(type(e), e.node + lo, e.detail) from None
            raise

    def evaluate(count):
        cap = min(_CHUNK, max(16, _CHUNK * 4 ** 4 // M.dim ** 4))
        chunk = cap if threads <= 1 or count < 16 else min(cap, -(-count // threads))
        bounds = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
        if threads <= 1 or len(bounds) < 2:
            parts = [rows(lo, hi) for lo, hi in bounds]
        else:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                parts = list(ex.map(rows, *zip(*bounds)))
        return np.concatenate(parts)

    try:
        return evaluate(len(levels))
    except Exception as e:
        err = e
    while getattr(err, "node", None):   # a node above 0: do the nodes before it pass?
        try:
            evaluate(err.node)
            break
        except Exception as e:
            if getattr(e, "node", None) is None:
                break
            err = e
    raise err


def _part_sums(rows, parts):
    """pairwise_sum of each of `parts` equal consecutive blocks of rows, as
    a (parts, n_comp) array: the blocks stand side by side as the columns
    of one sum, and each column is summed over the tree it has alone."""
    size, n_comp = len(rows) // parts, rows.shape[1]
    side = rows.reshape(parts, size, n_comp).swapaxes(0, 1).reshape(size, parts * n_comp)
    return pairwise_sum(side).reshape(parts, n_comp)


@dataclass(frozen=True)
class _RulePlan:
    """The columns of a rule's joint node stack that no level value enters
    (_rule_plan), read-only: angles, weights and directions of every node
    of the rule and then of its halved-order companion, and levels, the
    index of each node's level within the rule's level values followed by
    the companion's.  count: the rule's node count."""
    angles: np.ndarray
    weights: np.ndarray
    directions: np.ndarray
    levels: np.ndarray
    count: int


def _warp(A: np.ndarray, directions: np.ndarray, weights: np.ndarray):
    """(directions, weights) of an angular rule moved by the ray map A
    (ScalarField.ray_map): each direction xi goes to A xi / |A xi|, and its
    weight takes the Jacobian |det A| / |A xi|^n of that map of S^{n-1}
    onto itself.  Row by row, with the bits of each row alone."""
    n = len(A)
    X = directions[:, :1] * A[:, 0]
    for j in range(1, n):
        X = X + directions[:, j:j + 1] * A[:, j]
    norm = np.sqrt(_rowdot(X, X))
    return X / norm[:, None], weights * (abs(np.linalg.det(A)) / norm ** n)


@lru_cache(maxsize=_PLANS)
def _rule_plan(kind: str, n: int, spec: QuadratureSpec, levels: int,
               ray_map: tuple = None) -> _RulePlan:
    """The _RulePlan of spec's surface rule on `levels` level sets (kind
    "surface") or of its coarea rule (kind "coarea", levels =
    spec.level_order), each rule level-major over (level, angular node).
    Keyed on the number of levels, not on their values, so that a call
    builds only its level columns from its values.  ray_map: None, or a
    field's ray map as a tuple of rows (_field_plan), by which every
    direction and weight of the rule and its companion is warped (_warp);
    the angles stay the grid's, which a warped direction no longer
    follows."""
    A = None
    if ray_map is not None:
        A = np.array(ray_map, dtype=float)
        # A scaled to |det A| = 1, which moves neither a direction nor a
        # Jacobian, so that neither |det A| nor |A xi|^n underflows for a
        # Q of widely spread eigenvalues
        A = A / math.exp(np.linalg.slogdet(A)[1] / n)
    cols, index, offset = [], [], 0
    for s in (spec, spec.coarser()):
        k = levels if kind == "surface" else s.level_order
        angles, weights, directions = _angular_grid(n, s.angular_for(n))
        if A is not None:
            directions, weights = _warp(A, directions, weights)
        cols.append((np.tile(angles, (k, 1)), np.tile(weights, k), np.tile(directions, (k, 1))))
        index.append(np.repeat(np.arange(offset, offset + k), len(weights)))
        offset += k
    angles, weights, directions = (np.concatenate(c) for c in zip(*cols))
    levels = np.concatenate(index)
    for a in (angles, weights, directions, levels):
        a.flags.writeable = False
    return _RulePlan(angles, weights, directions, levels, len(cols[0][1]))


def _field_plan(u: ScalarField, M: ModelManifold, kind: str, spec: QuadratureSpec,
                levels: int) -> _RulePlan:
    """_rule_plan for u on M: warped by u.ray_map(), else the identity
    plan, which the call without ray_map keys."""
    A = u.ray_map()
    if A is None:
        return _rule_plan(kind, M.dim, spec, levels)
    return _rule_plan(kind, M.dim, spec, levels, tuple(map(tuple, np.asarray(A).tolist())))


def _halving_estimate(u, M: ModelManifold, plan: _RulePlan, level_values, level_weights,
                      spec: QuadratureSpec, integrand, n_comp, threads, parts=1):
    """(values, error estimates, node count) of a rule and its halved-order
    companion, values and estimates as (parts, n_comp) arrays.  The rule's
    plan gives the node set of `parts` rules of equal size, part-major (one
    per level of a multi-level surface integral), joined with their
    companions' into one stack; level_values and level_weights (None for a
    surface rule) hold the level values and level weights of the rule and
    then of the companion, which plan.levels spreads over the nodes; each
    level value's crossing is resolved once (_sphere_radii) for all of
    its nodes.  The stack is evaluated by one _rule_rows pass and split
    again into parts.  Each part is summed by its own pairwise_sum, over
    the same tree as alone, and each estimate is |fine - coarse| plus the
    rounding floor of the fine sum; the node count is that of all the rules.
    The error raised is that of the lowest-indexed failing node of the stack
    (every rule's nodes come before every companion's), at the earliest
    stage where it fails, whatever the split; it names the node by its index
    within its own part's rule, or within that part's companion.  The
    companion floors orders at 2, so an order-2 axis (angular, or for a
    coarea rule also the level axis) is its own companion and the difference
    cannot see its error: every estimate of such a rule is inf."""
    count, total = plan.count, len(plan.weights)
    weights = None if level_weights is None else level_weights[plan.levels]
    try:
        rows = _rule_rows(u, M, plan, level_values[plan.levels],
                          _sphere_radii(u, M, level_values)[plan.levels], weights,
                          integrand, n_comp, threads)
    except Exception as e:
        node = getattr(e, "node", None)
        if node is not None:
            lo, size = (0, count) if node < count else (count, total - count)
            raise node_error(type(e), (node - lo) % (size // parts), e.detail) from None
        raise
    values = _part_sums(rows[:count], parts)
    # the rounding floor of a part of N rows: pairwise_sum makes 7 left-to-
    # right adds per 8-item leaf, its tree is at most ceil(log2 N) high, and
    # each weight product rounds once (Higham, SIAM J. Sci. Comput. 14, 1993)
    floor = (math.ceil(math.log2(count // parts)) + 8) * 2.0 ** -52 \
        * _part_sums(np.abs(rows[:count]), parts)
    errs = np.abs(values - _part_sums(rows[count:], parts)) + floor
    coarea = level_weights is not None
    if 2 in spec.angular_for(M.dim) + ((spec.level_order,) if coarea else ()):
        errs = np.full_like(errs, math.inf)
    return values, errs, count


def _level_array(level) -> np.ndarray:
    """level, one level or a nonempty sequence of levels, as an array."""
    levels = np.asarray(level, dtype=float)
    if levels.ndim > 1 or not levels.size:
        raise ValueError(f"expected a level or a nonempty sequence of levels, got {level!r}")
    return levels


def surface_integral(u: ScalarField, M: ModelManifold, level, integrand,
                     spec: QuadratureSpec, threads: int = 1):
    """Integral over the level set {u = level} of integrand, which maps an
    (N, n) point stack and its chart_stack to the N values.

    The error estimate is the difference against the next-lower (halved)
    order companion rule plus the rounding floor of the sum; inf when an
    angular order is 2.

    level may also be a nonempty sequence of levels: every level's rule
    and companion then run as one node stack, and the result is (values,
    error_estimates, node_count), arrays with one entry per level, each
    bit-identical to that level integrated alone, and the fine node count
    of all the levels.
    """
    levels = _level_array(level)
    flat = levels.reshape(-1)
    values, errs, nodes = _halving_estimate(
        u, M, _field_plan(u, M, "surface", spec, flat.size), np.concatenate((flat, flat)),
        None, spec, integrand, 1, threads, parts=flat.size)
    if levels.ndim:
        return values[:, 0], errs[:, 0], nodes
    return IntegralResult(value=values[0, 0], error_estimate=errs[0, 0], node_count=nodes)


def _coarea_estimate(u, M, levels, integrand, spec, n_comp, threads):
    """_halving_estimate of the coarea rule of `spec` between levels
    (c1, c2): Gauss-Legendre level nodes and weights on (c1, c2), of the
    rule's level order and then of the companion's, over the plan's
    angular nodes."""
    c1, c2 = levels
    if not c1 < c2:
        raise ValueError(f"levels must satisfy c1 < c2, got ({c1}, {c2})")
    fine = _gl_on(c1, c2, spec.level_order)
    coarse = _gl_on(c1, c2, spec.coarser().level_order)
    return _halving_estimate(
        u, M, _field_plan(u, M, "coarea", spec, spec.level_order),
        np.concatenate((fine[0], coarse[0])), np.concatenate((fine[1], coarse[1])),
        spec, integrand, n_comp, threads)


def coarea_volume_integral(u: ScalarField, M: ModelManifold, levels,
                           integrand, spec: QuadratureSpec,
                           threads: int = 1) -> IntegralResult:
    """Integral over the region {c1 < u < c2} of integrand, which maps an
    (N, n) point stack and its chart_stack to the N values, computed as a
    level integral of 1/|grad u|-weighted surface integrals."""
    values, errs, nodes = _coarea_estimate(u, M, levels, integrand, spec, 1, threads)
    return IntegralResult(value=values[0, 0], error_estimate=errs[0, 0], node_count=nodes)


def coarea_volume_integral_multi(u, M, levels, integrand, spec, n_comp,
                                 threads: int = 1):
    """Vector-valued coarea integral: integrand maps an (N, n) point stack
    and its chart_stack to the (N, n_comp) rows.

    Returns (values, error_estimates, node_count) as arrays of length n_comp.
    """
    values, errs, nodes = _coarea_estimate(u, M, levels, integrand, spec, n_comp, threads)
    return values[0], errs[0], nodes


def _radial_rule(g, bounds):
    """(value, last doubling difference, final order) of radial_integral."""
    a, b = bounds
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("bounds must be finite")
    order, max_order = _RADIAL_ORDER, _RADIAL_MAX_ORDER
    prev = diff = None
    while order <= max_order:
        x, w = _gl_on(a, b, order)
        val = pairwise_sum(w * g(x))
        if prev is not None:
            diff = abs(val - prev)
            if diff <= _RADIAL_TOL * max(1.0, abs(val)):
                return val, diff, order
        prev = val
        order *= 2
    raise GeometryError(f"radial_integral hit the order cap {max_order} without "
                        f"meeting tol={_RADIAL_TOL:g}; last difference "
                        f"{'none' if diff is None else format(diff, '.3e')}")


def radial_integral(g, bounds) -> float:
    """1-D Gauss-Legendre integral of g, an array map, from order
    _RADIAL_ORDER, doubling the order until two successive values differ by
    less than _RADIAL_TOL (relative).  Raises GeometryError, with the last
    difference, when the order passes _RADIAL_MAX_ORDER first."""
    return _radial_rule(g, bounds)[0]
