"""Total mean curvatures of level sets and the hypersurface comparison
identity, with itemized correction terms.

The comparison identity states that for nested level sets of u,

    M_r(outer) - M_r(inner) = (r+1) Int sigma_{r+1}(kappa)
        + Int [ - sum kappa_{i_1}..kappa_{i_{r-1}} K_{i_r n}
                + (1/|grad u|) sum kappa_{i_1}..kappa_{i_{r-2}}
                  |grad u|_{i_{r-1}} R_{i_r i_{r-1} i_r n} ],

with both sums over distinct indices in 1..n-1, prefixes ascending (the
second sum is empty for r <= 1).  The left side is computed by surface
quadrature of sigma_r and the right side by coarea volume quadrature of the
frame-contracted integrand, through disjoint code paths, so their agreement
is evidence rather than tautology.  Index sets for the two sums are
materialized once per (n, r) and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import GeometryError
from .model_manifolds import (
    ModelManifold,
    constant_curvature,
    radial_profile,
    riemann_stack,
    sphere_total_mean_curvature,
    unit_sphere_volume,
)
from .level_set_geometry import (
    ScalarField,
    _order_groups,
    hessian_frame_stack,
    principal_frame_stack,
)
from .quadrature import (
    QuadratureSpec,
    _level_array,
    _radial_rule,
    _within_working_radius,
    coarea_volume_integral_multi,
    surface_integral,
)
from .symmetric_algebra import double_factorial, elementary_all_stack, sigma_stack

MCR_COLUMNS = ("model", "field", "n", "r", "level", "value", "error_estimate", "nodes")
BREAKDOWN_COLUMNS = ("model", "field", "n", "r", "c1", "c2", "lhs", "term_principal",
                     "term_sectional", "term_mixed", "residual", "error_budget", "nodes")


@dataclass(frozen=True)
class MeanCurvatureReport:
    r: int
    value: float
    error_estimate: float
    level: float
    node_count: int

    def to_record(self, M: ModelManifold, u: ScalarField) -> dict:
        return {
            "model": M.label, "field": u.kind, "n": M.dim, "r": self.r,
            "level": self.level,
            "value": self.value, "error_estimate": self.error_estimate,
            "nodes": self.node_count,
        }


@dataclass(frozen=True)
class ComparisonBreakdown:
    r: int
    levels: tuple
    lhs: float
    term_principal: float
    term_sectional: float
    term_mixed: float
    residual: float
    error_budget: float
    node_count: int
    meta: dict = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Reference magnitude for relative residuals.  The lhs itself can be
        identically zero (e.g. r = n-1 in flat space), so the surface values
        and the principal term are folded in."""
        cands = [abs(self.lhs), abs(self.term_principal)]
        cands += [abs(v) for k, v in self.meta.items() if k in ("m_outer", "m_inner")]
        return max(cands + [1e-30])

    def to_record(self) -> dict:
        return {
            "model": self.meta.get("model"), "field": self.meta.get("field"),
            "n": self.meta.get("n"), "r": self.r,
            "c1": self.levels[0], "c2": self.levels[1],
            "lhs": self.lhs, "term_principal": self.term_principal,
            "term_sectional": self.term_sectional, "term_mixed": self.term_mixed,
            "residual": self.residual, "error_budget": self.error_budget,
            "nodes": self.node_count,
        }


# ---------------------------------------------------------------------------
# Index enumeration for the two correction sums (cached per (n, r))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sectional_sum_terms(m: int, r: int):
    """First-sum index sets over kappa indices 0..m-1 (m = n-1): ascending
    (r-1)-prefix, distinct free index i_r."""
    if r < 1:
        return ()
    out = []
    for prefix in combinations(range(m), r - 1):
        pset = set(prefix)
        for ir in range(m):
            if ir not in pset:
                out.append((prefix, ir))
    return tuple(out)


@lru_cache(maxsize=None)
def mixed_sum_terms(m: int, r: int):
    """Second-sum index sets: ascending (r-2)-prefix, then the ordered pair
    (i_{r-1}, i_r) of distinct free indices.  Empty for r <= 1."""
    if r < 2:
        return ()
    out = []
    for prefix in combinations(range(m), r - 2):
        pset = set(prefix)
        rem = [x for x in range(m) if x not in pset]
        for irm1 in rem:
            for ir in rem:
                if ir != irm1:
                    out.append((prefix, irm1, ir))
    return tuple(out)


def _kprod(kappa, prefix):
    """Product of the kappa entries in prefix, from 1.0 left to right; over
    the last axis, so a (N, n-1) stack gives the N products."""
    prod = 1.0
    for i in prefix:
        prod *= kappa[..., i]
    return prod


def correction_sums_stack(kappa, derivs, rd, grad_norm, r):
    """(sectional, mixed) correction integrands at a stack of nodes, by the
    displayed index enumeration in the principal frames.

    kappa, derivs: (N, n-1) principal curvatures and |grad u| derivatives;
    rd: riemann_stack in the principal frames; grad_norm: (N,); r: one
    order, or per-row orders summed on the rows of each order alone.
    """
    N, last = kappa.shape
    sect, mixed = np.zeros(N), np.zeros(N)
    for q, rows in _order_groups(r, N, 0):
        k, d, K, R = kappa[rows], derivs[rows], rd.K[rows], rd.R[rows]
        s = np.zeros(len(k))
        for prefix, ir in sectional_sum_terms(last, q):
            s = s - _kprod(k, prefix) * K[:, ir, last]
        m = np.zeros(len(k))
        for prefix, irm1, ir in mixed_sum_terms(last, q):
            m = m + _kprod(k, prefix) * d[:, irm1] * R[:, ir, irm1, ir, last]
        sect[rows], mixed[rows] = s, m
    return sect, mixed / grad_norm


def _node_geometry(u, M, P, chart):
    """Hessian data and principal frames of a node stack with its
    chart_stack, and the elementary symmetric functions of its principal
    curvatures."""
    hd = hessian_frame_stack(u, M, P, chart)
    pf = principal_frame_stack(hd)
    return hd, pf, elementary_all_stack(pf.kappa)


# ---------------------------------------------------------------------------
# Total mean curvatures
# ---------------------------------------------------------------------------

def _enclosed_volume(u: ScalarField, M: ModelManifold, level: float):
    """(|{u < level}|, estimate, node count) in closed form: a geodesic ball
    of radius rho = u.ball_radius(level) has volume |S^{n-1}| Int_0^rho g
    with g = f^{n-1}, a quadratic field's flat ellipsoid |S^{n-1}|/n times
    its semi-axes sqrt(2 level / lambda_i).  A field that cannot live on M
    raises u.check's ValueError first.  Refuses, as the ray root solve
    of M_r (r >= 0) does: level <= 0; sets that do not contain the base
    point (a ball whose centre distance is not below its radius, an
    ellipsoid with u >= level there); balls that reach past the working
    radius (centre distance plus radius, which a ball attains); ellipsoids
    whose farthest point (u.reach) does; and every other field.

    The ball's estimate is the last doubling difference of the radial rule
    plus its roundoff.  Rounding moves each node by at most 4 eps rho, which
    moves the rule by at most 4 eps rho Int_0^rho |g'| = 4 eps rho g(rho)
    (g increases, as f' >= 1 in every model); that term grows with
    (n - 1) sqrt(-a) rho in the hyperbolic models.  The values, weights,
    products and the pairwise sum add 2 (n + log2 order) eps |v|.

    The ellipsoid's estimate bounds the error of Q's computed eigenpairs
    (w_i, V) a posteriori: each true eigenvalue lies within
    ||Q - V W V^T||_F (Weyl's inequality) + |w_i| ||V^T V - I||_F
    (Ostrowski's theorem, V nearly orthogonal) + 2 n (n + 1) eps max|w|
    (rounding in forming the first two) of w_i; v ~ prod w_i^{-1/2} moves
    by half the sum of their relative errors, and the roots and products
    add (3 n + 8) eps |v|."""
    u.check(M)
    if not level > 0:   # NaN included
        raise GeometryError(f"the enclosed volume needs a positive level, got {level:g}")
    n, eps = M.dim, np.finfo(float).eps
    rho = u.ball_radius(level)
    if rho is not None:
        f, _, _ = radial_profile(M)
        center = u.ball_center_distance()
        if not center < rho:
            raise GeometryError(f"the level-{level:g} ball (radius {rho:g}, centre at "
                                f"distance {center:g}) does not enclose the ray origin")
        _within_working_radius(M, level, rho, center=center)
        sphere = unit_sphere_volume(n)
        integral, diff, order = _radial_rule(lambda t: f(t) ** (n - 1), (0.0, rho))
        v = sphere * integral
        err = sphere * (diff + 4.0 * eps * rho * f(rho) ** (n - 1)) \
            + 2.0 * (n + math.log2(order)) * eps * v
        return v, err, 1
    if u.kind == "quadratic":
        base = u.value(M, np.zeros(n))
        if not base < level:
            raise GeometryError(f"the level-{level:g} ellipsoid does not enclose the ray "
                                f"origin (u = {base:g} there)")
        reach = u.reach(level)
        if not reach <= M.working_radius:
            raise GeometryError(f"the level-{level:g} ellipsoid reaches distance {reach:g}, "
                                f"beyond the working radius {M.working_radius:g}")
        axes = [math.sqrt(2.0 * level / lam) for lam in u.eigenvalues]
        v = unit_sphere_volume(n) / n * math.prod(axes)
        w, V = np.array(u.eigenvalues), u.eigenvectors
        shift = (np.linalg.norm(u.Q - (V * w) @ V.T) + w * np.linalg.norm(V.T @ V - np.eye(n))
                 + 2 * n * (n + 1) * eps * w[-1])
        rel = 0.5 * float(np.sum(shift / w)) + (3 * n + 8) * eps
        return v, rel * abs(v), 1
    raise GeometryError(f"no enclosed-volume path for field '{u.kind}'")


def total_mean_curvature(u: ScalarField, M: ModelManifold, level, r: int,
                         spec: QuadratureSpec = QuadratureSpec(), threads: int = 1):
    """M_r of the level set {u = level}; M_{-1} is the enclosed volume,
    in closed form (_enclosed_volume, which reads no spec or threads).

    level may also be a sequence of levels: the result is then the list of
    their reports, from one surface_integral call whose node stack holds
    every level, each report bit-identical to its level alone and with its
    own level's node count."""
    n = M.dim
    if not -1 <= r <= n - 1:
        raise ValueError(f"order r must lie in [-1, {n - 1}], got {r}")
    several = _level_array(level).ndim > 0
    levels = list(level) if several else [level]
    if r == -1:
        reports = []
        for c in levels:
            value, err, nodes = _enclosed_volume(u, M, c)
            reports.append(MeanCurvatureReport(r=r, value=value, error_estimate=err,
                                               level=c, node_count=nodes))
    else:
        def integrand(P, chart):
            return sigma_stack(_node_geometry(u, M, P, chart)[2], r)

        values, errs, nodes = surface_integral(u, M, levels, integrand, spec, threads)
        reports = [MeanCurvatureReport(r=r, value=v, error_estimate=e, level=c,
                                       node_count=nodes // len(levels))
                   for c, v, e in zip(levels, values, errs)]
    return reports if several else reports[0]


# ---------------------------------------------------------------------------
# Comparison identity
# ---------------------------------------------------------------------------

def _comparison(u, M, levels, r, spec, threads, corrections,
                path=None) -> ComparisonBreakdown:
    """The comparison identity between the level sets at levels = (c1, c2):
    the LHS M_r(outer) - M_r(inner) from one two-level total_mean_curvature
    call, and the RHS as the coarea integrals of
    the principal column (r+1) sigma_{r+1} and the path's two correction
    columns, corrections(P, chart, hd, pf, e) -> (sectional, mixed) at a
    node stack.  path names a specialised path in the meta."""
    if not 0 <= r <= M.dim - 1:
        raise ValueError(f"order r must lie in [0, {M.dim - 1}], got {r}")

    def integrand(P, chart):
        hd, pf, e = _node_geometry(u, M, P, chart)
        return np.column_stack(((r + 1) * sigma_stack(e, r + 1),
                                *corrections(P, chart, hd, pf, e)))

    terms, errs, nodes_rhs = coarea_volume_integral_multi(
        u, M, levels, integrand, spec, 3, threads)
    inner, outer = total_mean_curvature(u, M, levels, r, spec, threads)
    lhs = outer.value - inner.value
    budget = 10.0 * (outer.error_estimate + inner.error_estimate + float(np.sum(errs)))
    meta = {"m_outer": outer.value, "m_inner": inner.value,
            "model": M.label, "field": u.kind, "n": M.dim}
    if path is not None:
        meta["path"] = path
    return ComparisonBreakdown(
        r=r, levels=tuple(levels), lhs=lhs,
        term_principal=terms[0], term_sectional=terms[1], term_mixed=terms[2],
        residual=lhs - (terms[0] + terms[1] + terms[2]), error_budget=budget,
        node_count=nodes_rhs + inner.node_count + outer.node_count, meta=meta)


def comparison_rhs(u: ScalarField, M: ModelManifold, levels, r: int,
                   spec: QuadratureSpec = QuadratureSpec(),
                   threads: int = 1) -> ComparisonBreakdown:
    """Both sides of the comparison identity between the level sets at
    levels = (c1, c2), with the right side itemized into the principal,
    sectional, and mixed terms."""

    def corrections(P, chart, hd, pf, e):
        if M.is_flat:
            return np.zeros(len(P)), np.zeros(len(P))
        rd = riemann_stack(M, P, pf.frame, chart)
        return correction_sums_stack(pf.kappa, pf.grad_norm_derivs, rd, hd.grad_norm, r)

    return _comparison(u, M, levels, r, spec, threads, corrections)


def comparison_rhs_constant(u: ScalarField, M: ModelManifold, levels, r: int,
                            spec: QuadratureSpec = QuadratureSpec(),
                            threads: int = 1) -> ComparisonBreakdown:
    """Two-term specialization on a constant-curvature model:

        M_r(outer) - M_r(inner) = (r+1) Int sigma_{r+1} - a (n-r) Int sigma_{r-1}.
    """
    if M.family != "constant":
        raise ValueError("comparison_rhs_constant requires the constant-curvature family")
    n = M.dim
    a = M.a

    def corrections(P, chart, hd, pf, e):
        zero = np.zeros(len(P))
        return (zero if r == 0 else -a * (n - r) * sigma_stack(e, r - 1)), zero

    return _comparison(u, M, levels, r, spec, threads, corrections, path="constant")


def ricci_comparison(u: ScalarField, M: ModelManifold, levels,
                     spec: QuadratureSpec = QuadratureSpec(),
                     threads: int = 1) -> ComparisonBreakdown:
    """The r = 1 identity with the sectional term contracted as a Ricci
    curvature: M_1(outer) - M_1(inner) = 2 Int sigma_2 - Int Ric(nu)."""

    def corrections(P, chart, hd, pf, e):
        zero = np.zeros(len(P))
        if M.is_flat:
            return zero, zero
        return -riemann_stack(M, P, pf.frame, chart).ricci_n, zero

    return _comparison(u, M, levels, 1, spec, threads, corrections, path="ricci")


# ---------------------------------------------------------------------------
# Closed-form corollary quantities
# ---------------------------------------------------------------------------

def solanes_prediction(m: dict, a: float, n: int) -> float:
    """Predicted M_{n-1} from lower-order total mean curvatures in constant
    curvature a:

        M_{n-1} = |S^{n-1}| - sum_{i=1}^{(n - n mod 2)/2}
                  [(2i-1)!! (n-2i-2)!! / (n-2)!!] a^i M_{n-2i-1}.

    m maps the order j to M_j; for even n the j = -1 entry (the enclosed
    volume) is required.
    """
    total = unit_sphere_volume(n)
    for i in range(1, (n - (n % 2)) // 2 + 1):
        j = n - 2 * i - 1
        if j not in m:
            raise ValueError(f"missing M_{j} input for the recursion at n={n}")
        coef = (double_factorial(2 * i - 1) * double_factorial(n - 2 * i - 2)
                / double_factorial(n - 2))
        total -= coef * a ** i * m[j]
    return total


def ball_bound(r: int, rho: float, a: float, n: int) -> float:
    """M_r of the boundary of a radius-rho ball in the constant-curvature-a
    model: the geodesic-sphere closed form, with that model's checks
    (a <= 0 and within overflow range, rho > 0, 0 <= r <= n-1)."""
    return sphere_total_mean_curvature(constant_curvature(a, n), r, rho)


def m1_volume_bound(a: float, vol: float, n: int):
    """Volume lower bounds for the total first mean curvature:
    -(n-1) a vol in general, and additionally -4 a vol when n = 3."""
    if vol < 0:
        raise ValueError("volume must be nonnegative")
    general = -(n - 1) * a * vol
    dim3 = -4.0 * a * vol if n == 3 else None
    return general, dim3
