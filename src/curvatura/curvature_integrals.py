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
from .level_set_geometry import ScalarField, hessian_frame_stack, principal_frame_stack
from .quadrature import (
    QuadratureSpec,
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


def correction_sums_stack(kappa, derivs, rd, grad_norm, r: int):
    """(sectional, mixed) correction integrands at a stack of nodes, by the
    displayed index enumeration in the principal frames.

    kappa, derivs: (N, n-1) principal curvatures and |grad u| derivatives;
    rd: riemann_stack in the principal frames; grad_norm: (N,).
    """
    last = kappa.shape[1]
    sect = np.zeros(kappa.shape[0])
    for prefix, ir in sectional_sum_terms(last, r):
        sect = sect - _kprod(kappa, prefix) * rd.K[:, ir, last]
    mixed = np.zeros(kappa.shape[0])
    for prefix, irm1, ir in mixed_sum_terms(last, r):
        mixed = mixed + (_kprod(kappa, prefix) * derivs[:, irm1]
                         * rd.R[:, ir, irm1, ir, last])
    return sect, mixed / grad_norm


def _node_geometry(u, M, P):
    """Hessian data and principal frames of a node stack, and the
    elementary symmetric functions of its principal curvatures."""
    hd = hessian_frame_stack(u, M, P)
    pf = principal_frame_stack(hd)
    return hd, pf, elementary_all_stack(pf.kappa)


# ---------------------------------------------------------------------------
# Total mean curvatures
# ---------------------------------------------------------------------------

def _enclosed_volume(u: ScalarField, M: ModelManifold, level: float):
    """(|{u < level}|, estimate, node count) in closed form: a geodesic ball
    of radius rho = u.ball_radius(level) has volume |S^{n-1}| Int_0^rho g
    with g = f^{n-1}, a quadratic field's flat ellipsoid |S^{n-1}|/n times
    its semi-axes sqrt(2 level / lambda_i).  Refuses level <= 0, sets past
    the working radius and every other field.

    The ball's estimate is the last doubling difference of the radial rule
    plus its roundoff.  Rounding moves each node by at most 4 eps rho, which
    moves the rule by at most 4 eps rho Int_0^rho |g'| = 4 eps rho g(rho)
    (g increases, as f' >= 1 in every model); that term grows with
    (n - 1) sqrt(-a) rho in the hyperbolic models.  The values, weights,
    products and the pairwise sum add 2 (n + log2 order) eps |v|."""
    if not level > 0:   # NaN included
        raise GeometryError(f"the enclosed volume needs a positive level, got {level:g}")
    n = M.dim
    rho = u.ball_radius(level)
    if rho is not None:
        f, _, _ = radial_profile(M)
        _within_working_radius(M, level, rho)
        sphere = unit_sphere_volume(n)
        integral, diff, order = _radial_rule(lambda t: f(t) ** (n - 1), (0.0, rho))
        v = sphere * integral
        eps = np.finfo(float).eps
        err = sphere * (diff + 4.0 * eps * rho * f(rho) ** (n - 1)) \
            + 2.0 * (n + math.log2(order)) * eps * v
        return v, err, 1
    if u.kind == "quadratic":
        u._check(M)
        axes = [math.sqrt(2.0 * level / lam) for lam in u.eigenvalues]
        _within_working_radius(M, level, max(axes), "ellipsoid")
        v = unit_sphere_volume(n) / n * math.prod(axes)
        return v, 1e-14 * abs(v), 1
    raise GeometryError(f"no enclosed-volume path for field '{u.kind}'")


def total_mean_curvature(u: ScalarField, M: ModelManifold, level: float, r: int,
                         spec: QuadratureSpec = QuadratureSpec(),
                         threads: int = 1) -> MeanCurvatureReport:
    """M_r of the level set {u = level}; M_{-1} is the enclosed volume,
    in closed form (_enclosed_volume, which reads no spec or threads)."""
    n = M.dim
    if not -1 <= r <= n - 1:
        raise ValueError(f"order r must lie in [-1, {n - 1}], got {r}")
    if r == -1:
        value, err, nodes = _enclosed_volume(u, M, level)
        return MeanCurvatureReport(r=r, value=value, error_estimate=err,
                                   level=level, node_count=nodes)

    def integrand(P):
        return sigma_stack(_node_geometry(u, M, P)[2], r)

    res = surface_integral(u, M, level, integrand, spec, threads)
    return MeanCurvatureReport(r=r, value=res.value, error_estimate=res.error_estimate,
                               level=level, node_count=res.node_count)


# ---------------------------------------------------------------------------
# Comparison identity
# ---------------------------------------------------------------------------

def _comparison(u, M, levels, r, spec, threads, corrections,
                path=None) -> ComparisonBreakdown:
    """The comparison identity between the level sets at levels = (c1, c2):
    the LHS M_r(outer) - M_r(inner), and the RHS as the coarea integrals of
    the principal column (r+1) sigma_{r+1} and the path's two correction
    columns, corrections(P, hd, pf, e) -> (sectional, mixed) at a node
    stack.  path names a specialised path in the meta."""
    if not 0 <= r <= M.dim - 1:
        raise ValueError(f"order r must lie in [0, {M.dim - 1}], got {r}")

    def integrand(P):
        hd, pf, e = _node_geometry(u, M, P)
        return np.column_stack(((r + 1) * sigma_stack(e, r + 1), *corrections(P, hd, pf, e)))

    terms, errs, nodes_rhs = coarea_volume_integral_multi(
        u, M, levels, integrand, spec, 3, threads)
    inner = total_mean_curvature(u, M, levels[0], r, spec, threads)
    outer = total_mean_curvature(u, M, levels[1], r, spec, threads)
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

    def corrections(P, hd, pf, e):
        if M.is_flat:
            return np.zeros(len(P)), np.zeros(len(P))
        rd = riemann_stack(M, P, pf.frame_chart)
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

    def corrections(P, hd, pf, e):
        zero = np.zeros(len(P))
        return (zero if r == 0 else -a * (n - r) * sigma_stack(e, r - 1)), zero

    return _comparison(u, M, levels, r, spec, threads, corrections, path="constant")


def ricci_comparison(u: ScalarField, M: ModelManifold, levels,
                     spec: QuadratureSpec = QuadratureSpec(),
                     threads: int = 1) -> ComparisonBreakdown:
    """The r = 1 identity with the sectional term contracted as a Ricci
    curvature: M_1(outer) - M_1(inner) = 2 Int sigma_2 - Int Ric(nu)."""

    def corrections(P, hd, pf, e):
        zero = np.zeros(len(P))
        if M.is_flat:
            return zero, zero
        return -riemann_stack(M, P, pf.frame_chart).ricci_n, zero

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
