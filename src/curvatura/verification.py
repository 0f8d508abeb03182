"""Property suites binding the pointwise identities, the comparison formula,
the corollary inequalities, and the small-sphere asymptotics to pass/fail
records with explicit tolerances.

Each suite is driven by a SuiteConfig whose seed fully determines every
sampled input (per-case generators are spawned as default_rng((seed, case
index))), so reports are bit-for-bit reproducible.  Structural coverage is
enforced: a suite refuses to report if any configured (model family, r) pair
ended up without a case.  Failing cases keep the inputs needed to rerun them
in isolation.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, fields
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConfigError
from .model_manifolds import (
    ModelManifold,
    constant_curvature,
    euclidean,
    linear_profile,
    poly3_profile,
    radial_profile,
    riemann_stack,
    sinh_profile,
    sphere_total_mean_curvature,
    unit_sphere_volume,
    warped,
)
from .level_set_geometry import (
    OffCenterDistanceField,
    QuadraticFormField,
    RadialDistanceField,
    RadialSquaredHalfField,
    div_newton_fd_stack,
    div_newton_stack,
    hessian_frame_stack,
    principal_frame_stack,
    reilly1_residual_stack,
    reilly2_sides_stack,
    sphere_direction,
)
from .quadrature import QuadratureSpec, radial_integral
from .curvature_integrals import (
    ball_bound,
    comparison_rhs,
    comparison_rhs_constant,
    correction_sums_stack,
    m1_volume_bound,
    ricci_comparison,
    total_mean_curvature,
)
from .symmetric_algebra import (
    binomial,
    eigh_stack,
    elementary_all_stack,
    newton_matrices_stack,
    newton_partial_form,
    sigma_hessian_kronecker_stack,
    trace_identity_residual_stack,
)

# every tolerance the suites read through SuiteConfig.tol, with its default:
# the keys a config's "tolerances" object may set
TOLERANCES = {
    "reilly2": 1e-8, "order": 1.9, "div_flat": 1e-12, "div_fd": 1e-4, "correction_cross": 1e-10,
    "sigma_dual": 1e-10, "trace": 1e-10, "sphere_oracle": 1e-6, "cc_two_path": 1e-7,
    "ricci_path": 1e-9, "poly3_oracle": 1e-6, "ellipsoid": 1e-3, "offcenter_sphere": 1e-6,
    "offcenter": 1e-3, "m1_volume": 1e-6, "ball_equality": 1e-9, "slope": 0.02,
    "gauss_limit": 0.01}


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 20240817      # also the CLI's seed for a config without one
    quick: bool = False
    threads: int = 1
    tolerances: dict = dc_field(default_factory=dict)

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, TOLERANCES[key]))


@dataclass(frozen=True)
class CaseRecord:
    """One case of a suite: its CSV row, then the inputs that rerun it."""
    suite: str
    case_id: str
    model: str
    field: str
    n: int
    r: Optional[int]
    metric: str
    measured: float
    expected: float
    residual: float
    tolerance: float
    passed: bool
    inputs: dict

    def to_row(self) -> dict:
        return {c: getattr(self, c) for c in CASE_COLUMNS}


# the columns of a suite CSV: every CaseRecord field but the inputs
CASE_COLUMNS = tuple(f.name for f in fields(CaseRecord) if f.name != "inputs")


@dataclass
class SuiteReport:
    """One suite run: its runner adds the cases and block timings, and the
    (model label, r) pairs that must have cases, then calls report()."""
    suite: str
    cases: list = dc_field(default_factory=list)
    timings: dict = dc_field(default_factory=dict)
    required: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def add(self, cid, M, u, r, metric, measured, tol, passed=None, expected=0.0,
            residual=None, **inputs):
        """Record the case of model M and field u at order r, passed when
        |measured| <= tol unless `passed` is given; its rerun inputs are M's
        and u's descriptions, r and the keyword arguments.  An algebra case
        has no M, u or r, and its inputs give its n."""
        if M is None:
            model, field, n = "algebra", "-", inputs["n"]
        else:
            model, field, n = M.label, u.kind, M.dim
            inputs = {"model": M.describe(), "field": u.describe(), "r": r, **inputs}
        if passed is None:
            passed = abs(measured) <= tol
        if residual is None:
            residual = abs(measured - expected)
        self.cases.append(CaseRecord(
            suite=self.suite, case_id=cid, model=model, field=field, n=n, r=r, metric=metric,
            measured=measured, expected=expected, residual=residual, tolerance=tol,
            passed=passed, inputs=inputs))

    @contextmanager
    def timed(self, key: str):
        t0 = time.perf_counter()
        yield
        self.timings[key] = time.perf_counter() - t0

    def report(self) -> "SuiteReport":
        """Refuse a vacuous report: every required (model label, r) pair must
        have produced a case, and the suite at least one; freeze the cases."""
        seen = {(c.model, c.r) for c in self.cases} | {(c.model, None) for c in self.cases}
        missing = [p for p in self.required if p not in seen]
        if missing:
            raise ConfigError(f"suite produced no cases for {missing}")
        if not self.cases:
            raise ConfigError(f"suite '{self.suite}' produced no cases")
        self.cases = tuple(self.cases)
        return self

    def to_rows(self):
        return [c.to_row() for c in self.cases]

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed, "timings": self.timings,
                "cases": [dict(c.to_row(), inputs=c.inputs) for c in self.cases]}

    def failures(self):
        return [c for c in self.cases if not c.passed]


# ---------------------------------------------------------------------------
# Shared grids
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _default_models():
    """The suites' three models, built once per process (warped screens its
    profile on 1000 samples); they are frozen, so sharing them is safe."""
    return (euclidean(3), constant_curvature(-1.0, 3), warped(poly3_profile(), 3))


def _fields_for(M: ModelManifold):
    if M.chart == "cartesian":
        Q = np.diag([1.0] * (M.dim - 1) + [4.0])
        return [RadialSquaredHalfField(), RadialDistanceField(), QuadraticFormField(Q)]
    if M.family == "constant":
        return [RadialDistanceField(), RadialSquaredHalfField(), OffCenterDistanceField(0.3)]
    return [RadialDistanceField(), RadialSquaredHalfField()]


def _sample_points(M: ModelManifold, rng, k: int) -> np.ndarray:
    """k sample points (k, n) in chart coordinates, from one uniform draw
    of a (k, n) block: per point the radius in (0.6, 1.4), the polar angles
    in (0.5, pi - 0.5) and the last angle in (0, 2 pi).  Cartesian charts
    take radius * sphere_direction(angles)."""
    n = M.dim
    lo = np.array([0.6] + [0.5] * (n - 2) + [0.0])
    hi = np.array([1.4] + [math.pi - 0.5] * (n - 2) + [2.0 * math.pi])
    X = rng.uniform(lo, hi, size=(k, n))
    if M.chart == "polar":
        return X
    return X[:, :1] * sphere_direction(X[:, 1:])


def _field_grid(models, r_min: int):
    """The (model, field, r) cases of the pointwise suite, r = r_min..n-1."""
    for M in models:
        for u in _fields_for(M):
            for r in range(r_min, M.dim):
                yield M, u, r


def _case_groups(models, r_min: int, rngs, k: int):
    """The cases of _field_grid(models, r_min) one (model, field) at a time:
    (M, u, rs, seeds, P, orders), where case j has order rs[j], the seed
    pair seeds[j] and the rows j*k .. (j+1)*k - 1 of the point stack P,
    drawn by _sample_points from its own generator, taken from rngs in
    grid order; orders gives every row of P its case's order."""
    for (M, u), grid in itertools.groupby(_field_grid(models, r_min), key=lambda c: c[:2]):
        rs = [r for _, _, r in grid]
        draws = [(_sample_points(M, rng, k), seed) for _, (rng, seed) in zip(rs, rngs)]
        yield (M, u, rs, [seed for _, seed in draws],
               np.concatenate([P for P, _ in draws]), np.repeat(rs, k))


def _spawn(seed: int):
    """Per-case generators default_rng((seed, k)), k = 0, 1, ..., each with
    its seed pair.  Zip them after the case grid, so its end spawns none."""
    for k in itertools.count():
        yield np.random.default_rng((seed, k)), [seed, k]


# ---------------------------------------------------------------------------
# Pointwise suite
# ---------------------------------------------------------------------------

def _worst(values) -> float:
    """The largest of the values, NaN if any is NaN (Python's max drops a
    NaN that is not its first argument); 0.0 for none."""
    return float(np.max(values, initial=0.0))


def _convergence_order(s_h: float, s_h2: float) -> float:
    """log2(s_h / s_h2) of two sums of nonnegative residuals: inf when only
    the finer sum vanishes (or both do), -inf when only the coarser one
    does, NaN when either is not finite."""
    if not (math.isfinite(s_h) and math.isfinite(s_h2)):
        return math.nan
    if s_h2 == 0.0:
        return math.inf
    if s_h == 0.0:
        return -math.inf
    return math.log2(s_h / s_h2)


def run_pointwise_suite(cfg: SuiteConfig) -> SuiteReport:
    """Randomized pointwise checks: the sigma_r identity of the projected
    shape operator vs the Newton contraction, the finite-difference
    divergence identity (with convergence orders), the div(T_r) curvature
    contraction vs its finite-difference oracle, the correction-term
    enumeration vs the div route, and the algebra dual paths.

    Each case draws its sample points (or matrices) from its own
    generator.  The r-cases of one (model, field) form one node stack per
    family, with per-row orders, timed as one block
    (pointwise/<model>/<field>/<family>), and each case reads its rows
    back out: reilly2_sides_stack; reilly1_residual_stack; one
    hessian_frame_stack of the centres shared by div_newton_stack,
    div_newton_fd_stack and, through principal_frame_stack and
    riemann_stack, correction_sums_stack.  Every stage works node by node,
    so a case's values are those of its own points run alone.  Each algebra
    case makes one eigh_stack, whose elementary symmetric functions
    give every eigenvalue sigma_r and the trace identity's right side,
    against the Kronecker route sigma_hessian_kronecker_stack.  In flat
    space div_newton_stack is zero by construction, so the flat cases also
    report the size of the finite-difference oracle (div_newton_fd).
    The full grid adds the Newton operators of the recursion against the
    Kronecker partial form (newton_dual_path, under the sigma_dual
    tolerance).  Every worst case and sum
    propagates NaN, so a NaN residual fails its case."""
    cs = SuiteReport("pointwise")
    models = _default_models()
    n_pts = 40 if cfg.quick else 200
    n_pts_fd = 10 if cfg.quick else 50
    n_pts_div = 6 if cfg.quick else 25
    tol_r2, tol_order = cfg.tol("reilly2"), cfg.tol("order")
    rngs = _spawn(cfg.seed)
    cs.required.extend((M.label, r) for M in models for r in range(M.dim))

    for M, u, rs, seeds, P, orders in _case_groups(models, 0, rngs, n_pts):
        with cs.timed(f"pointwise/{M.label}/{u.kind}/reilly2"):
            lhs, rhs = reilly2_sides_stack(u, M, P, orders)
            rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
            for j, r in enumerate(rs):
                Pj, res = P[j * n_pts:(j + 1) * n_pts], rel[j * n_pts:(j + 1) * n_pts]
                worst = _worst(res)
                cs.add(f"pointwise/{M.label}/{u.kind}/r={r}/reilly2", M, u, r,
                       "max_rel_residual", worst, tol_r2, points=n_pts, seed=seeds[j],
                       worst_point=None if worst == 0.0 else list(Pj[int(np.argmax(res))]))

    h = 2e-3
    for M, u, rs, seeds, P, orders in _case_groups(models, 1, rngs, n_pts_fd):
        with cs.timed(f"pointwise/{M.label}/{u.kind}/reilly1_order"):
            res = reilly1_residual_stack(u, M, P, orders, (h, h / 2))
            for j, r in enumerate(rs):
                # summed left to right in sample order (sum() compensates on
                # Python >= 3.12, which would move the pinned orders)
                s_h = s_h2 = 0.0
                for a, b in res[:, j * n_pts_fd:(j + 1) * n_pts_fd].T.tolist():
                    s_h += a
                    s_h2 += b
                order = _convergence_order(s_h, s_h2)
                cs.add(f"pointwise/{M.label}/{u.kind}/r={r}/reilly1_order", M, u, r,
                       "convergence_order", order, tol_order, order >= tol_order, expected=2.0,
                       residual=0.0 if order >= tol_order else tol_order - order,
                       h=h, points=n_pts_fd, seed=seeds[j])

    tol_fd, tol_flat, tol_c = cfg.tol("div_fd"), cfg.tol("div_flat"), cfg.tol("correction_cross")
    for M, u, rs, seeds, P, orders in _case_groups(models, 1, rngs, n_pts_div):
        flat = M.is_flat
        with cs.timed(f"pointwise/{M.label}/{u.kind}/div_newton"):
            hd = hessian_frame_stack(u, M, P)
            dn = div_newton_stack(M, P, hd, orders)
            oracle = div_newton_fd_stack(u, M, P, hd, orders, h=1e-3)
            if not flat:
                pf = principal_frame_stack(hd)
                rd = riemann_stack(M, P, pf.frame)
                sect, mixed = correction_sums_stack(pf.kappa, pf.grad_norm_derivs, rd,
                                                    hd.grad_norm, orders)
                corr = sect + mixed
                dots = np.sum(dn * hd.grad_frame, axis=1)
            for j, r in enumerate(rs):
                rows = slice(j * n_pts_div, (j + 1) * n_pts_div)
                cid = f"pointwise/{M.label}/{u.kind}/r={r}/div_newton"
                inputs = {"h": 1e-3, "points": n_pts_div, "seed": seeds[j]}
                if flat:
                    cs.add(cid, M, u, r, "max_div_residual", _worst(np.abs(dn[rows])), tol_flat,
                           **inputs)
                    cs.add(f"{cid}_fd", M, u, r, "max_abs_fd_oracle",
                           _worst(np.abs(oracle[rows])), tol_fd, **inputs)
                    continue
                scale = np.maximum(1.0, np.max(np.abs(dn[rows]), axis=1))
                worst = _worst(np.max(np.abs(dn[rows] - oracle[rows]), axis=1) / scale)
                cs.add(cid, M, u, r, "max_div_residual", worst, tol_fd, **inputs)
                via_div = dots[rows] / hd.grad_norm[rows] ** (r + 1)
                cs.add(f"pointwise/{M.label}/{u.kind}/r={r}/correction_cross", M, u, r,
                       "max_abs_residual", _worst(np.abs(corr[rows] - via_div)), tol_c)

    # algebra dual paths at randomized matrices: one eigensolve per matrix
    n_mats = 20 if cfg.quick else 100
    tol_sigma, tol_trace = cfg.tol("sigma_dual"), cfg.tol("trace")
    for n, (rng, seed) in zip(range(2, 7), rngs):
        inputs = {"n": n, "matrices": n_mats, "seed": seed}
        with cs.timed(f"pointwise/algebra/n={n}"):
            A = np.array([rng.normal(size=(n, n)) for _ in range(n_mats)])
            H = A + A.transpose(0, 2, 1)
            scale = np.maximum(1.0, np.abs(H).max(axis=(1, 2))).tolist()
            e = elementary_all_stack(eigh_stack(H)[0])
            traces = trace_identity_residual_stack(H, e)
            kron = [None] + [sigma_hessian_kronecker_stack(H, r).tolist() for r in range(1, n + 1)]
            sigmas, trace_rel = [], []
            for k in range(n_mats):
                for r in range(1, n + 1):
                    d = abs(float(e[k, r]) - kron[r][k])
                    sigmas.append(d / scale[k] ** r)
                    if r <= n - 1:
                        trace_rel.append(float(traces[k, r]) / scale[k] ** (r + 1))
            for metric, worst, tol in (("sigma_dual_path", _worst(sigmas), tol_sigma),
                                       ("trace_identity", _worst(trace_rel), tol_trace)):
                cs.add(f"pointwise/algebra/n={n}/{metric}", None, None, None, metric, worst, tol,
                       **inputs)
        if not cfg.quick:
            cid = f"pointwise/algebra/n={n}/newton_dual_path"
            with cs.timed(cid):
                # T_0..T_n of the recursion against the Kronecker partial form
                mats = newton_matrices_stack(H[:20], n)
                worst = _worst([float(np.max(np.abs(T[k] - newton_partial_form(H[k], r))))
                                / scale[k] ** r for k in range(20) for r, T in enumerate(mats)])
                cs.add(cid, None, None, None, "newton_dual_path", worst, tol_sigma,
                       **dict(inputs, matrices=20))

    cs.required.append(("algebra", None))
    return cs.report()


# ---------------------------------------------------------------------------
# Comparison suite
# ---------------------------------------------------------------------------

def _poly3_rhs_oracle(M: ModelManifold, levels, r: int):
    """1-d closed forms for the comparison terms of a radial distance field:
    d/dt M_r(S_t) splits into the principal and sectional integrands."""
    n = M.dim
    f, df, d2f = radial_profile(M)
    sphere = unit_sphere_volume(n)

    def principal(t):
        return (r + 1) * binomial(n - 1, r + 1) * (df(t) / f(t)) ** (r + 1) * f(t) ** (n - 1)

    def sectional(t):
        if r == 0:
            return np.zeros_like(t)
        return (r * binomial(n - 1, r) * (df(t) / f(t)) ** (r - 1)
                * (d2f(t) / f(t)) * f(t) ** (n - 1))

    p = sphere * radial_integral(principal, levels)
    s = sphere * radial_integral(sectional, levels)
    return p, s


def run_comparison_suite(cfg: SuiteConfig) -> SuiteReport:
    """Comparison identity across nested-sphere, radial-warped, ellipsoid,
    and off-center configurations, with the constant-curvature and Ricci
    specializations cross-checked path against path."""
    cs = SuiteReport("comparison")
    thr = cfg.threads

    # 1. nested geodesic spheres in constant curvature
    a_grid = (-1.0,) if cfg.quick else (0.0, -0.5, -1.0)
    n_grid = (3,) if cfg.quick else (3, 4)
    spec_sphere = QuadratureSpec(angular_orders=(8,), level_order=12)
    levels = (0.5, 1.0)
    for a in a_grid:
        for n in n_grid:
            M = constant_curvature(a, n)
            u = RadialDistanceField()
            for r in range(0, n):
                cs.required.append((M.label, r))
                base = f"comparison/spheres/a={a:g}/n={n}/r={r}"
                with cs.timed(base):
                    bd = comparison_rhs(u, M, levels, r, spec_sphere, thr)
                    oracle = (sphere_total_mean_curvature(M, r, levels[1])
                              - sphere_total_mean_curvature(M, r, levels[0]))
                    extra = {"levels": list(levels), "spec": [8, 12]}
                    cs.add(f"{base}/residual_vs_budget", M, u, r, "residual_vs_budget",
                           abs(bd.residual), bd.error_budget, **extra)
                    cs.add(f"{base}/lhs_vs_oracle", M, u, r, "rel_error",
                           abs(bd.lhs - oracle) / max(1.0, abs(oracle)),
                           cfg.tol("sphere_oracle"), **extra)
                    if a < 0:
                        cc = comparison_rhs_constant(u, M, levels, r, spec_sphere, thr)
                        tot = bd.term_principal + bd.term_sectional + bd.term_mixed
                        tot_cc = cc.term_principal + cc.term_sectional
                        cs.add(f"{base}/two_path", M, u, r, "rel_error",
                               abs(tot - tot_cc) / bd.scale, cfg.tol("cc_two_path"), **extra)
                        if r == 1:
                            rc = ricci_comparison(u, M, levels, spec_sphere, thr)
                            cs.add(f"{base}/ricci_path", M, u, r, "rel_error",
                                   abs(rc.term_sectional - bd.term_sectional) / bd.scale,
                                   cfg.tol("ricci_path"), **extra)

    # 2. radial field in the poly3 warped product vs the 1-d oracle
    n_poly = 3 if cfg.quick else 4
    M = warped(poly3_profile(), n_poly)
    u = RadialDistanceField()
    spec_poly = QuadratureSpec(angular_orders=(12,) * (n_poly - 2) + (6,), level_order=12)
    levels_poly = (0.5, 1.5)
    for r in range(0, n_poly):
        cs.required.append((M.label, r))
        base = f"comparison/poly3/n={n_poly}/r={r}"
        with cs.timed(base):
            bd = comparison_rhs(u, M, levels_poly, r, spec_poly, thr)
            oracle_lhs = (sphere_total_mean_curvature(M, r, levels_poly[1])
                          - sphere_total_mean_curvature(M, r, levels_poly[0]))
            op, os_ = _poly3_rhs_oracle(M, levels_poly, r)
            scale = max(1.0, abs(oracle_lhs), abs(op))
            cs.add(f"{base}/residual_vs_oracle", M, u, r, "rel_error",
                   (abs(bd.lhs - oracle_lhs) + abs(bd.term_principal - op)
                    + abs(bd.term_sectional - os_) + abs(bd.term_mixed)) / scale,
                   cfg.tol("poly3_oracle"), levels=list(levels_poly))
            cs.add(f"{base}/residual_vs_budget", M, u, r, "residual_vs_budget",
                   abs(bd.residual), bd.error_budget, levels=list(levels_poly))

    # 3. Euclidean ellipsoid levels (flat, non-radial).  |grad u| has a
    # complex branch point near the real angular domain, so convergence is
    # geometric but slow; order 48 lands the 1e-3 contract with margin.
    M = euclidean(3)
    u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
    spec_ell = (QuadratureSpec(angular_orders=(48,), level_order=8) if cfg.quick
                else QuadratureSpec(angular_orders=(48,), level_order=16))
    r_ell = (1,) if cfg.quick else (0, 1, 2)
    for r in r_ell:
        cs.required.append((M.label, r))
        base = f"comparison/ellipsoid/r={r}"
        with cs.timed(base):
            bd = comparison_rhs(u, M, (0.5, 1.0), r, spec_ell, thr)
            cs.add(f"{base}/rel_residual", M, u, r, "rel_error",
                   abs(bd.residual) / bd.scale, cfg.tol("ellipsoid"), levels=[0.5, 1.0])
            cs.add(f"{base}/correction_zero", M, u, r, "abs_error",
                   abs(bd.term_sectional) + abs(bd.term_mixed), 1e-30, levels=[0.5, 1.0])

    # 4. off-center distance field in hyperbolic space
    M = constant_curvature(-1.0, 3)
    u = OffCenterDistanceField(0.3)
    spec_off = QuadratureSpec(angular_orders=(16,), level_order=8)
    rho_off = (0.7, 1.2)
    with cs.timed("comparison/offcenter_sphere"):
        reps = total_mean_curvature(u, M, rho_off, 1, spec_off, thr)
        for rho, rep in zip(rho_off, reps):
            oracle = sphere_total_mean_curvature(M, 1, rho)
            cs.required.append((M.label, 1))
            cs.add(f"comparison/offcenter_sphere/rho={rho:g}", M, u, 1, "rel_error",
                   abs(rep.value - oracle) / abs(oracle), cfg.tol("offcenter_sphere"), level=rho)
    if not cfg.quick:
        for r in (1, 2):
            base = f"comparison/offcenter/r={r}"
            with cs.timed(base):
                bd = comparison_rhs(u, M, (0.7, 1.2), r, spec_off, thr)
                cs.add(f"{base}/rel_residual", M, u, r, "rel_error",
                       abs(bd.residual) / bd.scale, cfg.tol("offcenter"), levels=[0.7, 1.2])

    return cs.report()


# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------

def run_inequality_suite(cfg: SuiteConfig) -> SuiteReport:
    """Monotonicity and bound corollaries with strictness margins: nested
    M_1, the dimension-3 volume bound, outer-parallel monotonicity of all
    M_r, constant-curvature monotonicity, and the ball comparison."""
    cs = SuiteReport("inequality")
    thr = cfg.threads

    # Cor. 4.3 in dimension 3: M_1 + 4a|Omega| = 8 pi rho for balls in every
    # curvature a < 0 (M_1 = 8 pi f f', |Omega| = 4 pi Int f^2, f = sinh(s rho)/s);
    # the a = -1 rows carry no a in their case ids
    u = RadialDistanceField()
    spec = QuadratureSpec(angular_orders=(12,), level_order=8)
    rho_grid = (0.5, 1.0) if cfg.quick else (0.25, 0.5, 1.0, 2.0)
    tol_m1 = cfg.tol("m1_volume")
    for a in (-1.0, -0.25, -4.0):
        M = constant_curvature(a, 3)
        prefix = "inequality/m1_volume/" + ("" if a == -1.0 else f"a={a:g}/")
        with cs.timed(f"inequality/m1_volume/a={a:g}"):
            m1s = total_mean_curvature(u, M, rho_grid, 1, spec, thr)
            vols = total_mean_curvature(u, M, rho_grid, -1, spec, thr)
            for rho, m1, vol in zip(rho_grid, m1s, vols):
                base = prefix + f"rho={rho:g}"
                margin = m1.value - m1_volume_bound(a, vol.value, 3)[1]
                closed = 8.0 * math.pi * rho
                budget = 10.0 * (m1.error_estimate + 4 * abs(a) * vol.error_estimate)
                cs.required.append((M.label, 1))
                cs.add(f"{base}/margin_vs_closed_form", M, u, 1, "rel_error",
                       abs(margin - closed) / closed, tol_m1, rho=rho)
                cs.add(f"{base}/strict", M, u, 1, "margin", margin, 10.0 * budget,
                       margin > 10.0 * budget, rho=rho)

    # Cor. 4.4 / 4.5 / 4.1: monotonicity along parallels and nested levels
    models = [euclidean(3), constant_curvature(-1.0, 3),
              constant_curvature(-0.5, 3), warped(poly3_profile(), 3)]
    level_grid = (0.6, 1.0, 1.5) if cfg.quick else (0.5, 0.8, 1.2, 1.7, 2.3)
    spec_par = QuadratureSpec(angular_orders=(12,), level_order=8)
    for M in models:
        u = RadialDistanceField()
        for r in range(1, 3):
            cs.required.append((M.label, r))
            with cs.timed(f"inequality/parallel/{M.label}/r={r}"):
                reps = total_mean_curvature(u, M, level_grid, r, spec_par, thr)
                for k in range(len(level_grid) - 1):
                    diff = reps[k + 1].value - reps[k].value
                    budget = 10.0 * (reps[k + 1].error_estimate + reps[k].error_estimate)
                    strict = not (M.label in ("euclidean", "constant(a=0)") and r == 2)
                    ok = diff >= (10.0 * budget if strict else -budget)
                    cs.add(f"inequality/parallel/{M.label}/r={r}/"
                           f"levels=({level_grid[k]:g},{level_grid[k + 1]:g})",
                           M, u, r, "mr_outer_minus_inner", diff,
                           10.0 * budget if strict else budget, ok,
                           levels=[level_grid[k], level_grid[k + 1]])

    # Cor. 4.1 for genuinely non-parallel nested pairs (ellipsoid levels and
    # off-center spheres).  Strictness is certified against 100x the
    # halved-order error estimate, and the slow-converging ellipsoid
    # integrand needs order 64 for that
    spec_ell = QuadratureSpec(angular_orders=(64,), level_order=8)
    with cs.timed("inequality/m1_nested"):
        for name, M, u, levels in (
                ("ellipsoid", euclidean(3), QuadraticFormField(np.diag([1.0, 1.0, 4.0])),
                 (0.5, 1.0)),
                ("offcenter", constant_curvature(-1.0, 3), OffCenterDistanceField(0.3),
                 (0.7, 1.2))):
            reps = total_mean_curvature(u, M, levels, 1, spec_ell, thr)
            diff = reps[1].value - reps[0].value
            budget = 10.0 * (reps[0].error_estimate + reps[1].error_estimate)
            cs.required.append((M.label, 1))
            cs.add(f"inequality/m1_nested/{name}", M, u, 1, "m1_outer_minus_inner", diff,
                   10.0 * budget, diff > 10.0 * budget, levels=list(levels))

    # Cor. 4.7: warped balls against the constant-curvature bound
    with cs.timed("inequality/balls"):
        Mw = warped(poly3_profile(), 3)
        uw = RadialDistanceField()
        spec_ball = QuadratureSpec(angular_orders=(12,), level_order=8)
        rho_ball = (0.5, 1.0) if cfg.quick else (0.5, 1.0, 2.0)
        reps = {r: total_mean_curvature(uw, Mw, rho_ball, r, spec_ball, thr) for r in (1, 2)}
        for k, rho in enumerate(rho_ball):
            for r in (1, 2):
                cs.required.append((Mw.label, r))
                rep = reps[r][k]
                margin = rep.value - ball_bound(r, rho, 0.0, 3)
                budget = 10.0 * rep.error_estimate
                cs.add(f"inequality/balls/poly3/rho={rho:g}/r={r}", Mw, uw, r,
                       "margin_over_flat_bound", margin, 10.0 * budget, margin > 10.0 * budget,
                       rho=rho)
                # the sharp constant: poly3 curvature -1/(1 + s^2/6) is largest
                # on the ball at s = rho
                a_rho = -1.0 / (1.0 + rho ** 2 / 6.0)
                margin = rep.value - ball_bound(r, rho, a_rho, 3)
                cs.add(f"inequality/balls/sharp/poly3/rho={rho:g}/r={r}", Mw, uw, r,
                       "margin_over_sharp_bound", margin, 10.0 * budget,
                       margin > 10.0 * budget, rho=rho, a=a_rho)
        # equality cases: matching profiles hit the bound exactly
        tol_eq = cfg.tol("ball_equality")
        for name, Meq, a_eq in (("linear", warped(linear_profile(), 3), 0.0),
                                ("sinh", warped(sinh_profile(), 3), -1.0)):
            for rho in (0.5, 1.0):
                for r in (1, 2):
                    closed = sphere_total_mean_curvature(Meq, r, rho)
                    bound = ball_bound(r, rho, a_eq, 3)
                    cs.add(f"inequality/balls/equality/{name}/rho={rho:g}/r={r}", Meq, uw, r,
                           "rel_error", abs(closed - bound) / max(1.0, abs(bound)), tol_eq,
                           rho=rho, a=a_eq)

    pairs = sum(c.metric in ("mr_outer_minus_inner", "m1_outer_minus_inner",
                             "margin_over_flat_bound") for c in cs.cases)
    if not cfg.quick and pairs < 20:
        raise ConfigError(f"inequality suite must exercise >= 20 nested/parallel pairs, "
                          f"got {pairs}")
    return cs.report()


# ---------------------------------------------------------------------------
# Asymptotic suite
# ---------------------------------------------------------------------------

def run_asymptotic_suite(cfg: SuiteConfig) -> SuiteReport:
    """Small-sphere behavior of M_r(S_rho): log-log slope n-1-r, the limit
    |S^{n-1}| for r = n-1, and a quadratic bound on the correction factor."""
    cs = SuiteReport("asymptotic")
    thr = cfg.threads
    models = _default_models()
    # slope tolerance 0.02 needs the grid to stay small: the O(rho^2)
    # curvature correction biases the fitted slope by about 2 rho_max^2
    spec = QuadratureSpec(angular_orders=(8,), level_order=4)
    rho_grid = np.geomspace(0.01, 0.16, 4 if cfg.quick else 6)
    u = RadialDistanceField()
    sphere = unit_sphere_volume(3)
    inputs = {"rho_grid": list(rho_grid)}
    tol_slope, tol_lim = cfg.tol("slope"), cfg.tol("gauss_limit")

    for M in models:
        for r in range(0, 3):
            cs.required.append((M.label, r))
            base = f"asymptotic/{M.label}/r={r}"
            with cs.timed(base):
                vals = np.array([rep.value for rep in
                                 total_mean_curvature(u, M, rho_grid, r, spec, thr)])
                logs = np.log(vals)
                slope = float(np.polyfit(np.log(rho_grid), logs, 1)[0])
                cs.add(f"{base}/slope", M, u, r, "loglog_slope", slope, tol_slope,
                       abs(slope - (2 - r)) <= tol_slope, expected=float(2 - r), **inputs)
                ratio = vals / (binomial(2, r) * sphere * rho_grid ** (2 - r))
                if r == 2:
                    dev = abs(ratio[0] - 1.0)
                    cs.add(f"{base}/limit", M, u, r, "gauss_kronecker_limit", float(vals[0]),
                           tol_lim, dev <= tol_lim, expected=sphere, residual=dev, **inputs)
                # quadratic correction: constant fitted on the two coarsest radii
                # must cover the rest with a factor-2 allowance
                corr = np.abs(ratio - 1.0)
                cfit = max(corr[-1] / rho_grid[-1] ** 2, corr[-2] / rho_grid[-2] ** 2)
                bound = 2.0 * cfit * rho_grid ** 2 + 1e-10
                worst = float(np.max(corr - bound))
                cs.add(f"{base}/quadratic_correction", M, u, r, "correction_excess", worst, 0.0,
                       worst <= 0.0, residual=max(worst, 0.0), fitted_constant=float(cfit),
                       **inputs)

    return cs.report()


_RUNNERS = {
    "pointwise": run_pointwise_suite,
    "comparison": run_comparison_suite,
    "inequality": run_inequality_suite,
    "asymptotic": run_asymptotic_suite,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    if cfg.suite not in _RUNNERS:
        raise ConfigError(f"unknown suite '{cfg.suite}' (expected one of {SUITE_NAMES})")
    return _RUNNERS[cfg.suite](cfg)
