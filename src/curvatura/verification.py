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

import math
import time
from dataclasses import dataclass, field as dc_field
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
    _reilly2_sides,
    div_newton_fd,
    div_newton_frame,
    reilly1_residual,
    sphere_direction,
)
from .quadrature import QuadratureSpec, radial_integral
from .curvature_integrals import (
    ball_bound,
    comparison_correction_residual,
    comparison_rhs,
    comparison_rhs_constant,
    ricci_comparison,
    total_mean_curvature,
)
from .symmetric_algebra import (
    binomial,
    sigma_hessian_eig,
    sigma_hessian_kronecker,
    trace_identity_residual,
)

SUITE_NAMES = ("pointwise", "comparison", "inequality", "asymptotic")

CASE_COLUMNS = ("suite", "case_id", "model", "field", "n", "r", "metric",
                "measured", "expected", "residual", "tolerance", "passed")

# every key the suites read through SuiteConfig.tol: the keys a config's
# "tolerances" object may set
TOLERANCE_KEYS = (
    "reilly2", "order", "div_flat", "div_fd", "correction_cross", "sigma_dual", "trace",
    "sphere_oracle", "cc_two_path", "ricci_path", "poly3_oracle", "ellipsoid",
    "offcenter_sphere", "offcenter", "m1_volume", "ball_equality", "slope", "gauss_limit")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 20240817
    quick: bool = False
    threads: int = 1
    tolerances: dict = dc_field(default_factory=dict)

    def tol(self, key: str, default: float) -> float:
        if key not in TOLERANCE_KEYS:
            raise KeyError(f"tolerance {key!r} is missing from TOLERANCE_KEYS")
        return float(self.tolerances.get(key, default))


@dataclass(frozen=True)
class CaseRecord:
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

    def to_row(self, suite: str) -> dict:
        return {"suite": suite, "case_id": self.case_id, "model": self.model,
                "field": self.field, "n": self.n, "r": self.r,
                "metric": self.metric, "measured": self.measured,
                "expected": self.expected, "residual": self.residual,
                "tolerance": self.tolerance, "passed": self.passed}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases: tuple
    passed: bool
    timings: dict

    def to_rows(self):
        return [c.to_row(self.suite) for c in self.cases]

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "cases": [dict(c.to_row(self.suite), inputs=c.inputs) for c in self.cases],
            "timings": self.timings,
        }

    def failures(self):
        return [c for c in self.cases if not c.passed]


def _require_coverage(cases, required_pairs):
    """Refuse a vacuous report: every (model label, r) pair of the configured
    grid must have produced at least one case."""
    seen = {(c.model, c.r) for c in cases}
    seen |= {(c.model, None) for c in cases}
    missing = [p for p in required_pairs if p not in seen]
    if missing:
        raise ConfigError(f"suite produced no cases for {missing}")


def _finish(suite, cases, timings):
    if not cases:
        raise ConfigError(f"suite '{suite}' produced no cases")
    return SuiteReport(suite=suite, cases=tuple(cases),
                       passed=all(c.passed for c in cases), timings=timings)


# ---------------------------------------------------------------------------
# Shared grids
# ---------------------------------------------------------------------------

def _default_models():
    return [euclidean(3), constant_curvature(-1.0, 3), warped(poly3_profile(), 3)]


def _fields_for(M: ModelManifold):
    if M.chart == "cartesian":
        Q = np.diag([1.0] * (M.dim - 1) + [4.0])
        return [RadialSquaredHalfField(), RadialDistanceField(), QuadraticFormField(Q)]
    if M.family == "constant":
        return [RadialDistanceField(), RadialSquaredHalfField(), OffCenterDistanceField(0.3)]
    return [RadialDistanceField(), RadialSquaredHalfField()]


def _sample_point(M: ModelManifold, rng) -> np.ndarray:
    r = rng.uniform(0.6, 1.4)
    angles = [rng.uniform(0.5, math.pi - 0.5) for _ in range(M.dim - 2)]
    angles.append(rng.uniform(0.0, 2.0 * math.pi))
    if M.chart == "polar":
        return np.array([r] + angles)
    return r * sphere_direction(angles)


# ---------------------------------------------------------------------------
# Pointwise suite
# ---------------------------------------------------------------------------

def run_pointwise_suite(cfg: SuiteConfig) -> SuiteReport:
    """Randomized pointwise checks: the sigma_r identity of the projected
    shape operator vs the Newton contraction, the finite-difference
    divergence identity (with convergence orders), the div(T_r) curvature
    contraction vs its finite-difference oracle, the correction-term
    enumeration vs the div route, and the algebra dual paths."""
    cases, timings = [], {}
    models = _default_models()
    n_pts = 40 if cfg.quick else 200
    n_pts_fd = 10 if cfg.quick else 50
    n_pts_div = 6 if cfg.quick else 25
    tol_r2 = cfg.tol("reilly2", 1e-8)
    tol_order = cfg.tol("order", 1.9)
    required = []
    case_idx = 0

    for M in models:
        for u in _fields_for(M):
            for r in range(0, M.dim):
                required.append((M.label, r))
                t0 = time.perf_counter()
                rng = np.random.default_rng((cfg.seed, case_idx))
                case_idx += 1
                worst, worst_p = 0.0, None
                for _ in range(n_pts):
                    p = _sample_point(M, rng)
                    lhs, rhs = _reilly2_sides(u, M, p, r)
                    res = abs(lhs - rhs) / max(1.0, abs(lhs))
                    if res > worst:
                        worst, worst_p = res, p
                cid = f"pointwise/{M.label}/{u.kind}/r={r}/reilly2"
                cases.append(CaseRecord(
                    case_id=cid, model=M.label, field=u.kind, n=M.dim, r=r,
                    metric="max_rel_residual", measured=worst, expected=0.0,
                    residual=worst, tolerance=tol_r2, passed=worst < tol_r2,
                    inputs={"model": M.describe(), "field": u.describe(), "r": r,
                            "points": n_pts, "seed": [cfg.seed, case_idx - 1],
                            "worst_point": None if worst_p is None else list(worst_p)}))
                timings[cid] = time.perf_counter() - t0

    for M in models:
        for u in _fields_for(M):
            if u.kind == "quadratic" and M.dim < 3:
                continue
            for r in range(1, M.dim):
                t0 = time.perf_counter()
                rng = np.random.default_rng((cfg.seed, case_idx))
                case_idx += 1
                # fields without analytic derivatives have an inner-FD noise
                # floor ~1e-8; a larger outer step keeps truncation dominant
                h = 2e-3 if u.analytic else 6e-3
                s_h = s_h2 = 0.0
                for _ in range(n_pts_fd):
                    p = _sample_point(M, rng)
                    s_h += reilly1_residual(u, M, p, r, h)
                    s_h2 += reilly1_residual(u, M, p, r, h / 2)
                order = math.log2(s_h / s_h2) if s_h2 > 0 else math.inf
                cid = f"pointwise/{M.label}/{u.kind}/r={r}/reilly1_order"
                cases.append(CaseRecord(
                    case_id=cid, model=M.label, field=u.kind, n=M.dim, r=r,
                    metric="convergence_order", measured=order, expected=2.0,
                    residual=max(0.0, tol_order - order), tolerance=tol_order,
                    passed=order >= tol_order,
                    inputs={"model": M.describe(), "field": u.describe(), "r": r,
                            "h": h, "points": n_pts_fd, "seed": [cfg.seed, case_idx - 1]}))
                timings[cid] = time.perf_counter() - t0

    for M in models:
        for u in _fields_for(M):
            for r in range(1, M.dim):
                t0 = time.perf_counter()
                rng = np.random.default_rng((cfg.seed, case_idx))
                case_idx += 1
                flat = M.is_flat
                worst = worst_corr = 0.0
                for _ in range(n_pts_div):
                    p = _sample_point(M, rng)
                    dn = div_newton_frame(u, M, p, r)
                    if flat:
                        worst = max(worst, float(np.max(np.abs(dn))))
                    else:
                        oracle = div_newton_fd(u, M, p, r, h=1e-3)
                        scale = max(1.0, float(np.max(np.abs(dn))))
                        worst = max(worst, float(np.max(np.abs(dn - oracle))) / scale)
                        worst_corr = max(worst_corr,
                                         comparison_correction_residual(u, M, p, r))
                tol = cfg.tol("div_flat", 1e-12) if flat else cfg.tol("div_fd", 1e-4)
                cid = f"pointwise/{M.label}/{u.kind}/r={r}/div_newton"
                cases.append(CaseRecord(
                    case_id=cid, model=M.label, field=u.kind, n=M.dim, r=r,
                    metric="max_div_residual", measured=worst, expected=0.0,
                    residual=worst, tolerance=tol, passed=worst < tol,
                    inputs={"model": M.describe(), "field": u.describe(), "r": r,
                            "h": 1e-3, "points": n_pts_div,
                            "seed": [cfg.seed, case_idx - 1]}))
                timings[cid] = time.perf_counter() - t0
                if not flat:
                    tol_c = cfg.tol("correction_cross", 1e-10)
                    cid2 = f"pointwise/{M.label}/{u.kind}/r={r}/correction_cross"
                    cases.append(CaseRecord(
                        case_id=cid2, model=M.label, field=u.kind, n=M.dim, r=r,
                        metric="max_abs_residual", measured=worst_corr, expected=0.0,
                        residual=worst_corr, tolerance=tol_c, passed=worst_corr < tol_c,
                        inputs={"model": M.describe(), "field": u.describe(), "r": r}))

    # algebra dual paths at randomized matrices
    n_mats = 20 if cfg.quick else 100
    for n in range(2, 7):
        t0 = time.perf_counter()
        rng = np.random.default_rng((cfg.seed, case_idx))
        case_idx += 1
        worst_sigma = worst_trace = 0.0
        for _ in range(n_mats):
            A = rng.normal(size=(n, n))
            H = A + A.T
            scale = max(1.0, float(np.max(np.abs(H))))
            for r in range(1, n + 1):
                d = abs(sigma_hessian_eig(H, r) - sigma_hessian_kronecker(H, r))
                worst_sigma = max(worst_sigma, d / scale ** r)
                if r <= n - 1:
                    worst_trace = max(worst_trace,
                                      trace_identity_residual(H, r) / scale ** (r + 1))
        for metric, worst, key in (("sigma_dual_path", worst_sigma, "sigma_dual"),
                                   ("trace_identity", worst_trace, "trace")):
            tol = cfg.tol(key, 1e-10)
            cid = f"pointwise/algebra/n={n}/{metric}"
            cases.append(CaseRecord(
                case_id=cid, model="algebra", field="-", n=n, r=None,
                metric=metric, measured=worst, expected=0.0, residual=worst,
                tolerance=tol, passed=worst < tol,
                inputs={"n": n, "matrices": n_mats, "seed": [cfg.seed, case_idx - 1]}))
        timings[f"pointwise/algebra/n={n}"] = time.perf_counter() - t0

    required += [(f"algebra", None)]
    _require_coverage(cases, required)
    return _finish("pointwise", cases, timings)


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
            return 0.0
        return (r * binomial(n - 1, r) * (df(t) / f(t)) ** (r - 1)
                * (d2f(t) / f(t)) * f(t) ** (n - 1))

    p = sphere * radial_integral(principal, levels)
    s = sphere * radial_integral(sectional, levels)
    return p, s


def run_comparison_suite(cfg: SuiteConfig) -> SuiteReport:
    """Comparison identity across nested-sphere, radial-warped, ellipsoid,
    and off-center configurations, with the constant-curvature and Ricci
    specializations cross-checked path against path."""
    cases, timings = [], {}
    required = []
    thr = cfg.threads
    tol_budget_name = "residual_vs_budget"

    def record(cid, M, u, r, metric, measured, tol, inputs, expected=0.0):
        cases.append(CaseRecord(
            case_id=cid, model=M.label, field=u.kind, n=M.dim, r=r,
            metric=metric, measured=measured, expected=expected,
            residual=abs(measured - expected), tolerance=tol,
            passed=abs(measured - expected) <= tol, inputs=inputs))

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
                required.append((M.label, r))
                t0 = time.perf_counter()
                bd = comparison_rhs(u, M, levels, r, spec_sphere, thr)
                oracle = (sphere_total_mean_curvature(M, r, levels[1])
                          - sphere_total_mean_curvature(M, r, levels[0]))
                base = f"comparison/spheres/a={a:g}/n={n}/r={r}"
                inputs = {"model": M.describe(), "field": u.describe(), "r": r,
                          "levels": list(levels), "spec": [8, 12]}
                record(f"{base}/residual_vs_budget", M, u, r, tol_budget_name,
                       abs(bd.residual), bd.error_budget, inputs)
                record(f"{base}/lhs_vs_oracle", M, u, r, "rel_error",
                       abs(bd.lhs - oracle) / max(1.0, abs(oracle)),
                       cfg.tol("sphere_oracle", 1e-6), inputs)
                if a < 0:
                    cc = comparison_rhs_constant(u, M, levels, r, spec_sphere, thr)
                    tot = bd.term_principal + bd.term_sectional + bd.term_mixed
                    tot_cc = cc.term_principal + cc.term_sectional
                    record(f"{base}/two_path", M, u, r, "rel_error",
                           abs(tot - tot_cc) / bd.scale, cfg.tol("cc_two_path", 1e-7),
                           inputs)
                    if r == 1:
                        rc = ricci_comparison(u, M, levels, spec_sphere, thr)
                        record(f"{base}/ricci_path", M, u, r, "rel_error",
                               abs(rc.term_sectional - bd.term_sectional) / bd.scale,
                               cfg.tol("ricci_path", 1e-9), inputs)
                timings[base] = time.perf_counter() - t0

    # 2. radial field in the poly3 warped product vs the 1-d oracle
    n_poly = 3 if cfg.quick else 4
    M = warped(poly3_profile(), n_poly)
    u = RadialDistanceField()
    spec_poly = QuadratureSpec(angular_orders=(12,) * (n_poly - 2) + (6,), level_order=12)
    levels_poly = (0.5, 1.5)
    for r in range(0, n_poly):
        required.append((M.label, r))
        t0 = time.perf_counter()
        bd = comparison_rhs(u, M, levels_poly, r, spec_poly, thr)
        oracle_lhs = (sphere_total_mean_curvature(M, r, levels_poly[1])
                      - sphere_total_mean_curvature(M, r, levels_poly[0]))
        op, os_ = _poly3_rhs_oracle(M, levels_poly, r)
        base = f"comparison/poly3/n={n_poly}/r={r}"
        inputs = {"model": M.describe(), "field": u.describe(), "r": r,
                  "levels": list(levels_poly)}
        scale = max(1.0, abs(oracle_lhs), abs(op))
        record(f"{base}/residual_vs_oracle", M, u, r, "rel_error",
               (abs(bd.lhs - oracle_lhs) + abs(bd.term_principal - op)
                + abs(bd.term_sectional - os_) + abs(bd.term_mixed)) / scale,
               cfg.tol("poly3_oracle", 1e-6), inputs)
        record(f"{base}/residual_vs_budget", M, u, r, tol_budget_name,
               abs(bd.residual), bd.error_budget, inputs)
        timings[base] = time.perf_counter() - t0

    # 3. Euclidean ellipsoid levels (flat, non-radial).  |grad u| has a
    # complex branch point near the real angular domain, so convergence is
    # geometric but slow; order 48 lands the 1e-3 contract with margin.
    M = euclidean(3)
    u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
    spec_ell = (QuadratureSpec(angular_orders=(48,), level_order=8) if cfg.quick
                else QuadratureSpec(angular_orders=(48,), level_order=16))
    r_ell = (1,) if cfg.quick else (0, 1, 2)
    for r in r_ell:
        required.append((M.label, r))
        t0 = time.perf_counter()
        bd = comparison_rhs(u, M, (0.5, 1.0), r, spec_ell, thr)
        base = f"comparison/ellipsoid/r={r}"
        inputs = {"model": M.describe(), "field": u.describe(), "r": r,
                  "levels": [0.5, 1.0]}
        record(f"{base}/rel_residual", M, u, r, "rel_error",
               abs(bd.residual) / bd.scale, cfg.tol("ellipsoid", 1e-3), inputs)
        record(f"{base}/correction_zero", M, u, r, "abs_error",
               abs(bd.term_sectional) + abs(bd.term_mixed), 1e-30, inputs)
        timings[base] = time.perf_counter() - t0

    # 4. off-center distance field in hyperbolic space
    M = constant_curvature(-1.0, 3)
    u = OffCenterDistanceField(0.3)
    spec_off = QuadratureSpec(angular_orders=(16,), level_order=8)
    for rho in (0.7, 1.2):
        t0 = time.perf_counter()
        rep = total_mean_curvature(u, M, rho, 1, spec_off, thr)
        oracle = sphere_total_mean_curvature(M, 1, rho)
        base = f"comparison/offcenter_sphere/rho={rho:g}"
        required.append((M.label, 1))
        record(base, M, u, 1, "rel_error",
               abs(rep.value - oracle) / abs(oracle),
               cfg.tol("offcenter_sphere", 1e-6),
               {"model": M.describe(), "field": u.describe(), "r": 1, "level": rho})
        timings[base] = time.perf_counter() - t0
    if not cfg.quick:
        for r in (1, 2):
            t0 = time.perf_counter()
            bd = comparison_rhs(u, M, (0.7, 1.2), r, spec_off, thr)
            base = f"comparison/offcenter/r={r}"
            record(f"{base}/rel_residual", M, u, r, "rel_error",
                   abs(bd.residual) / bd.scale, cfg.tol("offcenter", 1e-3),
                   {"model": M.describe(), "field": u.describe(), "r": r,
                    "levels": [0.7, 1.2]})
            timings[base] = time.perf_counter() - t0

    _require_coverage(cases, required)
    return _finish("comparison", cases, timings)


# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------

def run_inequality_suite(cfg: SuiteConfig) -> SuiteReport:
    """Monotonicity and bound corollaries with strictness margins: nested
    M_1, the dimension-3 volume bound, outer-parallel monotonicity of all
    M_r, constant-curvature monotonicity, and the ball comparison."""
    cases, timings = [], {}
    required = []
    thr = cfg.threads
    pair_count = 0

    def record(cid, model_label, field_kind, n, r, metric, measured, tol, passed, inputs,
               expected=0.0):
        cases.append(CaseRecord(
            case_id=cid, model=model_label, field=field_kind, n=n, r=r,
            metric=metric, measured=measured, expected=expected,
            residual=abs(measured - expected), tolerance=tol, passed=passed,
            inputs=inputs))

    # Cor. 4.3 in dimension 3: M_1 - 4|Omega| = 8 pi rho for hyperbolic balls
    M = constant_curvature(-1.0, 3)
    u = RadialDistanceField()
    spec = QuadratureSpec(angular_orders=(12,), level_order=8)
    rho_grid = (0.5, 1.0) if cfg.quick else (0.25, 0.5, 1.0, 2.0)
    for rho in rho_grid:
        t0 = time.perf_counter()
        m1 = total_mean_curvature(u, M, rho, 1, spec, thr)
        vol = total_mean_curvature(u, M, rho, -1, spec, thr)
        margin = m1.value - 4.0 * vol.value
        closed = 8.0 * math.pi * rho
        budget = 10.0 * (m1.error_estimate + 4 * vol.error_estimate)
        base = f"inequality/m1_volume/rho={rho:g}"
        required.append((M.label, 1))
        inputs = {"model": M.describe(), "field": u.describe(), "rho": rho}
        record(f"{base}/margin_vs_closed_form", M.label, u.kind, 3, 1, "rel_error",
               abs(margin - closed) / closed, cfg.tol("m1_volume", 1e-6),
               abs(margin - closed) / closed <= cfg.tol("m1_volume", 1e-6), inputs,
               expected=0.0)
        record(f"{base}/strict", M.label, u.kind, 3, 1, "margin",
               margin, 10.0 * budget, margin > 10.0 * budget, inputs)
        timings[base] = time.perf_counter() - t0

    # Cor. 4.4 / 4.5 / 4.1: monotonicity along parallels and nested levels
    models = [euclidean(3), constant_curvature(-1.0, 3),
              constant_curvature(-0.5, 3), warped(poly3_profile(), 3)]
    level_grid = (0.6, 1.0, 1.5) if cfg.quick else (0.5, 0.8, 1.2, 1.7, 2.3)
    spec_par = QuadratureSpec(angular_orders=(12,), level_order=8)
    for M in models:
        u = RadialDistanceField()
        for r in range(1, 3):
            required.append((M.label, r))
            t0 = time.perf_counter()
            reps = [total_mean_curvature(u, M, lev, r, spec_par, thr)
                    for lev in level_grid]
            for k in range(len(level_grid) - 1):
                pair_count += 1
                diff = reps[k + 1].value - reps[k].value
                budget = 10.0 * (reps[k + 1].error_estimate + reps[k].error_estimate)
                strict = not (M.label in ("euclidean", "constant(a=0)") and r == 2)
                base = (f"inequality/parallel/{M.label}/r={r}/"
                        f"levels=({level_grid[k]:g},{level_grid[k + 1]:g})")
                inputs = {"model": M.describe(), "field": u.describe(), "r": r,
                          "levels": [level_grid[k], level_grid[k + 1]]}
                ok = diff >= (10.0 * budget if strict else -budget)
                record(base, M.label, u.kind, 3, r,
                       "mr_outer_minus_inner", diff,
                       10.0 * budget if strict else budget, ok, inputs)
            timings[f"inequality/parallel/{M.label}/r={r}"] = time.perf_counter() - t0

    # Cor. 4.1 for genuinely non-parallel nested pairs (ellipsoid levels and
    # off-center spheres)
    t0 = time.perf_counter()
    M = euclidean(3)
    uq = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
    # strictness is certified against 100x the halved-order error estimate,
    # and the slow-converging ellipsoid integrand needs order 64 for that
    spec_ell = QuadratureSpec(angular_orders=(64,), level_order=8)
    reps = [total_mean_curvature(uq, M, lev, 1, spec_ell, thr) for lev in (0.5, 1.0)]
    diff = reps[1].value - reps[0].value
    budget = 10.0 * (reps[0].error_estimate + reps[1].error_estimate)
    pair_count += 1
    required.append((M.label, 1))
    record("inequality/m1_nested/ellipsoid", M.label, uq.kind, 3, 1,
           "m1_outer_minus_inner", diff, 10.0 * budget, diff > 10.0 * budget,
           {"model": M.describe(), "field": uq.describe(), "levels": [0.5, 1.0]})
    Mh = constant_curvature(-1.0, 3)
    uo = OffCenterDistanceField(0.3)
    reps = [total_mean_curvature(uo, Mh, lev, 1, spec_ell, thr) for lev in (0.7, 1.2)]
    diff = reps[1].value - reps[0].value
    budget = 10.0 * (reps[0].error_estimate + reps[1].error_estimate)
    pair_count += 1
    required.append((Mh.label, 1))
    record("inequality/m1_nested/offcenter", Mh.label, uo.kind, 3, 1,
           "m1_outer_minus_inner", diff, 10.0 * budget, diff > 10.0 * budget,
           {"model": Mh.describe(), "field": uo.describe(), "levels": [0.7, 1.2]})
    timings["inequality/m1_nested"] = time.perf_counter() - t0

    # Cor. 4.7: warped balls against the constant-curvature bound
    t0 = time.perf_counter()
    Mw = warped(poly3_profile(), 3)
    uw = RadialDistanceField()
    spec_ball = QuadratureSpec(angular_orders=(12,), level_order=8)
    rho_ball = (0.5, 1.0) if cfg.quick else (0.5, 1.0, 2.0)
    for rho in rho_ball:
        for r in (1, 2):
            pair_count += 1
            required.append((Mw.label, r))
            rep = total_mean_curvature(uw, Mw, rho, r, spec_ball, thr)
            bound = ball_bound(r, rho, 0.0, 3)
            margin = rep.value - bound
            budget = 10.0 * rep.error_estimate
            base = f"inequality/balls/poly3/rho={rho:g}/r={r}"
            record(base, Mw.label, uw.kind, 3, r, "margin_over_flat_bound",
                   margin, 10.0 * budget, margin > 10.0 * budget,
                   {"model": Mw.describe(), "rho": rho, "r": r})
    # equality cases: matching profiles hit the bound exactly
    for name, Meq, a_eq in (("linear", warped(linear_profile(), 3), 0.0),
                            ("sinh", warped(sinh_profile(), 3), -1.0)):
        for rho in (0.5, 1.0):
            for r in (1, 2):
                closed = sphere_total_mean_curvature(Meq, r, rho)
                bound = ball_bound(r, rho, a_eq, 3)
                dev = abs(closed - bound) / max(1.0, abs(bound))
                base = f"inequality/balls/equality/{name}/rho={rho:g}/r={r}"
                record(base, Meq.label, "radial", 3, r, "rel_error", dev,
                       cfg.tol("ball_equality", 1e-9), dev <= cfg.tol("ball_equality", 1e-9),
                       {"model": Meq.describe(), "rho": rho, "r": r, "a": a_eq})
    timings["inequality/balls"] = time.perf_counter() - t0

    if not cfg.quick and pair_count < 20:
        raise ConfigError(f"inequality suite must exercise >= 20 nested/parallel pairs, "
                          f"got {pair_count}")
    _require_coverage(cases, required)
    return _finish("inequality", cases, timings)


# ---------------------------------------------------------------------------
# Asymptotic suite
# ---------------------------------------------------------------------------

def run_asymptotic_suite(cfg: SuiteConfig) -> SuiteReport:
    """Small-sphere behavior of M_r(S_rho): log-log slope n-1-r, the limit
    |S^{n-1}| for r = n-1, and a quadratic bound on the correction factor."""
    cases, timings = [], {}
    required = []
    thr = cfg.threads
    models = _default_models()
    # slope tolerance 0.02 needs the grid to stay small: the O(rho^2)
    # curvature correction biases the fitted slope by about 2 rho_max^2
    spec = QuadratureSpec(angular_orders=(8,), level_order=4)
    rho_grid = np.geomspace(0.01, 0.16, 4 if cfg.quick else 6)
    u = RadialDistanceField()
    sphere = unit_sphere_volume(3)

    for M in models:
        for r in range(0, 3):
            required.append((M.label, r))
            t0 = time.perf_counter()
            vals = np.array([total_mean_curvature(u, M, rho, r, spec, thr).value
                             for rho in rho_grid])
            logs = np.log(vals)
            slope = float(np.polyfit(np.log(rho_grid), logs, 1)[0])
            base = f"asymptotic/{M.label}/r={r}"
            inputs = {"model": M.describe(), "r": r, "rho_grid": list(rho_grid)}
            tol_slope = cfg.tol("slope", 0.02)
            cases.append(CaseRecord(
                case_id=f"{base}/slope", model=M.label, field=u.kind, n=3, r=r,
                metric="loglog_slope", measured=slope, expected=float(2 - r),
                residual=abs(slope - (2 - r)), tolerance=tol_slope,
                passed=abs(slope - (2 - r)) <= tol_slope, inputs=inputs))
            ratio = vals / (binomial(2, r) * sphere * rho_grid ** (2 - r))
            if r == 2:
                dev = abs(ratio[0] - 1.0)
                tol_lim = cfg.tol("gauss_limit", 0.01)
                cases.append(CaseRecord(
                    case_id=f"{base}/limit", model=M.label, field=u.kind, n=3, r=r,
                    metric="gauss_kronecker_limit", measured=float(vals[0]),
                    expected=sphere, residual=dev, tolerance=tol_lim,
                    passed=dev <= tol_lim, inputs=inputs))
            # quadratic correction: constant fitted on the two coarsest radii
            # must cover the rest with a factor-2 allowance
            corr = np.abs(ratio - 1.0)
            cfit = max(corr[-1] / rho_grid[-1] ** 2, corr[-2] / rho_grid[-2] ** 2)
            bound = 2.0 * cfit * rho_grid ** 2 + 1e-10
            worst = float(np.max(corr - bound))
            cases.append(CaseRecord(
                case_id=f"{base}/quadratic_correction", model=M.label, field=u.kind,
                n=3, r=r, metric="correction_excess", measured=worst, expected=0.0,
                residual=max(worst, 0.0), tolerance=0.0, passed=worst <= 0.0,
                inputs=dict(inputs, fitted_constant=float(cfit))))
            timings[base] = time.perf_counter() - t0

    _require_coverage(cases, required)
    return _finish("asymptotic", cases, timings)


_RUNNERS = {
    "pointwise": run_pointwise_suite,
    "comparison": run_comparison_suite,
    "inequality": run_inequality_suite,
    "asymptotic": run_asymptotic_suite,
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    if cfg.suite not in _RUNNERS:
        raise ConfigError(f"unknown suite '{cfg.suite}' (expected one of {SUITE_NAMES})")
    return _RUNNERS[cfg.suite](cfg)
