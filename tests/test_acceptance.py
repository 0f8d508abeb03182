"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria span the algebra contracts, the pointwise identities, the
comparison formula in flat/curved and radial/non-radial configurations, the
constant-curvature and Ricci specializations, the corollary recursions,
bounds, monotonicity properties, small-sphere asymptotics, and byte-level
determinism of the verification pipeline.  Tolerances are pinned here.

Run with `pytest -v -rA tests/test_acceptance.py` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

from curvatura.cli import main as cli_main
from curvatura.model_manifolds import (
    constant_curvature,
    euclidean,
    poly3_profile,
    radial_profile,
    sphere_total_mean_curvature,
    unit_sphere_volume,
    warped,
)
from curvatura.level_set_geometry import (
    OffCenterDistanceField,
    QuadraticFormField,
    RadialDistanceField,
)
from curvatura.quadrature import QuadratureSpec, radial_integral
from curvatura.curvature_integrals import (
    comparison_rhs,
    comparison_rhs_constant,
    ricci_comparison,
    solanes_prediction,
    total_mean_curvature,
)
from curvatura.symmetric_algebra import (
    binomial,
    eigh,
    elementary_all,
    sigma_hessian_kronecker,
)
from curvatura.verification import SuiteConfig, run_suite


def report(criterion: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def pointwise_report():
    return run_suite(SuiteConfig(suite="pointwise", quick=False))


@pytest.fixture(scope="module")
def inequality_report():
    return run_suite(SuiteConfig(suite="inequality", quick=False))


@pytest.fixture(scope="module")
def asymptotic_report():
    return run_suite(SuiteConfig(suite="asymptotic", quick=False))


def test_criterion_01_algebra_suite():
    """1000 random symmetric matrices per n in 2..6: dual-path sigma_r,
    Cayley-Hamilton, cofactor identity, trace identity; < 10 s."""
    t0 = time.perf_counter()
    worst = {"sigma": 0.0, "ch": 0.0, "cofactor": 0.0, "trace": 0.0}
    for n in range(2, 7):
        rng = np.random.default_rng(1000 + n)
        for _ in range(1000):
            A = rng.normal(size=(n, n))
            H = A + A.T
            scale = max(1.0, float(np.max(np.abs(H))))
            w, _ = eigh(H)
            e = elementary_all(w)
            mats = [np.eye(n)]
            for k in range(1, n + 1):
                T = e[k] * np.eye(n) - mats[-1] @ H
                mats.append(0.5 * (T + T.T))
            for r in range(1, n + 1):
                d = abs(e[r] - sigma_hessian_kronecker(H, r))
                worst["sigma"] = max(worst["sigma"], d / scale ** r)
            worst["ch"] = max(worst["ch"], float(np.max(np.abs(mats[n]))) / scale ** n)
            for r in range(0, n):
                resid = abs(float(np.trace(mats[r] @ H)) - (r + 1) * e[r + 1])
                worst["trace"] = max(worst["trace"], resid / scale ** (r + 1))
            det = float(np.prod(w))
            if abs(det) > 1e-3 * scale ** n:     # cofactor needs nondegeneracy
                Hinv = np.linalg.inv(H)
                dev = float(np.max(np.abs(mats[n - 1] - det * Hinv)))
                worst["cofactor"] = max(
                    worst["cofactor"], dev / (abs(det) * float(np.max(np.abs(Hinv)))))
    elapsed = time.perf_counter() - t0
    ok = (worst["sigma"] <= 1e-10 and worst["ch"] <= 1e-9
          and worst["cofactor"] <= 1e-9 and worst["trace"] <= 1e-10
          and elapsed < 10.0)
    report("criterion 1 (algebra suite)", ok,
           f"sigma {worst['sigma']:.2e}, CH {worst['ch']:.2e}, "
           f"cofactor {worst['cofactor']:.2e}, trace {worst['trace']:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_02_reilly2_pointwise(pointwise_report):
    """sigma_r identity residual < 1e-8 relative at 200 points per
    (model, field, r); < 30 s."""
    cases = [c for c in pointwise_report.cases if c.metric == "max_rel_residual"]
    elapsed = sum(t for cid, t in pointwise_report.timings.items() if "reilly2" in cid)
    worst = max(c.measured for c in cases)
    models = {c.model for c in cases}
    ok = (all(c.passed for c in cases) and worst < 1e-8 and elapsed < 30.0
          and models >= {"euclidean", "constant(a=-1)", "warped(poly3)"})
    report("criterion 2 (Newton-gradient identity, pointwise)", ok,
           f"{len(cases)} cases, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_reilly1_orders(pointwise_report):
    """Finite-difference divergence identity: convergence order >= 1.9 under
    h-halving at 50 points per configuration; < 60 s."""
    cases = [c for c in pointwise_report.cases if c.metric == "convergence_order"]
    elapsed = sum(t for cid, t in pointwise_report.timings.items()
                  if "reilly1" in cid)
    worst = min(c.measured for c in cases)
    ok = all(c.passed for c in cases) and worst >= 1.9 and elapsed < 60.0
    report("criterion 3 (divergence identity FD orders)", ok,
           f"{len(cases)} cases, worst order {worst:.3f}, {elapsed:.1f}s")


def test_criterion_04_comparison_radial_curved():
    """Warped poly3, n=4, r in 0..3, levels (0.5, 1.5): residual <= 1e-6
    relative against the 1-d closed-form oracle; < 30 s."""
    t0 = time.perf_counter()
    n = 4
    M = warped(poly3_profile(), n)
    u = RadialDistanceField()
    spec = QuadratureSpec(angular_orders=(12, 12, 6), level_order=12)
    f, df, d2f = radial_profile(M)
    sphere = unit_sphere_volume(n)
    worst = 0.0
    for r in range(4):
        bd = comparison_rhs(u, M, (0.5, 1.5), r, spec)
        oracle_lhs = (sphere_total_mean_curvature(M, r, 1.5)
                      - sphere_total_mean_curvature(M, r, 0.5))
        op = sphere * radial_integral(
            lambda t: (r + 1) * binomial(n - 1, r + 1)
            * (df(t) / f(t)) ** (r + 1) * f(t) ** (n - 1), (0.5, 1.5))
        os_ = sphere * radial_integral(
            lambda t: (0.0 if r == 0 else
                       r * binomial(n - 1, r) * (df(t) / f(t)) ** (r - 1)
                       * (d2f(t) / f(t)) * f(t) ** (n - 1)), (0.5, 1.5))
        scale = max(1.0, abs(oracle_lhs), abs(op))
        dev = (abs(bd.lhs - oracle_lhs) + abs(bd.term_principal - op)
               + abs(bd.term_sectional - os_) + abs(bd.term_mixed)
               + abs(bd.residual)) / scale
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report("criterion 4 (comparison, radial curved)", ok,
           f"worst oracle deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_comparison_ellipsoid_flat():
    """Euclidean n=3 ellipsoid Q=diag(1,1,4), r in 0..2, levels (0.5, 1),
    angular order 64, level order 32: residual <= 1e-3 relative; < 5 min."""
    t0 = time.perf_counter()
    M = euclidean(3)
    u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
    spec = QuadratureSpec(angular_orders=(64,), level_order=32)
    worst = 0.0
    for r in range(3):
        bd = comparison_rhs(u, M, (0.5, 1.0), r, spec)
        assert bd.term_sectional == 0.0 and bd.term_mixed == 0.0
        worst = max(worst, abs(bd.residual) / bd.scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 300.0
    report("criterion 5 (comparison, flat non-radial)", ok,
           f"worst relative residual {worst:.2e}, {elapsed:.0f}s")


def test_criterion_06_comparison_offcenter_curved():
    """Hyperbolic a=-1, n=3, off-center distance (offset 0.3), r in {1,2}:
    residual <= 1e-3 relative; exercises the second-sum code path; < 10 min."""
    t0 = time.perf_counter()
    M = constant_curvature(-1.0, 3)
    u = OffCenterDistanceField(0.3)
    spec = QuadratureSpec(angular_orders=(32,), level_order=16)
    worst = 0.0
    mixed_evaluated = 0.0
    for r in (1, 2):
        bd = comparison_rhs(u, M, (0.7, 1.2), r, spec)
        worst = max(worst, abs(bd.residual) / bd.scale)
        mixed_evaluated = max(mixed_evaluated, abs(bd.term_mixed))
    elapsed = time.perf_counter() - t0
    # the mixed sum is analytically zero in constant curvature; a wrong
    # enumeration would show up both here and in the residual
    ok = worst <= 1e-3 and mixed_evaluated <= 1e-8 and elapsed < 600.0
    report("criterion 6 (comparison, curved non-radial)", ok,
           f"worst relative residual {worst:.2e}, |mixed| {mixed_evaluated:.1e}, "
           f"{elapsed:.0f}s")


def test_criterion_07_constant_curvature_two_path():
    """Nested spheres, a in {-0.5, -1}, n in {3, 4}, all r: the two-term
    specialization agrees with the general path to 1e-7 relative; the r=1
    Ricci path agrees to 1e-9."""
    spec = QuadratureSpec(angular_orders=(8,), level_order=10)
    u = RadialDistanceField()
    worst_cc, worst_g1 = 0.0, 0.0
    for a in (-0.5, -1.0):
        for n in (3, 4):
            M = constant_curvature(a, n)
            for r in range(n):
                bd = comparison_rhs(u, M, (0.5, 1.0), r, spec)
                cc = comparison_rhs_constant(u, M, (0.5, 1.0), r, spec)
                tot = bd.term_principal + bd.term_sectional + bd.term_mixed
                tot_cc = cc.term_principal + cc.term_sectional
                worst_cc = max(worst_cc, abs(tot - tot_cc) / bd.scale)
                if r == 1:
                    rc = ricci_comparison(u, M, (0.5, 1.0), spec)
                    worst_g1 = max(worst_g1,
                                   abs(rc.term_sectional - bd.term_sectional) / bd.scale)
    ok = worst_cc <= 1e-7 and worst_g1 <= 1e-9
    report("criterion 7 (constant-curvature two-path)", ok,
           f"two-path {worst_cc:.2e}, Ricci path {worst_g1:.2e}")


def test_criterion_08_gauss_bonnet_recursion():
    """Quadrature-backed M_{n-1} matches the double-factorial recursion from
    lower orders: n=3 within 1e-6 (closed form 4 pi cosh^2(1) checked) and
    n=5 with coefficients 1/3 and 1, within 1e-6."""
    a, rho = -1.0, 1.0
    u = RadialDistanceField()
    M3 = constant_curvature(a, 3)
    spec3 = QuadratureSpec(angular_orders=(12,), level_order=4)
    m0 = total_mean_curvature(u, M3, rho, 0, spec3).value
    m2 = total_mean_curvature(u, M3, rho, 2, spec3).value
    pred3 = solanes_prediction({0: m0}, a, 3)
    dev3 = abs(m2 - pred3) / abs(pred3)
    closed = 4 * math.pi * math.cosh(1.0) ** 2
    dev3_closed = abs(pred3 - closed) / closed

    M5 = constant_curvature(a, 5)
    spec5 = QuadratureSpec(angular_orders=(12, 12, 12, 4), level_order=4)
    vals = {j: total_mean_curvature(u, M5, 0.8, j, spec5).value for j in (0, 2)}
    m4 = total_mean_curvature(u, M5, 0.8, 4, spec5).value
    pred5 = solanes_prediction(vals, a, 5)
    direct5 = unit_sphere_volume(5) - (a / 3) * vals[2] - a ** 2 * vals[0]
    dev5 = abs(m4 - pred5) / abs(pred5)
    dev5_coef = abs(pred5 - direct5) / abs(pred5)
    ok = (dev3 <= 1e-6 and dev3_closed <= 1e-6 and dev5 <= 1e-6
          and dev5_coef <= 1e-14)
    report("criterion 8 (double-factorial recursion)", ok,
           f"n=3 dev {dev3:.2e} (closed form {dev3_closed:.2e}), "
           f"n=5 dev {dev5:.2e}")


def test_criterion_09_small_sphere_asymptotics(asymptotic_report):
    """log-log slope of M_r(S_rho) equals n-1-r within 0.02, and
    M_{n-1}(S_rho) is within 1% of |S^{n-1}| at rho = 0.01, all families."""
    slopes = [c for c in asymptotic_report.cases if c.metric == "loglog_slope"]
    limits = [c for c in asymptotic_report.cases
              if c.metric == "gauss_kronecker_limit"]
    families = {c.model for c in slopes}
    worst_slope = max(c.residual for c in slopes)
    worst_limit = max(c.residual for c in limits)
    ok = (all(c.passed for c in slopes + limits)
          and families >= {"euclidean", "constant(a=-1)", "warped(poly3)"}
          and len(limits) == 3)
    report("criterion 9 (small-sphere asymptotics)", ok,
           f"worst slope dev {worst_slope:.3f}, worst limit dev {worst_limit:.2e}")


def test_criterion_10_m1_volume_bound_dim3(inequality_report):
    """Hyperbolic balls, n=3: M_1 + 4a|Omega| reproduces 8 pi rho within 1e-6
    relative at rho in {0.25, 0.5, 1, 2} for a in {-1, -0.25, -4}."""
    cases = [c for c in inequality_report.cases
             if c.case_id.startswith("inequality/m1_volume") and
             c.metric == "rel_error"]
    assert len(cases) == 12
    worst = max(c.measured for c in cases)
    ok = all(c.passed for c in cases) and worst <= 1e-6
    report("criterion 10 (volume bound, dimension 3)", ok,
           f"worst closed-form deviation {worst:.2e}")


def test_criterion_11_monotonicity(inequality_report):
    """>= 20 nested/parallel pairs: M_r(outer) - M_r(inner) >= -budget, and
    >= +10x budget where strictness is expected."""
    pair_metrics = ("mr_outer_minus_inner", "m1_outer_minus_inner",
                    "margin_over_flat_bound")
    pairs = [c for c in inequality_report.cases if c.metric in pair_metrics]
    ok = len(pairs) >= 20 and all(c.passed for c in pairs)
    report("criterion 11 (monotonicity corollaries)", ok,
           f"{len(pairs)} nested/parallel pairs, all within budgets")


def test_criterion_12_ball_comparison(inequality_report):
    """Warped poly3 balls beat the flat bound, and the bound at the sharp
    constant a_rho = -1/(1 + rho^2/6) (Cor. 4.7), with positive margin for
    rho in {0.5, 1, 2}, r in {1, 2}; matching profiles agree with their
    bound to 1e-9."""
    strict = [c for c in inequality_report.cases
              if c.case_id.startswith("inequality/balls/poly3")]
    sharp = [c for c in inequality_report.cases
             if c.case_id.startswith("inequality/balls/sharp/poly3")]
    equal = [c for c in inequality_report.cases
             if c.case_id.startswith("inequality/balls/equality")]
    assert len(strict) == 6 and len(sharp) == 6 and len(equal) == 8
    worst_eq = max(c.measured for c in equal)
    ok = all(c.passed for c in strict + sharp + equal) and worst_eq <= 1e-9
    report("criterion 12 (ball comparison)", ok,
           f"{len(strict)} flat and {len(sharp)} sharp margins positive, "
           f"equality dev {worst_eq:.1e}")


def test_criterion_13_determinism(tmp_path):
    """`verify all` twice with the same seed yields byte-identical CSVs, at
    --threads 1 and --threads 4 (quick grids; the reduction scheme is
    grid-independent)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "suites": "all", "seed": 31337}))
    outs = []
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"run{i}"
        code = cli_main(["verify", "--config", str(cfg), "--out", str(out),
                         "--quick", "--threads", str(threads)])
        assert code == 0
        outs.append(out)
    identical = True
    for name in ("suite_pointwise.csv", "suite_comparison.csv",
                 "suite_inequality.csv", "suite_asymptotic.csv"):
        b0 = (outs[0] / name).read_bytes()
        b1 = (outs[1] / name).read_bytes()
        identical &= b0 == b1
    report("criterion 13 (determinism)", identical,
           "byte-identical CSVs across reruns and thread counts")
