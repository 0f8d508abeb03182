"""Tests for total mean curvatures, the comparison breakdown, its
constant-curvature and Ricci specializations, and the corollary closed
forms."""

import math

import numpy as np
import pytest

from curvatura.errors import GeometryError
from curvatura.model_manifolds import (
    constant_curvature,
    euclidean,
    linear_profile,
    poly3_profile,
    riemann_stack,
    sinh_profile,
    sphere_total_mean_curvature,
    unit_sphere_volume,
    warped,
)
from curvatura.level_set_geometry import (
    OffCenterDistanceField,
    QuadraticFormField,
    RadialDistanceField,
    RadialSquaredHalfField,
    div_newton_stack,
    hessian_frame_stack,
    principal_frame_stack,
)
from curvatura.quadrature import QuadratureSpec, radial_integral
from curvatura.curvature_integrals import (
    BREAKDOWN_COLUMNS,
    MCR_COLUMNS,
    ball_bound,
    comparison_rhs,
    comparison_rhs_constant,
    correction_sums_stack,
    m1_volume_bound,
    mixed_sum_terms,
    ricci_comparison,
    sectional_sum_terms,
    solanes_prediction,
    total_mean_curvature,
)
from curvatura.symmetric_algebra import binomial

SPEC = QuadratureSpec(angular_orders=(12,), level_order=10)


class TestIndexEnumeration:
    def test_sectional_r1_is_all_singletons(self):
        # r = 1: empty prefix, free index over all kappa slots
        terms = sectional_sum_terms(3, 1)
        assert terms == (((), 0), ((), 1), ((), 2))

    def test_sectional_counts(self):
        # ascending (r-1)-prefix times the remaining free index
        for m in (2, 3, 4, 5):
            for r in range(1, m + 1):
                expected = binomial(m, r - 1) * (m - r + 1)
                assert len(sectional_sum_terms(m, r)) == expected

    def test_mixed_empty_below_r2(self):
        assert mixed_sum_terms(4, 0) == ()
        assert mixed_sum_terms(4, 1) == ()

    def test_mixed_counts(self):
        for m in (2, 3, 4, 5):
            for r in range(2, m + 1):
                expected = binomial(m, r - 2) * (m - r + 2) * (m - r + 1)
                assert len(mixed_sum_terms(m, r)) == expected

    def test_all_indices_distinct(self):
        for prefix, irm1, ir in mixed_sum_terms(5, 4):
            ids = set(prefix) | {irm1, ir}
            assert len(ids) == 4


class TestTotalMeanCurvature:
    def test_euclidean_unit_sphere_m1(self):
        M = euclidean(3)
        rep = total_mean_curvature(RadialDistanceField(), M, 1.0, 1, SPEC)
        assert abs(rep.value - 8 * math.pi) <= 1e-8

    def test_hyperbolic_m2(self):
        M = constant_curvature(-1.0, 3)
        rep = total_mean_curvature(RadialDistanceField(), M, 1.0, 2, SPEC)
        assert abs(rep.value - 4 * math.pi * math.cosh(1) ** 2) <= 1e-7

    def test_r0_is_area(self):
        M = constant_curvature(-1.0, 3)
        rep = total_mean_curvature(RadialDistanceField(), M, 1.0, 0, SPEC)
        assert rep.value == pytest.approx(4 * math.pi * math.sinh(1) ** 2, rel=1e-9)

    def test_enclosed_volume_radial(self):
        M = constant_curvature(-1.0, 3)
        rep = total_mean_curvature(RadialDistanceField(), M, 1.0, -1, SPEC)
        exact = 2 * math.pi * (math.sinh(1) * math.cosh(1) - 1)
        assert rep.value == pytest.approx(exact, rel=1e-12)

    def test_enclosed_volume_radial_sq_level_map(self):
        M = euclidean(3)
        rep = total_mean_curvature(RadialSquaredHalfField(), M, 0.5, -1, SPEC)
        assert rep.value == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_enclosed_volume_quadratic(self):
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        rep = total_mean_curvature(u, M, 0.5, -1,
                                   QuadratureSpec(angular_orders=(32,), level_order=12))
        exact = 4 / 3 * math.pi * 0.5
        assert rep.value == pytest.approx(exact, rel=1e-12)
        assert abs(rep.value - exact) <= 10 * rep.error_estimate

    @pytest.mark.parametrize("n", [3, 5])
    def test_enclosed_volume_off_centre_closed_forms(self, n):
        # balls and ellipsoids about a centre off the base point: the volume
        # of the unit ball times the semi-axes
        M = euclidean(n)
        c = np.zeros(n)
        c[0] = 0.1
        unit_ball = {3: 4 * math.pi / 3, 5: 8 * math.pi ** 2 / 15}[n]
        # Q's eigenvalues are 1 and 3 (its 2x2 block), 1, then n - 3 fours
        Q = np.diag([2.0, 2.0] + [1.0] + [4.0] * (n - 3))
        Q[0, 1] = Q[1, 0] = 1.0
        det = 3.0 * 4.0 ** (n - 3)
        cases = ((RadialDistanceField(center=c), 1.3, 1.3 ** n),
                 (RadialSquaredHalfField(center=c), 0.5, 1.0),
                 (QuadraticFormField(Q, center=c), 0.5, 1.0 / math.sqrt(det)),
                 (QuadraticFormField(np.diag([1.0] * (n - 1) + [4.0]), center=c), 0.5, 0.5))
        for u, level, axes_product in cases:
            rep = total_mean_curvature(u, M, level, -1, SPEC)
            exact = unit_ball * axes_product
            assert rep.value == pytest.approx(exact, rel=1e-12)
            assert abs(rep.value - exact) <= rep.error_estimate
            assert rep.node_count == 1

    @pytest.mark.parametrize("profile", ["sinh[a=-0.25]", "sinh[a=-1]", "sinh[a=-4]",
                                         "poly3", "linear"])
    def test_ball_volume_estimate_bounds_the_error(self, profile):
        # against 40-digit quadrature; the roundoff of the radial rule grows
        # with (n - 1) sqrt(-a) rho, up to 100 here
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        if profile.startswith("sinh"):
            a = float(profile[len("sinh[a="):-1])
            s = mp.sqrt(-mp.mpf(a))
            model, f = (lambda n: constant_curvature(a, n)), (lambda t: mp.sinh(s * t) / s)
        else:
            prof = poly3_profile() if profile == "poly3" else linear_profile()
            model, f = (lambda n: warped(prof, n)), prof.f
        for n in range(2, 7):
            sphere = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
            for rho in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
                rep = total_mean_curvature(RadialDistanceField(), model(n), rho, -1, SPEC)
                exact = sphere * mp.quad(lambda t: f(t) ** (n - 1), mp.linspace(0, rho, 5))
                assert abs(mp.mpf(rep.value) - exact) <= rep.error_estimate, (n, rho)

    def test_enclosed_volume_refuses_nonpositive_levels(self):
        H = constant_curvature(-1.0, 3)
        E = euclidean(3)
        cases = ((RadialDistanceField(), H), (RadialSquaredHalfField(), H),
                 (RadialDistanceField(center=[0.1, 0.0, 0.0]), E),
                 (QuadraticFormField(np.diag([1.0, 1.0, 4.0])), E),
                 (OffCenterDistanceField(0.3), H), (OffCenterDistanceField(0.3), E))
        for u, M in cases:
            for level in (0.0, -0.0, -1.0, math.nan):
                with pytest.raises(GeometryError, match="positive level"):
                    total_mean_curvature(u, M, level, -1, SPEC)

    def test_enclosed_volume_refuses_sets_past_the_working_radius(self):
        # M_0 refuses these level sets too: they cross the working radius
        cases = ((RadialDistanceField(), constant_curvature(-1.0, 3), 50.0),
                 (RadialDistanceField(), euclidean(3), 1e300),
                 (RadialSquaredHalfField(center=[0.1, 0.0, 0.0]), euclidean(3), 50.5),
                 (OffCenterDistanceField(0.3), constant_curvature(-1.0, 3), 10.5),
                 (QuadraticFormField(np.diag([1.0, 1.0, 4.0])), euclidean(3), 1e300),
                 (QuadraticFormField(np.diag([0.01, 1.0, 4.0])), euclidean(3), 0.6))
        for u, M, level in cases:
            with pytest.raises(GeometryError, match="working radius"):
                total_mean_curvature(u, M, level, -1, SPEC)

    def test_order_range(self):
        M = euclidean(3)
        with pytest.raises(ValueError):
            total_mean_curvature(RadialDistanceField(), M, 1.0, 3, SPEC)
        with pytest.raises(ValueError):
            total_mean_curvature(RadialDistanceField(), M, 1.0, -2, SPEC)

    def test_record_columns(self):
        M = euclidean(3)
        u = RadialDistanceField()
        rep = total_mean_curvature(u, M, 1.0, 0, SPEC)
        rec = rep.to_record(M, u)
        assert tuple(rec.keys()) == MCR_COLUMNS


class TestComparisonFlat:
    def test_correction_terms_vanish_and_identity_holds(self):
        M = euclidean(3)
        for u, levels in ((RadialSquaredHalfField(), (0.5, 2.0)),
                          (RadialDistanceField(), (1.0, 2.0))):
            for r in range(3):
                bd = comparison_rhs(u, M, levels, r, SPEC)
                assert bd.term_sectional == 0.0
                assert bd.term_mixed == 0.0
                assert abs(bd.residual) <= 2 * bd.error_budget

    def test_constant_zero_reduces_to_flat(self):
        Mc = constant_curvature(0.0, 3)
        u = RadialDistanceField()
        bd = comparison_rhs(u, Mc, (1.0, 2.0), 1, SPEC)
        cc = comparison_rhs_constant(u, Mc, (1.0, 2.0), 1, SPEC)
        assert cc.term_sectional == 0.0
        assert bd.lhs == pytest.approx(cc.lhs, rel=1e-12)
        assert bd.term_principal == pytest.approx(cc.term_principal, rel=1e-12)


class TestComparisonCurved:
    def test_poly3_radial_n4_breakdown(self):
        # 1-d oracle: d/dt M_r(S_t) split into the two closed-form integrands
        n, r = 4, 2
        M = warped(poly3_profile(), n)
        u = RadialDistanceField()
        spec = QuadratureSpec(angular_orders=(10, 10, 6), level_order=12)
        bd = comparison_rhs(u, M, (0.5, 1.5), r, spec)
        prof = poly3_profile()
        sphere = unit_sphere_volume(n)
        oracle_principal = sphere * radial_integral(
            lambda t: (r + 1) * binomial(n - 1, r + 1)
            * (prof.df(t) / prof.f(t)) ** (r + 1) * prof.f(t) ** (n - 1), (0.5, 1.5))
        oracle_sectional = sphere * radial_integral(
            lambda t: r * binomial(n - 1, r) * (prof.df(t) / prof.f(t)) ** (r - 1)
            * (prof.d2f(t) / prof.f(t)) * prof.f(t) ** (n - 1), (0.5, 1.5))
        assert bd.term_mixed == pytest.approx(0.0, abs=1e-12)
        assert bd.term_principal == pytest.approx(oracle_principal, rel=1e-7)
        assert bd.term_sectional == pytest.approx(oracle_sectional, rel=1e-7)
        oracle_lhs = (sphere_total_mean_curvature(M, r, 1.5)
                      - sphere_total_mean_curvature(M, r, 0.5))
        assert bd.lhs == pytest.approx(oracle_lhs, rel=1e-7)
        assert abs(bd.residual) <= 1e-6 * bd.scale

    def test_hyperbolic_nested_spheres_antiderivative(self):
        # a=-1, n=3, r=1: both sides equal 8 pi int cosh(2t) dt analytically
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        bd = comparison_rhs(u, M, (0.5, 1.0), 1, SPEC)
        exact = 8 * math.pi * (math.sinh(2.0) - math.sinh(1.0)) / 2
        assert bd.lhs == pytest.approx(exact, rel=1e-8)
        total = bd.term_principal + bd.term_sectional + bd.term_mixed
        assert total == pytest.approx(exact, rel=1e-8)

    def test_offcenter_r1(self):
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.3)
        bd = comparison_rhs(u, M, (0.7, 1.2), 1,
                            QuadratureSpec(angular_orders=(16,), level_order=8))
        assert abs(bd.residual) <= 1e-3 * bd.scale

    def test_correction_cross_check_pointwise(self):
        # displayed double sum vs the div(T_r) route, at an asymmetric point
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.3)
        P = np.array([[1.0, 0.9, 0.4]])
        hd = hessian_frame_stack(u, M, P)
        pf = principal_frame_stack(hd)
        rd = riemann_stack(M, P, pf.frame_chart)
        for r in (1, 2):
            sect, mixed = correction_sums_stack(pf.kappa, pf.grad_norm_derivs, rd,
                                                hd.grad_norm, r)
            via_div = div_newton_stack(M, P, hd, r)[0] @ hd.grad_frame[0]
            assert abs(sect[0] + mixed[0] - via_div / hd.grad_norm[0] ** (r + 1)) <= 1e-10


class TestConstantCurvaturePaths:
    @pytest.mark.parametrize("a,n", [(-1.0, 3), (-0.5, 4)])
    def test_two_paths_agree(self, a, n):
        M = constant_curvature(a, n)
        u = RadialDistanceField()
        spec = QuadratureSpec(angular_orders=(8,), level_order=10)
        for r in range(n):
            bd = comparison_rhs(u, M, (0.5, 1.0), r, spec)
            cc = comparison_rhs_constant(u, M, (0.5, 1.0), r, spec)
            tot = bd.term_principal + bd.term_sectional + bd.term_mixed
            tot_cc = cc.term_principal + cc.term_sectional
            assert abs(tot - tot_cc) <= 1e-7 * bd.scale
            assert abs(cc.residual) <= cc.error_budget

    def test_nested_sphere_antiderivative_r1(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        cc = comparison_rhs_constant(u, M, (0.5, 1.0), 1, SPEC)
        exact = 8 * math.pi * radial_integral(lambda t: math.cosh(2 * t), (0.5, 1.0))
        assert cc.lhs == pytest.approx(exact, rel=1e-8)
        assert abs(cc.residual) <= 1e-8 * abs(exact)

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            comparison_rhs_constant(RadialDistanceField(), euclidean(3),
                                    (0.5, 1.0), 1, SPEC)
        with pytest.raises(ValueError):
            comparison_rhs_constant(RadialDistanceField(), warped(sinh_profile(), 3),
                                    (0.5, 1.0), 1, SPEC)


class TestRicciComparison:
    def test_flat_sectional_term_zero(self):
        bd = ricci_comparison(RadialSquaredHalfField(), euclidean(3), (0.5, 2.0), SPEC)
        assert bd.term_sectional == 0.0

    def test_constant_curvature_volume_identity(self):
        # Ric(nu) = (n-1) a pointwise, so the term is -(n-1) a Vol(annulus)
        a, n = -1.0, 3
        M = constant_curvature(a, n)
        u = RadialDistanceField()
        bd = ricci_comparison(u, M, (0.5, 1.0), SPEC)
        vol = 4 * math.pi * radial_integral(lambda t: math.sinh(t) ** 2, (0.5, 1.0))
        assert bd.term_sectional == pytest.approx(-(n - 1) * a * vol, rel=1e-9)

    def test_matches_general_path_poly3(self):
        M = warped(poly3_profile(), 3)
        u = RadialDistanceField()
        rc = ricci_comparison(u, M, (0.5, 1.0), SPEC)
        bd = comparison_rhs(u, M, (0.5, 1.0), 1, SPEC)
        assert rc.term_sectional == pytest.approx(bd.term_sectional, rel=1e-9)


class TestSolanes:
    def test_n3_closed_form(self):
        # M_2 = 4 pi - a M_0; verified against the hyperbolic sphere oracle
        a, rho = -1.0, 1.0
        M = constant_curvature(a, 3)
        m0 = sphere_total_mean_curvature(M, 0, rho)
        pred = solanes_prediction({0: m0}, a, 3)
        assert pred == pytest.approx(4 * math.pi * math.cosh(rho) ** 2, rel=1e-13)

    def test_flat_gauss_bonnet(self):
        for n in (3, 4, 5):
            m = {j: 123.0 for j in range(-1, n)}
            assert solanes_prediction(m, 0.0, n) == pytest.approx(
                unit_sphere_volume(n), rel=1e-14)

    def test_n5_coefficients(self):
        # M_4 = |S^4| - (a/3) M_2 - a^2 M_0
        a = -1.0
        M = constant_curvature(a, 5)
        m = {j: sphere_total_mean_curvature(M, j, 0.8) for j in (0, 2)}
        pred = solanes_prediction(m, a, 5)
        direct = unit_sphere_volume(5) - a / 3 * m[2] - a ** 2 * m[0]
        assert pred == pytest.approx(direct, rel=1e-14)
        assert pred == pytest.approx(sphere_total_mean_curvature(M, 4, 0.8), rel=1e-12)

    def test_n4_needs_enclosed_volume(self):
        # even n pulls in M_{-1}; identity checked on hyperbolic spheres
        a, rho = -1.0, 0.9
        M = constant_curvature(a, 4)
        vol = unit_sphere_volume(4) * radial_integral(
            lambda t: math.sinh(t) ** 3, (0.0, rho))
        m = {1: sphere_total_mean_curvature(M, 1, rho), -1: vol}
        pred = solanes_prediction(m, a, 4)
        assert pred == pytest.approx(sphere_total_mean_curvature(M, 3, rho), rel=1e-11)

    def test_missing_inputs(self):
        with pytest.raises(ValueError):
            solanes_prediction({}, -1.0, 3)


class TestBallBound:
    def test_flat_closed_form(self):
        for r, rho in ((0, 1.0), (1, 0.5), (2, 2.0)):
            assert ball_bound(r, rho, 0.0, 3) == pytest.approx(
                binomial(2, r) * 4 * math.pi * rho ** (2 - r), rel=1e-14)

    def test_hyperbolic_value(self):
        assert ball_bound(1, 1.0, -1.0, 3) == pytest.approx(
            8 * math.pi * math.sinh(1) * math.cosh(1), rel=1e-14)

    def test_monotone_in_minus_a(self):
        for r in (1, 2):
            for rho in (0.5, 1.0, 2.0):
                vals = [ball_bound(r, rho, a, 4) for a in (0.0, -0.25, -1.0)]
                assert vals[0] <= vals[1] <= vals[2]

    def test_matches_sphere_oracle(self):
        M = constant_curvature(-0.5, 4)
        for r in range(4):
            assert ball_bound(r, 1.3, -0.5, 4) == pytest.approx(
                sphere_total_mean_curvature(M, r, 1.3), rel=1e-13)

    def test_rejects_positive_curvature(self):
        with pytest.raises(ValueError):
            ball_bound(1, 1.0, 0.5, 3)


class TestM1VolumeBound:
    def test_flat_bound_zero(self):
        general, dim3 = m1_volume_bound(0.0, 5.0, 3)
        assert general == 0.0 and dim3 == 0.0

    def test_hyperbolic_n3(self):
        general, dim3 = m1_volume_bound(-1.0, 2.0, 3)
        assert general == pytest.approx(4.0)
        assert dim3 == pytest.approx(8.0)

    def test_dim3_bound_absent_otherwise(self):
        general, dim3 = m1_volume_bound(-1.0, 2.0, 4)
        assert general == pytest.approx(6.0)
        assert dim3 is None

    def test_strictness_closed_form(self):
        # hyperbolic unit ball: M_1 - 4|Omega| = 8 pi rho > 0
        rho = 1.0
        m1 = 8 * math.pi * math.sinh(rho) * math.cosh(rho)
        vol = 2 * math.pi * (math.sinh(rho) * math.cosh(rho) - rho)
        _, dim3 = m1_volume_bound(-1.0, vol, 3)
        assert m1 - dim3 == pytest.approx(8 * math.pi * rho, rel=1e-12)

    def test_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            m1_volume_bound(-1.0, -1.0, 3)


class TestBreakdownRecord:
    def test_columns_and_residual_wiring(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        bd = comparison_rhs(u, M, (0.5, 1.0), 1, SPEC)
        rec = bd.to_record()
        assert tuple(rec.keys()) == BREAKDOWN_COLUMNS
        recomputed = (rec["lhs"] - rec["term_principal"] - rec["term_sectional"]
                      - rec["term_mixed"])
        assert rec["residual"] == pytest.approx(recomputed, abs=1e-12 * bd.scale)
        assert bd.error_budget >= 0
