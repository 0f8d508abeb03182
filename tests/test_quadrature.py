"""Tests for level-set surface quadrature, coarea volume quadrature, and the
1-d Gauss-Legendre helper.  Oracles: closed-form sphere/shell values, a
surface-of-revolution quadrature for the ellipsoid, and antiderivatives."""

import math

import numpy as np
import pytest

from curvatura.errors import GeometryError
from curvatura.model_manifolds import (
    constant_curvature,
    euclidean,
    poly3_profile,
    warped,
)
from curvatura.level_set_geometry import (
    QuadraticFormField,
    RadialDistanceField,
    RadialSquaredHalfField,
    ScalarField,
    hessian_frame,
    principal_frame,
)
from curvatura.quadrature import (
    QuadratureSpec,
    coarea_volume_integral,
    find_level_radius,
    pairwise_sum,
    radial_integral,
    surface_integral,
)
from curvatura.symmetric_algebra import sigma_elementary

SPEC = QuadratureSpec(angular_orders=(16,), level_order=8)


def revolution_ellipsoid_m1(c):
    """Oracle: M_1 of {x^2 + y^2 + 4 z^2 = 2c} from its profile curve
    (a sin v, (a/2) cos v) rotated about the z axis (independent of the
    ray-parameterized surface quadrature under test)."""
    a = math.sqrt(2 * c)
    x, w = np.polynomial.legendre.leggauss(400)
    v = math.pi / 2 * (x + 1)
    wv = math.pi / 2 * w
    rr, drr, d2rr = a * np.sin(v), a * np.cos(v), -a * np.sin(v)
    zz, dzz, d2zz = a / 2 * np.cos(v), -a / 2 * np.sin(v), -a / 2 * np.cos(v)
    E = drr ** 2 + dzz ** 2
    km = (dzz * d2rr - drr * d2zz) / E ** 1.5
    kp = -dzz / (rr * np.sqrt(E))
    dA = 2 * math.pi * rr * np.sqrt(E)
    return float(np.sum(wv * (km + kp) * dA))


# frozen via the oracle above (it is also recomputed live in the tests)
ELLIPSOID_M1_HALF = 21.478435327884206


class TestRadialIntegral:
    def test_polynomial(self):
        assert radial_integral(lambda t: t * t, (0, 1)) == pytest.approx(1 / 3, rel=1e-14)

    def test_sinh_squared(self):
        exact = (math.sinh(1) * math.cosh(1) - 1) / 2
        assert radial_integral(lambda t: math.sinh(t) ** 2, (0, 1)) == pytest.approx(
            exact, rel=1e-13)

    def test_cosh(self):
        assert radial_integral(lambda t: math.cosh(2 * t), (0, 1)) == pytest.approx(
            math.sinh(2) / 2, rel=1e-13)

    def test_cap_raises_with_last_difference(self):
        with pytest.raises(GeometryError, match=r"order cap 8 .* last difference \d"):
            radial_integral(lambda t: abs(t - 1 / math.pi) ** 0.1, (0, 1),
                            order=4, max_order=8)

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError):
            radial_integral(lambda t: t, (0, math.inf))


class TestSpecValidation:
    def test_orders_at_least_two(self):
        with pytest.raises(ValueError):
            QuadratureSpec(angular_orders=(1,))
        with pytest.raises(ValueError):
            QuadratureSpec(level_order=1)

    def test_margin_range(self):
        with pytest.raises(ValueError):
            QuadratureSpec(margin=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(margin=2e-3)

    def test_angular_broadcast(self):
        assert QuadratureSpec(angular_orders=(8,)).angular_for(4) == (8, 8, 8)
        assert QuadratureSpec(angular_orders=(8, 6, 4)).angular_for(4) == (8, 6, 4)
        with pytest.raises(ValueError):
            QuadratureSpec(angular_orders=(8, 6)).angular_for(4)


class TestRootFinding:
    def test_bisection_matches_star_radius(self):
        # strip the analytic radius to force the bracketing path
        class Anon(ScalarField):
            kind = "anon"
            def __init__(self, inner):
                self.inner = inner
            def value(self, M, p):
                return self.inner.value(M, p)

        M = constant_curvature(-1.0, 3)
        u = RadialSquaredHalfField()
        ua = Anon(u)
        for level in (0.18, 0.5, 1.3):
            rho = find_level_radius(ua, M, level, np.array([1.0, 2.0]))
            assert rho == pytest.approx(math.sqrt(2 * level), abs=1e-10)

    def test_level_not_enclosing_origin(self):
        from curvatura.level_set_geometry import OffCenterDistanceField
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.5)
        with pytest.raises(GeometryError):
            find_level_radius(u, M, 0.3, np.array([1.0, 2.0]))


class TestSurfaceIntegral:
    def test_euclidean_unit_sphere_area(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        res = surface_integral(u, M, 0.5, lambda p: 1.0, SPEC)
        assert abs(res.value - 4 * math.pi) <= 1e-10
        assert res.node_count == 256

    def test_hyperbolic_sphere_area(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        res = surface_integral(u, M, 1.0, lambda p: 1.0, SPEC)
        assert abs(res.value - 4 * math.pi * math.sinh(1) ** 2) <= 1e-8

    def test_ellipsoid_total_mean_curvature(self):
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))

        def sigma1(p):
            pf = principal_frame(hessian_frame(u, M, p), M, p)
            return sigma_elementary(pf.kappa, 1)

        res = surface_integral(u, M, 0.5, sigma1,
                               QuadratureSpec(angular_orders=(96,), level_order=4))
        oracle = revolution_ellipsoid_m1(0.5)
        assert oracle == pytest.approx(ELLIPSOID_M1_HALF, rel=1e-12)
        assert abs(res.value - oracle) <= 1e-6 * abs(oracle)

    def test_dimension_two_circle(self):
        M = euclidean(2)
        u = RadialSquaredHalfField()
        res = surface_integral(u, M, 0.5, lambda p: 1.0, SPEC)
        assert res.value == pytest.approx(2 * math.pi, rel=1e-12)


class TestCoareaIntegral:
    def test_euclidean_shell_volume(self):
        M = euclidean(3)
        u = RadialDistanceField()
        res = coarea_volume_integral(u, M, (1.0, 2.0), lambda p: 1.0, SPEC)
        assert abs(res.value - 4 / 3 * math.pi * 7) <= 1e-9

    def test_hyperbolic_shell_volume(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        res = coarea_volume_integral(u, M, (0.5, 1.0), lambda p: 1.0, SPEC)
        oracle = 4 * math.pi * radial_integral(lambda t: math.sinh(t) ** 2, (0.5, 1.0))
        assert abs(res.value - oracle) <= 1e-8

    def test_poly3_sigma2_radial_oracle(self):
        M = warped(poly3_profile(), 3)
        u = RadialDistanceField()

        def sigma2(p):
            pf = principal_frame(hessian_frame(u, M, p), M, p)
            return sigma_elementary(pf.kappa, 2)

        res = coarea_volume_integral(u, M, (0.5, 1.5), sigma2, SPEC)
        prof = poly3_profile()
        oracle = 4 * math.pi * radial_integral(
            lambda t: (prof.df(t) / prof.f(t)) ** 2 * prof.f(t) ** 2, (0.5, 1.5))
        assert abs(res.value - oracle) <= 1e-8 * max(1.0, abs(oracle))

    def test_rejects_bad_levels(self):
        M = euclidean(3)
        u = RadialDistanceField()
        with pytest.raises(ValueError):
            coarea_volume_integral(u, M, (2.0, 1.0), lambda p: 1.0, SPEC)


class TestRefinementAndErrorEstimates:
    def test_refinement_monotone_on_oracles(self):
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        oracle = 8.671882703345052  # closed-form oblate area of the c=0.5 level
        errs = []
        for ao in (16, 32):
            res = surface_integral(u, M, 0.5, lambda p: 1.0,
                                   QuadratureSpec(angular_orders=(ao,), level_order=4))
            errs.append(abs(res.value - oracle))
        assert errs[1] < errs[0]
        # observed convergence at least algebraic order 4 on doubling
        assert math.log2(errs[0] / errs[1]) >= 4.0

    def test_error_estimate_bounds_truth(self):
        # safety factor 10 on oracle-backed examples
        M = euclidean(3)
        uq = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        oracle = 8.671882703345052
        for ao in (16, 32, 64):
            res = surface_integral(uq, M, 0.5, lambda p: 1.0,
                                   QuadratureSpec(angular_orders=(ao,), level_order=4))
            assert abs(res.value - oracle) <= 10 * res.error_estimate
        us = RadialSquaredHalfField()
        res = surface_integral(us, M, 0.5, lambda p: 1.0, SPEC)
        assert abs(res.value - 4 * math.pi) <= 10 * res.error_estimate

    def test_error_estimate_nonnegative_and_nodes_positive(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        res = surface_integral(u, M, 0.5, lambda p: 1.0, SPEC)
        assert res.error_estimate >= 0
        assert res.node_count > 0


class TestDeterminism:
    def test_bit_identical_across_threads(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()

        def integrand(p):
            pf = principal_frame(hessian_frame(u, M, p), M, p)
            return sigma_elementary(pf.kappa, 1)

        r1 = surface_integral(u, M, 1.0, integrand, SPEC, threads=1)
        r4 = surface_integral(u, M, 1.0, integrand, SPEC, threads=4)
        assert r1.value == r4.value
        assert r1.error_estimate == r4.error_estimate
        c1 = coarea_volume_integral(u, M, (0.5, 1.0), integrand, SPEC, threads=1)
        c4 = coarea_volume_integral(u, M, (0.5, 1.0), integrand, SPEC, threads=4)
        assert c1.value == c4.value

    def test_repeat_runs_identical(self):
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        a = surface_integral(u, M, 0.5, lambda p: 1.0, SPEC).value
        b = surface_integral(u, M, 0.5, lambda p: 1.0, SPEC).value
        assert a == b

    def test_pairwise_sum_order_independent_of_layout(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=1000)
        assert pairwise_sum(vals) == pairwise_sum(list(vals))
