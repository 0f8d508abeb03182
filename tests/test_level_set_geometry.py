"""Tests for fields, covariant Hessians, principal frames, and the pointwise
Reilly-type identities."""

import math

import numpy as np
import pytest

from curvatura.errors import DegenerateGradientError
from curvatura.model_manifolds import (
    christoffel_at,
    constant_curvature,
    euclidean,
    poly3_profile,
    sphere_data,
    warped,
)
from curvatura.level_set_geometry import (
    HessianData,
    OffCenterDistanceField,
    QuadraticFormField,
    RadialDistanceField,
    RadialSquaredHalfField,
    div_newton_fd,
    _fd_partials,
    div_newton_frame,
    fd_steps,
    field_from_spec,
    hessian_frame,
    level_mean_curvature,
    principal_frame,
    reilly1_residual,
    reilly2_residual,
    sphere_direction,
)
from curvatura.symmetric_algebra import binomial, jacobi_eigh, sigma_elementary


def sample_points(M, seed, count):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        r = rng.uniform(0.6, 1.4)
        angles = [rng.uniform(0.5, math.pi - 0.5) for _ in range(M.dim - 2)]
        angles.append(rng.uniform(0, 2 * math.pi))
        if M.chart == "polar":
            pts.append(np.array([r] + angles))
        else:
            pts.append(r * sphere_direction(angles))
    return pts


class TestHessianFrame:
    def test_euclidean_radial_sq_is_identity(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        for p in sample_points(M, 0, 5):
            hd = hessian_frame(u, M, p)
            np.testing.assert_allclose(hd.hess_frame, np.eye(3), atol=1e-14)
            assert hd.grad_norm == pytest.approx(np.linalg.norm(p), rel=1e-13)

    @pytest.mark.parametrize("make", [lambda: constant_curvature(-1.0, 3),
                                      lambda: warped(poly3_profile(), 4)])
    def test_radial_distance_hessian_eigenvalues(self, make):
        # level sets are geodesic spheres: Hessian spectrum is {0, f'/f}
        M = make()
        u = RadialDistanceField()
        for p in sample_points(M, 1, 4):
            hd = hessian_frame(u, M, p)
            kappa, _ = sphere_data(M, p[0])
            w, _ = jacobi_eigh(hd.hess_frame)
            expected = np.array([0.0] + [kappa] * (M.dim - 1))
            np.testing.assert_allclose(np.sort(w), np.sort(expected), atol=1e-11)

    def test_fd_matches_analytic_at_order_two(self):
        # Richardson: halving h divides the FD-vs-analytic gap by ~4.
        # The field must not be polynomial in the chart (central differences
        # are exact on quadratics), so use the Euclidean distance field.
        M = euclidean(3)
        u = RadialDistanceField()
        p = np.array([0.9, 1.1, 0.7])
        exact = hessian_frame(u, M, p).hess_frame
        errs = []
        for h in (2e-3, 1e-3, 5e-4):
            fd = hessian_frame(u, M, p, h=h, use_fd=True).hess_frame
            errs.append(np.max(np.abs(fd - exact)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_gradient_norm_consistency(self):
        M = warped(poly3_profile(), 3)
        u = RadialSquaredHalfField()
        for p in sample_points(M, 2, 5):
            hd = hessian_frame(u, M, p)
            # |grad u| for u = r^2/2 is r
            assert hd.grad_norm == pytest.approx(p[0], rel=1e-13)


def hessian_frame_christoffel_form(u, M, p):
    """hessian_frame on a Cartesian chart (unit metric), with the
    Christoffel contraction made as on polar charts; the symbols are zero."""
    p = np.asarray(p, dtype=float)
    if u.analytic:
        val, du, D2 = u.value(M, p), u.partials(M, p), u.second_partials(M, p)
    else:
        h = 1e-4 * (1.0 + float(np.linalg.norm(p)))
        val, du, D2 = _fd_partials(u, M, p, fd_steps(M, p, h))
    hess_chart = D2 - np.tensordot(du, christoffel_at(M, p), axes=([0], [0]))
    inv_sqrt = 1.0 / np.sqrt(np.ones(M.dim))
    hess_f = hess_chart * np.outer(inv_sqrt, inv_sqrt)
    grad_f = du * inv_sqrt
    return HessianData(value=float(val), grad=du / np.ones(M.dim),
                       grad_norm=float(np.linalg.norm(grad_f)),
                       hess_frame=0.5 * (hess_f + hess_f.T), frame=np.diag(inv_sqrt),
                       grad_frame=grad_f)


class TestCartesianHessianBits:
    @pytest.mark.parametrize("M", [euclidean(n) for n in range(2, 7)]
                             + [constant_curvature(0.0, 3)],
                             ids=lambda M: f"{M.label}-{M.dim}")
    def test_matches_christoffel_form(self, M):
        n = M.dim
        rng = np.random.default_rng(40 + n)
        A = rng.normal(size=(n, n))
        Q = A @ A.T + n * np.eye(n)
        Q[0, n - 1] = Q[n - 1, 0] = -0.0
        fields = [RadialSquaredHalfField(), RadialDistanceField(),
                  RadialDistanceField(center=rng.normal(size=n) * 0.1),
                  QuadraticFormField(Q), QuadraticFormField(Q, center=-0.1 * np.ones(n)),
                  OffCenterDistanceField(0.3)]
        points = sample_points(M, 41, 6)
        points += [np.where(np.arange(n) % 2 == 0, -0.7, 0.0), -np.eye(n)[n - 1]]
        for u in fields:
            for p in points:
                got, ref = hessian_frame(u, M, p), hessian_frame_christoffel_form(u, M, p)
                for name in HessianData.__dataclass_fields__:
                    assert (np.asarray(getattr(got, name)).tobytes()
                            == np.asarray(getattr(ref, name)).tobytes()), (u.kind, name)


class TestPrincipalFrame:
    def test_euclidean_sphere_curvatures(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        for p in sample_points(M, 3, 5):
            hd = hessian_frame(u, M, p)
            pf = principal_frame(hd, M, p)
            rho = np.linalg.norm(p)
            np.testing.assert_allclose(pf.kappa, [1 / rho] * 2, rtol=1e-12)
            np.testing.assert_allclose(pf.grad_norm_derivs, 0.0, atol=1e-12)

    def test_hyperbolic_radial_coth(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        for p in sample_points(M, 4, 5):
            pf = principal_frame(hessian_frame(u, M, p), M, p)
            np.testing.assert_allclose(pf.kappa, [1 / math.tanh(p[0])] * 2, rtol=1e-11)

    def test_ellipsoid_axis_point(self):
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        p = np.array([1.0, 0.0, 0.0])
        pf = principal_frame(hessian_frame(u, M, p), M, p)
        np.testing.assert_allclose(pf.nu, [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(pf.kappa, [1.0, 4.0], rtol=1e-13)

    def test_principal_frame_structure(self):
        # u_i = 0 for i < n, u_n = |grad u|, off-diagonal u_ij = 0 for i,j < n
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.3)
        for p in sample_points(M, 5, 5):
            hd = hessian_frame(u, M, p)
            pf = principal_frame(hd, M, p)
            F_inv_cols = np.linalg.solve(hd.frame, pf.frame_chart)  # frame comps
            Hp = F_inv_cols.T @ hd.hess_frame @ F_inv_cols
            gp = F_inv_cols.T @ hd.grad_frame
            assert np.max(np.abs(gp[:2])) <= 1e-10 * hd.grad_norm
            assert gp[2] == pytest.approx(hd.grad_norm, rel=1e-12)
            assert abs(Hp[0, 1]) <= 1e-8 * max(1.0, np.max(np.abs(hd.hess_frame)))
            np.testing.assert_allclose(np.diag(Hp)[:2] / hd.grad_norm, pf.kappa,
                                       atol=1e-9)

    def test_sigma_r_frame_invariance(self):
        # sigma_r of the projected shape operator is basis-free on nu^perp
        M = euclidean(4)
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 4))
        u = QuadraticFormField(A @ A.T + 4 * np.eye(4))
        for p in sample_points(M, 7, 5):
            hd = hessian_frame(u, M, p)
            pf = principal_frame(hd, M, p)
            nu = hd.grad_frame / hd.grad_norm
            X = rng.normal(size=(4, 3))
            X -= np.outer(nu, nu @ X)
            B, _ = np.linalg.qr(X)
            S = B.T @ hd.hess_frame @ B / hd.grad_norm
            w = np.linalg.eigvalsh(S)
            for r in range(4):
                a = sigma_elementary(pf.kappa, r)
                b = sigma_elementary(w, r)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_umbilic_stability(self):
        # spheres have a repeated eigenvalue; sigma_r must still be stable
        M = constant_curvature(-0.5, 4)
        u = RadialDistanceField()
        vals = {}
        for p in sample_points(M, 8, 6):
            pf = principal_frame(hessian_frame(u, M, p), M, p)
            for r in range(4):
                vals.setdefault(r, []).append(sigma_elementary(pf.kappa, r))
        s = math.sqrt(0.5)
        for r, seq in vals.items():
            # kappa depends only on the radius; compare against closed form
            for v, p in zip(seq, sample_points(M, 8, 6)):
                kap = s / math.tanh(s * p[0])
                assert v == pytest.approx(binomial(3, r) * kap ** r, rel=1e-10)

    def test_degenerate_gradient_refused(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        hd = hessian_frame(u, M, np.array([1e-10, 0.0, 0.0]))
        with pytest.raises(DegenerateGradientError):
            principal_frame(hd, M, np.array([1e-10, 0.0, 0.0]))

    def test_grad_norm_derivs_match_fd(self):
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.4)
        p = np.array([1.1, 0.9, 0.5])
        hd = hessian_frame(u, M, p)
        pf = principal_frame(hd, M, p)
        h = 1e-4
        for i in range(2):
            d = pf.directions[:, i]
            gp = hessian_frame(u, M, p + h * d).grad_norm
            gm = hessian_frame(u, M, p - h * d).grad_norm
            fd = (gp - gm) / (2 * h)
            assert abs(fd - pf.grad_norm_derivs[i]) <= 5e-4


class TestLevelMeanCurvature:
    def test_euclidean_sphere(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        p = np.array([0.3, 0.4, 0.0])
        assert level_mean_curvature(u, M, p, 2) == pytest.approx(4.0, rel=1e-12)

    def test_hyperbolic_mean(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        p = np.array([0.8, 1.0, 0.2])
        assert level_mean_curvature(u, M, p, 1) == pytest.approx(
            2 / math.tanh(0.8), rel=1e-12)

    def test_r0_is_one(self):
        M = warped(poly3_profile(), 3)
        u = RadialDistanceField()
        assert level_mean_curvature(u, M, np.array([1.0, 1.0, 1.0]), 0) == 1.0


class TestReilly2:
    def test_euclidean_closed_form(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        for p in sample_points(M, 9, 10):
            for r in range(3):
                assert reilly2_residual(u, M, p, r) <= 1e-12

    def test_random_quadratics_n4(self):
        M = euclidean(4)
        rng = np.random.default_rng(10)
        A = rng.normal(size=(4, 4))
        u = QuadraticFormField(A @ A.T + 5 * np.eye(4))
        for p in sample_points(M, 11, 100):
            for r in range(4):
                assert reilly2_residual(u, M, p, r) < 1e-9

    def test_r0_exact(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        p = np.array([1.0, 1.2, 0.1])
        assert reilly2_residual(u, M, p, 0) <= 1e-14


class TestDivNewton:
    def test_euclidean_zero(self):
        M = euclidean(4)
        rng = np.random.default_rng(12)
        A = rng.normal(size=(4, 4))
        u = QuadraticFormField(A @ A.T + 5 * np.eye(4))
        for p in sample_points(M, 13, 5):
            for r in range(1, 4):
                assert np.max(np.abs(div_newton_frame(u, M, p, r))) <= 1e-12

    def test_constant_curvature_radial_closed_form(self):
        # <div T_r, grad u>/|grad u|^{r+1} = -a (n - r) sigma_{r-1}(kappa)
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        for p in sample_points(M, 14, 5):
            hd = hessian_frame(u, M, p)
            pf = principal_frame(hd, M, p)
            for r in (1, 2):
                dn = div_newton_frame(u, M, p, r)
                got = float(dn @ hd.grad_frame) / hd.grad_norm ** (r + 1)
                expected = (3 - r) * sigma_elementary(pf.kappa, r - 1)
                assert got == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("make,field", [
        (lambda: constant_curvature(-1.0, 3), RadialDistanceField),
        (lambda: warped(poly3_profile(), 3), RadialDistanceField),
        (lambda: warped(poly3_profile(), 3), RadialSquaredHalfField),
    ])
    def test_matches_fd_oracle(self, make, field):
        M = make()
        u = field()
        for p in sample_points(M, 15, 3):
            for r in (1, 2):
                dn = div_newton_frame(u, M, p, r)
                fd = div_newton_fd(u, M, p, r, h=1e-3)
                scale = max(1.0, np.max(np.abs(dn)))
                assert np.max(np.abs(dn - fd)) <= 5e-5 * scale

    def test_fd_oracle_order(self):
        M = warped(poly3_profile(), 3)
        u = RadialDistanceField()
        p = np.array([0.9, 1.1, 0.4])
        dn = div_newton_frame(u, M, p, 1)
        errs = [np.max(np.abs(dn - div_newton_fd(u, M, p, 1, h=h)))
                for h in (4e-3, 2e-3)]
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_requires_r_at_least_one(self):
        with pytest.raises(ValueError):
            div_newton_frame(RadialDistanceField(), euclidean(3),
                             np.array([1.0, 0.0, 0.0]), 0)


class TestReilly1:
    def test_euclidean_closed_form(self):
        # div(x/|x|) = (n-1)/|x|; residual only from the FD truncation
        M = euclidean(3)
        u = RadialSquaredHalfField()
        p = np.array([0.6, 0.5, 0.4])
        assert reilly1_residual(u, M, p, 1, 1e-3) < 1e-5

    def test_hyperbolic_richardson(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        p = np.array([0.9, 1.0, 0.3])
        r_h = reilly1_residual(u, M, p, 2, 2e-3)
        r_h2 = reilly1_residual(u, M, p, 2, 1e-3)
        assert 3.3 <= r_h / r_h2 <= 4.7

    def test_flat_mean_curvature_identity(self):
        # r = 1 in flat space: div(grad u/|grad u|) = sigma_1(kappa)
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 2.0, 3.0]))
        p = np.array([0.7, 0.5, 0.6])
        assert reilly1_residual(u, M, p, 1, 5e-4) < 1e-5

    def test_degenerate_gradient_raises(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        with pytest.raises(DegenerateGradientError):
            reilly1_residual(u, M, np.array([0.0, 0.0, 0.0]), 1, 1e-3)


class TestFields:
    def test_field_from_spec(self):
        M = euclidean(3)
        u = field_from_spec({"field": "quadratic", "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 4]]}, M)
        assert isinstance(u, QuadraticFormField)
        with pytest.raises(ValueError):
            field_from_spec({"field": "nope"}, M)
        with pytest.raises(ValueError):
            field_from_spec({"field": "quadratic"}, M)

    def test_offcenter_requires_constant_family(self):
        with pytest.raises(ValueError):
            field_from_spec({"field": "offcenter", "offset": 0.3},
                            warped(poly3_profile(), 3))

    def test_offcenter_euclidean_matches_shifted_radial(self):
        M = euclidean(3)
        u = OffCenterDistanceField(0.3)
        p = np.array([1.0, 0.4, -0.2])
        expected = np.linalg.norm(p - np.array([0.3, 0, 0]))
        assert u.value(M, p) == pytest.approx(expected, rel=1e-14)

    def test_offcenter_hyperbolic_gradient_is_unit(self):
        # distance functions have |grad u| = 1
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.3)
        for p in sample_points(M, 16, 5):
            hd = hessian_frame(u, M, p)
            assert hd.grad_norm == pytest.approx(1.0, abs=1e-7)

    def test_offcenter_triangle_inequality_consistency(self):
        # on the axis through the center the distance is |r - offset|
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.3)
        p = np.array([1.0, 1e-9, 0.0])     # polar angle ~ 0: along the center axis
        assert u.value(M, p) == pytest.approx(0.7, abs=1e-7)

    def test_quadratic_requires_spd(self):
        with pytest.raises(ValueError):
            QuadraticFormField(np.diag([1.0, -1.0, 2.0]))

    def test_radial_star_radius(self):
        assert RadialDistanceField().star_radius(1.3) == 1.3
        assert RadialSquaredHalfField().star_radius(0.5) == pytest.approx(1.0)
        assert QuadraticFormField(np.eye(3)).star_radius(0.5) is None
