"""Tests for fields, covariant Hessians, principal frames, and the Reilly-type
identities with the div(T_r) contraction and its finite-difference oracle, on
node stacks."""

import math

import numpy as np
import pytest

from curvatura.errors import DegenerateGradientError
from curvatura.model_manifolds import (
    christoffel_stack,
    constant_curvature,
    euclidean,
    poly3_profile,
    radial_profile,
    warped,
)
from curvatura.level_set_geometry import (
    HessianData,
    OffCenterDistanceField,
    QuadraticFormField,
    RadialDistanceField,
    RadialSquaredHalfField,
    ScalarField,
    div_newton_fd_stack,
    div_newton_stack,
    hessian_frame,
    hessian_frame_stack,
    principal_frame_stack,
    reilly1_residual_stack,
    reilly2_sides_stack,
    sphere_direction,
)
from curvatura.symmetric_algebra import (
    binomial,
    eigh,
    elementary_all_stack,
    sigma_elementary,
    sigma_stack,
)
from oracles import hessian_frame_fd


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
        f, df, _ = radial_profile(M)
        for p in sample_points(M, 1, 4):
            hd = hessian_frame(u, M, p)
            kappa = df(p[0]) / f(p[0])
            w, _ = eigh(hd.hess_frame)
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
            fd = hessian_frame_fd(u, M, p, h=h).hess_frame
            errs.append(np.max(np.abs(fd - exact)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    @pytest.mark.parametrize("M,u", [
        (M, u) for M in (euclidean(3), constant_curvature(0.0, 4))
        for u in (RadialDistanceField(), RadialSquaredHalfField(),
                  RadialDistanceField(center=[0.1, -0.2] + [0.05] * (M.dim - 2)),
                  RadialSquaredHalfField(center=[0.0, 0.3] + [0.0] * (M.dim - 2)),
                  QuadraticFormField(np.diag(np.arange(1.0, M.dim + 1)), center=[0.1] * M.dim),
                  OffCenterDistanceField(0.3))
    ] + [
        (M, u) for M in (constant_curvature(-1.0, 2), constant_curvature(-1.0, 3),
                         constant_curvature(-0.5, 4), constant_curvature(-4.0, 5))
        for u in (RadialDistanceField(), RadialSquaredHalfField(),
                  OffCenterDistanceField(0.3), OffCenterDistanceField(1.0))
    ] + [(warped(poly3_profile(), 3), RadialDistanceField()),
         (warped(poly3_profile(), 4), RadialSquaredHalfField())],
        ids=lambda v: getattr(v, "label", getattr(v, "kind", None)))
    def test_closed_forms_match_the_fd_oracle(self, M, u):
        # every field's derivatives against central differences of its value
        # (measured at most 6e-9 in the gradient, 4.5e-8 in the Hessian)
        for p in sample_points(M, 3, 4):
            got, fd = hessian_frame(u, M, p), hessian_frame_fd(u, M, p, h=1e-4)
            scale = max(1.0, float(np.max(np.abs(got.hess_frame))))
            assert np.max(np.abs(got.grad_frame - fd.grad_frame)) <= 1e-7
            assert np.max(np.abs(got.hess_frame - fd.hess_frame)) <= 1e-6 * scale

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
    du, D2 = u.partials(M, p), u.second_partials(M, p)
    hess_chart = D2 - np.tensordot(du, christoffel_stack(M, p[None])[0], axes=([0], [0]))
    inv_sqrt = 1.0 / np.sqrt(np.ones(M.dim))
    hess_f = hess_chart * np.outer(inv_sqrt, inv_sqrt)
    grad_f = du * inv_sqrt
    return HessianData(grad_norm=float(np.linalg.norm(grad_f)),
                       hess_frame=0.5 * (hess_f + hess_f.T), frame_scale=inv_sqrt,
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


def frames(u, M, points):
    """hessian_frame_stack and principal_frame_stack of a list of points."""
    hd = hessian_frame_stack(u, M, np.array(points, dtype=float))
    return hd, principal_frame_stack(hd)


def sigmas(u, M, points, r):
    """sigma_r of the principal curvatures at every point."""
    return sigma_stack(elementary_all_stack(frames(u, M, points)[1].kappa), r)


class TestPrincipalFrame:
    def test_euclidean_sphere_curvatures(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        points = sample_points(M, 3, 5)
        _, pf = frames(u, M, points)
        for k, p in enumerate(points):
            rho = np.linalg.norm(p)
            np.testing.assert_allclose(pf.kappa[k], [1 / rho] * 2, rtol=1e-12)
        np.testing.assert_allclose(pf.grad_norm_derivs, 0.0, atol=1e-12)

    def test_hyperbolic_radial_coth(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        points = sample_points(M, 4, 5)
        _, pf = frames(u, M, points)
        for k, p in enumerate(points):
            np.testing.assert_allclose(pf.kappa[k], [1 / math.tanh(p[0])] * 2, rtol=1e-11)

    def test_ellipsoid_axis_point(self):
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        _, pf = frames(u, M, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(pf.frame[0, :, -1], [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(pf.kappa[0], [1.0, 4.0], rtol=1e-13)

    def test_principal_frame_structure(self):
        # u_i = 0 for i < n, u_n = |grad u|, off-diagonal u_ij = 0 for i,j < n
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.3)
        hd, pf = frames(u, M, sample_points(M, 5, 5))
        for k in range(5):
            F = pf.frame[k]
            Hp = F.T @ hd.hess_frame[k] @ F
            gp = F.T @ hd.grad_frame[k]
            assert np.max(np.abs(gp[:2])) <= 1e-10 * hd.grad_norm[k]
            assert gp[2] == pytest.approx(hd.grad_norm[k], rel=1e-12)
            assert abs(Hp[0, 1]) <= 1e-8 * max(1.0, np.max(np.abs(hd.hess_frame[k])))
            np.testing.assert_allclose(np.diag(Hp)[:2] / hd.grad_norm[k], pf.kappa[k],
                                       atol=1e-9)

    def test_sigma_r_frame_invariance(self):
        # sigma_r of the projected shape operator is basis-free on nu^perp
        M = euclidean(4)
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 4))
        u = QuadraticFormField(A @ A.T + 4 * np.eye(4))
        hd, pf = frames(u, M, sample_points(M, 7, 5))
        for k in range(5):
            nu = hd.grad_frame[k] / hd.grad_norm[k]
            X = rng.normal(size=(4, 3))
            X -= np.outer(nu, nu @ X)
            B, _ = np.linalg.qr(X)
            S = B.T @ hd.hess_frame[k] @ B / hd.grad_norm[k]
            w = np.linalg.eigvalsh(S)
            for r in range(4):
                a = sigma_elementary(pf.kappa[k], r)
                b = sigma_elementary(w, r)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_umbilic_stability(self):
        # spheres have a repeated eigenvalue; sigma_r must still be stable
        M = constant_curvature(-0.5, 4)
        u = RadialDistanceField()
        points = sample_points(M, 8, 6)
        s = math.sqrt(0.5)
        for r in range(4):
            # kappa depends only on the radius; compare against closed form
            for v, p in zip(sigmas(u, M, points, r), points):
                kap = s / math.tanh(s * p[0])
                assert v == pytest.approx(binomial(3, r) * kap ** r, rel=1e-10)

    def test_closed_form_mean_curvatures(self):
        # sigma_2 = 1/rho^2 on the sphere of radius 0.5, sigma_1 = 2 coth on
        # hyperbolic spheres, sigma_0 = 1
        assert sigmas(RadialSquaredHalfField(), euclidean(3), [[0.3, 0.4, 0.0]], 2)[0] \
            == pytest.approx(4.0, rel=1e-12)
        assert sigmas(RadialDistanceField(), constant_curvature(-1.0, 3),
                      [[0.8, 1.0, 0.2]], 1)[0] == pytest.approx(2 / math.tanh(0.8), rel=1e-12)
        assert sigmas(RadialDistanceField(), warped(poly3_profile(), 3),
                      [[1.0, 1.0, 1.0]], 0)[0] == 1.0

    def test_degenerate_gradient_refused(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        with pytest.raises(DegenerateGradientError):
            frames(u, M, [[1e-10, 0.0, 0.0]])

    def test_grad_norm_derivs_match_fd(self):
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.4)
        p = np.array([1.1, 0.9, 0.5])
        hd, pf = frames(u, M, [p])
        h = 1e-4
        for i in range(2):
            d = hd.frame_scale[0] * pf.frame[0, :, i]  # chart components
            gp = hessian_frame(u, M, p + h * d).grad_norm
            gm = hessian_frame(u, M, p - h * d).grad_norm
            fd = (gp - gm) / (2 * h)
            assert abs(fd - pf.grad_norm_derivs[0, i]) <= 5e-4


def hexed(a):
    return [float(x).hex() for x in np.asarray(a).ravel()]


class TestLazyFrames:
    """principal_frame_stack forms the frames and the |grad u| derivatives
    when they are first read, and keeps them."""

    CASES = [(RadialDistanceField(), constant_curvature(-1.0, 4)),       # nothing rotates
             (QuadraticFormField(np.diag([1.0, 2.0, 4.0])), euclidean(3)),
             (OffCenterDistanceField(0.3), constant_curvature(-1.0, 3))]

    @pytest.mark.parametrize("case", range(3))
    def test_reading_kappa_leaves_the_frames_unformed(self, case):
        u, M = self.CASES[case]
        _, pf = frames(u, M, sample_points(M, 20 + case, 16))
        assert pf.kappa.shape == (16, M.dim - 1)
        assert not {"_directions", "frame", "grad_norm_derivs"} & set(vars(pf))
        pf.frame
        assert {"_directions", "frame"} <= set(vars(pf))
        assert "grad_norm_derivs" not in vars(pf)

    @pytest.mark.parametrize("case", range(3))
    def test_frames_read_later_equal_frames_read_at_once(self, case):
        # one record reads both at once; the other reads kappa, waits while
        # other stacks form their frames, then reads them in the other order
        u, M = self.CASES[case]
        P = sample_points(M, 30 + case, 16)
        _, eager = frames(u, M, P)
        frame, derivs = hexed(eager.frame), hexed(eager.grad_norm_derivs)
        _, late = frames(u, M, P)
        kappa = hexed(late.kappa)
        for seed in range(3):
            hexed(frames(u, M, sample_points(M, seed, 16))[1].frame)
        assert hexed(late.grad_norm_derivs) == derivs
        assert hexed(late.frame) == frame
        assert hexed(late.kappa) == kappa == hexed(eager.kappa)
        assert late.frame is late.frame

    def test_a_radial_mean_curvature_forms_no_frame(self, monkeypatch):
        from curvatura import level_set_geometry
        from curvatura.curvature_integrals import (
            comparison_rhs,
            comparison_rhs_constant,
            total_mean_curvature,
        )
        from curvatura.quadrature import QuadratureSpec
        formed = []
        form = level_set_geometry.PrincipalFrameData._directions.func
        monkeypatch.setattr(level_set_geometry.PrincipalFrameData, "_directions",
                            property(lambda pf: formed.append(1) or form(pf)))
        M, u = constant_curvature(-1.0, 4), RadialDistanceField()
        spec = QuadratureSpec(angular_orders=(4,), level_order=2)
        for r in range(4):
            total_mean_curvature(u, M, 0.8, r, spec)
            total_mean_curvature(u, M, [0.5, 1.0], r, spec)
            comparison_rhs_constant(u, M, (0.5, 1.0), r, spec)
        assert formed == []
        # the general path reads the frames of its coarea rule only
        comparison_rhs(u, M, (0.5, 1.0), 1, spec)
        assert len(formed) == 2     # frame, then grad_norm_derivs


def reilly2_residuals(u, M, points, r):
    lhs, rhs = reilly2_sides_stack(u, M, np.array(points), r)
    return np.abs(lhs - rhs)


class TestReilly2:
    def test_euclidean_closed_form(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        for r in range(3):
            assert np.max(reilly2_residuals(u, M, sample_points(M, 9, 10), r)) <= 1e-12

    def test_random_quadratics_n4(self):
        M = euclidean(4)
        rng = np.random.default_rng(10)
        A = rng.normal(size=(4, 4))
        u = QuadraticFormField(A @ A.T + 5 * np.eye(4))
        for r in range(4):
            assert np.max(reilly2_residuals(u, M, sample_points(M, 11, 100), r)) < 1e-9

    def test_r0_exact(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        assert reilly2_residuals(u, M, [[1.0, 1.2, 0.1]], 0)[0] <= 1e-14


class NaNPartialsPast(RadialSquaredHalfField):
    """u = |x|^2 / 2 whose analytic partials are NaN where x0 > edge."""

    def __init__(self, edge):
        super().__init__()
        self.edge = edge

    def partials_stack(self, M, P):
        du = super().partials_stack(M, P)
        return np.where(np.asarray(P)[:, :1] > self.edge, np.nan, du)


def div_newton(u, M, points, r):
    P = np.array(points, dtype=float)
    return div_newton_stack(M, P, hessian_frame_stack(u, M, P), r)


def div_newton_fd(u, M, points, r, h):
    P = np.array(points, dtype=float)
    return div_newton_fd_stack(u, M, P, hessian_frame_stack(u, M, P), r, h)


class TestDivNewton:
    def test_euclidean_zero(self):
        M = euclidean(4)
        rng = np.random.default_rng(12)
        A = rng.normal(size=(4, 4))
        u = QuadraticFormField(A @ A.T + 5 * np.eye(4))
        for r in range(1, 4):
            assert np.max(np.abs(div_newton(u, M, sample_points(M, 13, 5), r))) <= 1e-12

    def test_constant_curvature_radial_closed_form(self):
        # <div T_r, grad u>/|grad u|^{r+1} = -a (n - r) sigma_{r-1}(kappa)
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        points = sample_points(M, 14, 5)
        hd, pf = frames(u, M, points)
        for r in (1, 2):
            dn = div_newton(u, M, points, r)
            for k in range(5):
                got = float(dn[k] @ hd.grad_frame[k]) / hd.grad_norm[k] ** (r + 1)
                expected = (3 - r) * sigma_elementary(pf.kappa[k], r - 1)
                assert got == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("make,field", [
        (lambda: constant_curvature(-1.0, 3), RadialDistanceField),
        (lambda: warped(poly3_profile(), 3), RadialDistanceField),
        (lambda: warped(poly3_profile(), 3), RadialSquaredHalfField),
    ])
    def test_matches_fd_oracle(self, make, field):
        M = make()
        u = field()
        points = sample_points(M, 15, 3)
        for r in (1, 2):
            dn = div_newton(u, M, points, r)
            fd = div_newton_fd(u, M, points, r, h=1e-3)
            for k in range(3):
                scale = max(1.0, np.max(np.abs(dn[k])))
                assert np.max(np.abs(dn[k] - fd[k])) <= 5e-5 * scale

    def test_fd_oracle_order(self):
        M = warped(poly3_profile(), 3)
        u = RadialDistanceField()
        p = [[0.9, 1.1, 0.4]]
        dn = div_newton(u, M, p, 1)
        errs = [np.max(np.abs(dn - div_newton_fd(u, M, p, 1, h=h))) for h in (4e-3, 2e-3)]
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_requires_r_at_least_one(self):
        with pytest.raises(ValueError):
            div_newton(RadialDistanceField(), euclidean(3), [[1.0, 0.0, 0.0]], 0)

    def test_nan_gradient_raises(self):
        u = NaNPartialsPast(0.0)
        with pytest.raises(DegenerateGradientError):
            div_newton(u, euclidean(3), [[0.6, 0.5, 0.4]], 1)


def reilly1_residual(u, M, p, r, hs):
    return reilly1_residual_stack(u, M, np.array([p], dtype=float), r, hs)[:, 0]


class TestReilly1:
    def test_euclidean_closed_form(self):
        # div(x/|x|) = (n-1)/|x|; residual only from the FD truncation
        M = euclidean(3)
        u = RadialSquaredHalfField()
        assert reilly1_residual(u, M, [0.6, 0.5, 0.4], 1, (1e-3,))[0] < 1e-5

    def test_hyperbolic_richardson(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        r_h, r_h2 = reilly1_residual(u, M, [0.9, 1.0, 0.3], 2, (2e-3, 1e-3))
        assert 3.3 <= r_h / r_h2 <= 4.7

    def test_flat_mean_curvature_identity(self):
        # r = 1 in flat space: div(grad u/|grad u|) = sigma_1(kappa)
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 2.0, 3.0]))
        assert reilly1_residual(u, M, [0.7, 0.5, 0.6], 1, (5e-4,))[0] < 1e-5

    def test_degenerate_gradient_raises(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        with pytest.raises(DegenerateGradientError):
            reilly1_residual(u, M, [0.0, 0.0, 0.0], 1, (1e-3,))

    def test_nan_gradient_in_the_stencil_raises(self):
        # the centre is regular; the +x0 stencil point is not
        u = NaNPartialsPast(0.6)
        with pytest.raises(DegenerateGradientError, match="stencil"):
            reilly1_residual(u, euclidean(3), [0.6, 0.5, 0.4], 1, (1e-3,))


class TestFields:
    def test_check_accepts_the_models_a_field_can_live_on(self):
        E3, H3, poly3 = euclidean(3), constant_curvature(-1.0, 3), warped(poly3_profile(), 3)
        for M in (E3, H3, poly3):
            ScalarField().check(M)
            RadialDistanceField().check(M)
            RadialSquaredHalfField(center=[0.0, 0.0, 0.0]).check(M)
        RadialDistanceField(center=[0.3, 0.0, 0.0]).check(E3)
        QuadraticFormField(np.diag([1.0, 1.0, 4.0]), center=[0.0, 0.1, 0.0]).check(E3)
        OffCenterDistanceField(0.3).check(E3)
        OffCenterDistanceField(0.3).check(H3)

    def test_check_refuses_the_models_a_field_cannot_live_on(self):
        E3, H3, poly3 = euclidean(3), constant_curvature(-1.0, 3), warped(poly3_profile(), 3)
        for M in (H3, poly3):
            with pytest.raises(ValueError, match="center must be zero"):
                RadialDistanceField(center=[0.3, 0.0, 0.0]).check(M)
            with pytest.raises(ValueError, match="center must be zero"):
                RadialSquaredHalfField(center=[0.0, 0.0, -0.2]).check(M)
            with pytest.raises(ValueError, match="Cartesian-chart only"):
                QuadraticFormField(np.eye(3)).check(M)
        with pytest.raises(ValueError, match="manifold dim is 3"):
            QuadraticFormField(np.eye(2)).check(E3)
        with pytest.raises(ValueError, match="non-constant warped"):
            OffCenterDistanceField(0.3).check(poly3)

    @pytest.mark.parametrize("make", [RadialDistanceField, RadialSquaredHalfField])
    def test_polar_branches_check_a_radial_centre(self, make):
        # the polar branches ignore the centre, so they refuse a nonzero one
        M = constant_curvature(-1.0, 3)
        u = make(center=[0.3, 0.0, 0.0])
        P = np.array([[0.8, 1.0, 2.0]])
        for call in (lambda: u.value(M, P[0]), lambda: u.partials_stack(M, P),
                     lambda: u.second_partials_stack(M, P)):
            with pytest.raises(ValueError, match="center must be zero"):
                call()

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
            assert hd.grad_norm == pytest.approx(1.0, abs=1e-12)

    def test_offcenter_triangle_inequality_consistency(self):
        # on the axis through the center the distance is |r - offset|
        M = constant_curvature(-1.0, 3)
        u = OffCenterDistanceField(0.3)
        p = np.array([1.0, 1e-9, 0.0])     # polar angle ~ 0: along the center axis
        assert u.value(M, p) == pytest.approx(0.7, abs=1e-7)

    def test_quadratic_requires_spd(self):
        with pytest.raises(ValueError):
            QuadraticFormField(np.diag([1.0, -1.0, 2.0]))

    def test_quadratic_derivatives_use_the_symmetrized_q(self):
        # an asymmetry under the constructor's tolerance: the gradient is
        # sym(Q) x, the matrix the eigenvalues come from
        Q = np.diag([1.0, 2.0, 3.0])
        Q[0, 1] = 5e-13
        u, M = QuadraticFormField(Q), euclidean(3)
        x = np.ones(3)
        sym = 0.5 * (Q + Q.T)
        assert np.array_equal(u.partials(M, x), sym @ x)
        assert np.array_equal(u.second_partials(M, x), sym)

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadratic_reach_is_the_farthest_sampled_point(self, n):
        rng = np.random.default_rng(80 + n)
        if n == 2:
            t = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
            Z = np.column_stack((np.cos(t), np.sin(t)))
        else:
            Z = rng.normal(size=(400_000, 3))
            Z /= np.linalg.norm(Z, axis=1)[:, None]
        A = rng.normal(size=(n, n))
        cases = [(A @ A.T + 0.2 * np.eye(n), rng.normal(size=n)),
                 (A @ A.T + 0.2 * np.eye(n), 4.0 * rng.normal(size=n)),
                 (np.diag([1.0] + [4.0] * (n - 1)), None),
                 # centre along the longest axis, and across it
                 (np.diag([1.0] + [4.0] * (n - 1)), np.eye(n)[0]),
                 (np.diag([1.0] + [4.0] * (n - 1)), 0.5 * np.eye(n)[1]),
                 (np.eye(n), np.full(n, 0.7))]
        for Q, center in cases:
            u = QuadraticFormField(Q, center=center)
            for level in (0.3, 2.5):
                lam, V = np.linalg.eigh(Q)
                X = (Z * np.sqrt(2.0 * level / lam)) @ V.T
                if center is not None:
                    X = X + center
                far = np.linalg.norm(X, axis=1).max()
                # no sampled point beyond the reach (to rounding), none far short of it
                assert far * (1.0 - 1e-13) <= u.reach(level) <= far * (1.0 + 1e-4), \
                    (Q, center, level)
