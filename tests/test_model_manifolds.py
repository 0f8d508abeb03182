"""Tests for the model manifold families: chart tensors against
finite-difference oracles, curvature symmetries and signs, and geodesic
sphere closed forms."""

import math
import re
import warnings

import numpy as np
import pytest

import curvatura.model_manifolds as model_manifolds
from curvatura.errors import ChartSingularityError
from curvatura.model_manifolds import (
    WarpingProfile,
    chart_stack,
    christoffel_stack,
    constant_curvature,
    euclidean,
    linear_profile,
    poly3_profile,
    riemann_stack,
    scaled_sinh_profile,
    sinh_profile,
    sphere_total_mean_curvature,
    unit_sphere_volume,
    warped,
)
from oracles import metric_at, metric_diagonal


def christoffel_one(M, p):
    """christoffel_stack at one point."""
    return christoffel_stack(M, np.asarray(p, dtype=float)[None])[0]


def riemann_one(M, p, frame):
    """riemann_stack at one point, as the CurvatureTensorData of that node."""
    rd = riemann_stack(M, np.asarray(p, dtype=float)[None], np.asarray(frame, dtype=float)[None])
    return type(rd)(R=rd.R[0], K=rd.K[0], ricci_n=rd.ricci_n[0])


def fd_christoffel(M, p, h):
    """Finite-difference Levi-Civita symbols from metric_at (test oracle)."""
    n = M.dim
    p = np.asarray(p, dtype=float)
    dg = np.zeros((n, n, n))  # dg[k] = d_k g
    for k in range(n):
        q = p.copy(); q[k] += h
        gp = metric_at(M, q)
        q = p.copy(); q[k] -= h
        gm = metric_at(M, q)
        dg[k] = (gp - gm) / (2 * h)
    ginv = np.linalg.inv(metric_at(M, p))
    G = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                G[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                    for l in range(n))
    return G


def orthonormal_frame(M, p):
    """The metric-factorization frame in its own components: the identity."""
    return np.eye(M.dim)


SAMPLE_POINTS = {
    3: [np.array([0.8, 0.9, 0.3]), np.array([1.4, 2.2, 5.1]), np.array([0.5, 1.5708, 1.0])],
    4: [np.array([0.8, 0.9, 1.2, 0.3]), np.array([1.2, 2.0, 0.7, 4.0])],
}


class TestMetric:
    def test_euclidean_identity(self):
        M = euclidean(3)
        np.testing.assert_array_equal(metric_at(M, [0.3, -1.0, 2.0]), np.eye(3))

    def test_linear_profile_is_flat_polar(self):
        M = warped(linear_profile(), 3)
        p = np.array([1.3, 0.7, 2.0])
        expected = np.diag([1.0, 1.3 ** 2, (1.3 * math.sin(0.7)) ** 2])
        np.testing.assert_allclose(metric_at(M, p), expected, rtol=1e-14)

    def test_sinh_polar_n2(self):
        M = warped(sinh_profile(), 2)
        np.testing.assert_allclose(metric_at(M, [1.0, 0.4]),
                                   np.diag([1.0, math.sinh(1.0) ** 2]), rtol=1e-14)

    @pytest.mark.parametrize("M", [euclidean(4), constant_curvature(-1.0, 4),
                                   warped(poly3_profile(), 4), warped(sinh_profile(), 2)],
                             ids=lambda M: f"{M.label}-{M.dim}")
    def test_chart_stack_rows_are_the_pointwise_chart(self, M):
        rng = np.random.default_rng(5)
        n = M.dim
        P = np.column_stack([rng.uniform(0.1, 3.0, 9)] + [rng.uniform(0.2, 2.9, 9)] * (n - 2)
                            + [rng.uniform(0.0, 6.2, 9)])
        chart = chart_stack(M, P)
        for k, p in enumerate(P):
            np.testing.assert_allclose(chart.D[k], metric_diagonal(M, p), rtol=1e-15, atol=0)
            assert chart.D[k].tobytes() == chart_stack(M, P[k:k + 1]).D[0].tobytes()
        if M.chart == "polar":
            # each row against its point as a one-row stack: a numpy scalar
            # power (np.float64 ** k) need not give the bits of an array's
            prof = M.profile
            for k in range(len(P)):
                one = P[k:k + 1, 0]
                assert chart.f[k:k + 1].tobytes() == prof.f(one).tobytes()
                assert chart.df[k:k + 1].tobytes() == prof.df(one).tobytes()
            for k in range(len(P)):
                one = christoffel_stack(M, P[k:k + 1])[0]
                assert one.tobytes() == christoffel_stack(M, P, chart)[k].tobytes()
        else:
            assert chart.f is None and chart.df is None

    @pytest.mark.parametrize("M", [constant_curvature(-1.0, 5), warped(poly3_profile(), 4),
                                   warped(sinh_profile(), 2)],
                             ids=lambda M: f"{M.label}-{M.dim}")
    def test_the_chart_of_a_slice_is_the_slice_of_the_chart(self, M):
        # a stack's chart, sliced at any split, has the bits of the chart
        # of the slice alone
        rng = np.random.default_rng(8)
        n = M.dim
        P = np.column_stack([rng.choice([0.5, 1.2], 24)]
                            + [rng.choice([0.3, 1.1, 2.5], 24) for _ in range(n - 2)]
                            + [rng.uniform(0.0, 6.2, 24)])

        def bits(chart):
            return [[x.hex() for x in a.ravel().tolist()]
                    for a in (chart.D, chart.f, chart.df, *model_manifolds._log_derivatives(chart))]

        whole = bits(chart_stack(M, P))
        for lo, hi in ((0, 24), (0, 7), (7, 24), (13, 14)):
            # the rows of the whole stack's chart (D holds n entries per row)
            assert bits(chart_stack(M, P[lo:hi])) == [col[lo * len(col) // 24:hi * len(col) // 24]
                                                     for col in whole]

    def test_chart_stack_refuses_the_first_node_off_the_chart(self):
        M = constant_curvature(-1.0, 3)
        with pytest.raises(ChartSingularityError, match="node 1: polar chart is singular"):
            chart_stack(M, np.array([[0.8, 0.9, 0.3], [1.0, 0.0, 0.5], [0.0, 1.0, 1.0]]))

    @pytest.mark.parametrize("bad,detail", [
        ([0.0, 1.0, 1.0, 0.5], "polar chart is singular at r=0"),
        ([-0.5, 0.0, 1.0, 0.5], "polar chart is singular at r=-0.5"),
        ([11.0, 1.0, math.pi, 0.5], "r=11 exceeds the working radius 10"),
        ([1.0, 0.0, 1.0, 0.5], "polar chart is singular on the axis (angle 1)"),
        ([1.0, 1.0, math.pi, 0.5], "polar chart is singular on the axis (angle 2)"),
        # NaN is off the chart too: a radius or polar angle, and an infinite angle
        ([math.nan, 1.0, 1.0, 0.5], "polar chart is undefined at r=nan"),
        ([math.nan, 0.0, math.nan, 0.5], "polar chart is undefined at r=nan"),
        ([1.0, math.nan, 1.0, 0.5], "polar chart is undefined at angle 1 = nan"),
        ([1.0, 1.0, math.nan, 0.5], "polar chart is undefined at angle 2 = nan"),
        ([1.0, math.nan, 0.0, 0.5], "polar chart is undefined at angle 1 = nan"),
        ([1.0, 1.0, -math.inf, 0.5], "polar chart is undefined at angle 2 = -inf"),
        # and so is an azimuth that is not finite; a bad polar angle comes first
        ([1.0, 1.0, 1.0, math.nan], "polar chart is undefined at angle 3 = nan"),
        ([1.0, 1.0, 1.0, math.inf], "polar chart is undefined at angle 3 = inf"),
        ([1.0, 0.0, 1.0, math.nan], "polar chart is singular on the axis (angle 1)"),
    ])
    def test_guard_message_names_the_first_failing_node(self, bad, detail):
        # node 2 fails too, and a node off both radius and axis reads its radius
        M = constant_curvature(-1.0, 4)
        P = np.array([[0.8, 0.9, 1.2, 0.3], bad, [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ChartSingularityError, match=f"^node 1: {re.escape(detail)}$") as e:
            chart_stack(M, P)
        assert (e.value.node, e.value.detail) == (1, detail)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_angle_in_a_long_column_is_refused_by_name(self, value, n):
        # np.sin and np.tan of +-inf warn "invalid value" where math.sin
        # raised: the chart reads such an angle as NaN, off the chart, and
        # the guard names its first node, with no warning on any column length
        rng = np.random.default_rng(6)
        P = np.column_stack([rng.uniform(0.2, 2.0, 64)]
                            + [rng.uniform(0.2, 2.9, 64) for _ in range(n - 2)]
                            + [rng.uniform(0.0, 6.2, 64)])
        P[37:, n - 2] = value       # the last polar angle, from node 37 on
        detail = f"polar chart is undefined at angle {n - 2} = {value:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChartSingularityError, match=f"^node 37: {re.escape(detail)}$"):
                chart_stack(constant_curvature(-1.0, n), P)


class TestChristoffel:
    def test_euclidean_zero(self):
        M = euclidean(4)
        assert np.max(np.abs(christoffel_one(M, [1.0, 0.2, -0.3, 0.9]))) == 0.0

    def test_warped_radial_angular_symbol(self):
        # Gamma^r_{theta theta} = -f f' in dimension 2
        prof = poly3_profile()
        M = warped(prof, 2)
        r = 1.1
        G = christoffel_one(M, [r, 0.7])
        assert G[0, 1, 1] == pytest.approx(-prof.f(r) * prof.df(r), rel=1e-13)

    @pytest.mark.parametrize("make", [lambda: constant_curvature(-1.0, 3),
                                      lambda: warped(poly3_profile(), 3),
                                      lambda: warped(sinh_profile(), 4)])
    def test_matches_fd_oracle(self, make):
        M = make()
        for p in SAMPLE_POINTS[M.dim]:
            G = christoffel_one(M, p)
            G_fd = fd_christoffel(M, p, 1e-5)
            np.testing.assert_allclose(G, G_fd, atol=5e-9)

    def test_fd_convergence_order(self):
        # analytic symbols vs O(h^2) differences: observed order >= 1.9
        M = warped(poly3_profile(), 3)
        p = np.array([0.9, 1.1, 0.4])
        G = christoffel_one(M, p)
        errs = [np.max(np.abs(G - fd_christoffel(M, p, h)))
                for h in (1e-2, 5e-3, 2.5e-3)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_constant_equals_sinh_profile(self):
        Mc = constant_curvature(-1.0, 3)
        Mw = warped(sinh_profile(), 3)
        for p in SAMPLE_POINTS[3]:
            np.testing.assert_allclose(christoffel_one(Mc, p), christoffel_one(Mw, p),
                                       atol=1e-10)


class TestRiemann:
    def test_constant_sectional(self):
        for a in (-0.5, -1.0):
            M = constant_curvature(a, 3)
            p = SAMPLE_POINTS[3][0]
            rd = riemann_one(M, p, orthonormal_frame(M, p))
            off = ~np.eye(3, dtype=bool)
            np.testing.assert_allclose(rd.K[off], a, rtol=1e-14)
            assert rd.ricci_n == pytest.approx(2 * a, rel=1e-14)

    def test_euclidean_zero(self):
        M = euclidean(3)
        rd = riemann_one(M, np.array([1.0, 0.3, 0.2]), np.eye(3))
        assert np.max(np.abs(rd.R)) == 0.0

    def test_warped_sinh_is_hyperbolic(self):
        M = warped(sinh_profile(), 3)
        for p in SAMPLE_POINTS[3]:
            rd = riemann_one(M, p, orthonormal_frame(M, p))
            off = ~np.eye(3, dtype=bool)
            np.testing.assert_allclose(rd.K[off], -1.0, atol=1e-12)

    def test_warped_adapted_curvatures(self):
        prof = poly3_profile()
        M = warped(prof, 4)
        p = SAMPLE_POINTS[4][0]
        rd = riemann_one(M, p, orthonormal_frame(M, p))
        r = p[0]
        k_rad = -prof.d2f(r) / prof.f(r)
        k_tan = (1 - prof.df(r) ** 2) / prof.f(r) ** 2
        # frame vector 0 is radial in the adapted (diagonal) frame
        for i in range(1, 4):
            assert rd.K[0, i] == pytest.approx(k_rad, rel=1e-12)
            for j in range(1, 4):
                if i != j:
                    assert rd.K[i, j] == pytest.approx(k_tan, rel=1e-12)

    @pytest.mark.parametrize("make", [lambda: constant_curvature(-0.5, 4),
                                      lambda: warped(poly3_profile(), 4)])
    def test_symmetries_and_sign(self, make):
        M = make()
        rng = np.random.default_rng(4)
        for p in SAMPLE_POINTS[4]:
            F = orthonormal_frame(M, p)
            Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            F = F @ Q  # random g-orthonormal frame
            rd = riemann_one(M, p, F)
            R = rd.R
            assert np.max(np.abs(R + np.swapaxes(R, 0, 1))) < 1e-10
            assert np.max(np.abs(R + np.swapaxes(R, 2, 3))) < 1e-10
            assert np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1)))) < 1e-10
            assert np.max(rd.K) <= 1e-12  # nonpositive curvature
            np.testing.assert_allclose(rd.K, np.einsum("ijij->ij", R), atol=1e-14)

    @pytest.mark.parametrize("M", [warped(poly3_profile(), 3), warped(poly3_profile(), 5),
                                   warped(sinh_profile(), 4),
                                   warped(scaled_sinh_profile(-0.25), 6)],
                             ids=lambda M: f"{M.label}-{M.dim}")
    def test_a_row_has_the_bits_of_its_point_alone(self, M):
        # f, f' and f'' act on whole columns, so each row of a stack's
        # tensors has the bits of the one-row stack of its point and frame
        rng = np.random.default_rng(11)
        n, N = M.dim, 37
        P = np.column_stack([rng.uniform(0.1, 3.0, N)]
                            + [rng.uniform(0.2, 2.9, N) for _ in range(n - 2)]
                            + [rng.uniform(0.0, 6.2, N)])
        F = np.linalg.qr(rng.normal(size=(N, n, n)))[0]     # g-orthonormal frames
        rd = riemann_stack(M, P, F)
        for k in range(N):
            one = riemann_stack(M, P[k:k + 1], F[k:k + 1])
            for got, want in ((rd.R, one.R), (rd.K, one.K), (rd.ricci_n, one.ricci_n)):
                assert got[k:k + 1].tobytes() == want.tobytes(), k

    def test_reads_the_chart_it_is_given(self, monkeypatch):
        P = np.array(SAMPLE_POINTS[3])
        frames = np.broadcast_to(np.eye(3), (len(P), 3, 3))
        models = (euclidean(3), constant_curvature(-1.0, 3), warped(poly3_profile(), 3))
        charts = [chart_stack(M, P) for M in models]
        want = [riemann_stack(M, P, frames).R for M in models]

        def refuse(*args, **kwargs):
            raise AssertionError("chart_stack called")

        monkeypatch.setattr(model_manifolds, "chart_stack", refuse)
        for M, chart, R in zip(models, charts, want):
            assert np.array_equal(riemann_stack(M, P, frames, chart).R, R)

    def test_refuses_points_off_the_polar_chart(self):
        M = warped(poly3_profile(), 3)
        P = np.array([[0.8, 0.9, 0.3], [1.0, 0.0, 0.5]])
        with pytest.raises(ChartSingularityError, match="node 1: polar chart is singular"):
            riemann_stack(M, P, np.broadcast_to(np.eye(3), (2, 3, 3)))

    def test_rejects_non_orthonormal_frame(self):
        M = constant_curvature(-1.0, 3)
        p = SAMPLE_POINTS[3][0]
        with pytest.raises(ValueError):
            riemann_one(M, p, 2.0 * orthonormal_frame(M, p))


class TestSphereClosedForms:
    def test_unit_sphere_volume(self):
        assert unit_sphere_volume(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert unit_sphere_volume(3) == pytest.approx(4 * math.pi, rel=1e-15)
        assert unit_sphere_volume(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)

    def test_warped_sinh_matches_constant(self):
        Mw, Mc = warped(sinh_profile(), 3), constant_curvature(-1.0, 3)
        for rho in (0.3, 1.0, 2.5):
            for r in range(3):
                assert sphere_total_mean_curvature(Mw, r, rho) == pytest.approx(
                    sphere_total_mean_curvature(Mc, r, rho), rel=1e-10)

    def test_total_mean_curvature_euclidean(self):
        M = euclidean(3)
        assert sphere_total_mean_curvature(M, 1, 1.0) == pytest.approx(8 * math.pi, rel=1e-14)
        for rho in (0.5, 1.0, 3.0):
            assert sphere_total_mean_curvature(M, 2, rho) == pytest.approx(
                4 * math.pi, rel=1e-14)

    def test_hyperbolic_r2_quadrature_oracle(self):
        # 1-d quadrature of coth^2 * (4 pi sinh^2) vs the closed form
        M = constant_curvature(-1.0, 3)
        rho = 1.0
        x, w = np.polynomial.legendre.leggauss(60)
        assert sphere_total_mean_curvature(M, 2, rho) == pytest.approx(
            4 * math.pi * math.cosh(rho) ** 2, rel=1e-13)

    def test_small_radius_slopes(self):
        # closed-form log-log slope over a small-radius grid is n - 1 - r
        grid = np.geomspace(0.01, 0.08, 6)
        for M in (euclidean(3), constant_curvature(-1.0, 3), warped(poly3_profile(), 3)):
            for r in range(3):
                vals = [sphere_total_mean_curvature(M, r, rho) for rho in grid]
                slope = np.polyfit(np.log(grid), np.log(vals), 1)[0]
                assert abs(slope - (2 - r)) <= 0.02
            gauss = sphere_total_mean_curvature(M, 2, 0.01)
            assert abs(gauss - 4 * math.pi) <= 0.01 * 4 * math.pi

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            sphere_total_mean_curvature(euclidean(3), 1, 0.0)
        with pytest.raises(ValueError):
            sphere_total_mean_curvature(euclidean(3), 3, 1.0)


class TestProfiles:
    def test_inconsistent_derivatives_rejected(self):
        with pytest.raises(ValueError):
            WarpingProfile("broken", np.sinh, np.sinh, np.sinh)

    def test_positive_curvature_rejected(self):
        good = WarpingProfile("sin", np.sin, np.cos, lambda r: -np.sin(r))
        with pytest.raises(ValueError):
            warped(good, 3)

    def test_bad_origin_behavior_rejected(self):
        prof = WarpingProfile("shifted", lambda r: r + 1.0, np.ones_like, np.zeros_like)
        with pytest.raises(ValueError):
            warped(prof, 3)

    @pytest.mark.parametrize("prof", [sinh_profile(), linear_profile(), poly3_profile(),
                                      scaled_sinh_profile(-0.25), scaled_sinh_profile(-4.0)],
                             ids=lambda prof: prof.name)
    def test_a_profile_maps_an_array_to_an_array_of_its_shape(self, prof):
        # kernels hand a profile a whole radius column; every element of the
        # result has the bits of that element's one-element array
        r = np.random.default_rng(4).uniform(0.01, 3.0, (3, 5))
        for fn in (prof.f, prof.df, prof.d2f):
            for x in (r, r[0], r[:, 1], r[0, :1], r[:0, 0]):
                out = fn(x)
                assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == x.shape
            flat = r.ravel()
            whole = fn(flat)
            for k in range(flat.size):
                assert fn(flat[k:k + 1]).tobytes() == whole[k:k + 1].tobytes(), k

    def test_profile_checks_evaluate_each_sample_grid_as_one_array(self):
        shapes = []

        def recorded(fn):
            def call(r):
                assert isinstance(r, np.ndarray)
                shapes.append(r.shape)
                return fn(r)
            return call

        prof = WarpingProfile("recorded", recorded(np.sinh), recorded(np.cosh), recorded(np.sinh))
        # df and d2f at the spot-check grid, f and df at its two shifts
        assert shapes == [(5,)] * 6
        shapes.clear()
        warped(prof, 3)
        # f and f' at the origin, then f, f'' and f' on the 1000 samples
        assert shapes == [(1,)] * 2 + [(1000,)] * 3

    @pytest.mark.parametrize("df,d2f,message", [
        (lambda r: np.cosh(r) + np.where(r > 0.5, (r - 0.5) ** 2, 0.0), np.sinh,
         "f' inconsistent with f at r=0.9"),
        (np.cosh, lambda r: np.sinh(r) + np.where(r > 1.0, r - 1.0, 0.0),
         "f'' inconsistent with f' at r=1.6"),
    ], ids=["df", "d2f"])
    def test_inconsistent_derivatives_name_the_first_failing_radius(self, df, d2f, message):
        with pytest.raises(ValueError, match=f"^profile 'broken': {re.escape(message)}$"):
            WarpingProfile("broken", np.sinh, df, d2f)

    @pytest.mark.parametrize("f,df,d2f,message", [
        # f'' = r (c - r) turns negative past r = c: the first sample past c
        (lambda r: r + r ** 3 / 2.0 - r ** 4 / 12.0, lambda r: 1.0 + 1.5 * r ** 2 - r ** 3 / 3.0,
         lambda r: r * (3.0 - r), "has positive radial curvature at r=3.0037"),
        (lambda r: r + 7.0 * r ** 3 / 6.0 - r ** 4 / 12.0,
         lambda r: 1.0 + 3.5 * r ** 2 - r ** 3 / 3.0,
         lambda r: r * (7.0 - r), "has positive radial curvature at r=7.00731"),
        # a flat profile whose slope is under 1, within the origin tolerance
        (lambda r: (1.0 - 5e-11) * r, lambda r: np.full_like(r, 1.0 - 5e-11), np.zeros_like,
         "has positive tangential curvature at r=0.001"),
        (lambda r: 2.0 * r, lambda r: np.full_like(r, 2.0), np.zeros_like,
         "must satisfy f(0)=0, f'(0)=1"),
    ], ids=["radial@3", "radial@7", "tangential", "origin"])
    def test_screening_names_the_first_failing_sample(self, f, df, d2f, message):
        prof = WarpingProfile("screened", f, df, d2f)
        with pytest.raises(ValueError, match=f"^profile 'screened' {re.escape(message)}$"):
            warped(prof, 3)

    def test_constant_requires_nonpositive(self):
        with pytest.raises(ValueError):
            constant_curvature(0.5, 3)

    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            euclidean(7)
        with pytest.raises(ValueError):
            euclidean(1)


# every elementwise function the package applies to whole columns (warping
# profiles, charts, the off-centre field, sphere directions, surface weights
# and frames, logs of singular values and of fitted samples), and ** with
# each integer exponent it takes (squares, f^{n-1}, |grad u|^{r+2} up to
# r = n - 1 = 5)
_COLUMN_UFUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "sinh": np.sinh,
                  "cosh": np.cosh, "sqrt": lambda x: np.sqrt(np.abs(x)),
                  "log": lambda x: np.log(np.abs(x)),
                  **{f"power{k}": (lambda k: lambda x: x ** k)(k) for k in range(1, 8)}}


@pytest.mark.parametrize("name", sorted(_COLUMN_UFUNCS))
def test_ufuncs_give_a_column_the_bits_of_its_splits(name):
    # the premise of evaluating whole columns: a ufunc gives an element the
    # same bits whatever array it sits in, so a node's bits do not depend on
    # its stack, its chunk or its split over threads.  A host where numpy's
    # vector and scalar paths disagree fails here.
    fn = _COLUMN_UFUNCS[name]
    rng = np.random.default_rng(27)
    x = np.concatenate((rng.uniform(-20.0, 20.0, 2048), rng.uniform(0.0, math.pi, 2048),
                        rng.uniform(0.0, 10.0, 2048), rng.normal(scale=1e-3, size=512)))
    whole = fn(x)
    for length in range(1, 65):
        for lo in rng.integers(0, x.size - length, 8).tolist():
            assert fn(x[lo:lo + length]).tobytes() == whole[lo:lo + length].tobytes(), (lo, length)
    for step in (2, 3, 7):
        for lo in range(step):
            assert fn(x[lo::step]).tobytes() == whole[lo::step].tobytes(), (lo, step)
    # a column of a node stack is a strided view too
    stack = x.reshape(-1, 4)
    for j in range(4):
        assert fn(stack[:, j]).tobytes() == whole.reshape(-1, 4)[:, j].tobytes(), j
    for k in rng.integers(0, x.size, 256).tolist():
        assert fn(np.array([x[k]])).tobytes() == whole[k:k + 1].tobytes(), k
