"""Tests for level-set surface quadrature, coarea volume quadrature, and the
1-d Gauss-Legendre helper.  Oracles: closed-form sphere/shell values, a
surface-of-revolution quadrature for the ellipsoid, and antiderivatives."""

import json
import math
import sys

import numpy as np
import pytest

from curvatura import curvature_integrals, model_manifolds, quadrature
from curvatura.errors import GeometryError, node_error
from curvatura.model_manifolds import (
    _log_derivatives,
    chart_stack,
    constant_curvature,
    euclidean,
    poly3_profile,
    warped,
)
from curvatura.level_set_geometry import (
    OffCenterDistanceField,
    QuadraticFormField,
    RadialDistanceField,
    RadialSquaredHalfField,
    ScalarField,
    hessian_frame_stack,
    principal_frame_stack,
)
from curvatura.quadrature import (
    QuadratureSpec,
    coarea_volume_integral,
    coarea_volume_integral_multi,
    find_level_radius,
    pairwise_sum,
    radial_integral,
    surface_integral,
)
from curvatura.symmetric_algebra import elementary_all_stack, sigma_stack
from oracles import pairwise_sum_recursive

SPEC = QuadratureSpec(angular_orders=(16,), level_order=8)
HYPERBOLIC = constant_curvature(-1.0, 3)


def sigma_r(u, M, P, r):
    """sigma_r of the principal curvatures at every node of a point stack."""
    kappa = principal_frame_stack(hessian_frame_stack(u, M, P)).kappa
    return sigma_stack(elementary_all_stack(kappa), r)


def ones(P, chart):
    """The integrand 1 at every node of a point stack."""
    return np.ones(len(P))


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


def turned(spectrum) -> np.ndarray:
    """diag(spectrum) turned by a fixed rotation that keeps no coordinate
    axis, symmetric to the last bit."""
    n = len(spectrum)
    R, _ = np.linalg.qr(np.arange(1.0, n * n + 1).reshape(n, n) ** 1.5)
    Q = R @ np.diag(spectrum) @ R.T
    return 0.5 * (Q + Q.T)


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

    def test_cap_raises_with_last_difference(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_RADIAL_ORDER", 4)
        monkeypatch.setattr(quadrature, "_RADIAL_MAX_ORDER", 8)
        with pytest.raises(GeometryError, match=r"order cap 8 .* last difference \d"):
            radial_integral(lambda t: abs(t - 1 / math.pi) ** 0.1, (0, 1))

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
    def test_star_radius_is_the_ball_radius_about_the_base_point(self):
        # exact level spheres about the base point; None sends the rays to
        # the root solve
        star = quadrature._star_radius
        E3, H3 = euclidean(3), constant_curvature(-1.0, 3)
        assert star(RadialDistanceField(), H3, 1.3) == 1.3
        assert star(RadialSquaredHalfField(), E3, 0.5) == 1.0
        assert star(RadialDistanceField(center=[0.0, 0.0, 0.0]), E3, 1.3) == 1.3
        assert star(RadialSquaredHalfField(center=[0.0, 0.0, 0.0]), H3, 0.5) == 1.0
        assert star(RadialDistanceField(center=[0.3, 0.0, 0.0]), E3, 1.3) is None
        assert star(OffCenterDistanceField(0.3), H3, 0.8) is None
        assert star(QuadraticFormField(np.eye(3)), E3, 0.5) is None
        with pytest.raises(GeometryError, match="working radius"):
            star(RadialDistanceField(), H3, 10.5)

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
        res = surface_integral(u, M, 0.5, ones, SPEC)
        assert abs(res.value - 4 * math.pi) <= 1e-10
        assert res.node_count == 256

    def test_hyperbolic_sphere_area(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        res = surface_integral(u, M, 1.0, ones, SPEC)
        assert abs(res.value - 4 * math.pi * math.sinh(1) ** 2) <= 1e-8

    def test_ellipsoid_total_mean_curvature(self):
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))

        def sigma1(P, chart):
            return sigma_r(u, M, P, 1)

        res = surface_integral(u, M, 0.5, sigma1,
                               QuadratureSpec(angular_orders=(96,), level_order=4))
        oracle = revolution_ellipsoid_m1(0.5)
        assert oracle == pytest.approx(ELLIPSOID_M1_HALF, rel=1e-12)
        assert abs(res.value - oracle) <= 1e-6 * abs(oracle)

    def test_dimension_two_circle(self):
        M = euclidean(2)
        u = RadialSquaredHalfField()
        res = surface_integral(u, M, 0.5, ones, SPEC)
        assert res.value == pytest.approx(2 * math.pi, rel=1e-12)


class TestCoareaIntegral:
    def test_euclidean_shell_volume(self):
        M = euclidean(3)
        u = RadialDistanceField()
        res = coarea_volume_integral(u, M, (1.0, 2.0), ones, SPEC)
        assert abs(res.value - 4 / 3 * math.pi * 7) <= 1e-9

    def test_hyperbolic_shell_volume(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()
        res = coarea_volume_integral(u, M, (0.5, 1.0), ones, SPEC)
        oracle = 4 * math.pi * radial_integral(lambda t: math.sinh(t) ** 2, (0.5, 1.0))
        assert abs(res.value - oracle) <= 1e-8

    def test_poly3_sigma2_radial_oracle(self):
        M = warped(poly3_profile(), 3)
        u = RadialDistanceField()

        def sigma2(P, chart):
            return sigma_r(u, M, P, 2)

        res = coarea_volume_integral(u, M, (0.5, 1.5), sigma2, SPEC)
        prof = poly3_profile()
        oracle = 4 * math.pi * radial_integral(
            lambda t: (prof.df(t) / prof.f(t)) ** 2 * prof.f(t) ** 2, (0.5, 1.5))
        assert abs(res.value - oracle) <= 1e-8 * max(1.0, abs(oracle))

    def test_rejects_bad_levels(self):
        M = euclidean(3)
        u = RadialDistanceField()
        with pytest.raises(ValueError):
            coarea_volume_integral(u, M, (2.0, 1.0), ones, SPEC)


class TestRefinementAndErrorEstimates:
    def test_refinement_monotone_on_oracles(self):
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        oracle = 8.671882703345052  # closed-form oblate area of the c=0.5 level
        errs = []
        for ao in (16, 32):
            res = surface_integral(u, M, 0.5, ones,
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
            res = surface_integral(uq, M, 0.5, ones,
                                   QuadratureSpec(angular_orders=(ao,), level_order=4))
            assert abs(res.value - oracle) <= 10 * res.error_estimate
        us = RadialSquaredHalfField()
        res = surface_integral(us, M, 0.5, ones, SPEC)
        assert abs(res.value - 4 * math.pi) <= 10 * res.error_estimate

    @pytest.mark.parametrize("angular,level_order,surface_blind,coarea_blind", [
        ((4,), 4, False, False),
        ((4,), 2, False, True),
        ((4, 2), 4, True, True),
        ((2,), 2, True, True),
    ])
    def test_an_order_two_axis_reads_an_infinite_estimate(self, angular, level_order,
                                                           surface_blind, coarea_blind):
        # the companion floors orders at 2, so an order 2 is its own companion
        # and the halving difference cannot see that axis's error: at angular
        # order 2 this level's area is 7.14 (8.67 exact), estimated 7.1e-12
        M = euclidean(3)
        u = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        spec = QuadratureSpec(angular_orders=angular, level_order=level_order)
        surface = surface_integral(u, M, 0.5, ones, spec)
        coarea = coarea_volume_integral(u, M, (0.5, 1.0), ones, spec)
        _, multi, _ = coarea_volume_integral_multi(
            u, M, (0.5, 1.0), lambda P, chart: np.ones((len(P), 2)), spec, 2)
        assert math.isinf(surface.error_estimate) == surface_blind
        assert [math.isinf(coarea.error_estimate)] + np.isinf(multi).tolist() == [coarea_blind] * 3

    def test_error_estimate_nonnegative_and_nodes_positive(self):
        M = euclidean(3)
        u = RadialSquaredHalfField()
        res = surface_integral(u, M, 0.5, ones, SPEC)
        assert res.error_estimate >= 0
        assert res.node_count > 0


class TestDeterminism:
    def test_bit_identical_across_threads(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()

        def integrand(P, chart):
            return sigma_r(u, M, P, 1)

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
        a = surface_integral(u, M, 0.5, ones, SPEC).value
        b = surface_integral(u, M, 0.5, ones, SPEC).value
        assert a == b

    def test_pairwise_sum_order_independent_of_layout(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=1000)
        assert pairwise_sum(vals) == pairwise_sum(list(vals))

    def test_pairwise_sum_is_the_recursion_bit_for_bit(self):
        rng = np.random.default_rng(11)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for count in list(range(301)) + [864, 4097]:
            for shape in ((count,), (count, 1), (count, 3)):
                mags = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, shape)
                zeros = rng.choice([0.0, -0.0], size=shape)
                mixed = np.where(rng.random(shape) < 0.02, rng.choice(specials, size=shape), mags)
                for vals in (mags, zeros, mixed):
                    with np.errstate(invalid="ignore"):   # inf - inf in either sum
                        got, want = pairwise_sum(vals), pairwise_sum_recursive(vals)
                    assert type(got) is type(want), (shape, type(got), type(want))
                    assert np.shape(got) == np.shape(want)
                    # a NaN's sign bit (inf - inf gives the negative default NaN)
                    # follows the operand order the machine add takes
                    got, want = np.atleast_1d(got), np.atleast_1d(want)
                    assert np.array_equal(np.isnan(got), np.isnan(want)), shape
                    nan = np.isnan(want)
                    assert got[~nan].tobytes() == want[~nan].tobytes(), shape


class TestRulePlans:
    """A rule's level-free columns (and its companion's) are built once per
    (kind, n, spec, number of levels) by quadrature._rule_plan, read-only;
    a call builds only its level columns."""

    def test_plan_arrays_are_read_only(self):
        warped = QuadraticFormField(np.diag([1.0, 1.0, 4.0]))
        for kind, levels in (("surface", 3), ("coarea", SPEC.level_order)):
            for plan in (quadrature._rule_plan(kind, 3, SPEC, levels),
                         quadrature._field_plan(warped, euclidean(3), kind, SPEC, levels)):
                for a in (plan.angles, plan.weights, plan.directions, *plan.trig, plan.levels):
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = a[0]
        with pytest.raises(ValueError, match="read-only"):
            quadrature._pairwise_leaves(100)[0, 0] = 0

    def test_warm_and_cold_plans_give_the_same_bits(self):
        M = constant_curvature(-1.0, 3)
        u = RadialDistanceField()

        def integrand(P, chart):
            return sigma_r(u, M, P, 1)

        def rows(P, chart):
            return np.column_stack((sigma_r(u, M, P, 1), sigma_r(u, M, P, 2)))

        def run():
            one = surface_integral(u, M, 0.8, integrand, SPEC)
            three = surface_integral(u, M, [0.5, 0.8, 1.1], integrand, SPEC)
            multi = coarea_volume_integral_multi(u, M, (0.5, 1.0), rows, SPEC, 2)
            nums = [one.value, one.error_estimate, *three[0], *three[1], *multi[0], *multi[1]]
            return [float(x).hex() for x in nums], one.node_count, three[2], multi[2]

        quadrature._rule_plan.cache_clear()
        cold = run()
        built = quadrature._rule_plan.cache_info()
        assert built.misses == 3
        assert run() == cold
        assert quadrature._rule_plan.cache_info().misses == built.misses

    def test_a_failing_node_is_named_the_same_with_a_warm_plan_or_a_cold_one(self):
        M = euclidean(3)

        class DownhillBelow(RadialSquaredHalfField):
            """u decreases along the rays about the lower pole at the crossing."""
            def partials_stack(self, M, P):
                du = super().partials_stack(M, P)
                below = P[:, 2] < -0.9 * np.linalg.norm(P, axis=1)
                return np.where(below[:, None], -du, du)

        u = DownhillBelow(center=[0.0, 0.0, 1e-3])
        for call in (lambda: surface_integral(u, M, 0.5, ones, SPEC),
                     lambda: surface_integral(u, M, [0.4, 0.5], ones, SPEC),
                     lambda: coarea_volume_integral(u, M, (0.4, 0.5), ones, SPEC)):
            quadrature._rule_plan.cache_clear()
            with pytest.raises(GeometryError) as cold:
                call()
            with pytest.raises(GeometryError) as warm:
                call()
            assert str(cold.value).startswith("node ")
            assert "u is not increasing along the ray" in str(cold.value)
            assert str(warm.value) == str(cold.value)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("M", [constant_curvature(-1.0, 5), warped(poly3_profile(), 3)],
                             ids=lambda M: f"{M.label}-{M.dim}")
    def test_plan_charts_are_the_charts_of_their_points(self, monkeypatch, M, warm, threads):
        # every chunk's chart, built from the plan's sines and tangents, has
        # the bits of the chart computed from the chunk's points alone
        u = RadialDistanceField()
        spec = QuadratureSpec(angular_orders=(4,), level_order=3)
        built, charts = quadrature.chart_stack, []

        def recorded(M, P, trig=None):
            chart = built(M, P, trig)
            charts.append((P.copy(), trig is not None, chart))
            return chart

        def run():
            surface_integral(u, M, [0.5, 0.8, 1.1], ones, spec, threads)
            coarea_volume_integral(u, M, (0.5, 1.0), ones, spec, threads)

        monkeypatch.setattr(quadrature, "_CHUNK", 16)     # several chunks per stack
        quadrature._rule_plan.cache_clear()
        if warm:
            run()
        monkeypatch.setattr(quadrature, "chart_stack", recorded)
        run()
        assert len(charts) > 2
        for P, from_plan, chart in charts:
            alone = chart_stack(M, P)
            assert from_plan
            for got, want in ((chart.D, alone.D), (chart.f, alone.f), (chart.df, alone.df),
                              *zip(_log_derivatives(chart), _log_derivatives(alone))):
                assert [x.hex() for x in got.ravel().tolist()] == \
                    [x.hex() for x in want.ravel().tolist()]

    @pytest.mark.parametrize("call,message,before", [
        (lambda f, t: surface_integral(RadialDistanceField(), HYPERBOLIC, 12.0, f, SPEC, t),
         "node 0: the level-12 sphere (radius 12) lies beyond the working radius 10", False),
        (lambda f, t: surface_integral(RadialDistanceField(), HYPERBOLIC, [0.5, 12.0], f, SPEC, t),
         "node 0: the level-12 sphere (radius 12) lies beyond the working radius 10", True),
        (lambda f, t: coarea_volume_integral(RadialDistanceField(), HYPERBOLIC, (0.5, 12.0), f,
                                             SPEC, t),
         "node 1536: the level-10.8308 sphere (radius 10.8308) lies beyond the working radius 10",
         True),
    ], ids=["one level", "two levels", "coarea"])
    def test_a_sphere_beyond_the_working_radius_is_named_the_same_warm_or_cold(
            self, monkeypatch, call, message, before):
        # each level's crossing is resolved once per integral, and a refused
        # sphere still raises at its first node's radius stage, whatever the
        # split: when nodes come before it (before), an integrand refusing
        # every node names node 0 instead
        def refuse(P, chart):
            raise node_error(ValueError, 0, "refused")

        for chunk in (quadrature._CHUNK, 100):
            monkeypatch.setattr(quadrature, "_CHUNK", chunk)
            for threads in (1, 2):
                quadrature._rule_plan.cache_clear()
                for _ in ("cold", "warm"):
                    with pytest.raises(GeometryError) as e:
                        call(ones, threads)
                    assert str(e.value) == message
                    with pytest.raises((GeometryError, ValueError)) as e:
                        call(refuse, threads)
                    assert str(e.value) == ("node 0: refused" if before else message)

    def test_a_warm_polar_rule_dedupes_no_angle_column(self, monkeypatch):
        # the plan carries the sines and tangents of its polar angles, so a
        # stack of a sphere dedupes its radius column and nothing else
        M = constant_curvature(-1.0, 4)
        u = RadialDistanceField()
        quadrature._rule_plan.cache_clear()
        surface_integral(u, euclidean(4), 0.8, ones, SPEC)
        plan = quadrature._rule_plan("surface", 4, SPEC, 1)
        assert "trig" not in vars(plan)         # a Cartesian chart builds none
        surface_integral(u, M, 0.8, ones, SPEC)
        assert "trig" in vars(plan)
        distinct, columns = model_manifolds._distinct, []

        def recorded(x):
            columns.append(x.copy())
            return distinct(x)

        monkeypatch.setattr(model_manifolds, "_distinct", recorded)
        surface_integral(u, M, 0.8, ones, SPEC)
        assert len(columns) == 2        # one per chunk: the rule and its companion
        assert all((x == 0.8).all() for x in columns)

    def test_a_fifty_level_sweep_adds_one_plan_whatever_its_levels(self, tmp_path):
        from curvatura.cli import main
        quadrature._rule_plan.cache_clear()
        for k, (start, stop) in enumerate(((0.1, 2.0), (0.2, 3.0))):
            cfg = tmp_path / f"sweep{k}.json"
            cfg.write_text(json.dumps({
                "schema_version": 1, "manifold": {"family": "euclidean", "dim": 3},
                "field": {"field": "radial_sq"},
                "quadrature": {"angular_order": 4, "level_order": 2},
                "sweep": {"kind": "levels", "levels": {"start": start, "stop": stop, "num": 50},
                          "r": [0, 1]}}))
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / f"o{k}")]) == 0
            info = quadrature._rule_plan.cache_info()
            assert (info.misses, info.currsize) == (1, 1)

    def test_each_ray_map_keys_its_own_plan(self):
        # two Q's give two warped plans; a second field of the same Q finds
        # its plan, and a radial field the identity plan of the 4-argument key
        E3 = euclidean(3)
        oblate, triaxial = np.diag([1.0, 1.0, 4.0]), np.diag([1.0, 2.0, 3.0])
        quadrature._rule_plan.cache_clear()
        plans = [quadrature._field_plan(u, E3, "surface", SPEC, 1)
                 for u in (QuadraticFormField(oblate), QuadraticFormField(triaxial),
                           QuadraticFormField(oblate), RadialDistanceField(),
                           OffCenterDistanceField(0.3))]
        assert quadrature._rule_plan.cache_info().misses == 3
        assert plans[0] is not plans[1] and plans[0] is plans[2]
        identity = quadrature._rule_plan("surface", 3, SPEC, 1)
        assert plans[3] is identity and plans[4] is identity
        _, _, directions = quadrature._angular_grid(3, SPEC.angular_for(3), SPEC.margin)
        assert np.array_equal(identity.directions[:identity.count], directions)
        for plan in plans[:2]:
            assert np.array_equal(plan.angles, identity.angles)
            assert not np.array_equal(plan.directions, identity.directions)
            assert np.allclose(np.linalg.norm(plan.directions, axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,Q,orders", [
        (2, turned((1.0, 2.0)), (64,)),
        (3, turned((1.0, 1.5, 2.0)), (64, 64)),
        # one stretched axis, along x_1 = cos(angle 0): the other polar
        # angles then meet only their sin^k weights, which order 12 resolves
        (4, np.diag([2.0, 1.0, 1.0, 1.0]), (32, 12, 2)),
        (5, np.diag([2.0, 1.0, 1.0, 1.0, 1.0]), (32, 12, 12, 2)),
        (6, np.diag([2.0, 1.0, 1.0, 1.0, 1.0, 1.0]), (32, 12, 12, 12, 2)),
    ], ids=["n=2", "n=3", "n=4", "n=5", "n=6"])
    def test_warped_weights_integrate_one_to_the_sphere(self, n, Q, orders):
        # the weights carry the Jacobian |det A| / |A xi|^n of the ray map, so
        # they sum to |S^{n-1}| (a margin of 1e-9 omits caps below 1e-18)
        spec = QuadratureSpec(angular_orders=orders, margin=1e-9)
        plan = quadrature._field_plan(QuadraticFormField(Q), euclidean(n), "surface", spec, 1)
        area = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
        assert abs(pairwise_sum(plan.weights[:plan.count]) - area) <= 1e-13 * area

    def test_the_cap_bound_takes_the_largest_ray_jacobian(self):
        # J_max = |det A| ||A^-1||^n = lambda_max^{n/2} / sqrt(det Q) of the
        # map A = Q^{-1/2}; exactly 1.0 for the identity, so that the cap term
        # of every other field keeps its bits
        E3 = euclidean(3)
        assert quadrature._field_plan(RadialDistanceField(), E3, "surface", SPEC, 1) \
            .jacobian_max == 1.0
        assert quadrature._cap_bound(E3, SPEC, -3.0, 1.0) == SPEC.margin ** 2 * 3.0
        plan = quadrature._field_plan(QuadraticFormField(np.diag([1.0, 1.0, 4.0])), E3,
                                      "surface", SPEC, 1)
        assert plan.jacobian_max == pytest.approx(4.0, rel=1e-14)
        # no node's Jacobian (warped weight over grid weight) exceeds it
        _, weights, _ = quadrature._angular_grid(3, SPEC.angular_for(3), SPEC.margin)
        ratio = plan.weights[:plan.count] / weights
        assert 3.0 < ratio.max() <= plan.jacobian_max * (1 + 1e-14)
        plan = quadrature._field_plan(QuadraticFormField(turned((1.0, 2.0, 3.0, 5.0))),
                                      euclidean(4), "surface", SPEC, 1)
        assert plan.jacobian_max == pytest.approx(5.0 ** 2 / math.sqrt(30.0), rel=1e-12)
        assert quadrature._cap_bound(E3, SPEC, 2.0, plan.jacobian_max) == \
            SPEC.margin ** 2 * 2.0 * plan.jacobian_max

    def test_a_node_error_names_the_warped_ray(self):
        # the direction handed to the root solve, not the grid's angles
        class DownhillWarped(RadialSquaredHalfField):
            def partials_stack(self, M, P):
                return -super().partials_stack(M, P)

            def ray_map(self):
                return np.diag([1.0, 1.0, 0.5])

        u, E3 = DownhillWarped(), euclidean(3)
        with pytest.raises(GeometryError) as e:
            surface_integral(u, E3, 0.5, ones, SPEC)
        ray = quadrature._field_plan(u, E3, "surface", SPEC, 1).directions[0]
        assert str(e.value) == ("node 0: u is not increasing along the ray at the crossing "
                                f"(ray {ray.tolist()})")

    def test_warped_outputs_are_bit_identical_across_threads_and_chunks(
            self, monkeypatch, tmp_path):
        from curvatura.cli import main
        cfg = tmp_path / "quadratic.json"
        out = {}
        for threads, chunk in (("1", quadrature._CHUNK), ("2", 7)):
            monkeypatch.setattr(quadrature, "_CHUNK", chunk)
            for key, extra in (("m", {"level": 0.8, "r": [0, 1, 2]}),
                               ("c", {"levels": [0.5, 1.0], "r": [0, 1, 2]})):
                cfg.write_text(json.dumps({
                    "schema_version": 1, "manifold": {"family": "euclidean", "dim": 3},
                    "field": {"field": "quadratic",
                              "Q": [[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 4.0]]},
                    "quadrature": {"angular_order": 6, "level_order": 4}, **extra}))
                where = tmp_path / f"{key}-{threads}"
                assert main(["compute", "--config", str(cfg), "--out", str(where),
                             "--threads", threads]) == 0
                for f in sorted(where.glob("*.csv")):
                    out.setdefault(threads, {})[f"{key}/{f.name}"] = f.read_bytes()
        assert sorted(out["1"]) == ["c/comparison.csv", "m/mean_curvature.csv"]
        assert out["1"] == out["2"]


class TestCrossings:
    """Each level value's crossing is resolved once per integral into a node
    column (quadrature._sphere_radii); find_level_radius solves the other
    rays and is the one place a sphere past the working radius is refused."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_level_value_is_resolved_once_per_integral(self, monkeypatch, threads):
        star, asked = quadrature._star_radius, []

        def counted(u, M, level):
            asked.append(level)
            return star(u, M, level)

        monkeypatch.setattr(quadrature, "_CHUNK", 7)       # many chunks per stack
        monkeypatch.setattr(quadrature, "_star_radius", counted)
        u = RadialDistanceField()
        surface_integral(u, HYPERBOLIC, [0.5, 0.8, 1.1], ones, SPEC, threads)
        assert sorted(asked) == [0.5, 0.8, 1.1]
        asked.clear()
        coarea_volume_integral(u, HYPERBOLIC, (0.5, 1.0), ones, SPEC, threads)
        # the rule's level nodes and its companion's, all distinct
        assert len(asked) == len(set(asked)) == SPEC.level_order + SPEC.coarser().level_order

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("levels,message", [
        ([math.nan], "node 0: level nan does not enclose the ray origin"),
        ([0.5, math.nan], "node 0: level nan does not enclose the ray origin"),
        ([-1.0, 12.0], "node 0: level -1 does not enclose the ray origin"),
        ([0.5, 12.0], "node 0: the level-12 sphere (radius 12) lies beyond the working radius 10"),
    ])
    def test_a_level_without_a_crossing_names_its_node(self, levels, message, threads):
        with pytest.raises(GeometryError) as e:
            surface_integral(RadialDistanceField(), HYPERBOLIC, levels, ones, SPEC, threads)
        assert str(e.value).startswith(message)


# ---------------------------------------------------------------------------
# Tap contract: each integral passes through exactly one public entry point,
# so wrappers rebound in every namespace count each rule's nodes once
# ---------------------------------------------------------------------------

ENTRIES = ("surface_integral", "coarea_volume_integral", "coarea_volume_integral_multi")


@pytest.fixture
def tally(monkeypatch):
    """Counting wrappers around the three public entry points, bound in every
    curvatura namespace that binds them; maps each name to the node counts
    of its calls."""
    calls = {name: [] for name in ENTRIES}
    modules = [m for key, m in sys.modules.items()
               if key == "curvatura" or key.startswith("curvatura.")]
    for name in ENTRIES:
        original = getattr(quadrature, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            res = _fn(*args, **kwargs)
            calls[_name].append(res[2] if isinstance(res, tuple) else res.node_count)
            return res

        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


TAP_SPEC = QuadratureSpec(angular_orders=(6,), level_order=2)


def test_direct_integrals_count_once(tally):
    M = euclidean(3)
    u = RadialDistanceField()
    s = quadrature.surface_integral(u, M, 1.0, ones, TAP_SPEC)
    c = quadrature.coarea_volume_integral(u, M, (0.5, 1.0), ones, TAP_SPEC)
    assert tally == {"surface_integral": [s.node_count],
                     "coarea_volume_integral": [c.node_count],
                     "coarea_volume_integral_multi": []}


@pytest.mark.parametrize("path", ["comparison_rhs", "comparison_rhs_constant",
                                  "ricci_comparison"])
def test_comparison_paths_tally_their_nodes(tally, path):
    M = constant_curvature(-1.0, 3)
    u = RadialDistanceField()
    r_arg = () if path == "ricci_comparison" else (1,)
    bd = getattr(curvature_integrals, path)(u, M, (0.5, 1.0), *r_arg, TAP_SPEC)
    assert len(tally["coarea_volume_integral_multi"]) == 1
    assert len(tally["surface_integral"]) == 1     # both levels of the LHS in one call
    assert tally["coarea_volume_integral"] == []
    assert sum(sum(counts) for counts in tally.values()) == bd.node_count
