"""The stacked node kernel against per-point oracles: hessian_frame,
sigma_elementary, the per-ray root solve and eigh from the package,
and the former per-point kernels kept in tests/oracles.py (principal_frame,
riemann_at, the correction sums, newton_matrices, sigma_hessian_eig, the
trace identity, div_newton_frame, div_newton_fd and the Reilly residuals).
Also the guards of the stacked route, the node-stack integrand contract, and
that no oracle name, and no retired per-point chart kernel, comes back into
the package."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import curvatura
import curvatura.curvature_integrals as curvature_integrals
import curvatura.level_set_geometry as level_set_geometry
import curvatura.quadrature as quadrature
from curvatura.curvature_integrals import (
    comparison_rhs,
    correction_sums_stack,
    total_mean_curvature,
)
from curvatura.errors import (
    ChartSingularityError,
    CurvaturaError,
    DegenerateGradientError,
    GeometryError,
)
from curvatura.level_set_geometry import (
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
from curvatura.model_manifolds import (
    constant_curvature,
    euclidean,
    poly3_profile,
    riemann_stack,
    warped,
)
from curvatura.quadrature import (
    QuadratureSpec,
    find_level_radii,
    find_level_radius,
    surface_integral,
)
from curvatura.symmetric_algebra import (
    eigh,
    eigh_stack,
    elementary_all_stack,
    newton_matrices_stack,
    sigma_elementary,
    trace_identity_residual_stack,
)
from curvatura.verification import (
    SuiteConfig,
    _default_models,
    _field_grid,
    _sample_points,
    run_suite,
)
from oracles import (
    _reilly2_sides,
    correction_terms_pointwise,
    div_newton_fd,
    div_newton_frame,
    hessian_frame_fd,
    newton_matrices,
    principal_frame,
    reilly1_residual,
    riemann_at,
    sigma_hessian_eig,
    trace_identity_residual,
)

REL = 1e-12
SPEC = QuadratureSpec(angular_orders=(6,), level_order=3)


def ones(P, chart):
    """The integrand 1 at every node of a point stack."""
    return np.ones(len(P))


class Anon(ScalarField):
    """A field given by per-point callables: its value and, where a test
    reaches them, its chart partials (no star radius, no stacked closed
    form).  The root solve brackets ray by ray and the Hessian runs node by
    node."""
    kind = "anon"

    def __init__(self, value, partials=None, second_partials=None):
        self._value, self._partials, self._second = value, partials, second_partials

    def value(self, M, p):
        return self._value(M, p)

    def partials(self, M, p):
        return np.asarray(self._partials(M, p), dtype=float)

    def second_partials(self, M, p):
        return np.asarray(self._second(M, p), dtype=float)


def bumped(M, p):
    """Non-radial in a polar chart: the mixed correction sum is nonzero in
    a warped model, where radial fields make it vanish."""
    return p[0] * (1.0 + 0.2 * math.cos(p[1]))


def bumped_partials(M, p):
    du = np.zeros(M.dim)
    du[:2] = 1.0 + 0.2 * math.cos(p[1]), -0.2 * p[0] * math.sin(p[1])
    return du


def bumped_second_partials(M, p):
    D2 = np.zeros((M.dim, M.dim))
    D2[0, 1] = D2[1, 0] = -0.2 * math.sin(p[1])
    D2[1, 1] = -0.2 * p[0] * math.cos(p[1])
    return D2


BUMPED = Anon(bumped, bumped_partials, bumped_second_partials)


def cases():
    """(model, field) pairs covering every model family and field kind."""
    out = []
    for M in (euclidean(3), euclidean(4)):
        out += [(M, RadialDistanceField()), (M, RadialSquaredHalfField()),
                (M, RadialDistanceField(center=[0.1] * M.dim)),
                (M, QuadraticFormField(np.diag(np.arange(1.0, M.dim + 1))))]
    for M in (constant_curvature(-1.0, 3), constant_curvature(-0.5, 4)):
        out += [(M, RadialDistanceField()), (M, RadialSquaredHalfField()),
                (M, OffCenterDistanceField(0.3))]
    for n in (3, 4):
        M = warped(poly3_profile(), n)
        out += [(M, RadialDistanceField()), (M, RadialSquaredHalfField()), (M, BUMPED)]
    return out


CASES = cases()
IDS = [f"{M.label}-n{M.dim}-{u.kind}{'-c' if getattr(u, 'center', None) is not None else ''}"
       for M, u in CASES]


def sample_points(M, seed, count=12):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        r = rng.uniform(0.5, 1.5)
        angles = [rng.uniform(0.3, math.pi - 0.3) for _ in range(M.dim - 2)]
        angles.append(rng.uniform(0.0, 2 * math.pi))
        pts.append([r] + angles if M.chart == "polar" else r * sphere_direction(angles))
    return np.array(pts)


def close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= REL * max(1.0, float(np.abs(b).max())))


def test_bumped_partials_match_the_fd_oracle():
    for n in (3, 4):
        M = warped(poly3_profile(), n)
        for p in sample_points(M, 31):
            got, fd = hessian_frame(BUMPED, M, p), hessian_frame_fd(BUMPED, M, p, h=1e-4)
            assert np.max(np.abs(got.grad_frame - fd.grad_frame)) <= 1e-7
            assert np.max(np.abs(got.hess_frame - fd.hess_frame)) <= 1e-6


@pytest.mark.parametrize("M,u", CASES, ids=IDS)
def test_stacked_frames_match_pointwise(M, u):
    P = sample_points(M, 7)
    hs = hessian_frame_stack(u, M, P)
    ps = principal_frame_stack(hs)
    es = elementary_all_stack(ps.kappa)
    for k, p in enumerate(P):
        hd = hessian_frame(u, M, p)
        for name in ("grad_norm", "hess_frame", "frame_scale", "grad_frame"):
            close(getattr(hs, name)[k], getattr(hd, name))
        pf = principal_frame(hd)
        chart = np.diag(hs.frame_scale[k]) @ ps.frame[k]
        dirs = chart[:, :-1]
        close(ps.kappa[k], pf.kappa)
        close(chart[:, -1], pf.nu)
        # invariant under the eigenvector choice inside repeated eigenvalues
        close(dirs @ np.diag(ps.kappa[k]) @ dirs.T,
              pf.directions @ np.diag(pf.kappa) @ pf.directions.T)
        close(dirs @ ps.grad_norm_derivs[k], pf.directions @ pf.grad_norm_derivs)
        # sigma_r: the same recurrence on the same kappa gives the same bits
        for r in range(M.dim + 1):
            assert (es[k, r] if r < M.dim else 0.0) == sigma_elementary(ps.kappa[k], r)


UNSTACKED = [(i, c) for i, c in zip(IDS, CASES) if not c[1].stacked]


@pytest.mark.parametrize("M,u", [c for _, c in UNSTACKED], ids=[i for i, _ in UNSTACKED])
def test_per_node_stack_rows_are_the_pointwise_records(M, u):
    """The per-node route of hessian_frame_stack (fields without stacked
    closed forms) holds each node's hessian_frame record, bit for bit, in
    arrays of its own."""
    P = sample_points(M, 7)
    hs = hessian_frame_stack(u, M, P)
    for k, p in enumerate(P):
        hd = hessian_frame(u, M, p)
        for name in ("grad_norm", "hess_frame", "frame_scale", "grad_frame"):
            assert np.asarray(getattr(hs, name)[k]).tobytes() == np.asarray(
                getattr(hd, name)).tobytes(), (k, name)
    assert all(getattr(hs, name).flags.owndata
               for name in ("grad_norm", "hess_frame", "frame_scale", "grad_frame"))


@pytest.mark.parametrize("M", [euclidean(3), warped(poly3_profile(), 3)], ids=["flat", "poly3"])
def test_pointwise_records_own_their_arrays(M):
    """A field that hands out one stored gradient and Hessian: hessian_frame
    copies them, on a Cartesian chart too, where it does not scale them."""
    g, H = np.array([1.0, 0.5, 0.25]), np.diag([1.0, 2.0, 3.0])
    u = Anon(lambda M, p: float(g @ p), lambda M, p: g, lambda M, p: H)
    hd = hessian_frame(u, M, [1.0, 1.0, 1.0])
    for name in ("hess_frame", "frame_scale", "grad_frame"):
        assert not np.shares_memory(getattr(hd, name), g)
        assert not np.shares_memory(getattr(hd, name), H)


@pytest.mark.parametrize("M,u", CASES, ids=IDS)
def test_stacked_curvature_and_corrections_match_pointwise(M, u):
    P = sample_points(M, 11)
    hs = hessian_frame_stack(u, M, P)
    ps = principal_frame_stack(hs)
    rs = riemann_stack(M, P, ps.frame)
    for k, p in enumerate(P):
        rd = riemann_at(M, p, np.diag(hs.frame_scale[k]) @ ps.frame[k])
        close(rs.R[k], rd.R)
        close(rs.K[k], rd.K)
        close(rs.ricci_n[k], rd.ricci_n)
    if M.is_flat:
        return
    for r in range(M.dim):
        sect, mixed = correction_sums_stack(ps.kappa, ps.grad_norm_derivs, rs, hs.grad_norm, r)
        for k, p in enumerate(P):
            s1, m1 = correction_terms_pointwise(u, M, p, r)
            scale = max(1.0, abs(s1), abs(m1))
            assert abs(sect[k] - s1) <= REL * scale
            assert abs(mixed[k] - m1) <= REL * scale


@pytest.mark.parametrize("M,u", [c for c in CASES if not c[0].is_flat],
                         ids=[i for i, c in zip(IDS, CASES) if not c[0].is_flat])
def test_stacked_div_newton_matches_pointwise(M, u):
    P = sample_points(M, 13)
    hs = hessian_frame_stack(u, M, P)
    for r in range(1, M.dim):
        dn = div_newton_stack(M, P, hs, r)
        for k, p in enumerate(P):
            close(dn[k], div_newton_frame(u, M, p, r))


@pytest.mark.parametrize("M", [constant_curvature(-1.0, 3), euclidean(4)],
                         ids=lambda M: f"{M.label}-{M.dim}")
def test_offcenter_stack_makes_no_per_node_call(M, monkeypatch):
    def per_node(*args, **kwargs):
        raise AssertionError("hessian_frame called per node")

    u = OffCenterDistanceField(0.3)
    P = sample_points(M, 29)
    want = [hessian_frame(u, M, p) for p in P]
    monkeypatch.setattr(level_set_geometry, "hessian_frame", per_node)
    hs = hessian_frame_stack(u, M, P)
    for k, hd in enumerate(want):
        close(hs.hess_frame[k], hd.hess_frame)


def test_stacked_newton_operators_match_newton_matrices():
    # member T_k against the natural scale |H|^k: T_n is roundoff about 0
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        A = rng.normal(size=(8, n, n))
        stack = A + A.transpose(0, 2, 1)
        stack[0] = np.diag(np.arange(1.0, n + 1))
        for r in range(n + 1):
            mats = newton_matrices_stack(stack, r)
            assert len(mats) == r + 1
            for k, H in enumerate(stack):
                scale = max(1.0, float(np.abs(H).max()))
                for j, (T, want) in enumerate(zip(mats, newton_matrices(H, r))):
                    assert np.all(np.abs(T[k] - want) <= REL * scale ** j), (n, r, j)
    with pytest.raises(ValueError, match="0 <= r <= 3"):
        newton_matrices_stack(np.array([np.eye(3)]), 4)
    with pytest.raises(ValueError, match="matrix 1 of the stack is not symmetric"):
        newton_matrices_stack(np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]]), 1)


# the FD oracle differences O(1) Newton operators over 2h = 2e-3, so the
# stack's roundoff gap to the pointwise oracle grows like 1/h (measured at
# most 4.6e-13 on the grid below, with oracle values up to 3.5)
DIV_FD_ABS = 5e-12


@pytest.mark.parametrize("M,u,r", list(_field_grid(_default_models(), 1)),
                         ids=lambda v: getattr(v, "label", getattr(v, "kind", None)))
def test_stacked_div_newton_fd_matches_pointwise(M, u, r):
    rng = np.random.default_rng(23)
    P = _sample_points(M, rng, 6)
    fd = div_newton_fd_stack(u, M, P, hessian_frame_stack(u, M, P), r, h=1e-3)
    assert fd.shape == P.shape
    for k, p in enumerate(P):
        assert np.max(np.abs(fd[k] - div_newton_fd(u, M, p, r, h=1e-3))) <= DIV_FD_ABS


def test_stacked_algebra_route_matches_per_matrix_sigma():
    # 20 symmetric matrices per n = 2..6, the size of a quick algebra case
    rng = np.random.default_rng(12345)
    for n in range(2, 7):
        A = np.array([rng.normal(size=(n, n)) for _ in range(20)])
        H = A + A.transpose(0, 2, 1)
        e = elementary_all_stack(eigh_stack(H)[0])
        traces = trace_identity_residual_stack(H, e)
        for k in range(len(H)):
            for r in range(n + 1):
                assert float(e[k, r]).hex() == sigma_hessian_eig(H[k], r).hex(), (n, k, r)
            scale = max(1.0, float(np.abs(H[k]).max()))
            for r in range(n):
                want = trace_identity_residual(H[k], r)
                assert abs(traces[k, r] - want) <= 1e-13 * scale ** (r + 1), (n, k, r)
    with pytest.raises(ValueError, match="e must be 1x4"):
        trace_identity_residual_stack(np.eye(3)[None], np.ones((1, 3)))


def package_modules():
    return [curvatura] + [importlib.import_module(f"curvatura.{m.name}")
                          for m in pkgutil.iter_modules(curvatura.__path__)]


def test_no_oracle_name_is_defined_in_the_package():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert {"principal_frame", "riemann_at", "newton_matrices", "fd_partials",
            "hessian_frame_fd", "pairwise_sum_recursive"} <= defined
    back = {(mod.__name__, name) for mod in package_modules() for name in defined
            if hasattr(mod, name)}
    assert back == set()


def test_retired_per_point_chart_kernels_stay_out_of_the_package():
    # the chart has one implementation, per node stack (chart_stack,
    # christoffel_stack); the geodesic-sphere data had no reader
    retired = {"metric_diag", "christoffel_at", "_polar_guard", "sphere_data"}
    back = {(mod.__name__, name) for mod in package_modules() for name in retired
            if hasattr(mod, name)}
    assert back == set()


def test_retired_field_decisions_stay_out_of_the_package():
    # check(M) is a field's one compatibility test, the CLI builds fields
    # with their constructors, and quadrature._star_radius derives level
    # spheres from ball_radius; so no module or class defines these
    retired = {"field_from_spec", "star_radius", "_check", "_bind_check"}
    owners = package_modules()
    owners += [cls for mod in package_modules() for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__.startswith("curvatura")]
    back = {(owner.__qualname__ if isinstance(owner, type) else owner.__name__, name)
            for owner in owners for name in retired if hasattr(owner, name)}
    assert back == set()


def test_every_public_name_is_used_in_the_package_or_exported():
    # a public module-level function or class is called or read by package
    # code other than its definition, or exported by curvatura/__init__.py
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(curvatura.__file__).parent.glob("*.py")}
    exported = {alias.asname or alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = {(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used | exported}
    assert unused == set()


@pytest.mark.parametrize("M,u", CASES, ids=IDS)
def test_per_row_orders_give_each_row_the_bits_of_its_order_alone(M, u):
    # orders interleaved over the stack, so each order's rows are scattered
    P = sample_points(M, 37)
    orders = np.arange(len(P)) % M.dim
    lhs, rhs = reilly2_sides_stack(u, M, P, orders)
    for r in range(M.dim):
        rows = orders == r
        alone = reilly2_sides_stack(u, M, P[rows], r)
        assert lhs[rows].tobytes() == alone[0].tobytes()
        assert rhs[rows].tobytes() == alone[1].tobytes()
    orders = np.maximum(orders, 1)
    hs = hessian_frame_stack(u, M, P)
    ps = principal_frame_stack(hs)
    got = {"reilly1": reilly1_residual_stack(u, M, P, orders, (2e-3, 1e-3)),
           "div": div_newton_stack(M, P, hs, orders),
           "fd": div_newton_fd_stack(u, M, P, hs, orders, h=1e-3),
           "corr": np.stack(correction_sums_stack(ps.kappa, ps.grad_norm_derivs,
                                                  riemann_stack(M, P, ps.frame),
                                                  hs.grad_norm, orders), axis=1)}
    for r in range(1, M.dim):
        rows = orders == r
        Pr = P[rows]
        hr = hessian_frame_stack(u, M, Pr)
        pr = principal_frame_stack(hr)
        want = {"reilly1": reilly1_residual_stack(u, M, Pr, r, (2e-3, 1e-3)),
                "div": div_newton_stack(M, Pr, hr, r),
                "fd": div_newton_fd_stack(u, M, Pr, hr, r, h=1e-3),
                "corr": np.stack(correction_sums_stack(pr.kappa, pr.grad_norm_derivs,
                                                       riemann_stack(M, Pr, pr.frame),
                                                       hr.grad_norm, r), axis=1)}
        for name, value in want.items():
            part = got[name][:, rows] if name == "reilly1" else got[name][rows]
            assert part.tobytes() == value.tobytes(), (name, r)


def test_per_row_orders_are_checked():
    M, u = constant_curvature(-1.0, 3), RadialDistanceField()
    P = sample_points(M, 41, count=4)
    hs = hessian_frame_stack(u, M, P)
    with pytest.raises(ValueError, match="order r must be >= 1, got 0"):
        div_newton_stack(M, P, hs, np.array([1, 0, 2, 1]))
    with pytest.raises(ValueError, match="order r must be >= 1, got 0"):
        reilly1_residual_stack(u, M, P, np.array([2, 2, 0, 1]), (1e-3,))
    with pytest.raises(ValueError, match="per-row orders must be 4 integers"):
        reilly2_sides_stack(u, M, P, np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="per-row orders must be 4 integers"):
        reilly2_sides_stack(u, M, P, np.array([0.0, 1.0, 2.0, 1.0]))


# reilly1's LHS is a central difference of O(1) values, so the stack's
# roundoff gap to the pointwise route grows like 1/h (measured at most
# 9e-16 / h on the grid below)
REILLY1_ABS = 1e-13


@pytest.mark.parametrize("M,u,r", list(_field_grid(_default_models(), 0)),
                         ids=lambda v: getattr(v, "label", getattr(v, "kind", None)))
def test_stacked_reilly_sides_and_residuals_match_pointwise(M, u, r):
    rng = np.random.default_rng(19)
    P = _sample_points(M, rng, 6)
    lhs, rhs = reilly2_sides_stack(u, M, P, r)
    for k, p in enumerate(P):
        want = _reilly2_sides(u, M, p, r)
        close([lhs[k], rhs[k]], want)
    if r == 0:
        return
    h = 2e-3
    res = reilly1_residual_stack(u, M, P, r, (h, h / 2))
    assert res.shape == (2, len(P))
    for j, step in enumerate((h, h / 2)):
        for k, p in enumerate(P):
            assert abs(res[j, k] - reilly1_residual(u, M, p, r, step)) <= REILLY1_ABS / step


@pytest.mark.parametrize("M,u,level", [
    (euclidean(3), QuadraticFormField(np.diag([1.0, 1.0, 4.0])), 0.5),
    (euclidean(4), Anon(lambda M, p: 0.5 * float(p @ p) + 0.1 * p[0]), 0.7),
    (constant_curvature(-1.0, 3), OffCenterDistanceField(0.3), 0.8),
    (constant_curvature(-1.0, 4), BUMPED, 1.1),
    (euclidean(3), RadialDistanceField(center=[0.1, 0.0, -0.05]), 0.8),
    (constant_curvature(-1.0, 3), RadialSquaredHalfField(), 0.5),
])
def test_stacked_root_solve_matches_per_ray(M, u, level):
    rng = np.random.default_rng(3)
    angles = np.column_stack([rng.uniform(0.2, math.pi - 0.2, 20) for _ in range(M.dim - 2)]
                             + [rng.uniform(0.0, 2 * math.pi, 20)])
    rays = angles if M.chart == "polar" else sphere_direction(angles)
    solved = np.full(len(rays), math.nan)
    radii = find_level_radii(u, M, np.full(len(rays), level), rays, solved)
    assert radii.tolist() == [find_level_radius(u, M, level, a) for a in rays]
    levels = np.linspace(level, 1.5 * level, len(rays))
    radii = find_level_radii(u, M, levels, rays, solved)
    assert radii.tolist() == [find_level_radius(u, M, c, a) for c, a in zip(levels, rays)]


def test_stacked_eigh_is_eigh_on_each_matrix():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 5):
        stack = []
        for k in range(40):
            A = rng.normal(size=(m, m))
            A = A + A.T
            if k % 3 == 0:
                A = np.diag(np.diag(A))          # keeps its sorted diagonal
            if k % 5 == 0:
                A = np.diag(np.full(m, 1.5))     # repeated eigenvalues
            stack.append(A)
        w, V = eigh_stack(np.array(stack))
        for k, A in enumerate(stack):
            wk, Vk = eigh(A)
            assert w[k].tobytes() == wk.tobytes()
            assert V[k].tobytes() == Vk.tobytes()


def test_stacked_eigh_validates_the_stack():
    with pytest.raises(ValueError):
        eigh_stack(np.array([np.eye(3), [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]))
    with pytest.raises(ValueError):
        eigh_stack(np.ones((2, 3, 4)))
    with pytest.raises(ValueError):
        eigh_stack(np.array([np.eye(2), [[np.nan, 1.0], [1.0, 2.0]]]))
    # entries that overflow when symmetrized, as eigh refuses them
    for A in ([[1.0, 1e308], [1e308, 2.0]], [[1e308, 1.0], [1.0, 2.0]]):
        with pytest.raises(ValueError, match="matrix 1 of the stack overflows"):
            eigh_stack(np.array([np.eye(2), A]))


# ---------------------------------------------------------------------------
# Guards: the stacked route raises what the pointwise route raises
# ---------------------------------------------------------------------------

def test_axis_point_raises():
    M = constant_curvature(-1.0, 3)
    u = RadialDistanceField()
    P = np.array([[1.0, 1.0, 0.5], [1.0, 0.0, 0.5]])
    with pytest.raises(ChartSingularityError):
        hessian_frame(u, M, P[1])
    with pytest.raises(ChartSingularityError, match="node 1"):
        hessian_frame_stack(u, M, P)
    # an unstacked field's per-node route names the node once
    with pytest.raises(ChartSingularityError,
                       match=r"^node 1: polar chart is singular on the axis \(angle 1\)$"):
        hessian_frame_stack(BUMPED, M, P)


def test_point_beyond_working_radius_raises():
    M = constant_curvature(-1.0, 3)
    u = RadialDistanceField()
    P = np.array([[11.0, 1.0, 0.5]])
    with pytest.raises(ChartSingularityError):
        hessian_frame(u, M, P[0])
    with pytest.raises(ChartSingularityError, match="working radius"):
        hessian_frame_stack(u, M, P)


def test_degenerate_gradient_raises():
    M = euclidean(3)
    u = RadialSquaredHalfField(center=[0.2, 0.0, 0.0])
    P = np.array([[1.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
    with pytest.raises(DegenerateGradientError):
        principal_frame(hessian_frame(u, M, P[1]))
    with pytest.raises(DegenerateGradientError, match="node 1"):
        principal_frame_stack(hessian_frame_stack(u, M, P))
    with pytest.raises(DegenerateGradientError, match="node 1: .*div"):
        div_newton_stack(M, P, hessian_frame_stack(u, M, P), 1)
    with pytest.raises(DegenerateGradientError, match="node 1: .*center point"):
        reilly1_residual_stack(u, M, P, 1, (1e-3,))
    # the centres are regular; the stencil of node 0 steps onto the centre
    with pytest.raises(DegenerateGradientError, match="stencil"):
        reilly1_residual_stack(u, M, np.array([[0.2 + 1e-3, 0.0, 0.0]]), 1, (1e-3,))


def test_nan_gradient_raises():
    # |grad u| is NaN at a distance field's own centre
    M = euclidean(3)
    c = [0.3, 0.1, 0.2]
    u = RadialDistanceField(center=c)
    P = np.array([[1.0, 0.0, 0.0], c])
    with np.errstate(invalid="ignore"):
        with pytest.raises(DegenerateGradientError):
            principal_frame(hessian_frame(u, M, P[1]))
        with pytest.raises(DegenerateGradientError, match="node 1"):
            principal_frame_stack(hessian_frame_stack(u, M, P))


def nan_past(edge):
    """u = |x|^2 / 2, NaN beyond radius `edge` on the half space x0 < 0."""
    def value(M, p):
        q = float(p @ p)
        return math.nan if p[0] < 0 and q > edge ** 2 else 0.5 * q
    return Anon(value)


def test_nan_values_are_refused_by_the_root_solve():
    M = euclidean(3)
    ray = sphere_direction([2.5, 2.0])       # x0 = cos 2.5 < 0
    u = nan_past(0.6)
    with pytest.raises(GeometryError, match=r"root polish failed: \|u - c\| = nan"):
        find_level_radius(u, M, 0.5, ray)
    with pytest.raises(GeometryError, match=r"^node \d+: root polish failed"):
        surface_integral(u, M, 0.5, ones, SPEC)
    with pytest.raises(GeometryError, match=r"does not enclose the ray origin \(u - c = nan"):
        find_level_radius(nan_past(0.0), M, 0.5, ray)


def test_frame_gram_check_raises():
    # riemann_at takes chart components, riemann_stack frame components: the
    # orthonormal frame of each basis is not orthonormal in the other
    M = warped(poly3_profile(), 3)
    p = np.array([1.0, 1.0, 0.5])
    chart = np.diag(hessian_frame(RadialDistanceField(), M, p).frame_scale)
    riemann_at(M, p, chart)
    riemann_stack(M, p[None, :], np.eye(3)[None])
    with pytest.raises(ValueError):
        riemann_at(M, p, np.eye(3))
    with pytest.raises(ValueError, match="g-orthonormal"):
        riemann_stack(M, p[None, :], chart[None])


def test_level_not_enclosing_origin_raises():
    M = constant_curvature(-1.0, 3)
    u = OffCenterDistanceField(0.5)
    with pytest.raises(GeometryError):
        find_level_radius(u, M, 0.3, np.array([1.0, 2.0]))
    with pytest.raises(GeometryError, match="does not enclose the ray origin"):
        surface_integral(u, M, 0.3, ones, SPEC)


def test_no_crossing_within_working_radius_raises():
    M = euclidean(3)
    u = Anon(lambda M, p: 0.5 * float(p @ p))
    with pytest.raises(GeometryError, match="working radius"):
        surface_integral(u, M, 100.0, ones, SPEC)


def test_crossing_between_eight_and_the_working_radius_is_found():
    # the bracket doubles 0.25 .. 8, then stops at the working radius 10
    M = constant_curvature(-1.0, 3)
    u = Anon(lambda M, p: p[0])
    assert find_level_radius(u, M, 9.0, np.array([1.0, 2.0])) == pytest.approx(9.0, rel=REL)
    with pytest.raises(GeometryError, match="working radius"):
        find_level_radius(u, M, 10.5, np.array([1.0, 2.0]))


def test_half_resolved_crossing_is_refused():
    M = euclidean(3)
    u = Anon(lambda M, p: 0.0 if float(p @ p) < 1.0 else 2.0)
    with pytest.raises(GeometryError, match="root polish failed"):
        find_level_radius(u, M, 1.0, sphere_direction([1.0, 2.0]))
    with pytest.raises(GeometryError, match="root polish failed"):
        surface_integral(u, M, 1.0, ones, SPEC)


def test_non_increasing_ray_raises():
    class Decreasing(RadialSquaredHalfField):
        def partials(self, M, p):
            return -super().partials(M, p)

        def partials_stack(self, M, P):
            return -super().partials_stack(M, P)

    class NaNBelow(RadialSquaredHalfField):
        def partials_stack(self, M, P):
            du = super().partials_stack(M, P)
            return np.where(lower_cap(P)[:, None], np.nan, du)

    M = euclidean(3)
    for field in (Decreasing, NaNBelow):
        u = field(center=[0.0, 0.0, 1e-3])
        with pytest.raises(GeometryError, match="not increasing along the ray"):
            surface_integral(u, M, 0.5, ones, SPEC)


def lower_cap(P):
    """Rows of a Cartesian point stack pointing well below the equator."""
    P = np.asarray(P, dtype=float)
    return P[..., 2] < -0.4 * np.sqrt(np.sum(P * P, axis=-1))


def first_failure(run, splits, monkeypatch):
    """The message of the error that run() raises under each (_CHUNK,
    threads) split, checked to be the same for all of them."""
    messages = set()
    for chunk, threads in splits:
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        with pytest.raises((CurvaturaError, ValueError)) as info:
            run(threads)
        messages.add(str(info.value))
    assert len(messages) == 1
    return messages.pop()


SPLITS = [(4096, 1), (7, 1), (7, 3), (4096, 2)]


def stretched_along(M, direction):
    """An integrand whose frame fails riemann_stack's gram check at the
    nodes on the ray along `direction` (a Cartesian point stack)."""
    def integrand(P, chart):
        at = np.sum((P / np.linalg.norm(P, axis=-1, keepdims=True) - direction) ** 2,
                    axis=-1) < 1e-20
        F = np.where(at[:, None, None], 2.0 * np.eye(3), np.eye(3))
        return riemann_stack(M, P, F).ricci_n
    return integrand


def test_guards_name_the_node_of_the_rule_whatever_the_split(monkeypatch):
    M = euclidean(3)

    class DownhillBelow(RadialSquaredHalfField):
        """u decreases along the rays of the lower cap at the crossing."""
        def partials_stack(self, M, P):
            du = super().partials_stack(M, P)
            return np.where(lower_cap(P)[:, None], -du, du)

    grid = quadrature._angular_grid(3, SPEC.angular_for(3))
    first = int(np.argmax(lower_cap(grid[2])))
    assert first > 7                     # lies outside the first stack of 7
    u = DownhillBelow(center=[0.0, 0.0, 1e-3])
    msg = first_failure(lambda t: surface_integral(u, M, 0.5, ones, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg.startswith(f"node {first}: u is not increasing along the ray")

    # root solve: the rays of the lower cap never cross the level
    flat_below = Anon(lambda M, p: 0.0 if lower_cap(p) else 0.5 * float(p @ p),
                      lambda M, p: np.zeros(3) if lower_cap(p) else p,
                      lambda M, p: np.zeros((3, 3)) if lower_cap(p) else np.eye(3))
    msg = first_failure(lambda t: surface_integral(flat_below, M, 0.5, ones, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg.startswith(f"node {first}: no crossing of level 0.5")

    # inside the integrand: the gram check of riemann_stack
    def stretched_below(P, chart):
        F = np.where(lower_cap(P)[:, None, None], 2.0 * np.eye(3), np.eye(3))
        return riemann_stack(M, P, F).ricci_n
    msg = first_failure(lambda t: surface_integral(RadialDistanceField(), M, 1.0,
                                                   stretched_below, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg == f"node {first}: frame is not g-orthonormal"


def test_the_lowest_failing_node_is_named_whatever_the_split(monkeypatch):
    """Two nodes failing at different stages: the u_rho guard of the lower
    cap (first at node 10) and the gram check inside the integrand at node
    1.  Every split names node 1, at the stage where it fails."""
    M = euclidean(3)
    grid = quadrature._angular_grid(3, SPEC.angular_for(3))
    assert int(np.argmax(lower_cap(grid[2]))) == 10

    class DownhillBelow(RadialSquaredHalfField):
        def partials_stack(self, M, P):
            du = super().partials_stack(M, P)
            return np.where(lower_cap(P)[:, None], -du, du)

    u = DownhillBelow(center=[0.0, 0.0, 1e-3])
    integrand = stretched_along(M, grid[2][1])
    msg = first_failure(lambda t: surface_integral(u, M, 0.5, integrand, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg == "node 1: frame is not g-orthonormal"
    # a level refused whole, its sphere past the working radius, fails at
    # its first node (36), still above node 1 of the level before it
    msg = first_failure(lambda t: surface_integral(RadialDistanceField(), M, (0.5, 20.0),
                                                   integrand, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg == "node 1: frame is not g-orthonormal"
    msg = first_failure(lambda t: surface_integral(RadialDistanceField(), M, (0.5, 20.0),
                                                   ones, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg.startswith("node 0: the level-20 sphere (radius 20) lies beyond")


def test_a_level_family_names_the_node_within_its_level(monkeypatch):
    """A guard failing on the second level of a two-level stack raises the
    error of that level integrated alone."""
    M = euclidean(3)

    class DownhillBelowOuter(RadialSquaredHalfField):
        def partials_stack(self, M, P):
            du = super().partials_stack(M, P)
            outer = np.sum(P * P, axis=-1) > 2 * 0.55
            return np.where((lower_cap(P) & outer)[:, None], -du, du)

    u = DownhillBelowOuter(center=[0.0, 0.0, 1e-3])
    alone = first_failure(lambda t: surface_integral(u, M, 0.6, ones, SPEC, t),
                          SPLITS, monkeypatch)
    assert alone.startswith("node 10: u is not increasing along the ray")
    assert first_failure(lambda t: surface_integral(u, M, (0.5, 0.6), ones, SPEC, t),
                         SPLITS, monkeypatch) == alone


def test_a_companion_guard_names_the_node_of_the_companion(monkeypatch):
    """The rule and its halved-order companion run as one stack; a guard
    failing only at a companion node names its index in the companion."""
    M = euclidean(3)
    count = len(quadrature._angular_grid(3, SPEC.angular_for(3))[0])
    coarse = SPEC.coarser()
    directions = quadrature._angular_grid(3, coarse.angular_for(3))[2]
    k = 5
    target = directions[k]

    def at_target(P):
        P = np.asarray(P, dtype=float)
        return np.sum((P / np.linalg.norm(P, axis=-1, keepdims=True) - target) ** 2,
                      axis=-1) < 1e-20

    class DownhillAtTarget(RadialSquaredHalfField):
        def partials_stack(self, M, P):
            du = super().partials_stack(M, P)
            return np.where(at_target(P)[:, None], -du, du)

    splits = SPLITS + [(count - 1, 1), (count, 2), (count + 1, 1), (count + 1, 2)]
    u = DownhillAtTarget(center=[0.0, 0.0, 1e-3])
    msg = first_failure(lambda t: surface_integral(u, M, 0.5, ones, SPEC, t),
                        splits, monkeypatch)
    assert msg.startswith(f"node {k}: u is not increasing along the ray")

    def stretched_at_target(P, chart):
        F = np.where(at_target(P)[:, None, None], 2.0 * np.eye(3), np.eye(3))
        return riemann_stack(M, P, F).ricci_n
    msg = first_failure(lambda t: surface_integral(RadialDistanceField(), M, 1.0,
                                                   stretched_at_target, SPEC, t),
                        splits, monkeypatch)
    assert msg == f"node {k}: frame is not g-orthonormal"


# ---------------------------------------------------------------------------
# Integrand contract and the split of a rule into stacks
# ---------------------------------------------------------------------------

def test_integrand_gets_point_stacks_covering_the_rule(monkeypatch):
    M = euclidean(3)
    u = RadialSquaredHalfField()
    seen = []

    def area(P, chart):
        seen.append(np.shape(P))
        assert np.array_equal(chart.D, np.ones(np.shape(P)))
        return np.ones(len(P))

    monkeypatch.setattr(quadrature, "_CHUNK", 100)
    res = surface_integral(u, M, 0.5, area, QuadratureSpec(angular_orders=(16,)))
    assert abs(res.value - 4 * math.pi) <= 1e-10
    assert res.node_count == 256
    # the rule (16 x 16) and its halved companion (8 x 8) as one stack of
    # 320 nodes, in chunks of at most 100
    assert seen == [(100, 3), (100, 3), (100, 3), (20, 3)]


def test_rows_do_not_depend_on_the_split(monkeypatch):
    M = constant_curvature(-1.0, 4)
    u = RadialDistanceField()
    whole = comparison_rhs(u, M, (0.5, 1.0), 2, SPEC)
    mono = total_mean_curvature(u, M, 0.8, 2, SPEC)
    # the surface rule has 6^3 nodes and the coarea rule 3 levels of them:
    # chunks of one node more or less than a rule end next to its seam
    # with the companion
    surface, coarea = 6 ** 3, 3 * 6 ** 3
    for chunk, threads in [(7, 1), (7, 2), (7, 3), (surface - 1, 1), (surface + 1, 2),
                           (coarea - 1, 2), (coarea + 1, 1)]:
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        split = comparison_rhs(u, M, (0.5, 1.0), 2, SPEC, threads)
        assert split.to_record() == whole.to_record()
        assert total_mean_curvature(u, M, 0.8, 2, SPEC, threads) == mono


LEVEL_FAMILIES = [
    (RadialDistanceField(), constant_curvature(-1.0, 3), (0.5, 1.0, 0.5)),
    (RadialDistanceField(), warped(poly3_profile(), 3), (0.3, 1.1)),
    (QuadraticFormField(np.diag([1.0, 2.0, 4.0])), euclidean(3), (0.5, 1.0)),
    (OffCenterDistanceField(0.3), constant_curvature(-1.0, 3), (0.7, 1.2)),
]


def hexed(value, estimate, nodes):
    return float(value).hex(), float(estimate).hex(), nodes


@pytest.mark.parametrize("chunk,threads", [(7, 1), (7, 2), (4096, 1), (4096, 2)])
@pytest.mark.parametrize("u,M,levels", LEVEL_FAMILIES,
                         ids=["radial-H3", "radial-poly3", "quadratic-E3", "offcenter-H3"])
def test_a_level_family_equals_its_levels_alone(monkeypatch, chunk, threads, u, M, levels):
    """Several levels in one node stack (the last H3 level repeats the
    first): every value and estimate is bit-identical to its level's own
    call, and the node count is that of all the levels."""
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)

    def integrand(P, chart):   # the smallest principal curvature
        return principal_frame_stack(hessian_frame_stack(u, M, P, chart)).kappa[:, 0]

    values, errs, nodes = surface_integral(u, M, levels, integrand, SPEC, threads)
    alone = [surface_integral(u, M, c, integrand, SPEC, threads) for c in levels]
    assert [hexed(v, e, nodes // len(levels)) for v, e in zip(values, errs)] == \
        [hexed(a.value, a.error_estimate, a.node_count) for a in alone]
    assert nodes == sum(a.node_count for a in alone)
    for r in (0, 2):
        reps = total_mean_curvature(u, M, levels, r, SPEC, threads)
        alone = [total_mean_curvature(u, M, c, r, SPEC, threads) for c in levels]
        assert [(hexed(a.value, a.error_estimate, a.node_count), a.level) for a in reps] == \
            [(hexed(a.value, a.error_estimate, a.node_count), a.level) for a in alone]


def counting_passes(monkeypatch):
    """Counters of the public integral entries and of the _rule_rows passes,
    wrapped in the quadrature and curvature_integrals namespaces."""
    calls = {"entries": 0, "passes": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(quadrature, "_rule_rows", counting(quadrature._rule_rows, "passes"))
    for name in ("surface_integral", "coarea_volume_integral",
                 "coarea_volume_integral_multi"):
        fn = getattr(quadrature, name)
        for mod in (quadrature, curvature_integrals):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(fn, "entries"))
    return calls


def test_the_quick_asymptotic_suite_makes_one_pass_per_model_and_order(monkeypatch):
    # 3 models x 3 orders, each over its 4 radii in one node stack
    calls = counting_passes(monkeypatch)
    assert run_suite(SuiteConfig(suite="asymptotic", quick=True)).passed
    assert calls == {"entries": 9, "passes": 9}


def test_each_integral_makes_one_rule_rows_pass(monkeypatch):
    """A rule and its companion share one _rule_rows pass, for every public
    integral, also when called from the curvature integrals and the
    suites."""
    calls = counting_passes(monkeypatch)
    M = constant_curvature(-1.0, 3)
    u = RadialDistanceField()
    quadrature.surface_integral(u, M, 0.8, ones, SPEC)
    quadrature.coarea_volume_integral(u, M, (0.5, 1.0), ones, SPEC, 2)
    quadrature.coarea_volume_integral_multi(
        u, M, (0.5, 1.0), lambda P, chart: np.ones((len(P), 2)), SPEC, 2)
    assert calls == {"entries": 3, "passes": 3}
    comparison_rhs(u, M, (0.5, 1.0), 1, SPEC)
    total_mean_curvature(u, M, 0.8, 2, SPEC, 2)
    total_mean_curvature(u, M, (0.5, 0.8), 1, SPEC)
    run_suite(SuiteConfig(suite="asymptotic", quick=True))
    assert calls["entries"] > 15
    assert calls["passes"] == calls["entries"]
