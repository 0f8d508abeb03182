"""The stacked node kernel against the pointwise API it replaced in the
quadrature: hessian_frame, principal_frame, riemann_at, sigma_elementary,
the correction sums, the per-ray root solve and jacobi_eigh are its oracles.
Also the guards of the stacked route, and the per-point integrand contract."""

import math

import numpy as np
import pytest

import curvatura.quadrature as quadrature
from curvatura.curvature_integrals import (
    comparison_rhs,
    correction_sums_stack,
    correction_terms_pointwise,
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
    hessian_frame,
    hessian_frame_stack,
    principal_frame,
    principal_frame_stack,
    sphere_direction,
)
from curvatura.model_manifolds import (
    constant_curvature,
    euclidean,
    poly3_profile,
    riemann_at,
    riemann_stack,
    warped,
)
from curvatura.quadrature import (
    QuadratureSpec,
    find_level_radii,
    find_level_radius,
    stacked_integrand,
    surface_integral,
)
from curvatura.symmetric_algebra import (
    elementary_all_stack,
    jacobi_eigh,
    jacobi_eigh_stack,
    sigma_elementary,
)

REL = 1e-12
SPEC = QuadratureSpec(angular_orders=(6,), level_order=3)


class Anon(ScalarField):
    """A field known only through its per-point value (no star radius, no
    stacked closed form): the root solve brackets ray by ray and
    derivatives take the finite-difference route."""
    kind = "anon"

    def __init__(self, value):
        self._value = value

    def value(self, M, p):
        return self._value(M, p)


def bumped(M, p):
    """Non-radial in a polar chart: the mixed correction sum is nonzero in
    a warped model, where radial fields make it vanish."""
    return p[0] * (1.0 + 0.2 * math.cos(p[1]))


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
        out += [(M, RadialDistanceField()), (M, RadialSquaredHalfField()), (M, Anon(bumped))]
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


@pytest.mark.parametrize("M,u", CASES, ids=IDS)
def test_stacked_frames_match_pointwise(M, u):
    P = sample_points(M, 7)
    hs = hessian_frame_stack(u, M, P)
    ps = principal_frame_stack(hs, M)
    es = elementary_all_stack(ps.kappa)
    for k, p in enumerate(P):
        hd = hessian_frame(u, M, p)
        for name in ("value", "grad", "grad_norm", "hess_frame", "frame", "grad_frame"):
            close(getattr(hs, name)[k], getattr(hd, name))
        pf = principal_frame(hd, M, p)
        close(ps.kappa[k], pf.kappa)
        close(ps.nu[k], pf.nu)
        # invariant under the eigenvector choice inside repeated eigenvalues
        close(ps.directions[k] @ np.diag(ps.kappa[k]) @ ps.directions[k].T,
              pf.directions @ np.diag(pf.kappa) @ pf.directions.T)
        close(ps.directions[k] @ ps.grad_norm_derivs[k], pf.directions @ pf.grad_norm_derivs)
        # sigma_r: the same recurrence on the same kappa gives the same bits
        for r in range(M.dim + 1):
            assert (es[k, r] if r < M.dim else 0.0) == sigma_elementary(ps.kappa[k], r)


@pytest.mark.parametrize("M,u", CASES, ids=IDS)
def test_stacked_curvature_and_corrections_match_pointwise(M, u):
    P = sample_points(M, 11)
    hs = hessian_frame_stack(u, M, P)
    ps = principal_frame_stack(hs, M)
    frames = np.array([principal_frame(hessian_frame(u, M, p), M, p).frame_chart for p in P])
    rs = riemann_stack(M, P, frames)
    for k, p in enumerate(P):
        rd = riemann_at(M, p, frames[k])
        close(rs.R[k], rd.R)
        close(rs.K[k], rd.K)
        close(rs.ricci_n[k], rd.ricci_n)
    if M.is_flat:
        return
    rd = riemann_stack(M, P, ps.frame_chart)
    for r in range(M.dim):
        sect, mixed = correction_sums_stack(ps.kappa, ps.grad_norm_derivs, rd, hs.grad_norm, r)
        for k, p in enumerate(P):
            s1, m1 = correction_terms_pointwise(u, M, p, r)
            scale = max(1.0, abs(s1), abs(m1))
            assert abs(sect[k] - s1) <= REL * scale
            assert abs(mixed[k] - m1) <= REL * scale


@pytest.mark.parametrize("M,u,level", [
    (euclidean(3), QuadraticFormField(np.diag([1.0, 1.0, 4.0])), 0.5),
    (euclidean(4), Anon(lambda M, p: 0.5 * float(p @ p) + 0.1 * p[0]), 0.7),
    (constant_curvature(-1.0, 3), OffCenterDistanceField(0.3), 0.8),
    (constant_curvature(-1.0, 4), Anon(bumped), 1.1),
    (euclidean(3), RadialDistanceField(center=[0.1, 0.0, -0.05]), 0.8),
    (constant_curvature(-1.0, 3), RadialSquaredHalfField(), 0.5),
])
def test_stacked_root_solve_matches_per_ray(M, u, level):
    rng = np.random.default_rng(3)
    angles = np.column_stack([rng.uniform(0.2, math.pi - 0.2, 20) for _ in range(M.dim - 2)]
                             + [rng.uniform(0.0, 2 * math.pi, 20)])
    radii = find_level_radii(u, M, level, angles)
    assert radii.tolist() == [find_level_radius(u, M, level, a) for a in angles]
    levels = np.linspace(level, 1.5 * level, len(angles))
    radii = find_level_radii(u, M, levels, angles)
    assert radii.tolist() == [find_level_radius(u, M, c, a) for c, a in zip(levels, angles)]


def test_stacked_jacobi_is_jacobi_on_each_matrix():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 5):
        stack = []
        for k in range(40):
            A = rng.normal(size=(m, m))
            A = A + A.T
            if k % 3 == 0:
                A = np.diag(np.diag(A))          # takes the no-rotation shortcut
            if k % 5 == 0:
                A = np.diag(np.full(m, 1.5))     # repeated eigenvalues
            stack.append(A)
        w, V = jacobi_eigh_stack(np.array(stack))
        for k, A in enumerate(stack):
            wk, Vk = jacobi_eigh(A)
            assert w[k].tobytes() == wk.tobytes()
            assert V[k].tobytes() == Vk.tobytes()


def test_stacked_jacobi_validates_the_stack():
    with pytest.raises(ValueError):
        jacobi_eigh_stack(np.array([np.eye(3), [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]))
    with pytest.raises(ValueError):
        jacobi_eigh_stack(np.ones((2, 3, 4)))
    with pytest.raises(RuntimeError):
        jacobi_eigh_stack(np.array([np.eye(2), [[np.nan, 1.0], [1.0, 2.0]]]))


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
        principal_frame(hessian_frame(u, M, P[1]), M, P[1])
    with pytest.raises(DegenerateGradientError, match="node 1"):
        principal_frame_stack(hessian_frame_stack(u, M, P), M)


def test_frame_gram_check_raises():
    M = warped(poly3_profile(), 3)
    p = np.array([1.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        riemann_at(M, p, np.eye(3))
    with pytest.raises(ValueError, match="g-orthonormal"):
        riemann_stack(M, p[None, :], np.eye(3)[None])


def test_level_not_enclosing_origin_raises():
    M = constant_curvature(-1.0, 3)
    u = OffCenterDistanceField(0.5)
    with pytest.raises(GeometryError):
        find_level_radius(u, M, 0.3, np.array([1.0, 2.0]))
    with pytest.raises(GeometryError, match="does not enclose the ray origin"):
        surface_integral(u, M, 0.3, lambda p: 1.0, SPEC)


def test_no_crossing_within_working_radius_raises():
    M = euclidean(3)
    u = Anon(lambda M, p: 0.5 * float(p @ p))
    with pytest.raises(GeometryError, match="working radius"):
        surface_integral(u, M, 100.0, lambda p: 1.0, SPEC)


def test_half_resolved_crossing_is_refused():
    M = euclidean(3)
    u = Anon(lambda M, p: 0.0 if float(p @ p) < 1.0 else 2.0)
    with pytest.raises(GeometryError, match="root polish failed"):
        find_level_radius(u, M, 1.0, np.array([1.0, 2.0]))
    with pytest.raises(GeometryError, match="root polish failed"):
        surface_integral(u, M, 1.0, lambda p: 1.0, SPEC)


def test_non_increasing_ray_raises():
    class Decreasing(RadialSquaredHalfField):
        def partials(self, M, p):
            return -super().partials(M, p)

        def partials_stack(self, M, P):
            return -super().partials_stack(M, P)

    M = euclidean(3)
    u = Decreasing(center=[0.0, 0.0, 1e-3])
    with pytest.raises(GeometryError, match="not increasing along the ray"):
        surface_integral(u, M, 0.5, lambda p: 1.0, SPEC)


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


def test_guards_name_the_node_of_the_rule_whatever_the_split(monkeypatch):
    M = euclidean(3)

    class DownhillBelow(RadialSquaredHalfField):
        """u decreases along the rays of the lower cap at the crossing."""
        def partials_stack(self, M, P):
            du = super().partials_stack(M, P)
            return np.where(lower_cap(P)[:, None], -du, du)

    grid = quadrature._angular_grid(3, SPEC.angular_for(3), SPEC.margin)
    first = int(np.argmax(lower_cap(grid[2])))
    assert first > 7                     # lies outside the first stack of 7
    u = DownhillBelow(center=[0.0, 0.0, 1e-3])
    msg = first_failure(lambda t: surface_integral(u, M, 0.5, lambda p: 1.0, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg.startswith(f"node {first}: u is not increasing along the ray")

    # root solve: the rays of the lower cap never cross the level
    flat_below = Anon(lambda M, p: 0.0 if lower_cap(p) else 0.5 * float(p @ p))
    msg = first_failure(lambda t: surface_integral(flat_below, M, 0.5, lambda p: 1.0, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg.startswith(f"node {first}: no crossing of level 0.5")

    # inside a stacked integrand: the gram check of riemann_stack
    @stacked_integrand
    def stretched_below(P):
        F = np.where(lower_cap(P)[:, None, None], 2.0 * np.eye(3), np.eye(3))
        return riemann_stack(M, P, F).ricci_n
    msg = first_failure(lambda t: surface_integral(RadialDistanceField(), M, 1.0,
                                                   stretched_below, SPEC, t),
                        SPLITS, monkeypatch)
    assert msg == f"node {first}: frame is not g-orthonormal"


# ---------------------------------------------------------------------------
# Integrand contract and the split of a rule into stacks
# ---------------------------------------------------------------------------

def test_plain_pointwise_integrand_gets_one_point_at_a_time():
    M = euclidean(3)
    u = RadialSquaredHalfField()
    seen = []

    def area(p):
        seen.append(np.shape(p))
        return 1.0

    res = surface_integral(u, M, 0.5, area, QuadratureSpec(angular_orders=(16,)))
    assert abs(res.value - 4 * math.pi) <= 1e-10
    assert set(seen) == {(3,)}
    assert res.node_count == 256


def test_rows_do_not_depend_on_the_split(monkeypatch):
    M = constant_curvature(-1.0, 4)
    u = RadialDistanceField()
    whole = comparison_rhs(u, M, (0.5, 1.0), 2, SPEC)
    mono = total_mean_curvature(u, M, 0.8, 2, SPEC)
    monkeypatch.setattr(quadrature, "_CHUNK", 7)
    for threads in (1, 3):
        split = comparison_rhs(u, M, (0.5, 1.0), 2, SPEC, threads)
        assert split.to_record() == whole.to_record()
        assert total_mean_curvature(u, M, 0.8, 2, SPEC, threads) == mono
