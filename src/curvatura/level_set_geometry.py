"""Scalar fields on model manifolds and the level-set geometry built on them:
covariant Hessians in orthonormal frames, principal curvature frames, r-th
mean curvatures of level sets, and pointwise residuals of the two Reilly-type
identities together with the curvature contraction for div(T_r).

Conventions.  Operations take chart coordinates as plain arrays.  The
orthonormal frame attached to a point is the one obtained from the triangular
factorization of the (diagonal) chart metric, i.e. E_a = (g_aa)^{-1/2} d_a;
"frame components" always refer to that frame unless a principal frame is
constructed explicitly.  The gradient-degeneracy cutoff is EPS_GRAD; below it
operations raise instead of regularizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import CurvaturaError, DegenerateGradientError, node_error
from .model_manifolds import (
    ModelManifold,
    christoffel_at,
    christoffel_stack,
    metric_diag,
    metric_diag_stack,
    riemann_at,
)
from .symmetric_algebra import (
    jacobi_eigh,
    jacobi_eigh_stack,
    matmul_stack,
    newton_matrices,
    parity_between,
    sigma_elementary,
)

EPS_GRAD = 1e-8


def sphere_direction(angles) -> np.ndarray:
    """Unit vector in R^n from n-1 iterated spherical angles."""
    angles = np.asarray(angles, dtype=float)
    out = np.empty(angles.size + 1)
    s = 1.0
    for m, a in enumerate(angles):
        out[m] = s * math.cos(a)
        s *= math.sin(a)
    out[-1] = s
    return out


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------

class ScalarField:
    """Base class: a smooth scalar field with optional analytic derivatives.

    value() must work everywhere on the working domain.  When `analytic` is
    true, partials() and second_partials() return chart coordinate partials
    d_i u and d_i d_j u; otherwise the Hessian machinery falls back to
    central finite differences of value().

    partials_stack and second_partials_stack take an (N, n) point stack and
    return the partials (N, n) and second partials (N, n, n) of every row.
    Fields with closed forms define both and set `stacked`; the base class
    defines only partials_stack, which calls partials() row by row.

    ball_radius(level) is the radius of the geodesic ball {u < level} when
    that set is one; star_radius(level) is that radius when the ball is
    centred on the chart base point.
    """

    kind = "abstract"
    analytic = False
    # true when the *_stack methods are closed forms: hessian_frame_stack
    # then differentiates the whole stack at once; otherwise it calls
    # hessian_frame per node.  The quadratic field is analytic but not
    # stacked only because perfbench counts one hessian_frame call per node
    # on its ellipsoid workload; once those counters read the stacked spans
    # (ROADMAP item 1), the route can key on `analytic` and this flag go.
    stacked = False

    def value(self, M: ModelManifold, p) -> float:
        raise NotImplementedError

    def partials(self, M: ModelManifold, p) -> np.ndarray:
        raise NotImplementedError

    def second_partials(self, M: ModelManifold, p) -> np.ndarray:
        raise NotImplementedError

    def partials_stack(self, M: ModelManifold, P) -> np.ndarray:
        return np.array([self.partials(M, p) for p in P], dtype=float).reshape(len(P), M.dim)

    def ball_radius(self, level: float):
        """None unless {u < level} is a geodesic ball (never for level <= 0)."""
        return None

    def star_radius(self, level: float):
        """Radius of the level sphere about the chart base point when the
        field is radial there; None for non-radial fields."""
        return None

    def describe(self) -> dict:
        return {"field": self.kind}


def _rowdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise dot products, summed in ascending index order."""
    out = X[:, 0] * Y[:, 0]
    for i in range(1, X.shape[1]):
        out = out + X[:, i] * Y[:, i]
    return out


def _centered(center, M: ModelManifold, P) -> np.ndarray:
    """A point, or a stack of points, less a radial field's Cartesian center
    (checked once per call)."""
    X = np.asarray(P, dtype=float)
    if center is not None:
        if M.chart != "cartesian":
            raise ValueError("radial field centers are Cartesian-chart only")
        X = X - center
    return X


class _RadialField(ScalarField):
    """Base of the fields radial about the chart base point, or about a
    Cartesian `center`: closed-form stacks, sublevel balls about any center,
    and exact level spheres when the center is the base point."""

    analytic = True
    stacked = True

    def __init__(self, center=None):
        self.center = None if center is None else np.asarray(center, dtype=float)

    def star_radius(self, level):
        if self.center is not None and np.any(self.center != 0.0):
            return None
        return self.ball_radius(level)

    def describe(self):
        d = {"field": self.kind}
        if self.center is not None:
            d["center"] = list(self.center)
        return d


class RadialDistanceField(_RadialField):
    """u = geodesic distance from the chart base point (or from `center` in
    Cartesian charts)."""

    kind = "radial"

    def value(self, M, p):
        if M.chart == "polar":
            return float(p[0])
        return float(np.linalg.norm(_centered(self.center, M, p)))

    def partials(self, M, p):
        n = M.dim
        if M.chart == "polar":
            du = np.zeros(n)
            du[0] = 1.0
            return du
        x = _centered(self.center, M, p)
        return x / np.linalg.norm(x)

    def second_partials(self, M, p):
        n = M.dim
        if M.chart == "polar":
            return np.zeros((n, n))
        x = _centered(self.center, M, p)
        d = np.linalg.norm(x)
        w = x / d
        return (np.eye(n) - np.outer(w, w)) / d

    def partials_stack(self, M, P):
        if M.chart == "polar":
            du = np.zeros((len(P), M.dim))
            du[:, 0] = 1.0
            return du
        X = _centered(self.center, M, P)
        return X / np.sqrt(_rowdot(X, X))[:, None]

    def second_partials_stack(self, M, P):
        if M.chart == "polar":
            return np.zeros((len(P), M.dim, M.dim))
        X = _centered(self.center, M, P)
        d = np.sqrt(_rowdot(X, X))
        W = X / d[:, None]
        return (np.eye(M.dim) - W[:, :, None] * W[:, None, :]) / d[:, None, None]

    def ball_radius(self, level):
        return level if level > 0 else None


class RadialSquaredHalfField(_RadialField):
    """u = (geodesic distance)^2 / 2 from the base point (or Cartesian center)."""

    kind = "radial_sq"

    def value(self, M, p):
        if M.chart == "polar":
            return 0.5 * float(p[0]) ** 2
        x = _centered(self.center, M, p)
        return 0.5 * float(x @ x)

    def partials(self, M, p):
        n = M.dim
        if M.chart == "polar":
            du = np.zeros(n)
            du[0] = float(p[0])
            return du
        return _centered(self.center, M, p).copy()

    def second_partials(self, M, p):
        n = M.dim
        if M.chart == "polar":
            D2 = np.zeros((n, n))
            D2[0, 0] = 1.0
            return D2
        return np.eye(n)

    def partials_stack(self, M, P):
        if M.chart == "polar":
            du = np.zeros((len(P), M.dim))
            du[:, 0] = np.asarray(P, dtype=float)[:, 0]
            return du
        return _centered(self.center, M, P).copy()

    def second_partials_stack(self, M, P):
        D2 = np.zeros((len(P), M.dim, M.dim))
        if M.chart == "polar":
            D2[:, 0, 0] = 1.0
        else:
            D2[:, np.arange(M.dim), np.arange(M.dim)] = 1.0
        return D2

    def ball_radius(self, level):
        return math.sqrt(2.0 * level) if level > 0 else None


class QuadraticFormField(ScalarField):
    """u = (x - c)^T Q (x - c) / 2 with Q symmetric positive definite.
    Cartesian charts only; level sets are ellipsoids."""

    kind = "quadratic"
    analytic = True

    def __init__(self, Q, center=None):
        self.Q = np.array(Q, dtype=float)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if np.max(np.abs(self.Q - self.Q.T)) > 1e-12 * max(1.0, np.max(np.abs(self.Q))):
            raise ValueError("Q must be symmetric")
        w, _ = jacobi_eigh(self.Q)
        if w[0] <= 0:
            raise ValueError("Q must be positive definite")
        # ascending, as Python floats: the sublevel ellipsoid's semi-axes
        self.eigenvalues = tuple(float(x) for x in w)
        self.center = None if center is None else np.asarray(center, dtype=float)

    def _check(self, M):
        if M.chart != "cartesian":
            raise ValueError("quadratic fields are Cartesian-chart only")
        if self.Q.shape[0] != M.dim:
            raise ValueError(f"Q is {self.Q.shape[0]}x..., manifold dim is {M.dim}")

    def _offset(self, p):
        x = np.asarray(p, dtype=float)
        return x if self.center is None else x - self.center

    def value(self, M, p):
        self._check(M)
        x = self._offset(p)
        # ndarray.dot: about half the call cost of @ on vectors this short
        return 0.5 * float(x.dot(self.Q).dot(x))

    def partials(self, M, p):
        self._check(M)
        return self.Q.dot(self._offset(p))

    def second_partials(self, M, p):
        self._check(M)
        return self.Q.copy()

    def describe(self):
        d = {"field": self.kind, "Q": [list(row) for row in self.Q]}
        if self.center is not None:
            d["center"] = list(self.center)
        return d


class OffCenterDistanceField(ScalarField):
    """u = geodesic distance from a point at distance `offset` along the
    first axis from the chart base point.

    Cartesian charts subtract the offset; constant-curvature polar charts use
    the hyperbolic law of cosines, with derivatives supplied by finite
    differences of the value.
    """

    kind = "offcenter"

    def __init__(self, offset: float):
        if offset <= 0:
            raise ValueError("offset must be positive (use the radial field otherwise)")
        self.offset = float(offset)

    def _bind_check(self, M):
        if M.chart == "polar" and M.family != "constant":
            raise ValueError(
                "off-center distance has no closed form in non-constant warped models")

    def value(self, M, p):
        self._bind_check(M)
        p = np.asarray(p, dtype=float)
        if M.chart == "cartesian":
            x = p.copy()
            x[0] -= self.offset
            return float(np.linalg.norm(x))
        s = math.sqrt(-M.a)
        r = float(p[0])
        cosg = math.cos(float(p[1]))
        arg = (math.cosh(s * r) * math.cosh(s * self.offset)
               - math.sinh(s * r) * math.sinh(s * self.offset) * cosg)
        return math.acosh(max(arg, 1.0)) / s

    def ball_radius(self, level):
        # about the offset point, in a model _bind_check keeps homogeneous
        return level if level > 0 else None

    def describe(self):
        return {"field": self.kind, "offset": self.offset}


def field_from_spec(spec: dict, M: ModelManifold) -> ScalarField:
    """Build a field from its JSON-style description (see the CLI schema)."""
    kind = spec.get("field")
    if kind in ("radial", "radial_sq"):
        center = spec.get("center")
        if M.chart == "polar" and center is not None and any(c != 0 for c in center):
            raise ValueError("radial fields on a polar chart are centred on its base "
                             "point; their center must be zero")
        cls = RadialDistanceField if kind == "radial" else RadialSquaredHalfField
        return cls(center=center)
    if kind == "quadratic":
        if "Q" not in spec:
            raise ValueError("quadratic field requires a 'Q' matrix")
        if M.chart != "cartesian":
            raise ValueError("quadratic fields are Cartesian-chart only")
        return QuadraticFormField(spec["Q"], center=spec.get("center"))
    if kind == "offcenter":
        f = OffCenterDistanceField(spec.get("offset", 0.3))
        f._bind_check(M)
        if f.offset > M.working_radius:
            raise ValueError(f"offset {f.offset:g} lies beyond the working radius "
                             f"{M.working_radius:g}")
        return f
    raise ValueError(f"unknown field kind '{kind}'")


# ---------------------------------------------------------------------------
# Covariant Hessians in orthonormal frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HessianData:
    """Pointwise first/second order data of a field in an orthonormal frame.

    hessian_frame_stack returns the same record with a leading node axis on
    every field."""
    grad_norm: float
    hess_frame: np.ndarray    # covariant Hessian in the orthonormal frame
    frame: np.ndarray         # columns: chart components of the frame vectors
    grad_frame: np.ndarray    # gradient in frame components


def fd_steps(M: ModelManifold, p, h: float) -> np.ndarray:
    """Per-coordinate finite-difference steps.

    Polar charts cap the radial step below r/2 and the polar-angle steps a
    safe fraction away from the axis so stencils stay inside the chart.
    """
    n = M.dim
    p = np.asarray(p, dtype=float)
    steps = np.full(n, h)
    if M.chart == "polar":
        steps[0] = min(h, 0.25 * p[0])
        for m in range(1, n - 1):
            gap = min(abs(p[m]), abs(math.pi - p[m]))
            steps[m] = min(h, 0.25 * gap) if gap > 0 else h
    return steps


def _fd_partials(u: ScalarField, M: ModelManifold, p, steps):
    n = M.dim
    p = np.asarray(p, dtype=float)
    du = np.zeros(n)
    D2 = np.zeros((n, n))
    u0 = u.value(M, p)
    plus = np.empty(n)
    minus = np.empty(n)
    for i in range(n):
        q = p.copy(); q[i] += steps[i]
        plus[i] = u.value(M, q)
        q = p.copy(); q[i] -= steps[i]
        minus[i] = u.value(M, q)
        du[i] = (plus[i] - minus[i]) / (2 * steps[i])
        D2[i, i] = (plus[i] - 2 * u0 + minus[i]) / steps[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            q = p.copy(); q[i] += steps[i]; q[j] += steps[j]
            upp = u.value(M, q)
            q = p.copy(); q[i] += steps[i]; q[j] -= steps[j]
            upm = u.value(M, q)
            q = p.copy(); q[i] -= steps[i]; q[j] += steps[j]
            ump = u.value(M, q)
            q = p.copy(); q[i] -= steps[i]; q[j] -= steps[j]
            umm = u.value(M, q)
            D2[i, j] = D2[j, i] = (upp - upm - ump + umm) / (4 * steps[i] * steps[j])
    return du, D2


def hessian_frame(u: ScalarField, M: ModelManifold, p,
                  h: float = None, use_fd: bool = False) -> HessianData:
    """Gradient and covariant Hessian of u at p, in the orthonormal
    frame from the triangular factorization of the chart metric.

    The covariant Hessian is d_i d_j u - Gamma^k_ij d_k u in the chart (the
    symbols vanish on Cartesian charts), then conjugated into the frame.
    Analytic field derivatives are used when available unless use_fd forces
    the central-difference path with step h (default 1e-4 * (1 + |p|),
    per-coordinate guarded near the chart axis).
    """
    p = np.asarray(p, dtype=float)
    if u.analytic and not use_fd:
        du = u.partials(M, p)
        D2 = u.second_partials(M, p)
    else:
        if h is None:
            h = 1e-4 * (1.0 + float(np.linalg.norm(p)))
        steps = fd_steps(M, p, h)
        du, D2 = _fd_partials(u, M, p, steps)
    hess_chart = D2
    if M.chart == "polar":
        hess_chart = D2 - np.tensordot(du, christoffel_at(M, p), axes=([0], [0]))
    D = metric_diag(M, p)
    inv_sqrt = 1.0 / np.sqrt(D)
    frame = np.diag(inv_sqrt)
    hess_f = hess_chart * np.outer(inv_sqrt, inv_sqrt)
    hess_f = 0.5 * (hess_f + hess_f.T)
    grad_f = du * inv_sqrt
    return HessianData(grad_norm=float(np.linalg.norm(grad_f)),
                       hess_frame=hess_f, frame=frame, grad_frame=grad_f)


def hessian_frame_stack(u: ScalarField, M: ModelManifold, P) -> HessianData:
    """hessian_frame of every row of an (N, n) point stack, as one
    HessianData whose fields carry a leading node axis.

    Stacked fields use their closed forms on the whole stack; pointwise
    fields call hessian_frame node by node.
    """
    P = np.asarray(P, dtype=float)
    N, n = P.shape
    if not u.stacked:
        rows = []
        for k, p in enumerate(P):
            try:
                rows.append(hessian_frame(u, M, p))
            except CurvaturaError as e:
                raise node_error(type(e), k, str(e)) from None

        def stack(name, shape):
            return np.array([getattr(h, name) for h in rows], dtype=float).reshape((N,) + shape)

        return HessianData(grad_norm=stack("grad_norm", ()),
                           hess_frame=stack("hess_frame", (n, n)),
                           frame=stack("frame", (n, n)), grad_frame=stack("grad_frame", (n,)))
    du = u.partials_stack(M, P)
    D2 = u.second_partials_stack(M, P)
    D = metric_diag_stack(M, P)
    hess_chart = D2
    if M.chart == "polar":
        Gam = christoffel_stack(M, P, D)
        for k in range(n):
            hess_chart = hess_chart - du[:, k, None, None] * Gam[:, k]
    inv_sqrt = 1.0 / np.sqrt(D)
    hess_f = hess_chart * (inv_sqrt[:, :, None] * inv_sqrt[:, None, :])
    hess_f = 0.5 * (hess_f + hess_f.transpose(0, 2, 1))
    grad_f = du * inv_sqrt
    frame = np.zeros((N, n, n))
    frame[:, np.arange(n), np.arange(n)] = inv_sqrt
    return HessianData(grad_norm=np.sqrt(_rowdot(grad_f, grad_f)),
                       hess_frame=hess_f, frame=frame, grad_frame=grad_f)


# ---------------------------------------------------------------------------
# Principal curvature frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrincipalFrameData:
    """Principal curvatures and frame of the level set through a point.

    kappa is ascending; directions are the matching principal directions
    (chart components, columns); nu is the unit normal grad u / |grad u|;
    grad_norm_derivs[i] is the derivative of |grad u| along direction i,
    equal to the Hessian row against nu in this frame.  frame_chart stacks
    the directions and nu as the columns of a full orthonormal frame.
    principal_frame_stack returns the same record with a leading node axis
    on every field.
    """
    kappa: np.ndarray
    directions: np.ndarray
    nu: np.ndarray
    grad_norm_derivs: np.ndarray
    frame_chart: np.ndarray


def _householder_complement(nu_f: np.ndarray) -> np.ndarray:
    """Orthonormal basis of nu^perp (frame components), deterministic."""
    n = nu_f.size
    s = 1.0 if nu_f[-1] >= 0 else -1.0
    v = nu_f.copy()
    v[-1] += s
    Hm = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    return Hm[:, : n - 1]


def principal_frame(hd: HessianData) -> PrincipalFrameData:
    """Diagonalize the shape operator of the level set through hd's point.

    The shape operator is the covariant Hessian restricted to nu^perp and
    scaled by 1/|grad u|; its eigenvalues are the principal curvatures.
    Eigenvector choice inside repeated-eigenvalue spaces is arbitrary, which
    is fine downstream: only symmetric functions of kappa are consumed.
    """
    gn = hd.grad_norm
    if not gn > EPS_GRAD:   # NaN included
        raise DegenerateGradientError(
            f"|grad u| = {gn:.3e} <= {EPS_GRAD:g}: level-set frame undefined")
    nu_f = hd.grad_frame / gn
    B = _householder_complement(nu_f)
    S = B.T @ hd.hess_frame @ B / gn
    kappa, V = jacobi_eigh(S)
    dirs_f = B @ V
    derivs = dirs_f.T @ (hd.hess_frame @ nu_f)
    dirs_chart = hd.frame @ dirs_f
    nu_chart = hd.frame @ nu_f
    frame_chart = np.hstack([dirs_chart, nu_chart[:, None]])
    return PrincipalFrameData(kappa=kappa, directions=dirs_chart, nu=nu_chart,
                              grad_norm_derivs=derivs, frame_chart=frame_chart)


def principal_frame_stack(hd: HessianData) -> PrincipalFrameData:
    """principal_frame of every node of a hessian_frame_stack result, as
    one PrincipalFrameData with a leading node axis; raises for the first
    node whose gradient is degenerate.  The shape operators are
    diagonalized by jacobi_eigh_stack."""
    gn = hd.grad_norm
    bad = ~(gn > EPS_GRAD)   # NaN included
    if bad.any():
        k = int(np.argmax(bad))
        raise node_error(DegenerateGradientError, k,
                         f"|grad u| = {gn[k]:.3e} <= {EPS_GRAD:g}: level-set frame undefined")
    N, n = hd.grad_frame.shape
    nu_f = hd.grad_frame / gn[:, None]
    # Householder complement of nu, as in _householder_complement
    v = nu_f.copy()
    v[:, -1] += np.where(nu_f[:, -1] >= 0, 1.0, -1.0)
    Hm = np.eye(n) - 2.0 * (v[:, :, None] * v[:, None, :]) / _rowdot(v, v)[:, None, None]
    B = Hm[:, :, : n - 1]
    Bt = B.transpose(0, 2, 1)
    S = matmul_stack(matmul_stack(Bt, hd.hess_frame), B) / gn[:, None, None]
    kappa, V = jacobi_eigh_stack(S)
    dirs_f = matmul_stack(B, V)
    H_nu = matmul_stack(hd.hess_frame, nu_f[:, :, None])
    derivs = matmul_stack(dirs_f.transpose(0, 2, 1), H_nu)[:, :, 0]
    dirs_chart = matmul_stack(hd.frame, dirs_f)
    nu_chart = matmul_stack(hd.frame, nu_f[:, :, None])
    return PrincipalFrameData(kappa=kappa, directions=dirs_chart, nu=nu_chart[:, :, 0],
                              grad_norm_derivs=derivs,
                              frame_chart=np.concatenate([dirs_chart, nu_chart], axis=2))


def level_mean_curvature(u: ScalarField, M: ModelManifold, p, r: int) -> float:
    """sigma_r of the principal curvatures of the level set of u through p."""
    hd = hessian_frame(u, M, p)
    pf = principal_frame(hd)
    return sigma_elementary(pf.kappa, r)


# ---------------------------------------------------------------------------
# Reilly identities, pointwise
# ---------------------------------------------------------------------------

def reilly2_residual(u: ScalarField, M: ModelManifold, p, r: int) -> float:
    """|sigma_r(kappa) - <T_r grad u, grad u> / |grad u|^{r+2}|.

    The two sides travel independent routes (projected shape operator and
    Jacobi eigenvalues vs the Newton recursion contracted against the
    gradient); the identity is exact, so the residual is roundoff.
    """
    lhs, rhs = _reilly2_sides(u, M, p, r)
    return abs(lhs - rhs)


def _reilly2_sides(u: ScalarField, M: ModelManifold, p, r: int):
    """(sigma_r(kappa), <T_r grad u, grad u> / |grad u|^{r+2}) at p, from
    one Hessian and one principal frame."""
    hd = hessian_frame(u, M, p)
    pf = principal_frame(hd)
    lhs = sigma_elementary(pf.kappa, r)
    T = newton_matrices(hd.hess_frame, r)[r]
    g = hd.grad_frame
    return lhs, float(g @ T @ g) / hd.grad_norm ** (r + 2)


@lru_cache(maxsize=None)
def _div_contraction_table(n: int, r: int):
    """Terms of the (r+1)-index delta contraction for div(T_r), grouped by
    the free lower index j.

    The (r-1)! over orderings of the Hessian-paired upper indices cancels
    the prefactor, so those are enumerated ascending; the two curvature
    slots and all lower arrangements are enumerated explicitly.  Each term
    is (sign, Hessian index pairs, W index triple).
    """
    table = [[] for _ in range(n)]
    for mid in combinations(range(n), r - 1):
        avail = [x for x in range(n) if x not in mid]
        for i in avail:
            for ir in avail:
                if ir == i:
                    continue
                U = (i,) + mid + (ir,)
                for j in U:
                    rest = [v for v in U if v != j]
                    for J in permutations(rest):
                        L = (j,) + J
                        sgn = parity_between(U, L)
                        pairs = tuple((mid[m], L[1 + m]) for m in range(r - 1))
                        table[j].append((sgn, pairs, (i, L[r], ir)))
    return tuple(tuple(row) for row in table)


def div_newton_frame(u: ScalarField, M: ModelManifold, p, r: int) -> np.ndarray:
    """Frame components of div(T_r) via the curvature contraction.

    Contracts the generalized Kronecker tensor against r-1 Hessian factors
    and one factor R[i, j_r, i_r, k] u_k, all in the metric-factorization
    frame.  Identically zero in flat space.
    """
    if r < 1:
        raise ValueError(f"div(T_r) contraction needs r >= 1, got {r}")
    n = M.dim
    hd = hessian_frame(u, M, p)
    if not hd.grad_norm > EPS_GRAD:   # NaN included
        raise DegenerateGradientError("degenerate gradient in div(T_r)")
    if M.is_flat:
        return np.zeros(n)
    rd = riemann_at(M, p, hd.frame)
    W = np.tensordot(rd.R, hd.grad_frame, axes=([3], [0]))
    H = hd.hess_frame
    out = np.zeros(n)
    for j, row in enumerate(_div_contraction_table(n, r)):
        tot = 0.0
        for sgn, pairs, wkey in row:
            prod = float(sgn)
            for (a, b) in pairs:
                prod *= H[a, b]
            tot += prod * W[wkey]
        out[j] = tot
    return out


def div_newton_fd(u: ScalarField, M: ModelManifold, p, r: int, h: float = 1e-3) -> np.ndarray:
    """Finite-difference oracle for div(T_r): covariant divergence of the
    Newton operator as a (1,1) chart tensor field, returned in the same
    frame as div_newton_frame.  Converges at O(h^2)."""
    n = M.dim
    p = np.asarray(p, dtype=float)

    def t_chart(q):
        hd = hessian_frame(u, M, q)
        Tf = newton_matrices(hd.hess_frame, r)[r]
        F = hd.frame
        return F @ Tf @ np.linalg.inv(F)

    steps = fd_steps(M, p, h)
    dT = np.zeros((n, n, n))   # dT[i, :, :] = d_i T
    for i in range(n):
        q = p.copy(); q[i] += steps[i]
        Tp = t_chart(q)
        q = p.copy(); q[i] -= steps[i]
        Tm = t_chart(q)
        dT[i] = (Tp - Tm) / (2 * steps[i])
    T0 = t_chart(p)
    Gam = christoffel_at(M, p)
    div = np.zeros(n)
    for j in range(n):
        tot = 0.0
        for i in range(n):
            tot += dT[i, i, j]
            for m in range(n):
                tot += Gam[i, i, m] * T0[m, j]
                tot -= Gam[m, i, j] * T0[i, m]
        div[j] = tot
    hd0 = hessian_frame(u, M, p)
    return hd0.frame.T @ div


def reilly1_residual(u: ScalarField, M: ModelManifold, p, r: int, h: float) -> float:
    """|LHS - RHS| of the divergence identity for T_{r-1}(grad u/|grad u|^r).

    LHS is a central-difference covariant divergence of the vector field
    (via the volume-weighted coordinate form); RHS combines the div(T_{r-1})
    contraction with r * sigma_r(kappa).  Converges to zero at O(h^2).
    """
    if r < 1:
        raise ValueError(f"the identity needs r >= 1, got {r}")
    n = M.dim
    p = np.asarray(p, dtype=float)

    hd0 = hessian_frame(u, M, p)
    if not hd0.grad_norm > EPS_GRAD:   # NaN included
        raise DegenerateGradientError("degenerate gradient at the center point")
    pf = principal_frame(hd0)
    rhs = r * sigma_elementary(pf.kappa, r)
    if r >= 2:
        divT = div_newton_frame(u, M, p, r - 1)
        rhs += float(divT @ hd0.grad_frame) / hd0.grad_norm ** r

    def weighted_field(q):
        hd = hessian_frame(u, M, q)
        if not hd.grad_norm > EPS_GRAD:   # NaN included
            raise DegenerateGradientError("degenerate gradient in the stencil")
        Tm = newton_matrices(hd.hess_frame, r - 1)[r - 1]
        Vf = Tm @ hd.grad_frame / hd.grad_norm ** r
        Vc = hd.frame @ Vf
        vol = math.sqrt(float(np.prod(metric_diag(M, q))))
        return vol * Vc

    steps = fd_steps(M, p, h)
    vol0 = math.sqrt(float(np.prod(metric_diag(M, p))))
    lhs = 0.0
    for i in range(n):
        q = p.copy(); q[i] += steps[i]
        wp = weighted_field(q)[i]
        q = p.copy(); q[i] -= steps[i]
        wm = weighted_field(q)[i]
        lhs += (wp - wm) / (2 * steps[i])
    lhs /= vol0
    return abs(lhs - rhs)
