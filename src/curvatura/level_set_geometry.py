"""Scalar fields on model manifolds and the level-set geometry built on them:
covariant Hessians in orthonormal frames, principal curvature frames, r-th
mean curvatures of level sets, and residuals of the two Reilly-type identities
together with the curvature contraction for div(T_r) and its finite-difference
oracle.  Everything past the per-point covariant Hessian runs on node stacks.

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
    _elementwise,
    christoffel_at,
    christoffel_stack,
    metric_diag,
    metric_diag_stack,
    riemann_stack,
)
from .symmetric_algebra import (
    elementary_all_stack,
    jacobi_eigh,
    jacobi_eigh_stack,
    matmul_stack,
    newton_matrices_stack,
    parity_between,
    sigma_stack,
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
    """Base class: a smooth scalar field with closed-form derivatives.

    value() must work everywhere on the working domain; partials() and
    second_partials() return the chart coordinate partials d_i u and
    d_i d_j u.  Derivatives come from closed forms only: finite differences
    of value() are a test oracle, not a route of the package.

    partials_stack and second_partials_stack take an (N, n) point stack and
    return the partials (N, n) and second partials (N, n, n) of every row.
    Fields with stacked closed forms define both on the _StackedField base,
    whose per-point partials are one-row stacks; this base class defines
    only partials_stack, which calls partials() row by row.

    ball_radius(level) is the radius of the geodesic ball {u < level} when
    that set is one; star_radius(level) is that radius when the ball is
    centred on the chart base point.
    """

    kind = "abstract"
    # true when the *_stack methods are closed forms: hessian_frame_stack
    # then differentiates the whole stack at once; otherwise it calls
    # hessian_frame per node.  Only the quadratic field is not stacked, and
    # only because perfbench counts one hessian_frame call per node on its
    # ellipsoid workload; once those counters read the stacked spans
    # (ROADMAP item 1), it can be stacked and this flag go.
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


def _matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Products A[k] @ X[k] of a matrix stack and a vector stack."""
    return matmul_stack(A, X[:, :, None])[:, :, 0]


def _check_gradients(grad_norm: np.ndarray, what: str):
    """Raise for the first node of a stack whose |grad u| is not above
    EPS_GRAD (NaN included)."""
    bad = ~(grad_norm > EPS_GRAD)
    if bad.any():
        k = int(np.argmax(bad))
        raise node_error(DegenerateGradientError, k,
                         f"|grad u| = {grad_norm[k]:.3e} <= {EPS_GRAD:g}: {what}")


def _centered(center, M: ModelManifold, P) -> np.ndarray:
    """A point, or a stack of points, less a radial field's Cartesian center
    (checked once per call)."""
    X = np.asarray(P, dtype=float)
    if center is not None:
        if M.chart != "cartesian":
            raise ValueError("radial field centers are Cartesian-chart only")
        X = X - center
    return X


class _StackedField(ScalarField):
    """Base of the fields with stacked closed forms: their per-point
    partials are one-row stacks."""

    stacked = True

    def partials(self, M, p):
        return self.partials_stack(M, np.asarray(p, dtype=float)[None])[0]

    def second_partials(self, M, p):
        return self.second_partials_stack(M, np.asarray(p, dtype=float)[None])[0]


class _RadialField(_StackedField):
    """Base of the fields radial about the chart base point, or about a
    Cartesian `center`: closed-form stacks, sublevel balls about any center,
    and exact level spheres when the center is the base point."""

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


class OffCenterDistanceField(_StackedField):
    """u = geodesic distance from the point at distance `offset` along the
    first axis from the chart base point.

    Cartesian charts take the radial distance field about (offset, 0, ...).
    Constant-curvature polar charts use the hyperbolic law of cosines: with
    s = sqrt(-a), d the offset and theta the first angle (the only angle
    that enters),

        A = cosh(s rho) cosh(s d) - sinh(s rho) sinh(s d) cos(theta),
        u = acosh(A) / s,   u_i = A_i / (s B),
        u_ij = (A_ij - A A_i A_j / B^2) / (s B),   B = sqrt(A^2 - 1).

    Value and stacks form A - 1 = 2 sinh^2(s (rho - d) / 2)
    + 2 sinh(s rho) sinh(s d) sin^2(theta / 2) as a sum of nonnegative
    terms, so that u and B keep their relative accuracy near the centre and
    at small curvature.  The per-point partials are one-row stacks.
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

    def _radial(self, M) -> RadialDistanceField:
        """The field on a Cartesian chart: the distance from (offset, 0, ...)."""
        center = np.zeros(M.dim)
        center[0] = self.offset
        return RadialDistanceField(center=center)

    def value(self, M, p):
        self._bind_check(M)
        if M.chart == "cartesian":
            return self._radial(M).value(M, p)
        s, rho = math.sqrt(-M.a), float(p[0])
        Am1 = (2.0 * math.sinh(0.5 * s * (rho - self.offset)) ** 2
               + 2.0 * math.sinh(s * rho) * math.sinh(s * self.offset)
               * math.sin(0.5 * float(p[1])) ** 2)
        # acosh(A) = log(A + B)
        return math.log1p(Am1 + math.sqrt(Am1 * (2.0 + Am1))) / s

    def _cosines(self, M, P):
        """(s, A, B, (A_rho, A_theta), the 2x2 second partials of A) at
        every row of a polar point stack."""
        P = np.asarray(P, dtype=float)
        s = math.sqrt(-M.a)
        sh_d = math.sinh(s * self.offset)
        sr = s * P[:, 0]
        t = s * (P[:, 0] - self.offset)
        sh, ch = _elementwise(math.sinh, sr), _elementwise(math.cosh, sr)
        sin_t, sin_half = _elementwise(math.sin, P[:, 1]), _elementwise(math.sin, 0.5 * P[:, 1])
        half2 = sin_half * sin_half
        Am1 = 2.0 * _elementwise(math.sinh, 0.5 * t) ** 2 + 2.0 * sh * sh_d * half2
        A = 1.0 + Am1
        B = np.sqrt(Am1 * (2.0 + Am1))
        dA = np.column_stack((s * (_elementwise(math.sinh, t) + 2.0 * ch * sh_d * half2),
                              sh * sh_d * sin_t))
        mixed = s * ch * sh_d * sin_t
        d2A = np.stack((np.column_stack((s * s * A, mixed)),
                        np.column_stack((mixed, sh * sh_d * (1.0 - 2.0 * half2)))), axis=1)
        return s, A, B, dA, d2A

    def partials_stack(self, M, P):
        self._bind_check(M)
        if M.chart == "cartesian":
            return self._radial(M).partials_stack(M, P)
        s, _, B, dA, _ = self._cosines(M, P)
        du = np.zeros((len(P), M.dim))
        du[:, :2] = dA / (s * B)[:, None]
        return du

    def second_partials_stack(self, M, P):
        self._bind_check(M)
        if M.chart == "cartesian":
            return self._radial(M).second_partials_stack(M, P)
        s, A, B, dA, d2A = self._cosines(M, P)
        D2 = np.zeros((len(P), M.dim, M.dim))
        D2[:, :2, :2] = ((d2A - (A / (B * B))[:, None, None] * dA[:, :, None] * dA[:, None, :])
                         / (s * B)[:, None, None])
        return D2

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
        if "center" in spec:
            raise ValueError("offcenter fields are centred `offset` along the first axis "
                             "and take no 'center'")
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
    """Per-coordinate steps of the finite-difference stencils (_stencil) of
    the div(T_r) oracle and the reilly1 residual.

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


def hessian_frame(u: ScalarField, M: ModelManifold, p) -> HessianData:
    """Gradient and covariant Hessian of u at p, in the orthonormal
    frame from the triangular factorization of the chart metric.

    The covariant Hessian is d_i d_j u - Gamma^k_ij d_k u in the chart (the
    symbols vanish on Cartesian charts), from the field's closed-form
    partials, then conjugated into the frame.  The per-node route of
    hessian_frame_stack for fields that are not stacked.
    """
    p = np.asarray(p, dtype=float)
    du = u.partials(M, p)
    D2 = u.second_partials(M, p)
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

    Stacked fields use their closed forms on the whole stack; the others
    (in the package, only the quadratic field) call hessian_frame node by
    node.
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
    """Principal curvatures and frames of the level sets through a node
    stack, with a leading node axis on every field.

    kappa is ascending; directions are the matching principal directions
    (chart components, columns); nu is the unit normal grad u / |grad u|;
    grad_norm_derivs[i] is the derivative of |grad u| along direction i,
    equal to the Hessian row against nu in this frame.  frame_chart stacks
    the directions and nu as the columns of a full orthonormal frame.
    """
    kappa: np.ndarray
    directions: np.ndarray
    nu: np.ndarray
    grad_norm_derivs: np.ndarray
    frame_chart: np.ndarray


def principal_frame_stack(hd: HessianData) -> PrincipalFrameData:
    """Diagonalize the shape operators of the level sets through the nodes
    of a hessian_frame_stack result; raises for the first node whose
    gradient is degenerate.

    The shape operator is the covariant Hessian restricted to nu^perp (a
    deterministic Householder basis) and scaled by 1/|grad u|; its
    eigenvalues, from jacobi_eigh_stack, are the principal curvatures.
    Eigenvector choice inside repeated-eigenvalue spaces is arbitrary, which
    is fine downstream: only symmetric functions of kappa are consumed.
    """
    gn = hd.grad_norm
    _check_gradients(gn, "level-set frame undefined")
    N, n = hd.grad_frame.shape
    nu_f = hd.grad_frame / gn[:, None]
    # Householder reflection taking nu to -/+ e_n: its first n-1 columns span nu^perp
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


# ---------------------------------------------------------------------------
# Reilly identities and div(T_r) over node stacks
# ---------------------------------------------------------------------------

def reilly2_sides_stack(u: ScalarField, M: ModelManifold, P, r: int):
    """(sigma_r(kappa), <T_r grad u, grad u> / |grad u|^{r+2}) at every row of
    an (N, n) point stack, each of shape (N,), from one Hessian stack.

    The identity is exact; the sides keep independent routes: sigma_r of
    the principal curvatures from principal_frame_stack, and the Newton
    recursion of newton_matrices_stack contracted against the gradient."""
    hd = hessian_frame_stack(u, M, P)
    lhs = sigma_stack(elementary_all_stack(principal_frame_stack(hd).kappa), r)
    T = newton_matrices_stack(hd.hess_frame, r)[r]
    g = hd.grad_frame
    return lhs, _rowdot(g, _matvec(T, g)) / hd.grad_norm ** (r + 2)


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


def div_newton_stack(M: ModelManifold, P, hd: HessianData, r: int) -> np.ndarray:
    """Frame components of div(T_r) via the curvature contraction at every
    row of an (N, n) point stack, given the stack's hessian_frame_stack hd:
    (N, n).

    Contracts the generalized Kronecker tensor against r-1 Hessian factors
    and one factor R[i, j_r, i_r, k] u_k, all in the metric-factorization
    frame.  Identically zero in flat space.
    """
    if r < 1:
        raise ValueError(f"div(T_r) contraction needs r >= 1, got {r}")
    N, n = hd.grad_frame.shape
    _check_gradients(hd.grad_norm, "degenerate gradient in div(T_r)")
    if M.is_flat:
        return np.zeros((N, n))
    R = riemann_stack(M, P, hd.frame).R
    g = hd.grad_frame
    W = R[..., 0] * g[:, 0, None, None, None]
    for l in range(1, n):
        W = W + R[..., l] * g[:, l, None, None, None]
    H = hd.hess_frame
    out = np.zeros((N, n))
    for j, row in enumerate(_div_contraction_table(n, r)):
        tot = np.zeros(N)
        for sgn, pairs, (a, b, c) in row:
            prod = float(sgn)
            for (x, y) in pairs:
                prod = prod * H[:, x, y]
            tot = tot + prod * W[:, a, b, c]
        out[:, j] = tot
    return out


def _stencil(M: ModelManifold, P: np.ndarray, hs):
    """The central-difference stencil of every row of P for every step h of
    hs, placed by fd_steps: (steps (S, N, n), points (S * N * n * 2, n)),
    the points ordered by step, row, axis i, then +/- the step along i."""
    N, n = P.shape
    steps = np.array([[fd_steps(M, p, h) for p in P] for h in hs]).reshape(len(hs), N, n)
    offsets = steps[:, :, :, None] * np.eye(n)
    Q = np.stack([P[None, :, None, :] + offsets, P[None, :, None, :] - offsets], axis=3)
    return steps, Q.reshape(-1, n)


def div_newton_fd_stack(u: ScalarField, M: ModelManifold, P, hd: HessianData, r: int,
                        h: float = 1e-3) -> np.ndarray:
    """Finite-difference oracle for div(T_r) at every row of an (N, n) point
    stack, given the stack's hessian_frame_stack hd: the covariant divergence
    of the Newton operator as a (1,1) chart tensor field, in the frame of
    div_newton_stack, (N, n).  Converges at O(h^2).

    The 2n stencil points of every row form one stack; the Christoffel
    symbols and the undifferentiated T_r are taken at the centres.
    """
    P = np.asarray(P, dtype=float)
    N, n = P.shape

    def t_chart(hq):
        F = hq.frame
        return matmul_stack(matmul_stack(F, newton_matrices_stack(hq.hess_frame, r)[r]),
                            np.linalg.inv(F))

    steps, Q = _stencil(M, P, (h,))
    T = t_chart(hessian_frame_stack(u, M, Q)).reshape(N, n, 2, n, n)
    T0 = t_chart(hd)
    Gam = christoffel_stack(M, P)
    div = np.zeros((N, n))
    for i in range(n):
        div = div + (T[:, i, 0, i, :] - T[:, i, 1, i, :]) / (2 * steps[0, :, i, None])
        for m in range(n):
            div = div + Gam[:, i, i, m, None] * T0[:, m, :]
            div = div - Gam[:, m, i, :] * T0[:, i, m, None]
    return _matvec(hd.frame.transpose(0, 2, 1), div)


def reilly1_residual_stack(u: ScalarField, M: ModelManifold, P, r: int, hs) -> np.ndarray:
    """|LHS - RHS| of the divergence identity for T_{r-1}(grad u/|grad u|^r)
    at every row of an (N, n) point stack and every step h of hs:
    (len(hs), N).  Converges to zero at O(h^2).

    LHS is a central-difference covariant divergence of the vector field
    (via the volume-weighted coordinate form); RHS combines the div(T_{r-1})
    contraction with r * sigma_r(kappa).  The RHS does not depend on the
    step, so it is formed once per row, from one stack of centres.  The 2n
    stencil points of every row and step form one stack.
    """
    if r < 1:
        raise ValueError(f"the identity needs r >= 1, got {r}")
    P = np.asarray(P, dtype=float)
    N, n = P.shape
    hd0 = hessian_frame_stack(u, M, P)
    _check_gradients(hd0.grad_norm, "degenerate gradient at the center point")
    rhs = r * sigma_stack(elementary_all_stack(principal_frame_stack(hd0).kappa), r)
    if r >= 2:
        divT = div_newton_stack(M, P, hd0, r - 1)
        rhs = rhs + _rowdot(divT, hd0.grad_frame) / hd0.grad_norm ** r

    steps, Q = _stencil(M, P, hs)
    hd = hessian_frame_stack(u, M, Q)
    _check_gradients(hd.grad_norm, "degenerate gradient in the stencil")
    Tm = newton_matrices_stack(hd.hess_frame, r - 1)[r - 1]
    Vc = _matvec(hd.frame, _matvec(Tm, hd.grad_frame) / hd.grad_norm[:, None] ** r)
    vol = np.sqrt(np.prod(metric_diag_stack(M, Q), axis=1))
    weighted = (vol[:, None] * Vc).reshape(len(hs), N, n, 2, n)
    lhs = 0.0
    for i in range(n):
        lhs = lhs + (weighted[:, :, i, 0, i] - weighted[:, :, i, 1, i]) / (2 * steps[:, :, i])
    lhs = lhs / np.sqrt(np.prod(metric_diag_stack(M, P), axis=1))
    return np.abs(lhs - rhs)
