"""Scalar fields on model manifolds and the level-set geometry built on them:
covariant Hessians in orthonormal frames, principal curvature frames, r-th
mean curvatures of level sets, and residuals of the two Reilly-type identities
together with the curvature contraction for div(T_r) and its finite-difference
oracle.  Everything past the per-point covariant Hessian runs on node stacks.

Conventions.  Operations take chart coordinates as plain arrays.  Vectors,
frames and tensors pass between the kernels in components of the orthonormal
frame E_a = (g_aa)^{-1/2} d_a of the (diagonal) chart metric, "frame
components"; chart components appear only inside the two finite-difference
kernels.  The gradient-degeneracy cutoff is EPS_GRAD; below it operations
raise instead of regularizing.  Node stacks have shape (N, ...) and the
stack kernels store them node-last, as symmetric_algebra does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from .errors import CurvaturaError, DegenerateGradientError, node_error
from .model_manifolds import (
    ChartStack,
    ModelManifold,
    _distinct,
    _elementwise,
    _log_derivatives,
    _on_distinct,
    chart_stack,
    christoffel_stack,
    riemann_stack,
)
from .symmetric_algebra import (
    _matmul_node_last,
    _node_first,
    _node_last,
    elementary_all_stack,
    jacobi_eigh,
    jacobi_eigh_stack,
    newton_matrices_stack,
    parity_between,
    sigma_stack,
)

EPS_GRAD = 1e-8


def sphere_direction(angles) -> np.ndarray:
    """Unit vectors in R^n from n-1 iterated spherical angles: (n,) from
    angles (n-1,), (N, n) from a stack (N, n-1), each row with the bits of
    its angles alone (`math` cosines and sines, products in angle order)."""
    stack = np.atleast_2d(np.asarray(angles, dtype=float))
    flat = stack.ravel().tolist()
    cos, sin = (np.fromiter(map(fn, flat), float, len(flat)).reshape(stack.shape)
                for fn in (math.cos, math.sin))
    out = np.empty((len(stack), stack.shape[1] + 1))
    s = np.ones(len(stack))
    for j in range(stack.shape[1]):
        out[:, j] = s * cos[:, j]
        s = s * sin[:, j]
    out[:, -1] = s
    return out if np.ndim(angles) == 2 else out[0]


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

    check(M), the one test of whether the field can live on the model M,
    raises ValueError when it cannot; the chart-dependent methods call it.

    ball_radius(level) is the radius of the geodesic ball {u < level} when
    that set is one, and ball_center_distance() the distance of its centre
    from the chart base point.

    ray_map() is the linear map A by which a quadrature rule on a Cartesian
    chart warps its ray directions xi to A xi / |A xi|, or None, the
    identity, for every field but the quadratic one.
    """

    kind = "abstract"
    # true when the *_stack methods are closed forms: hessian_frame_stack
    # then differentiates the whole stack at once; otherwise it calls
    # hessian_frame per node.  Only the quadratic field is not stacked, and
    # only because perfbench counts one hessian_frame call per node on its
    # ellipsoid workload; once those counters read the stacked spans
    # (ROADMAP item 1), it can be stacked and this flag go.
    stacked = False

    def check(self, M: ModelManifold):
        """Raise ValueError unless the field can live on M; the base
        class accepts every model."""

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

    def ball_center_distance(self) -> float:
        """Distance from the chart base point to the centre of the balls of
        ball_radius."""
        return 0.0

    def ray_map(self):
        """None: quadrature rules keep their ray directions."""
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
    """Products A[k] @ X[k] of a matrix stack and a vector stack, as an
    (N, m) view of node-last storage."""
    return _matmul_node_last(_node_last(A), _node_last(X)[:, None])[:, 0].T


def _check_gradients(grad_norm: np.ndarray, what: str):
    """Raise for the first node of a stack whose |grad u| is not above
    EPS_GRAD (NaN included)."""
    bad = ~(grad_norm > EPS_GRAD)
    if bad.any():
        k = int(np.argmax(bad))
        raise node_error(DegenerateGradientError, k,
                         f"|grad u| = {grad_norm[k]:.3e} <= {EPS_GRAD:g}: {what}")


def _centered(center, P) -> np.ndarray:
    """A point, or a stack of points, less a field's Cartesian center."""
    X = np.asarray(P, dtype=float)
    return X if center is None else X - center


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
    Cartesian `center`: closed-form stacks and sublevel balls about any
    center.  Polar charts are centred on their base point, so a nonzero
    center needs a Cartesian chart."""

    def __init__(self, center=None):
        self.center = None if center is None else np.asarray(center, dtype=float)

    def check(self, M):
        if M.chart != "cartesian" and self.center is not None and np.any(self.center != 0.0):
            raise ValueError("radial fields on a polar chart are centred on its base "
                             "point; their center must be zero")

    def ball_center_distance(self):
        return 0.0 if self.center is None else float(np.linalg.norm(self.center))

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
            self.check(M)
            return float(p[0])
        return float(np.linalg.norm(_centered(self.center, p)))

    def partials_stack(self, M, P):
        if M.chart == "polar":
            self.check(M)
            du = np.zeros((len(P), M.dim))
            du[:, 0] = 1.0
            return du
        X = _centered(self.center, P)
        return X / np.sqrt(_rowdot(X, X))[:, None]

    def second_partials_stack(self, M, P):
        if M.chart == "polar":
            self.check(M)
            return np.zeros((len(P), M.dim, M.dim))
        X = _centered(self.center, P)
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
            self.check(M)
            return 0.5 * float(p[0]) ** 2
        x = _centered(self.center, p)
        return 0.5 * float(x @ x)

    def partials_stack(self, M, P):
        if M.chart == "polar":
            self.check(M)
            du = np.zeros((len(P), M.dim))
            du[:, 0] = np.asarray(P, dtype=float)[:, 0]
            return du
        return _centered(self.center, P).copy()

    def second_partials_stack(self, M, P):
        D2 = np.zeros((len(P), M.dim, M.dim))
        if M.chart == "polar":
            self.check(M)
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
        w, V = jacobi_eigh(self.Q)
        if w[0] <= 0:
            raise ValueError("Q must be positive definite")
        # the symmetrized Q that gave the eigenvalues (jacobi_eigh refuses
        # entries that overflow it) serves value and partials too
        self.Q = 0.5 * (self.Q + self.Q.T)
        # ascending, as Python floats: the sublevel ellipsoid's semi-axes
        self.eigenvalues = tuple(float(x) for x in w)
        self.eigenvectors = V
        self.center = None if center is None else np.asarray(center, dtype=float)

    def check(self, M):
        if M.chart != "cartesian":
            raise ValueError("quadratic fields are Cartesian-chart only")
        if self.Q.shape[0] != M.dim:
            raise ValueError(f"Q is {self.Q.shape[0]}x..., manifold dim is {M.dim}")

    def value(self, M, p):
        self.check(M)
        x = _centered(self.center, p)
        # ndarray.dot: about half the call cost of @ on vectors this short
        return 0.5 * float(x.dot(self.Q).dot(x))

    def partials(self, M, p):
        self.check(M)
        return self.Q.dot(_centered(self.center, p))

    def second_partials(self, M, p):
        self.check(M)
        return self.Q.copy()

    def reach(self, level: float) -> float:
        """Largest distance from the chart base point to a point of the
        ellipsoid {u <= level}: the maximum of |c + sum_i a_i z_i v_i| over
        unit z, with (lambda_i, v_i) the eigenpairs of Q, s_i = a_i^2 =
        2 level / lambda_i and c_i the centre's components along v_i.

        A stationary point has z_i = a_i c_i / (mu - s_i), and the maximum
        has mu >= max s_i.  Unless the centre has no component along the
        longest axes and the other z_i, at mu = max s_i, are no longer
        than 1 (then mu = max s_i and the rest of z lies along those axes),
        mu is the root of the secular equation sum s_i c_i^2 / (mu - s_i)^2
        = 1 above max s_i, found by bisection."""
        s = [2.0 * level / lam for lam in self.eigenvalues]
        c = ([0.0] * len(s) if self.center is None
             else (self.center @ self.eigenvectors).tolist())
        terms = [(si, ci) for si, ci in zip(s, c) if ci != 0.0]
        top = max(s)

        def norm2(mu):   # |z|^2 at mu, over the axes the centre leans along
            return sum(si * ci * ci / (mu - si) ** 2 for si, ci in terms)

        mu = top
        if any(si == top for si, _ in terms) or norm2(top) > 1.0:
            lo, hi = top, top + math.sqrt(sum(si * ci * ci for si, ci in terms))
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if norm2(mid) > 1.0 else (lo, mid)
            mu = hi
        far2 = sum((ci * mu / (mu - si)) ** 2 for si, ci in terms)
        return math.sqrt(far2 + top * max(0.0, 1.0 - norm2(mu)))

    def ray_map(self):
        """Q^{-1/2} = V diag(lambda^{-1/2}) V^T from the eigenpairs of Q: it
        maps the unit sphere onto the shape of the level ellipsoids, so that
        a rule's warped rays meet a centred level set at the linear image of
        the grid's nodes on the sphere."""
        V = self.eigenvectors
        return (V * [lam ** -0.5 for lam in self.eigenvalues]) @ V.T

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

    def check(self, M):
        if M.chart == "polar" and M.family != "constant":
            raise ValueError(
                "off-center distance has no closed form in non-constant warped models")

    def _radial(self, M) -> RadialDistanceField:
        """The field on a Cartesian chart: the distance from (offset, 0, ...)."""
        center = np.zeros(M.dim)
        center[0] = self.offset
        return RadialDistanceField(center=center)

    def value(self, M, p):
        self.check(M)
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
        t = s * (P[:, 0] - self.offset)
        srho = _distinct(s * P[:, 0])
        sh, ch = _on_distinct(math.sinh, *srho), _on_distinct(math.cosh, *srho)
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
        self.check(M)
        if M.chart == "cartesian":
            return self._radial(M).partials_stack(M, P)
        s, _, B, dA, _ = self._cosines(M, P)
        du = np.zeros((len(P), M.dim))
        du[:, :2] = dA / (s * B)[:, None]
        return du

    def second_partials_stack(self, M, P):
        self.check(M)
        if M.chart == "cartesian":
            return self._radial(M).second_partials_stack(M, P)
        s, A, B, dA, d2A = self._cosines(M, P)
        D2 = np.zeros((len(P), M.dim, M.dim))
        D2[:, :2, :2] = ((d2A - (A / (B * B))[:, None, None] * dA[:, :, None] * dA[:, None, :])
                         / (s * B)[:, None, None])
        return D2

    def ball_radius(self, level):
        # about the offset point; check(M) admits only homogeneous models
        return level if level > 0 else None

    def ball_center_distance(self):
        return self.offset

    def describe(self):
        return {"field": self.kind, "offset": self.offset}


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
    frame_scale: np.ndarray   # E_a = frame_scale[a] d_a: the diagonal 1/sqrt(g_aa)
    grad_frame: np.ndarray    # gradient in frame components

    def take(self, rows) -> "HessianData":
        """The record of the nodes `rows` of a stacked record."""
        return HessianData(grad_norm=self.grad_norm[rows], hess_frame=self.hess_frame[rows],
                           frame_scale=self.frame_scale[rows], grad_frame=self.grad_frame[rows])


def fd_steps(M: ModelManifold, P, h: float) -> np.ndarray:
    """Per-coordinate steps (N, n) of the finite-difference stencils
    (_stencil) of the div(T_r) oracle and the reilly1 residual, at every
    row of an (N, n) point stack.

    Polar charts cap the radial step below r/2 and the polar-angle steps a
    safe fraction away from the axis so stencils stay inside the chart.
    """
    P = np.asarray(P, dtype=float)
    steps = np.full(P.shape, h, dtype=float)
    if M.chart == "polar":
        steps[:, 0] = np.minimum(h, 0.25 * P[:, 0])
        for m in range(1, M.dim - 1):
            gap = np.minimum(np.abs(P[:, m]), np.abs(math.pi - P[:, m]))
            steps[:, m] = np.where(gap > 0, np.minimum(h, 0.25 * gap), h)
    return steps


def hessian_frame(u: ScalarField, M: ModelManifold, p) -> HessianData:
    """Gradient and covariant Hessian of u at p, in the orthonormal
    frame from the triangular factorization of the chart metric.

    The covariant Hessian is d_i d_j u - Gamma^k_ij d_k u in the chart (the
    symbols vanish on Cartesian charts), from the field's closed-form
    partials, then conjugated into the frame.  Polar charts read the metric
    diagonal and the symbols from the one-row chart_stack and
    christoffel_stack of p.  The per-node route of hessian_frame_stack for
    fields that are not stacked.
    """
    p = np.asarray(p, dtype=float)
    du = u.partials(M, p)
    D2 = u.second_partials(M, p)
    hess_chart = D2
    inv_sqrt = np.ones(M.dim)
    if M.chart == "polar":
        chart = chart_stack(M, p[None])
        hess_chart = D2 - np.tensordot(du, christoffel_stack(M, p[None], chart)[0],
                                       axes=([0], [0]))
        inv_sqrt = 1.0 / np.sqrt(chart.D[0])
    hess_f = hess_chart * np.outer(inv_sqrt, inv_sqrt)
    hess_f = 0.5 * (hess_f + hess_f.T)
    grad_f = du * inv_sqrt
    return HessianData(grad_norm=float(np.linalg.norm(grad_f)),
                       hess_frame=hess_f, frame_scale=inv_sqrt, grad_frame=grad_f)


def hessian_frame_stack(u: ScalarField, M: ModelManifold, P,
                        chart: Optional[ChartStack] = None) -> HessianData:
    """hessian_frame of every row of an (N, n) point stack, as one
    HessianData whose fields carry a leading node axis.  chart: the
    stack's chart_stack, built here when not given.

    Stacked fields use their closed forms on the whole stack; the others
    (in the package, only the quadratic field) call hessian_frame node by
    node.  The Christoffel contraction subtracts only the nonzero symbols
    of the diagonal metric, with l[k] = d_k log g_jj (j > k) from
    _log_derivatives, in ascending k as the full contraction over
    christoffel_stack would: du_b l[a] / 2 from entries (a, b) and (b, a),
    a < b, and du_k (-g_aa l[k] / (2 g_kk)), k < a, from entry (a, a).
    The stacked route computes node-last and returns views of that storage.
    """
    P = np.asarray(P, dtype=float)
    N, n = P.shape
    if not u.stacked:
        rows = []
        for k, p in enumerate(P):
            try:
                rows.append(hessian_frame(u, M, p))
            except CurvaturaError as e:
                # a chart error names node 0 of its one-row stack
                raise node_error(type(e), k, getattr(e, "detail", str(e))) from None

        def stack(name, shape):
            return np.array([getattr(h, name) for h in rows], dtype=float).reshape((N,) + shape)

        return HessianData(grad_norm=stack("grad_norm", ()),
                           hess_frame=stack("hess_frame", (n, n)),
                           frame_scale=stack("frame_scale", (n,)),
                           grad_frame=stack("grad_frame", (n,)))
    # node-last: du and D (n, N), the Hessian (n, n, N)
    du = _node_last(u.partials_stack(M, P))
    hc = _node_last(u.second_partials_stack(M, P))
    if chart is None:
        chart = chart_stack(M, P)
    D = _node_last(chart.D)
    if M.chart == "polar":
        if not hc.flags.owndata:    # a view of the field's array: write to a copy
            hc = hc.copy()
        logd = _log_derivatives(chart)
        for a in range(n - 1):
            t = du[a + 1:] * (0.5 * logd[a])
            hc[a, a + 1:] = hc[a, a + 1:] - t
            hc[a + 1:, a] = hc[a + 1:, a] - t
        for a in range(1, n):
            for k in range(a):
                hc[a, a] = hc[a, a] - du[k] * (-D[a] * logd[k] / (2.0 * D[k]))
    inv_sqrt = 1.0 / np.sqrt(D)
    hess_f = hc * (inv_sqrt[:, None] * inv_sqrt[None])
    hess_f = 0.5 * (hess_f + hess_f.transpose(1, 0, 2))
    grad_f = du * inv_sqrt
    return HessianData(grad_norm=np.sqrt(_rowdot(grad_f.T, grad_f.T)),
                       hess_frame=_node_first(hess_f), frame_scale=inv_sqrt.T, grad_frame=grad_f.T)


# ---------------------------------------------------------------------------
# Principal curvature frames
# ---------------------------------------------------------------------------

class PrincipalFrameData:
    """Principal curvatures and frames of the level sets through a node
    stack, with a leading node axis on every field.

    kappa is ascending; the columns of frame are the matching principal
    directions and then the unit normal nu = grad u / |grad u|, in frame
    components (an orthogonal matrix per node), as riemann_stack takes
    them; grad_norm_derivs[i] is the derivative of |grad u| along direction
    i, equal to the Hessian row against nu in this frame.  frame and
    grad_norm_derivs are formed from the node-last Hessian H, normal nu,
    Householder basis B and eigenvectors V when first read, and kept: a
    caller that reads only kappa pays for neither product.
    """

    def __init__(self, kappa: np.ndarray, H: np.ndarray, nu: np.ndarray, B: np.ndarray,
                 V: np.ndarray):
        self.kappa = kappa
        self._H, self._nu, self._B, self._V = H, nu, B, V

    @cached_property
    def _directions(self) -> np.ndarray:
        """The principal directions in frame components, node-last (n, n-1, N)."""
        return _matmul_node_last(self._B, _node_last(self._V))

    @cached_property
    def grad_norm_derivs(self) -> np.ndarray:
        Hnu = _matmul_node_last(self._H, self._nu[:, None])
        return _matmul_node_last(self._directions.transpose(1, 0, 2), Hnu)[:, 0].T

    @cached_property
    def frame(self) -> np.ndarray:
        return _node_first(np.concatenate([self._directions, self._nu[:, None]], axis=1))


def principal_frame_stack(hd: HessianData) -> PrincipalFrameData:
    """Diagonalize the shape operators of the level sets through the nodes
    of a hessian_frame_stack result; raises for the first node whose
    gradient is degenerate.

    The shape operator is the covariant Hessian restricted to nu^perp (a
    deterministic Householder basis) and scaled by 1/|grad u|; its
    eigenvalues, from jacobi_eigh_stack, are the principal curvatures.
    Eigenvector choice inside repeated-eigenvalue spaces is arbitrary, which
    is fine downstream: only symmetric functions of kappa are consumed.
    Everything but the eigensolver runs on node-last arrays; the frames
    and derivatives, formed on first read, are views of them.
    """
    gn = hd.grad_norm
    _check_gradients(gn, "level-set frame undefined")
    n = hd.grad_frame.shape[1]
    # node-last: vectors (n, N), matrices (n, m, N)
    H = _node_last(hd.hess_frame)
    nu = _node_last(hd.grad_frame) / gn
    # Householder reflection taking nu to -/+ e_n: its first n-1 columns span nu^perp
    v = nu.copy()
    v[-1] += np.where(nu[-1] >= 0, 1.0, -1.0)
    B = np.eye(n, n - 1)[:, :, None] - 2.0 * (v[:, None] * v[None, : n - 1]) / _rowdot(v.T, v.T)
    Bt = B.transpose(1, 0, 2)
    S = _matmul_node_last(_matmul_node_last(Bt, H), B) / gn
    kappa, V = jacobi_eigh_stack(_node_first(S))
    return PrincipalFrameData(kappa, H, nu, B, V)


# ---------------------------------------------------------------------------
# Reilly identities and div(T_r) over node stacks
# ---------------------------------------------------------------------------

# The Reilly kernels below take an order r, or an (N,) array of per-row
# orders, so that the cases of several orders share one node stack.  Every
# stage works node by node, and an order-dependent step runs once per
# distinct order on the rows that carry it, by the operations of that order
# alone: a row's result does not depend on the other rows or their orders.

def _order_groups(r, N: int, lowest: int) -> list:
    """[(q, rows)]: for one order r, [(r, slice(None))]; for per-row orders
    (an (N,) integer array), one entry per distinct order q, ascending, with
    the index array of its rows.  Raises ValueError for an order below
    `lowest`."""
    if np.ndim(r) == 0:
        groups = [(int(r), slice(None))]
    else:
        r = np.asarray(r)
        if r.shape != (N,) or r.dtype.kind not in "iu":
            raise ValueError(f"per-row orders must be {N} integers, got {r.dtype} {r.shape}")
        groups = [(int(q), np.flatnonzero(r == q)) for q in np.unique(r)]
    if groups and groups[0][0] < lowest:
        raise ValueError(f"order r must be >= {lowest}, got {groups[0][0]}")
    return groups


def _stencil_orders(r, n: int, steps: int):
    """The orders of _stencil's points, each centre's at its 2n points per step."""
    return r if np.ndim(r) == 0 else np.tile(np.repeat(r, 2 * n), steps)


def _newton_rows(H: np.ndarray, groups: list) -> np.ndarray:
    """T_q of the rows of every (q, rows) of _order_groups, from one Newton
    recursion of the stack (N, n, n) up to the largest order."""
    mats = newton_matrices_stack(H, max((q for q, _ in groups), default=0))
    if len(groups) == 1:
        return mats[groups[0][0]]
    T = np.empty_like(mats[0])     # node-last, as mats
    for q, rows in groups:
        T[rows] = mats[q][rows]
    return T


def _power_rows(x: np.ndarray, groups: list, offset: int) -> np.ndarray:
    """x ** (q + offset) on the rows of every (q, rows) of _order_groups."""
    out = np.empty(x.shape)
    for q, rows in groups:
        out[rows] = x[rows] ** (q + offset)
    return out


def reilly2_sides_stack(u: ScalarField, M: ModelManifold, P, r):
    """(sigma_r(kappa), <T_r grad u, grad u> / |grad u|^{r+2}) at every row of
    an (N, n) point stack, each of shape (N,), from one Hessian stack; r is
    one order or per-row orders.

    The identity is exact; the sides keep independent routes: sigma_r of
    the principal curvatures from principal_frame_stack, and the Newton
    recursion of newton_matrices_stack contracted against the gradient."""
    hd = hessian_frame_stack(u, M, P)
    groups = _order_groups(r, len(hd.grad_norm), 0)
    e = elementary_all_stack(principal_frame_stack(hd).kappa)
    lhs = np.empty(len(e))
    for q, rows in groups:
        lhs[rows] = sigma_stack(e[rows], q)
    g = hd.grad_frame
    return lhs, _rowdot(g, _matvec(_newton_rows(hd.hess_frame, groups), g)) / _power_rows(
        hd.grad_norm, groups, 2)


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


def div_newton_stack(M: ModelManifold, P, hd: HessianData, r) -> np.ndarray:
    """Frame components of div(T_r) via the curvature contraction at every
    row of an (N, n) point stack, given the stack's hessian_frame_stack hd:
    (N, n); r >= 1 is one order or per-row orders.

    Contracts the generalized Kronecker tensor against r-1 Hessian factors
    and one factor R[i, j_r, i_r, k] u_k, all in the metric-factorization
    frame (identity frames to riemann_stack).  Identically zero in flat space.
    """
    N, n = hd.grad_frame.shape
    groups = _order_groups(r, N, 1)
    _check_gradients(hd.grad_norm, "degenerate gradient in div(T_r)")
    if M.is_flat:
        return np.zeros((N, n))
    R = riemann_stack(M, P, np.broadcast_to(np.eye(n), (N, n, n))).R
    g = hd.grad_frame
    W = R[..., 0] * g[:, 0, None, None, None]
    for l in range(1, n):
        W = W + R[..., l] * g[:, l, None, None, None]
    out = np.zeros((N, n))
    for q, rows in groups:
        H, Wq = hd.hess_frame[rows], W[rows]
        for j, row in enumerate(_div_contraction_table(n, q)):
            tot = np.zeros(len(H))
            for sgn, pairs, (a, b, c) in row:
                prod = float(sgn)
                for (x, y) in pairs:
                    prod = prod * H[:, x, y]
                tot = tot + prod * Wq[:, a, b, c]
            out[rows, j] = tot
    return out


def _stencil(M: ModelManifold, P: np.ndarray, hs):
    """The central-difference stencil of every row of P for every step h of
    hs, placed by fd_steps: (steps (S, N, n), points (S * N * n * 2, n)),
    the points ordered by step, row, axis i, then +/- the step along i."""
    n = P.shape[1]
    steps = np.stack([fd_steps(M, P, h) for h in hs])
    offsets = steps[:, :, :, None] * np.eye(n)
    Q = np.stack([P[None, :, None, :] + offsets, P[None, :, None, :] - offsets], axis=3)
    return steps, Q.reshape(-1, n)


def div_newton_fd_stack(u: ScalarField, M: ModelManifold, P, hd: HessianData, r,
                        h: float = 1e-3) -> np.ndarray:
    """Finite-difference oracle for div(T_r) at every row of an (N, n) point
    stack, given the stack's hessian_frame_stack hd: the covariant divergence
    of the Newton operator as a (1,1) chart tensor field, in the frame of
    div_newton_stack, (N, n); r is one order or per-row orders.  Converges
    at O(h^2).

    The 2n stencil points of every row form one stack; the Christoffel
    symbols and the undifferentiated T_r are taken at the centres.
    """
    P = np.asarray(P, dtype=float)
    N, n = P.shape

    def t_chart(hq, orders):
        # F T F^-1 for the diagonal frame F = diag(frame_scale)
        s = hq.frame_scale
        T = _newton_rows(hq.hess_frame, _order_groups(orders, len(s), 0))
        return s[:, :, None] * T * (1.0 / s)[:, None, :]

    steps, Q = _stencil(M, P, (h,))
    T = t_chart(hessian_frame_stack(u, M, Q), _stencil_orders(r, n, 1)).reshape(N, n, 2, n, n)
    T0 = t_chart(hd, r)
    Gam = christoffel_stack(M, P)
    div = np.zeros((N, n))
    for i in range(n):
        div = div + (T[:, i, 0, i, :] - T[:, i, 1, i, :]) / (2 * steps[0, :, i, None])
        for m in range(n):
            div = div + Gam[:, i, i, m, None] * T0[:, m, :]
            div = div - Gam[:, m, i, :] * T0[:, i, m, None]
    return hd.frame_scale * div


def reilly1_residual_stack(u: ScalarField, M: ModelManifold, P, r, hs) -> np.ndarray:
    """|LHS - RHS| of the divergence identity for T_{r-1}(grad u/|grad u|^r)
    at every row of an (N, n) point stack and every step h of hs:
    (len(hs), N); r >= 1 is one order or per-row orders.  Converges to zero
    at O(h^2).

    LHS is a central-difference covariant divergence of the vector field
    (via the volume-weighted coordinate form); RHS combines the div(T_{r-1})
    contraction with r * sigma_r(kappa).  The RHS does not depend on the
    step, so it is formed once per row, from one stack of centres.  The 2n
    stencil points of every row and step form one stack.
    """
    P = np.asarray(P, dtype=float)
    N, n = P.shape
    groups = _order_groups(r, N, 1)
    chart0 = chart_stack(M, P)
    hd0 = hessian_frame_stack(u, M, P, chart0)
    _check_gradients(hd0.grad_norm, "degenerate gradient at the center point")
    e = elementary_all_stack(principal_frame_stack(hd0).kappa)
    rhs = np.empty(N)
    for q, rows in groups:
        rhs_q = q * sigma_stack(e[rows], q)
        if q >= 2:
            hq = hd0.take(rows)
            divT = div_newton_stack(M, P[rows], hq, q - 1)
            rhs_q = rhs_q + _rowdot(divT, hq.grad_frame) / hq.grad_norm ** q
        rhs[rows] = rhs_q

    steps, Q = _stencil(M, P, hs)
    chart = chart_stack(M, Q)
    hd = hessian_frame_stack(u, M, Q, chart)
    _check_gradients(hd.grad_norm, "degenerate gradient in the stencil")
    qgroups = _order_groups(_stencil_orders(r, n, len(hs)), len(Q), 1)
    Tm = _newton_rows(hd.hess_frame, [(q - 1, rows) for q, rows in qgroups])
    Vc = hd.frame_scale * (_matvec(Tm, hd.grad_frame)
                           / _power_rows(hd.grad_norm[:, None], qgroups, 0))
    vol = np.sqrt(np.prod(chart.D, axis=1))
    weighted = (vol[:, None] * Vc).reshape(len(hs), N, n, 2, n)
    lhs = 0.0
    for i in range(n):
        lhs = lhs + (weighted[:, :, i, 0, i] - weighted[:, :, i, 1, i]) / (2 * steps[:, :, i])
    lhs = lhs / np.sqrt(np.prod(chart0.D, axis=1))
    return np.abs(lhs - rhs)
