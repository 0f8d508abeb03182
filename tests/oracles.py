"""Per-point reference implementations of the node-stack kernels.

These are the library's former per-point kernels, kept as test oracles on
chart-component frames: the stacked kernels of curvatura are checked against them in
tests/test_node_kernel.py and the other test modules, so each stack is
compared with an independent implementation.  The finite-difference field
derivatives (fd_partials, hessian_frame_fd) check every field's closed
forms, and csv_string, the former in-memory CSV writer, checks the bytes of
the streamed reporting.write_csv.  Nothing in curvatura calls
them, and tests/test_node_kernel.py checks that none of these names comes
back into the package.
"""

import math
from dataclasses import dataclass

import numpy as np

from curvatura.curvature_integrals import _kprod, mixed_sum_terms, sectional_sum_terms
from curvatura.errors import DegenerateGradientError
from curvatura.level_set_geometry import (
    EPS_GRAD,
    HessianData,
    ScalarField,
    _div_contraction_table,
    fd_steps,
    hessian_frame,
)
from curvatura.reporting import fmt_value
from curvatura.model_manifolds import (
    CurvatureTensorData,
    ModelManifold,
    _constant_tensors,
    _pair_patterns,
    christoffel_stack,
    radial_profile,
)
from curvatura.symmetric_algebra import as_sym_matrix, eigh, elementary_all, sigma_elementary


def fd_partials(u: ScalarField, M: ModelManifold, p, steps):
    """Central-difference chart partials (n,) and second partials (n, n) of
    u.value at p, with one step per coordinate."""
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


class _PartialsAt(ScalarField):
    """A field known only by its partials at the one point it is asked at."""

    def __init__(self, du, D2):
        self.du, self.D2 = du, D2

    def partials(self, M, p):
        return self.du

    def second_partials(self, M, p):
        return self.D2


def hessian_frame_fd(u: ScalarField, M: ModelManifold, p, h: float = None) -> HessianData:
    """hessian_frame of u at p with the field's partials replaced by
    fd_partials of its value, step h (default 1e-4 * (1 + |p|)) placed per
    coordinate by fd_steps.  Converges at O(h^2)."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = 1e-4 * (1.0 + float(np.linalg.norm(p)))
    return hessian_frame(_PartialsAt(*fd_partials(u, M, p, fd_steps(M, p[None], h)[0])), M, p)


def metric_diagonal(M: ModelManifold, p) -> np.ndarray:
    """Diagonal of the chart metric at p in closed form: 1, f(r)^2,
    f(r)^2 sin^2(theta_1), ..., f(r)^2 sin^2(theta_1) ... sin^2(theta_{n-2})
    on polar charts, ones on Cartesian charts.  No chart guard."""
    p = np.asarray(p, dtype=float)
    if M.chart == "cartesian":
        return np.ones(M.dim)
    f = radial_profile(M)[0](p[0])
    return np.array([1.0] + [f * f * math.prod(math.sin(t) ** 2 for t in p[1:j])
                             for j in range(1, M.dim)])


def metric_at(M: ModelManifold, p) -> np.ndarray:
    """Chart metric as a dense symmetric positive-definite matrix."""
    return np.diag(metric_diagonal(M, p))


def riemann_at(M: ModelManifold, p, frame) -> CurvatureTensorData:
    """Curvature tensor of the model at p, in the supplied orthonormal frame.

    frame: columns are chart components of n tangent vectors; the Gram matrix
    against the chart metric must equal the identity to 1e-8.
    """
    n = M.dim
    p = np.asarray(p, dtype=float)
    F = np.asarray(frame, dtype=float)
    if F.shape != (n, n):
        raise ValueError(f"frame must be {n}x{n}, got {F.shape}")
    D = metric_diagonal(M, p)
    gram = F.T @ (D[:, None] * F)
    if np.max(np.abs(gram - np.eye(n))) > 1e-8:
        raise ValueError("frame is not g-orthonormal")

    if M.is_flat:
        R = np.zeros((n, n, n, n))
        K = np.zeros((n, n))
        return CurvatureTensorData(R=R, K=K, ricci_n=0.0)

    if M.family == "constant":
        R, K = _constant_tensors(n, M.a)
        return CurvatureTensorData(R=R.copy(), K=K.copy(), ricci_n=(n - 1) * M.a)

    # warped product: closed form in the chart-adapted frame, then rotated
    f, df, d2f = radial_profile(M)
    r = p[0]
    k_rad = -d2f(r) / f(r)
    k_tan = (1.0 - df(r) ** 2) / f(r) ** 2
    K_hat = np.full((n, n), k_tan)
    K_hat[0, :] = k_rad
    K_hat[:, 0] = k_rad
    np.fill_diagonal(K_hat, 0.0)
    R_hat = K_hat[:, :, None, None] * _pair_patterns(n)
    # P[a, i] = <adapted frame vector a, supplied frame vector i>
    P = np.sqrt(D)[:, None] * F
    R = np.tensordot(R_hat, P, axes=([0], [0]))
    R = np.tensordot(R, P, axes=([0], [0]))
    R = np.tensordot(R, P, axes=([0], [0]))
    R = np.tensordot(R, P, axes=([0], [0]))
    K = np.einsum("ijij->ij", R)
    ricci = float(np.sum(K[: n - 1, n - 1]))
    return CurvatureTensorData(R=R, K=K, ricci_n=ricci)


def newton_matrices(H, r: int) -> list[np.ndarray]:
    """The Newton operators [T_0, ..., T_r] of a symmetric matrix, from the
    defining recursion T_0 = I, T_r = sigma_r(H) I - T_{r-1} H."""
    A = as_sym_matrix(H)
    n = A.shape[0]
    if not 0 <= r <= n:
        raise ValueError(f"order r must satisfy 0 <= r <= {n}, got {r}")
    return _newton_matrices(A, r)[0]


def _newton_matrices(A: np.ndarray, r: int):
    """([T_0, ..., T_r], e_0..e_n of the eigenvalues) of a matrix that
    as_sym_matrix returned."""
    I = np.eye(A.shape[0])
    e = elementary_all(eigh(A)[0])
    mats = [I]
    for k in range(1, r + 1):
        T = e[k] * I - mats[-1] @ A
        mats.append(0.5 * (T + T.T))
    return mats, e


def sigma_hessian_eig(H, r: int) -> float:
    """sigma_r of the eigenvalues of H (eigh + coefficient recurrence)."""
    A = as_sym_matrix(H)
    if r < 0:
        raise ValueError(f"order r must be nonnegative, got {r}")
    return sigma_elementary(eigh(A)[0], r)


def trace_identity_residual(H, r: int) -> float:
    """|trace(T_r H) - (r+1) sigma_{r+1}(H)|.

    Both sides are exactly equal in real arithmetic (Euler's identity for
    the homogeneous polynomial sigma_{r+1}); the residual is pure roundoff.
    """
    A = as_sym_matrix(H)
    n = A.shape[0]
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r must satisfy 0 <= r <= {n - 1}, got {r}")
    mats, e = _newton_matrices(A, r)
    lhs = float(np.trace(mats[r] @ A))
    # e[r + 1] is sigma_hessian_eig(A, r + 1): the same eigenvalues, recurrence and entry
    rhs = (r + 1) * float(e[r + 1])
    return abs(lhs - rhs)


def _householder_complement(nu_f: np.ndarray) -> np.ndarray:
    """Orthonormal basis of nu^perp (frame components), deterministic."""
    n = nu_f.size
    s = 1.0 if nu_f[-1] >= 0 else -1.0
    v = nu_f.copy()
    v[-1] += s
    Hm = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    return Hm[:, : n - 1]


@dataclass(frozen=True)
class PrincipalFrame:
    """A principal frame in chart components: kappa ascending, directions
    the matching principal directions (columns), nu the unit normal,
    grad_norm_derivs the derivatives of |grad u| along the directions, and
    frame_chart the directions and nu as the columns of one frame."""
    kappa: np.ndarray
    directions: np.ndarray
    nu: np.ndarray
    grad_norm_derivs: np.ndarray
    frame_chart: np.ndarray


def principal_frame(hd: HessianData) -> PrincipalFrame:
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
    kappa, V = eigh(S)
    dirs_f = B @ V
    derivs = dirs_f.T @ (hd.hess_frame @ nu_f)
    dirs_chart = np.diag(hd.frame_scale) @ dirs_f
    nu_chart = np.diag(hd.frame_scale) @ nu_f
    frame_chart = np.hstack([dirs_chart, nu_chart[:, None]])
    return PrincipalFrame(kappa=kappa, directions=dirs_chart, nu=nu_chart,
                          grad_norm_derivs=derivs, frame_chart=frame_chart)


def _reilly2_sides(u: ScalarField, M: ModelManifold, p, r: int):
    """(sigma_r(kappa), <T_r grad u, grad u> / |grad u|^{r+2}) at p, from
    one Hessian and one principal frame."""
    hd = hessian_frame(u, M, p)
    pf = principal_frame(hd)
    lhs = sigma_elementary(pf.kappa, r)
    T = newton_matrices(hd.hess_frame, r)[r]
    g = hd.grad_frame
    return lhs, float(g @ T @ g) / hd.grad_norm ** (r + 2)


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
    rd = riemann_at(M, p, np.diag(hd.frame_scale))
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
        F = np.diag(hd.frame_scale)
        return F @ Tf @ np.linalg.inv(F)

    steps = fd_steps(M, p[None], h)[0]
    dT = np.zeros((n, n, n))   # dT[i, :, :] = d_i T
    for i in range(n):
        q = p.copy(); q[i] += steps[i]
        Tp = t_chart(q)
        q = p.copy(); q[i] -= steps[i]
        Tm = t_chart(q)
        dT[i] = (Tp - Tm) / (2 * steps[i])
    T0 = t_chart(p)
    Gam = christoffel_stack(M, p[None])[0]
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
    return np.diag(hd0.frame_scale).T @ div


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
        Vc = np.diag(hd.frame_scale) @ Vf
        vol = math.sqrt(float(np.prod(metric_diagonal(M, q))))
        return vol * Vc

    steps = fd_steps(M, p[None], h)[0]
    vol0 = math.sqrt(float(np.prod(metric_diagonal(M, p))))
    lhs = 0.0
    for i in range(n):
        q = p.copy(); q[i] += steps[i]
        wp = weighted_field(q)[i]
        q = p.copy(); q[i] -= steps[i]
        wm = weighted_field(q)[i]
        lhs += (wp - wm) / (2 * steps[i])
    lhs /= vol0
    return abs(lhs - rhs)


def correction_terms_pointwise(u: ScalarField, M: ModelManifold, p, r: int):
    """(sectional, mixed) correction integrands at a point, by the displayed
    index enumeration in the principal frame."""
    n = M.dim
    hd = hessian_frame(u, M, p)
    pf = principal_frame(hd)
    if M.is_flat:
        return 0.0, 0.0
    rd = riemann_at(M, p, pf.frame_chart)
    kap = pf.kappa
    last = n - 1
    sect = 0.0
    for prefix, ir in sectional_sum_terms(n - 1, r):
        sect -= _kprod(kap, prefix) * rd.K[ir, last]
    mixed = 0.0
    for prefix, irm1, ir in mixed_sum_terms(n - 1, r):
        mixed += (_kprod(kap, prefix) * pf.grad_norm_derivs[irm1]
                  * rd.R[ir, irm1, ir, last])
    mixed /= hd.grad_norm
    return sect, mixed


def pairwise_sum_recursive(values):
    """The former scalar recursion of quadrature.pairwise_sum: a range of
    at most 8 items sums left to right from 0.0, a longer one splits at
    mid = (lo + hi) // 2.  A 1-d input sums to a float; a 2-d input sums
    down axis 0, column by column."""
    vals = np.asarray(values, dtype=float)

    def rec(col, lo, hi):
        if hi - lo <= 8:
            s = 0.0
            for k in range(lo, hi):
                s += col[k]
            return s
        mid = (lo + hi) // 2
        return rec(col, lo, mid) + rec(col, mid, hi)

    if vals.ndim == 2:
        return np.array([rec(col, 0, len(col)) for col in vals.T])
    return rec(vals, 0, len(vals))


def csv_string(columns, rows) -> str:
    """The former reporting.csv_string: the whole CSV text of a list of
    rows, built in memory."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_value(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"
