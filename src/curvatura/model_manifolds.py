"""Model Riemannian manifolds: Euclidean space, hyperbolic space of constant
curvature a <= 0, and rotationally symmetric warped products.

Curved families live on a geodesic polar chart about a base point: coordinate
0 is the radius r > 0, coordinates 1..n-2 are polar angles in (0, pi), and
the last coordinate is an azimuth in [0, 2*pi).  The metric is

    dr^2 + f(r)^2 * (round metric of S^{n-1} in iterated spherical angles)

with f the warping profile (f = sinh(sqrt(-a) r)/sqrt(-a) realizes constant
curvature a < 0).  Euclidean space and the a = 0 member of the constant
family use a Cartesian chart, where the tensors are trivial.

All Christoffel symbols are analytic closed forms of the diagonal metric;
nothing on the shipped path is differentiated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ChartSingularityError, node_error
from .symmetric_algebra import binomial

_AXIS_TOL = 1e-12
# exponents x with e^x well inside the double range (e^710 overflows)
_MAX_EXP = 700.0


@dataclass(frozen=True)
class WarpingProfile:
    """Analytic triple (f, f', f'') of a rotational warping profile.

    The three callables must be mutually consistent; construction spot-checks
    the derivatives against central differences on a sample grid.
    """
    name: str
    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]

    def __post_init__(self):
        h = 1e-5
        for r in (0.1, 0.37, 0.9, 1.6, 3.2):
            fd1 = (self.f(r + h) - self.f(r - h)) / (2 * h)
            fd2 = (self.df(r + h) - self.df(r - h)) / (2 * h)
            if abs(fd1 - self.df(r)) > 1e-6 * (1 + abs(self.df(r))):
                raise ValueError(f"profile '{self.name}': f' inconsistent with f at r={r}")
            if abs(fd2 - self.d2f(r)) > 1e-6 * (1 + abs(self.d2f(r))):
                raise ValueError(f"profile '{self.name}': f'' inconsistent with f' at r={r}")


def sinh_profile() -> WarpingProfile:
    return WarpingProfile("sinh", math.sinh, math.cosh, math.sinh)


def linear_profile() -> WarpingProfile:
    return WarpingProfile("linear", lambda r: r, lambda r: 1.0, lambda r: 0.0)


def poly3_profile() -> WarpingProfile:
    """f(r) = r + r^3/6: nonpositive curvature, pinched between flat and sinh."""
    return WarpingProfile(
        "poly3",
        lambda r: r + r ** 3 / 6.0,
        lambda r: 1.0 + r ** 2 / 2.0,
        lambda r: r,
    )


def scaled_sinh_profile(a: float) -> WarpingProfile:
    """Profile sinh(s r)/s with s = sqrt(-a), realizing constant curvature a < 0."""
    if a >= 0:
        raise ValueError("scaled sinh profile needs a < 0")
    s = math.sqrt(-a)
    return WarpingProfile(
        f"sinh[a={a:g}]",
        lambda r: math.sinh(s * r) / s,
        lambda r: math.cosh(s * r),
        lambda r: s * math.sinh(s * r),
    )


def profile_by_name(name: str) -> WarpingProfile:
    table = {"sinh": sinh_profile, "linear": linear_profile, "poly3": poly3_profile}
    if name not in table:
        raise ValueError(f"unknown profile '{name}' (expected one of {sorted(table)})")
    return table[name]()


@dataclass(frozen=True)
class ModelManifold:
    family: str                 # "euclidean" | "constant" | "warped"
    dim: int
    a: float = 0.0              # constant family only
    profile: Optional[WarpingProfile] = None
    chart: str = "cartesian"    # "cartesian" | "polar"
    working_radius: float = 10.0

    def describe(self) -> dict:
        d = {"family": self.family, "dim": self.dim}
        if self.family == "constant":
            d["a"] = self.a
        if self.family == "warped":
            d["profile"] = self.profile.name
        return d

    @property
    def is_flat(self) -> bool:
        """Euclidean space, or the a = 0 member of the constant family."""
        return self.family == "euclidean" or (self.family == "constant" and self.a == 0.0)

    @property
    def label(self) -> str:
        if self.family == "constant":
            return f"constant(a={self.a:g})"
        if self.family == "warped":
            return f"warped({self.profile.name})"
        return "euclidean"


def _check_dim(n: int):
    if not 2 <= n <= 6:
        raise ValueError(f"dimension must be in [2, 6], got {n}")


def euclidean(n: int) -> ModelManifold:
    _check_dim(n)
    return ModelManifold(family="euclidean", dim=n, chart="cartesian")


def constant_curvature(a: float, n: int) -> ModelManifold:
    """Space form of curvature a <= 0.  a = 0 shares the Cartesian chart with
    Euclidean space; a < 0 lives on the geodesic polar chart."""
    _check_dim(n)
    if a > 0:
        raise ValueError(f"constant-curvature family requires a <= 0, got {a}")
    if a == 0:
        return ModelManifold(family="constant", dim=n, a=0.0, chart="cartesian")
    if (n - 1) * math.sqrt(-a) * ModelManifold.working_radius > _MAX_EXP:
        raise ValueError(f"a = {a:g} is out of range: the volume element "
                         f"sinh(sqrt(-a) r)^{n - 1} overflows within the working radius")
    return ModelManifold(family="constant", dim=n, a=a,
                         profile=scaled_sinh_profile(a), chart="polar")


def warped(profile: WarpingProfile, n: int, working_radius: float = 10.0) -> ModelManifold:
    """Rotationally symmetric warped product with the given profile.

    The profile is screened by sampling: f(0) = 0, f'(0) = 1, f > 0, and both
    model sectional curvatures -f''/f and (1 - f'^2)/f^2 nonpositive on the
    working radius.  Sampling is a sanity gate, not a proof.
    """
    _check_dim(n)
    if abs(profile.f(0.0)) > 1e-12 or abs(profile.df(0.0) - 1.0) > 1e-10:
        raise ValueError(f"profile '{profile.name}' must satisfy f(0)=0, f'(0)=1")
    for r in np.linspace(1e-3, working_radius, 1000):
        fr = profile.f(r)
        if fr <= 0:
            raise ValueError(f"profile '{profile.name}' not positive at r={r:g}")
        if -profile.d2f(r) / fr > 1e-12:
            raise ValueError(f"profile '{profile.name}' has positive radial curvature at r={r:g}")
        if (1.0 - profile.df(r) ** 2) / fr ** 2 > 1e-12:
            raise ValueError(f"profile '{profile.name}' has positive tangential curvature at r={r:g}")
    return ModelManifold(family="warped", dim=n, profile=profile,
                         chart="polar", working_radius=working_radius)


def radial_profile(M: ModelManifold):
    """(f, f', f'') governing geodesic spheres about the base point."""
    if M.family == "warped" or (M.family == "constant" and M.a < 0):
        p = M.profile
        return p.f, p.df, p.d2f
    return (lambda r: r), (lambda r: 1.0), (lambda r: 0.0)


# ---------------------------------------------------------------------------
# Chart tensors
# ---------------------------------------------------------------------------

def _polar_guard(M: ModelManifold, p: np.ndarray):
    r = p[0]
    if r <= 0:
        raise ChartSingularityError(f"polar chart is singular at r={r:g}")
    if r > M.working_radius:
        raise ChartSingularityError(
            f"r={r:g} exceeds the working radius {M.working_radius:g}")
    for m in range(1, M.dim - 1):
        s = math.sin(p[m])
        if abs(s) <= _AXIS_TOL:
            raise ChartSingularityError(f"polar chart is singular on the axis (angle {m})")


def metric_diag(M: ModelManifold, p) -> np.ndarray:
    """Diagonal of the chart metric (all supported charts are diagonal)."""
    n = M.dim
    p = np.asarray(p, dtype=float)
    if M.chart == "cartesian":
        return np.ones(n)
    _polar_guard(M, p)
    f, _, _ = radial_profile(M)
    fr2 = f(p[0]) ** 2
    D = np.empty(n)
    D[0] = 1.0
    acc = fr2
    for j in range(1, n):
        D[j] = acc
        if j < n - 1:
            acc *= math.sin(p[j]) ** 2
    return D


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn (a scalar `math` function or warping-profile callable) applied to
    each element.  Transcendental functions stay on `math`, as on the
    pointwise route: numpy's vector forms can differ from it in the last bit."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _polar_guard_stack(M: ModelManifold, P: np.ndarray) -> list:
    """_polar_guard on every row of P; raises for the first failing node.
    Returns the sines of the polar angles, columns 1..n-2."""
    sines = [_elementwise(math.sin, P[:, m]) for m in range(1, M.dim - 1)]
    r = P[:, 0]
    bad = (r <= 0) | (r > M.working_radius)
    for s in sines:
        bad |= np.abs(s) <= _AXIS_TOL
    if bad.any():
        k = int(np.argmax(bad))
        try:
            _polar_guard(M, P[k])
        except ChartSingularityError as e:
            raise node_error(ChartSingularityError, k, str(e)) from None
    return sines


def metric_diag_stack(M: ModelManifold, P) -> np.ndarray:
    """metric_diag of every row of an (N, n) point stack."""
    P = np.asarray(P, dtype=float)
    N, n = P.shape
    if M.chart == "cartesian":
        return np.ones((N, n))
    sines = _polar_guard_stack(M, P)
    f, _, _ = radial_profile(M)
    acc = _elementwise(f, P[:, 0]) ** 2
    D = np.empty((N, n))
    D[:, 0] = 1.0
    for j in range(1, n):
        D[:, j] = acc
        if j < n - 1:
            acc = acc * sines[j - 1] ** 2
    return D


def metric_at(M: ModelManifold, p) -> np.ndarray:
    """Chart metric as a dense symmetric positive-definite matrix."""
    return np.diag(metric_diag(M, p))


def christoffel_at(M: ModelManifold, p) -> np.ndarray:
    """Levi-Civita symbols Gamma[k, i, j] of the chart metric, closed form.

    For the diagonal polar metric the only nonzero symbols are
    Gamma^k_{ik} = (1/2) d_i log g_kk and Gamma^k_{ii} = -g_ii/(2 g_kk)
    d_k log g_ii, assembled from analytic log-derivatives of the diagonal.
    """
    n = M.dim
    p = np.asarray(p, dtype=float)
    G = np.zeros((n, n, n))
    if M.chart == "cartesian":
        return G
    _polar_guard(M, p)
    f, df, _ = radial_profile(M)
    D = metric_diag(M, p)
    # L[k, j] = d_k log g_jj
    L = np.zeros((n, n))
    ratio = 2.0 * df(p[0]) / f(p[0])
    for j in range(1, n):
        L[0, j] = ratio
        for m in range(1, j):
            L[m, j] = 2.0 / math.tan(p[m])
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            half = 0.5 * L[i, k]
            G[k, i, k] = half
            G[k, k, i] = half
            G[k, i, i] = -D[i] * L[k, i] / (2.0 * D[k])
    return G


def christoffel_stack(M: ModelManifold, P, D=None) -> np.ndarray:
    """christoffel_at of every row of an (N, n) point stack: (N, n, n, n).
    D: the stack's metric_diag_stack, when the caller has it already."""
    P = np.asarray(P, dtype=float)
    N, n = P.shape
    G = np.zeros((N, n, n, n))
    if M.chart == "cartesian":
        return G
    if D is None:
        D = metric_diag_stack(M, P)
    f, df, _ = radial_profile(M)
    L = np.zeros((N, n, n))
    ratio = 2.0 * _elementwise(df, P[:, 0]) / _elementwise(f, P[:, 0])
    cot2 = {m: 2.0 / _elementwise(math.tan, P[:, m]) for m in range(1, n - 1)}
    for j in range(1, n):
        L[:, 0, j] = ratio
        for m in range(1, j):
            L[:, m, j] = cot2[m]
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            half = 0.5 * L[:, i, k]
            G[:, k, i, k] = half
            G[:, k, k, i] = half
            G[:, k, i, i] = -D[:, i] * L[:, k, i] / (2.0 * D[:, k])
    return G


@dataclass(frozen=True)
class CurvatureTensorData:
    """Riemann tensor components in a g-orthonormal frame.

    R[i,j,k,l] uses the sign convention in which K[i,j] = R[i,j,i,j] is the
    sectional curvature of the plane (E_i, E_j); ricci_n is the Ricci
    curvature of the last frame vector.  riemann_stack returns the same
    record with a leading node axis on every field.
    """
    frame: np.ndarray
    R: np.ndarray
    K: np.ndarray
    ricci_n: float


@lru_cache(maxsize=None)
def _pair_patterns(n: int):
    I = np.eye(n)
    P1 = np.einsum("ac,bd->abcd", I, I)
    P2 = np.einsum("ad,bc->abcd", I, I)
    return P1 - P2


@lru_cache(maxsize=None)
def _constant_tensors(n: int, a: float):
    R = a * _pair_patterns(n)
    K = a * (np.ones((n, n)) - np.eye(n))
    return R, K


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
    D = metric_diag(M, p)
    gram = F.T @ (D[:, None] * F)
    if np.max(np.abs(gram - np.eye(n))) > 1e-8:
        raise ValueError("frame is not g-orthonormal")

    if M.is_flat:
        R = np.zeros((n, n, n, n))
        K = np.zeros((n, n))
        return CurvatureTensorData(frame=F, R=R, K=K, ricci_n=0.0)

    if M.family == "constant":
        R, K = _constant_tensors(n, M.a)
        return CurvatureTensorData(frame=F, R=R.copy(), K=K.copy(),
                                   ricci_n=(n - 1) * M.a)

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
    return CurvatureTensorData(frame=F, R=R, K=K, ricci_n=ricci)


def riemann_stack(M: ModelManifold, P, frames) -> CurvatureTensorData:
    """riemann_at of every row of an (N, n) point stack, in the frames
    (N, n, n); raises for the first node whose frame fails the 1e-8 gram
    check.  Constant curvature returns read-only broadcast views."""
    P = np.asarray(P, dtype=float)
    F = np.asarray(frames, dtype=float)
    N, n = P.shape
    if F.shape != (N, n, n):
        raise ValueError(f"frames must be {N}x{n}x{n}, got {F.shape}")
    D = metric_diag_stack(M, P)
    DF = D[:, :, None] * F
    gram = F[:, 0, :, None] * DF[:, 0, None, :]
    for i in range(1, n):
        gram += F[:, i, :, None] * DF[:, i, None, :]
    bad = np.abs(gram - np.eye(n)).max(axis=(1, 2)) > 1e-8
    if bad.any():
        raise node_error(ValueError, int(np.argmax(bad)), "frame is not g-orthonormal")

    if M.is_flat:
        return CurvatureTensorData(frame=F, R=np.zeros((N, n, n, n, n)), K=np.zeros((N, n, n)),
                                   ricci_n=np.zeros(N))

    if M.family == "constant":
        R, K = _constant_tensors(n, M.a)
        return CurvatureTensorData(frame=F, R=np.broadcast_to(R, (N,) + R.shape),
                                   K=np.broadcast_to(K, (N,) + K.shape),
                                   ricci_n=np.full(N, (n - 1) * M.a))

    # warped product: closed form in the chart-adapted frame, then rotated
    f, df, d2f = radial_profile(M)
    fr = _elementwise(f, P[:, 0])
    k_rad = -_elementwise(d2f, P[:, 0]) / fr
    k_tan = (1.0 - _elementwise(df, P[:, 0]) ** 2) / fr ** 2
    K_hat = np.broadcast_to(k_tan[:, None, None], (N, n, n)).copy()
    K_hat[:, 0, :] = k_rad[:, None]
    K_hat[:, :, 0] = k_rad[:, None]
    K_hat[:, np.arange(n), np.arange(n)] = 0.0
    R = K_hat[:, :, :, None, None] * _pair_patterns(n)
    # Pm[:, a, i] = <adapted frame vector a, supplied frame vector i>
    Pm = np.sqrt(D)[:, :, None] * F
    for _ in range(4):
        # contract the leading tensor index against Pm; the new index goes last
        T = R.reshape(N, n, -1)
        acc = T[:, 0, :, None] * Pm[:, 0, None, :]
        for a in range(1, n):
            acc += T[:, a, :, None] * Pm[:, a, None, :]
        R = acc.reshape((N,) + (n,) * 4)
    K = np.einsum("nijij->nij", R)
    ricci = K[:, 0, n - 1].copy()
    for i in range(1, n - 1):
        ricci += K[:, i, n - 1]
    return CurvatureTensorData(frame=F, R=R, K=K, ricci_n=ricci)


# ---------------------------------------------------------------------------
# Geodesic spheres
# ---------------------------------------------------------------------------

def unit_sphere_volume(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2) for manifold dimension n >= 2."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_data(M: ModelManifold, rho: float):
    """(principal curvature, volume-element factor) of the geodesic sphere
    of radius rho about the base point: kappa = f'/f, A = f^{n-1}."""
    if rho <= 0:
        raise ValueError(f"sphere radius must be positive, got {rho}")
    if rho > M.working_radius:
        raise ValueError(f"rho={rho:g} exceeds working radius {M.working_radius:g}")
    f, df, _ = radial_profile(M)
    return df(rho) / f(rho), f(rho) ** (M.dim - 1)


def sphere_total_mean_curvature(M: ModelManifold, r: int, rho: float) -> float:
    """Closed-form total r-th mean curvature of the geodesic sphere S_rho:

        C(n-1, r) |S^{n-1}| f(rho)^{n-1-r} f'(rho)^r.

    Exact in every rotationally symmetric model; the oracle for all
    sphere-based tests.
    """
    n = M.dim
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r must satisfy 0 <= r <= {n - 1}, got {r}")
    if rho <= 0:
        raise ValueError(f"sphere radius must be positive, got {rho}")
    f, df, _ = radial_profile(M)
    return binomial(n - 1, r) * unit_sphere_volume(n) \
        * f(rho) ** (n - 1 - r) * df(rho) ** r
