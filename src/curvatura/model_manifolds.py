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
nothing on the shipped path is differentiated numerically.  A node stack's
chart (chart_stack: metric diagonal and f, f' at each radius, behind one
polar guard) is evaluated once and handed to the kernels that read it.

Elementary functions run as numpy ufuncs on whole columns: warping profiles
take arrays, and the chart takes np.sin and np.tan of its polar-angle
columns.  A node's bits do not depend on its stack because these ufuncs
give the same bits on a column as on any split of it (whole, in short
slices or as strided views), which tests/test_model_manifolds.py's
test_ufuncs_give_a_column_the_bits_of_its_splits checks on the host that
runs it.  A numpy scalar power (np.float64 ** k) does not share those bits,
so kernels and per-point oracles evaluate arrays, a point as a one-row
stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import ChartSingularityError, node_error
from .symmetric_algebra import _node_last, binomial

_AXIS_TOL = 1e-12
# exponents x with e^x well inside the double range (e^710 overflows)
_MAX_EXP = 700.0


@dataclass(frozen=True)
class WarpingProfile:
    """Analytic triple (f, f', f'') of a rotational warping profile.

    The three callables take a float array and return an array of its
    shape, elementwise (numpy ufuncs), and must be mutually consistent;
    construction spot-checks the derivatives against central differences
    on a sample grid, evaluated as one array, and names the first failing r.
    """
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        h, r = 1e-5, np.array([0.1, 0.37, 0.9, 1.6, 3.2])
        df, d2f = self.df(r), self.d2f(r)
        fd1 = (self.f(r + h) - self.f(r - h)) / (2 * h)
        fd2 = (self.df(r + h) - self.df(r - h)) / (2 * h)
        bad1 = np.abs(fd1 - df) > 1e-6 * (1 + np.abs(df))
        bad2 = np.abs(fd2 - d2f) > 1e-6 * (1 + np.abs(d2f))
        if (bad1 | bad2).any():
            k = int(np.argmax(bad1 | bad2))
            which = "f' inconsistent with f" if bad1[k] else "f'' inconsistent with f'"
            raise ValueError(f"profile '{self.name}': {which} at r={r[k]}")


def sinh_profile() -> WarpingProfile:
    return WarpingProfile("sinh", np.sinh, np.cosh, np.sinh)


def linear_profile() -> WarpingProfile:
    return WarpingProfile("linear", np.positive, np.ones_like, np.zeros_like)


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
        lambda r: np.sinh(s * r) / s,
        lambda r: np.cosh(s * r),
        lambda r: s * np.sinh(s * r),
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
    # "cartesian" for flat models, else "polar" (geodesic polar coordinates
    # about the base point); stored, since every field evaluation reads it
    chart: str = field(init=False)
    working_radius: ClassVar[float] = 10.0

    def __post_init__(self):
        object.__setattr__(self, "chart", "cartesian" if self.is_flat else "polar")

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
    return ModelManifold(family="euclidean", dim=n)


def constant_curvature(a: float, n: int) -> ModelManifold:
    """Space form of curvature a <= 0.  a = 0 shares the Cartesian chart with
    Euclidean space; a < 0 lives on the geodesic polar chart."""
    _check_dim(n)
    if a > 0:
        raise ValueError(f"constant-curvature family requires a <= 0, got {a}")
    if a == 0:
        return ModelManifold(family="constant", dim=n, a=0.0)
    if (n - 1) * math.sqrt(-a) * ModelManifold.working_radius > _MAX_EXP:
        raise ValueError(f"a = {a:g} is out of range: the volume element "
                         f"sinh(sqrt(-a) r)^{n - 1} overflows within the working radius")
    return ModelManifold(family="constant", dim=n, a=a, profile=scaled_sinh_profile(a))


def warped(profile: WarpingProfile, n: int) -> ModelManifold:
    """Rotationally symmetric warped product with the given profile.

    The profile is screened by sampling: f(0) = 0, f'(0) = 1, f > 0, and both
    model sectional curvatures -f''/f and (1 - f'^2)/f^2 nonpositive on the
    working radius, the 1000 samples evaluated as one array; the first
    failing sample is named.  Sampling is a sanity gate, not a proof.
    """
    _check_dim(n)
    zero = np.zeros(1)
    if abs(profile.f(zero)) > 1e-12 or abs(profile.df(zero) - 1.0) > 1e-10:
        raise ValueError(f"profile '{profile.name}' must satisfy f(0)=0, f'(0)=1")
    r = np.linspace(1e-3, ModelManifold.working_radius, 1000)
    fr = profile.f(r)
    with np.errstate(divide="ignore", invalid="ignore"):   # f <= 0 is named first
        bad = np.column_stack((fr <= 0, -profile.d2f(r) / fr > 1e-12,
                               (1.0 - profile.df(r) ** 2) / fr ** 2 > 1e-12))
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        detail = ("not positive", "has positive radial curvature",
                  "has positive tangential curvature")[int(np.argmax(bad[k]))]
        raise ValueError(f"profile '{profile.name}' {detail} at r={r[k]:g}")
    return ModelManifold(family="warped", dim=n, profile=profile)


def radial_profile(M: ModelManifold):
    """(f, f', f'') governing geodesic spheres about the base point, each
    taking an array (WarpingProfile)."""
    if M.family == "warped" or (M.family == "constant" and M.a < 0):
        p = M.profile
        return p.f, p.df, p.d2f
    return np.positive, np.ones_like, np.zeros_like


# ---------------------------------------------------------------------------
# Chart tensors
# ---------------------------------------------------------------------------

def _polar_guard_stack(M: ModelManifold, P: np.ndarray, sines: np.ndarray):
    """Refuse a stack with a node off the polar chart: r not in (0, working
    radius] (NaN included), a polar angle (columns 1..n-2) on the axis or
    not finite, read from the sines of those angles (NaN for a non-finite
    angle), or an azimuth (column n-1) not finite; raises for the first
    such node."""
    r, n = P[:, 0], P.shape[1]
    on_chart = (r > 0) & (r <= M.working_radius) & np.isfinite(P[:, n - 1])
    off_axis = np.abs(sines) > _AXIS_TOL
    if not (on_chart.all() and off_axis.all()):         # NaN included
        k = int(np.argmin(on_chart & off_axis.all(axis=1)))
        rk = r[k]
        if rk <= 0:
            detail = f"polar chart is singular at r={rk:g}"
        elif rk > M.working_radius:
            detail = f"r={rk:g} exceeds the working radius {M.working_radius:g}"
        elif not rk > 0:
            detail = f"polar chart is undefined at r={rk:g}"
        elif off_axis[k].all():
            detail = f"polar chart is undefined at angle {n - 1} = {P[k, n - 1]:g}"
        else:
            m = 1 + int(np.argmin(off_axis[k]))
            if math.isfinite(sines[k, m - 1]):
                detail = f"polar chart is singular on the axis (angle {m})"
            else:
                detail = f"polar chart is undefined at angle {m} = {P[k, m]:g}"
        raise node_error(ChartSingularityError, k, detail)


@dataclass(frozen=True)
class ChartStack:
    """The chart at every row of an (N, n) point stack (chart_stack): the
    metric diagonal D (N, n) and, on polar charts, the warping profile f
    and f' at each radius (N,), with _tangents, the tangents of the polar
    angles (N, n-2), columns 1..n-2 of the stack, for _log_derivatives.
    Cartesian charts carry D = 1 and nothing else.  The node kernels take
    it instead of evaluating the chart again."""
    D: np.ndarray
    f: Optional[np.ndarray] = None
    df: Optional[np.ndarray] = None
    _tangents: Optional[np.ndarray] = field(default=None, repr=False)


def chart_stack(M: ModelManifold, P) -> ChartStack:
    """The ChartStack of an (N, n) point stack.  On polar charts this takes
    np.sin and np.tan of the polar-angle columns, a non-finite angle giving
    NaN, runs the polar guard, raising for the first node off the chart,
    and evaluates f and f' on the radius column."""
    P = np.asarray(P, dtype=float)
    N, n = P.shape
    if M.chart == "cartesian":
        return ChartStack(D=np.ones((N, n)))
    theta = P[:, 1:n - 1]
    with np.errstate(invalid="ignore"):         # sin(inf) is NaN, refused by the guard
        sines, tangents = np.sin(theta), np.tan(theta)
    _polar_guard_stack(M, P, sines)
    f, df, _ = radial_profile(M)
    fr = f(P[:, 0])
    acc = fr ** 2
    D = np.empty((N, n))
    D[:, 0] = 1.0
    for j in range(1, n):
        D[:, j] = acc
        if j < n - 1:
            acc = acc * sines[:, j - 1] ** 2
    return ChartStack(D=D, f=fr, df=df(P[:, 0]), _tangents=tangents)


def _log_derivatives(chart: ChartStack) -> list:
    """l[k] = d_k log g_jj for every j > k (N,), k = 0..n-2, on a polar
    chart: 2 f'/f for the radius, 2 / tan of polar angle k otherwise.
    d_k log g_jj vanishes for j <= k."""
    return [2.0 * chart.df / chart.f] + [2.0 / t for t in chart._tangents.T]


def christoffel_stack(M: ModelManifold, P, chart: Optional[ChartStack] = None) -> np.ndarray:
    """Levi-Civita symbols Gamma[k, i, j] of the chart metric at every row
    of an (N, n) point stack: (N, n, n, n), closed form.  chart: the
    stack's chart_stack, built here when not given.

    For the diagonal polar metric the only nonzero symbols are
    Gamma^k_{ik} = (1/2) d_i log g_kk and Gamma^k_{ii} = -g_ii/(2 g_kk)
    d_k log g_ii, assembled from the analytic log-derivatives of the
    diagonal (_log_derivatives).
    """
    P = np.asarray(P, dtype=float)
    N, n = P.shape
    G = np.zeros((N, n, n, n))
    if M.chart == "cartesian":
        return G
    if chart is None:
        chart = chart_stack(M, P)
    D = chart.D
    logd = _log_derivatives(chart)
    L = np.zeros((N, n, n))
    for j in range(1, n):
        for m in range(j):
            L[:, m, j] = logd[m]
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
    """Riemann tensor components in g-orthonormal frames, with a leading
    node axis on every field (riemann_stack).

    R[i,j,k,l] uses the sign convention in which K[i,j] = R[i,j,i,j] is the
    sectional curvature of the plane (E_i, E_j); ricci_n is the Ricci
    curvature of the last frame vector.
    """
    R: np.ndarray
    K: np.ndarray
    ricci_n: np.ndarray


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


def riemann_stack(M: ModelManifold, P, frames,
                  chart: Optional[ChartStack] = None) -> CurvatureTensorData:
    """Curvature tensor of the model at every row of an (N, n) point stack,
    in the supplied orthonormal frames (N, n, n): columns are components of
    n tangent vectors in the frame E_a = g_aa^{-1/2} d_a.  chart: the
    stack's chart_stack, built here when not given (which raises for the
    first node off the polar chart).  Raises for the first node whose F^T F
    is not the identity to 1e-8.  Flat and constant curvature return
    read-only broadcast views.  A warped product, with k_rad = -f''/f,
    k_tan = (1 - f'^2)/f^2 and x = row 0 of F (the components of d_r), has
    in elementwise products (a node's bits do not depend on its stack)
        R_abcd = k_tan (d_ac d_bd - d_ad d_bc) + (k_rad - k_tan)
                 (x_a x_c d_bd + x_b x_d d_ac - x_a x_d d_bc - x_b x_c d_ad)."""
    P = np.asarray(P, dtype=float)
    F = np.asarray(frames, dtype=float)
    N, n = P.shape
    if F.shape != (N, n, n):
        raise ValueError(f"frames must be {N}x{n}x{n}, got {F.shape}")
    if chart is None:
        chart = chart_stack(M, P)
    f = _node_last(F)
    gram = f[0, :, None] * f[0, None, :]
    for i in range(1, n):
        gram += f[i, :, None] * f[i, None, :]
    bad = np.abs(gram - np.eye(n)[:, :, None]).max(axis=(0, 1)) > 1e-8
    if bad.any():
        raise node_error(ValueError, int(np.argmax(bad)), "frame is not g-orthonormal")

    if M.is_flat:
        return CurvatureTensorData(R=np.zeros((N, n, n, n, n)), K=np.zeros((N, n, n)),
                                   ricci_n=np.zeros(N))

    if M.family == "constant":
        R, K = _constant_tensors(n, M.a)
        return CurvatureTensorData(R=np.broadcast_to(R, (N,) + R.shape),
                                   K=np.broadcast_to(K, (N,) + K.shape),
                                   ricci_n=np.full(N, (n - 1) * M.a))

    _, _, d2f = radial_profile(M)
    k_rad = -d2f(P[:, 0]) / chart.f
    k_tan = (1.0 - chart.df ** 2) / chart.f ** 2
    x = F[:, 0, :]
    # Q[:, a, b, c, d] = x_a x_c d_bd; its index swaps give the other three terms
    Q = (x[:, :, None, None, None] * x[:, None, None, :, None]) * np.eye(n)[:, None, :]
    S = Q + Q.transpose(0, 2, 1, 4, 3) - Q.transpose(0, 1, 2, 4, 3) - Q.transpose(0, 2, 1, 3, 4)
    R = (k_tan[:, None, None, None, None] * _pair_patterns(n)
         + (k_rad - k_tan)[:, None, None, None, None] * S)
    K = np.einsum("nijij->nij", R)
    ricci = K[:, 0, n - 1].copy()
    for i in range(1, n - 1):
        ricci += K[:, i, n - 1]
    return CurvatureTensorData(R=R, K=K, ricci_n=ricci)


# ---------------------------------------------------------------------------
# Geodesic spheres
# ---------------------------------------------------------------------------

def unit_sphere_volume(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2) for manifold dimension n >= 2."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


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
