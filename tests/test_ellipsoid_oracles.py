"""Total mean curvatures of flat ellipsoids against Carlson's closed forms.

The level set {u = c} of u = x^T Q x / 2 in R^3 is the ellipsoid with
semi-axes a_i = sqrt(2 c / lambda_i), lambda_i the eigenvalues of Q.  With
R_G Carlson's symmetric elliptic integral (Carlson, Numer. Algorithms 10,
1995; mpmath.elliprg):

    M_0 = 4 pi a1 a2 a3 R_G(a1^-2, a2^-2, a3^-2)    (area)
    M_1 = 8 pi R_G(a1^2, a2^2, a3^2)                (integral of k1 + k2)
    M_2 = 4 pi                                      (Gauss-Bonnet)

In R^n, M_{n-2} is (n-1)|S^{n-1}| times the mean of the support function
|A x| over unit vectors x, A = diag(a):

    M_{n-2} = (n-1) |S^{n-1}| E|Ag| / E|g|,   g standard normal in R^n,
    E|Ag| = (2 sqrt(pi))^-1 int_0^inf (1 - prod_i (1 + 2 t a_i^2)^-1/2) t^-3/2 dt,
    E|g| = sqrt(2) Gamma((n+1)/2) / Gamma(n/2),

the integral by mpmath.quad.  Every reported error estimate must bound the
true error, on every spectrum and on the rotated copies, and on two spectra
in each of R^4 and R^5 at the angular orders the suites use there; and at
order 32 the warped rule (quadrature rays warped by Q^{-1/2}) must reach a
relative error below 1e-4 on the oblate spheroid (1, 1, 4).

To print the whole table, writing nothing:

    PYTHONPATH=src python tests/test_ellipsoid_oracles.py
"""

import math
import sys

import mpmath
import numpy as np
import pytest

from curvatura.curvature_integrals import total_mean_curvature
from curvatura.level_set_geometry import QuadraticFormField
from curvatura.model_manifolds import euclidean
from curvatura.quadrature import QuadratureSpec

LEVEL = 0.5
ORDERS = (8, 16, 32, 64)
SPECTRA = ((1.0, 1.0, 4.0), (1.0, 2.0, 3.0), (1.0, 1.0, 25.0))
# spectra also measured turned by rotation()
ROTATED = ((1.0, 2.0, 3.0), (1.0, 1.0, 4.0))
E3 = euclidean(3)


def oracle(spectrum, r, level=LEVEL) -> float:
    """M_r of the level-`level` ellipsoid of diag(spectrum), r = 0, 1, 2."""
    a = [math.sqrt(2.0 * level / lam) for lam in spectrum]
    if r == 0:
        return float(4 * mpmath.pi * a[0] * a[1] * a[2]
                     * mpmath.elliprg(*(x ** -2 for x in a)))
    if r == 1:
        return float(8 * mpmath.pi * mpmath.elliprg(*(x ** 2 for x in a)))
    return 4 * math.pi


def mean_width_oracle(spectrum, level=LEVEL) -> float:
    """M_{n-2} of the level-`level` ellipsoid of diag(spectrum) in R^n, at
    30 digits: 1 - prod cancels near t = 0, which cost 4e-10 at 15."""
    n = mpmath.mpf(len(spectrum))
    with mpmath.workdps(30):
        a2 = [2 * mpmath.mpf(level) / lam for lam in spectrum]
        e_ag = mpmath.quad(lambda t: (1 - mpmath.fprod((1 + 2 * t * x) ** -0.5 for x in a2))
                           * t ** -1.5, [0, 1, mpmath.inf]) / (2 * mpmath.sqrt(mpmath.pi))
        e_g = mpmath.sqrt(2) * mpmath.gamma((n + 1) / 2) / mpmath.gamma(n / 2)
        sphere_area = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
        return float((n - 1) * sphere_area * e_ag / e_g)


def rotation() -> np.ndarray:
    """A fixed rotation of R^3 with no axis along a coordinate axis."""
    q, _ = np.linalg.qr(np.array([[2.0, -1.0, 0.5], [1.0, 3.0, -2.0], [0.3, 1.0, 4.0]]))
    return q


def rotated(spectrum) -> np.ndarray:
    """diag(spectrum) turned by rotation(), symmetric to the last bit."""
    R = rotation()
    Q = R @ np.diag(spectrum) @ R.T
    return 0.5 * (Q + Q.T)


def measured(Q, order: int) -> list:
    """(value, error estimate) of M_0, M_1, M_2 at LEVEL and angular order."""
    spec = QuadratureSpec(angular_orders=(order,), level_order=4)
    u = QuadraticFormField(Q)
    return [(rep.value, rep.error_estimate)
            for rep in (total_mean_curvature(u, E3, LEVEL, r, spec) for r in range(3))]


@pytest.fixture(scope="module")
def table():
    """measured() of each spectrum, and of the rotated copy of each of
    ROTATED, by order."""
    out = {spectrum: {o: measured(np.diag(spectrum), o) for o in ORDERS}
           for spectrum in SPECTRA}
    for spectrum in ROTATED:
        out[spectrum, "rotated"] = {o: measured(rotated(spectrum), o) for o in ORDERS}
    return out


def test_the_oracles_are_the_sphere_values_on_a_sphere():
    for r, want in enumerate((4 * math.pi, 8 * math.pi, 4 * math.pi)):
        assert oracle((1.0, 1.0, 1.0), r) == pytest.approx(want, rel=1e-14)
    # M_{n-2} of the unit sphere: (n-1)|S^{n-1}|
    assert mean_width_oracle((1.0, 1.0, 1.0)) == pytest.approx(8 * math.pi, rel=1e-14)
    assert mean_width_oracle((1.0,) * 4) == pytest.approx(6 * math.pi ** 2, rel=1e-14)
    assert mean_width_oracle((1.0,) * 5) == pytest.approx(32 * math.pi ** 2 / 3, rel=1e-14)


@pytest.mark.parametrize("key", [*SPECTRA, *((s, "rotated") for s in ROTATED)], ids=str)
def test_every_estimate_bounds_its_error(table, key):
    spectrum = key[0] if key[-1] == "rotated" else key
    for order, values in table[key].items():
        for r, (value, est) in enumerate(values):
            assert abs(value - oracle(spectrum, r)) <= est, (order, r)


def test_order_32_resolves_the_oblate_spheroid(table):
    for r, (value, _) in enumerate(table[1.0, 1.0, 4.0][32]):
        want = oracle((1.0, 1.0, 4.0), r)
        assert abs(value - want) / want < 1e-4, r


@pytest.mark.parametrize("spectrum,order", [
    (spectrum, order)
    for spectra, orders in ((((1.0, 1.0, 1.0, 4.0), (1.0, 2.0, 3.0, 4.0)), (8, 16)),
                            (((1.0, 1.0, 1.0, 1.0, 4.0), (1.0, 2.0, 3.0, 4.0, 5.0)), (6, 8)))
    for spectrum in spectra for order in orders], ids=str)
def test_the_mean_width_estimate_bounds_its_error_in_r4_and_r5(spectrum, order):
    n = len(spectrum)
    spec = QuadratureSpec(angular_orders=(order,), level_order=4)
    rep = total_mean_curvature(QuadraticFormField(np.diag(spectrum)), euclidean(n), LEVEL,
                               n - 2, spec)
    assert abs(rep.value - mean_width_oracle(spectrum)) <= rep.error_estimate


@pytest.mark.parametrize("spectrum", ROTATED, ids=str)
def test_a_rotated_ellipsoid_agrees_with_its_aligned_copy(table, spectrum):
    for order in ORDERS:
        aligned, turned = table[spectrum][order], table[spectrum, "rotated"][order]
        for r, ((v, e), (w, f)) in enumerate(zip(aligned, turned)):
            assert abs(v - w) <= e + f, (order, r)


def print_table() -> None:
    """Every spectrum's rows: order, r, value, relative error, estimate and
    whether the estimate bounds the error."""
    print("spectrum\torder\tr\tvalue\trel_error\testimate\tbounded")
    cases = [(str(s), s, np.diag(s)) for s in SPECTRA]
    cases += [(f"rotated {s}", s, rotated(s)) for s in ROTATED]
    for name, spectrum, Q in cases:
        for order in ORDERS:
            for r, (value, est) in enumerate(measured(Q, order)):
                err = abs(value - oracle(spectrum, r))
                print(f"{name}\t{order}\t{r}\t{float(value)!r}\t"
                      f"{err / oracle(spectrum, r):.3e}\t{est:.3e}\t{err <= est}")


if __name__ == "__main__":
    print_table()
    sys.exit(0)
