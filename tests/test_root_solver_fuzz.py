"""Fuzz of the ray root solve with Hypothesis: rays through ellipsoids
{x^T Q x / 2 = c} whose crossing radius rho* is known, over n = 2..6 and
rho* up to the working radius.  find_level_radius must recover rho* to
1e-12 relative on every ray."""

import numpy as np
from hypothesis import given, settings, strategies as st

from curvatura.level_set_geometry import QuadraticFormField, sphere_direction
from curvatura.model_manifolds import euclidean
from curvatura.quadrature import find_level_radius


@st.composite
def rays(draw):
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    Q = (R * w) @ R.T
    Q = 0.5 * (Q + Q.T)
    angles = [draw(st.floats(0.0, np.pi)) for _ in range(n - 2)]
    angles.append(draw(st.floats(0.0, 2 * np.pi)))
    return n, Q, np.array(angles), draw(st.floats(0.01, 9.99))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rays())
def test_root_solve_recovers_the_crossing_radius(ray):
    n, Q, angles, rho_star = ray
    d = sphere_direction(angles)
    level = 0.5 * rho_star ** 2 * float(d @ Q @ d)
    rho = find_level_radius(QuadraticFormField(Q), euclidean(n), level, d)
    assert abs(rho - rho_star) <= 1e-12 * rho_star
