"""Fuzz of riemann_stack with Hypothesis: warped poly3, sinh or linear
profiles, or constant curvature a in [-4, -0.01]; n = 2..6; radii in
[0.05, 9] and polar angles off the chart axis; orthonormal frames (in frame
components) from the Q factors of drawn matrices.

Against the riemann_at oracle of tests/oracles.py, in the same frames in
chart components, to 1e-12 of the curvature scale max(1, |k_rad|, |k_tan|);
the antisymmetries, pair symmetry and first Bianchi identity to 1e-14 of
that scale; each stack row bit-equal to its one-row call; and a frame
scaled by 1.1 on one node refused, naming that node."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvatura.model_manifolds import (
    constant_curvature,
    profile_by_name,
    radial_profile,
    riemann_stack,
    warped,
)
from oracles import metric_diagonal, riemann_at


@st.composite
def stacks(draw):
    n = draw(st.integers(2, 6))
    name = draw(st.sampled_from(["poly3", "sinh", "linear", "constant"]))
    if name == "constant":
        M = constant_curvature(draw(st.floats(-4.0, -0.01)), n)
    else:
        M = warped(profile_by_name(name), n)
    N = draw(st.integers(1, 4))
    P = np.empty((N, n))
    for k in range(N):
        P[k, 0] = draw(st.floats(0.05, 9.0))
        P[k, 1:n - 1] = [draw(st.floats(0.05, math.pi - 0.05)) for _ in range(n - 2)]
        P[k, n - 1] = draw(st.floats(0.0, 2 * math.pi))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    F = np.array([np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(N)])
    return M, P, F, draw(st.integers(0, N - 1))


def curvature_scale(M, rho):
    f, df, d2f = radial_profile(M)
    return max(1.0, abs(d2f(rho) / f(rho)), abs((1.0 - df(rho) ** 2) / f(rho) ** 2))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stacks())
def test_riemann_stack_matches_the_oracle_and_its_identities(case):
    M, P, F, bad = case
    rs = riemann_stack(M, P, F)
    for k, p in enumerate(P):
        scale = curvature_scale(M, p[0])
        chart = np.diag(1.0 / np.sqrt(metric_diagonal(M, p))) @ F[k]
        rd = riemann_at(M, p, chart)
        R = rs.R[k]
        assert np.max(np.abs(R - rd.R)) <= 1e-12 * scale
        assert np.max(np.abs(rs.K[k] - rd.K)) <= 1e-12 * scale
        assert abs(rs.ricci_n[k] - rd.ricci_n) <= 1e-12 * scale
        sym = 1e-14 * scale
        assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) <= sym
        assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) <= sym
        assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) <= sym
        # R_abcd + R_bcad + R_cabd = 0
        assert np.max(np.abs(R + R.transpose(2, 0, 1, 3) + R.transpose(1, 2, 0, 3))) <= sym
        one = riemann_stack(M, P[k:k + 1], F[k:k + 1])
        assert one.R[0].tobytes() == R.tobytes()
        assert one.K[0].tobytes() == rs.K[k].tobytes()
        assert one.ricci_n[0] == rs.ricci_n[k]
    stretched = F.copy()
    stretched[bad] *= 1.1
    with pytest.raises(ValueError, match=f"^node {bad}: frame is not g-orthonormal$"):
        riemann_stack(M, P, stretched)
