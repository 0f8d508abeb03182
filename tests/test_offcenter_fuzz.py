"""Fuzz of the off-centre distance field's closed-form stacks with
Hypothesis: curvature a in [-4, -0.01] on the polar chart, or a = 0 on the
Cartesian chart, n = 2..6, offsets in (0, 2], and point stacks away from the
field's centre and from the chart axis.

Against the central-difference oracle of tests/oracles.py at steps h and
h/2, the closed forms must lie within the Richardson bound: an O(h^2) error
c h^2 puts the h/2 differences c h^2 / 4 from the limit, a third of their
change from h to h/2, and the bound allows the whole change plus the
roundoff of the differences.  Also |grad u|_g = 1 to 1e-12, and each stack
row equals, bit for bit, the one-row call at that point."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from curvatura.level_set_geometry import (
    OffCenterDistanceField,
    fd_steps,
    hessian_frame_stack,
    sphere_direction,
)
from curvatura.model_manifolds import constant_curvature
from oracles import fd_partials

H = 1e-3
EPS = np.finfo(float).eps


@st.composite
def stacks(draw):
    n = draw(st.integers(2, 6))
    a = draw(st.one_of(st.just(0.0), st.floats(-4.0, -0.01)))
    offset = draw(st.floats(0.0, 2.0, exclude_min=True))
    M = constant_curvature(a, n)
    points = []
    for _ in range(3):
        rho = draw(st.floats(0.1, 3.0))
        angles = [draw(st.floats(0.2, math.pi - 0.2)) for _ in range(n - 2)]
        angles.append(draw(st.floats(0.0, 2 * math.pi)))
        points.append([rho] + angles if M.chart == "polar" else rho * sphere_direction(angles))
    return M, OffCenterDistanceField(offset), np.array(points)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stacks())
def test_closed_forms_match_the_oracle_unit_gradient_and_one_row_calls(case):
    M, u, P = case
    values = [u.value(M, p) for p in P]
    assume(min(values) >= 0.2)
    du, D2 = u.partials_stack(M, P), u.second_partials_stack(M, P)

    for k, p in enumerate(P):
        assert u.partials(M, p).tobytes() == du[k].tobytes()
        assert u.second_partials(M, p).tobytes() == D2[k].tobytes()

        g1, H1 = fd_partials(u, M, p, fd_steps(M, p, H))
        g2, H2 = fd_partials(u, M, p, fd_steps(M, p, H / 2))
        noise = 64 * EPS * max(1.0, values[k])
        assert np.all(np.abs(du[k] - g2) <= np.abs(g1 - g2) + noise / (H / 2))
        assert np.all(np.abs(D2[k] - H2) <= np.abs(H1 - H2) + noise / (H / 2) ** 2)

    assert np.all(np.abs(hessian_frame_stack(u, M, P).grad_norm - 1.0) <= 1e-12)
