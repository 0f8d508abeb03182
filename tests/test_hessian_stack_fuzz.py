"""Fuzz of hessian_frame_stack on polar charts with Hypothesis: warped sinh,
poly3 or linear profiles, or constant curvature a in [-4, -0.01]; n = 2..6;
radii in [0.05, 9] and polar angles off the chart axis; the off-centre
distance field (constant curvature only) or a field with generic partials.

hessian_frame_stack subtracts only the nonzero Christoffel symbols of the
diagonal metric.  Every field of its result must equal, by np.array_equal,
the full contraction d_i d_j u - Gamma^k_ij d_k u over the christoffel_stack
tensor in ascending k, and each stack row must be bit-equal to its one-row
call."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from curvatura.level_set_geometry import (
    HessianData,
    OffCenterDistanceField,
    _StackedField,
    _rowdot,
    hessian_frame_stack,
)
from curvatura.model_manifolds import (
    chart_stack,
    christoffel_stack,
    constant_curvature,
    profile_by_name,
    warped,
)


class ChartQuadratic(_StackedField):
    """u = b.x + x^T A x / 2 in chart coordinates x: every partial generic.
    The stacks are formed column by column, so a row's bits do not depend on
    its stack."""

    kind = "chart_quadratic"

    def __init__(self, b, A):
        self.b, self.A = np.asarray(b, dtype=float), np.asarray(A, dtype=float)

    def value(self, M, p):
        p = np.asarray(p, dtype=float)
        return float(self.b @ p + 0.5 * p @ self.A @ p)

    def partials_stack(self, M, P):
        P = np.asarray(P, dtype=float)
        du = np.empty(P.shape)
        for i in range(P.shape[1]):
            col = self.b[i] + self.A[i, 0] * P[:, 0]
            for j in range(1, P.shape[1]):
                col = col + self.A[i, j] * P[:, j]
            du[:, i] = col
        return du

    def second_partials_stack(self, M, P):
        return np.broadcast_to(self.A, (len(P),) + self.A.shape).copy()


def tensor_form(u, M, P) -> HessianData:
    """hessian_frame_stack with the Christoffel contraction over the whole
    (N, n, n, n) tensor, as the package formed it before."""
    n = P.shape[1]
    du = u.partials_stack(M, P)
    hess_chart = u.second_partials_stack(M, P)
    D = chart_stack(M, P).D
    Gam = christoffel_stack(M, P)
    for k in range(n):
        hess_chart = hess_chart - du[:, k, None, None] * Gam[:, k]
    inv_sqrt = 1.0 / np.sqrt(D)
    hess_f = hess_chart * (inv_sqrt[:, :, None] * inv_sqrt[:, None, :])
    hess_f = 0.5 * (hess_f + hess_f.transpose(0, 2, 1))
    grad_f = du * inv_sqrt
    return HessianData(grad_norm=np.sqrt(_rowdot(grad_f, grad_f)), hess_frame=hess_f,
                       frame_scale=inv_sqrt, grad_frame=grad_f)


@st.composite
def stacks(draw):
    n = draw(st.integers(2, 6))
    name = draw(st.sampled_from(["poly3", "sinh", "linear", "constant"]))
    if name == "constant":
        M = constant_curvature(draw(st.floats(-4.0, -0.01)), n)
    else:
        M = warped(profile_by_name(name), n)
    N = draw(st.integers(1, 5))
    P = np.empty((N, n))
    for k in range(N):
        P[k, 0] = draw(st.floats(0.05, 9.0))
        P[k, 1:n - 1] = [draw(st.floats(0.05, math.pi - 0.05)) for _ in range(n - 2)]
        P[k, n - 1] = draw(st.floats(0.0, 2 * math.pi))
    if name == "constant" and draw(st.booleans()):
        u = OffCenterDistanceField(draw(st.floats(0.0, 2.0, exclude_min=True)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        A = rng.standard_normal((n, n))
        u = ChartQuadratic(rng.standard_normal(n), A + A.T)
    return M, u, P


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stacks())
def test_sparse_contraction_equals_the_tensor_form_and_one_row_calls(case):
    M, u, P = case
    if isinstance(u, OffCenterDistanceField):
        assume(min(u.value(M, p) for p in P) >= 0.05)
    hd = hessian_frame_stack(u, M, P)
    ref = tensor_form(u, M, P)
    for name in HessianData.__dataclass_fields__:
        assert np.array_equal(getattr(hd, name), getattr(ref, name)), name
    for k in range(len(P)):
        one = hessian_frame_stack(u, M, P[k:k + 1])
        for name in HessianData.__dataclass_fields__:
            assert getattr(one, name)[0].tobytes() == getattr(hd, name)[k].tobytes(), (k, name)
