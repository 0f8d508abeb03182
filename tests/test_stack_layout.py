"""Stack kernels give every node the same bits whatever the memory order of
their input stacks.

Stacks have shape (N, ...) and the kernels store them node-last (the node
axis contiguous); they accept either order.  Each kernel here runs on a
C-ordered stack, on the same stack stored node-last, and on the stack
split in two (halves, and a short head), and the results must agree by
float.hex and have the documented (N, ...) shapes.  Results are pinned,
not strides.
"""

import math

import numpy as np
import pytest

from curvatura.level_set_geometry import (
    HessianData,
    OffCenterDistanceField,
    QuadraticFormField,
    RadialDistanceField,
    RadialSquaredHalfField,
    hessian_frame_stack,
    principal_frame_stack,
    sphere_direction,
)
from curvatura.model_manifolds import constant_curvature, euclidean, poly3_profile, riemann_stack, warped
from curvatura.symmetric_algebra import (
    _matmul_node_last,
    _node_first,
    _node_last,
    eigh_stack,
    elementary_all_stack,
    newton_matrices_stack,
    trace_identity_residual_stack,
)
from curvatura.verification import _sample_points

N = 30


def node_last(X):
    """X (N, ...) stored with its node axis contiguous."""
    X = np.asarray(X, dtype=float)
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(X, 0, -1)), -1, 0)


def hexes(X):
    return [float.hex(float(x)) for x in np.ravel(X)]


def splits():
    return (N // 2, 5)


def assert_same(got, want, shape):
    assert np.shape(got) == shape
    assert hexes(got) == hexes(want)


def symmetric_stack(n, seed):
    X = np.random.default_rng(seed).normal(size=(N, n, n))
    return X + X.transpose(0, 2, 1)


def matmul(A, B):
    """The products A[k] @ B[k] of two (N, ...) stacks, by the kernels'
    node-last product."""
    return _node_first(_matmul_node_last(_node_last(A), _node_last(B)))


def check_layouts(kernel, inputs, shapes):
    """kernel(*inputs) -> tuple of arrays, against the node-last inputs and
    the inputs split at each point of splits()."""
    want = kernel(*inputs)
    for w, shape in zip(want, shapes):
        assert np.shape(w) == shape
    for got in [kernel(*[node_last(x) for x in inputs])] + [
            tuple(np.concatenate(parts) for parts in zip(
                kernel(*[x[:k] for x in inputs]), kernel(*[x[k:] for x in inputs])))
            for k in splits()]:
        for g, w, shape in zip(got, want, shapes):
            assert_same(g, w, shape)


@pytest.mark.parametrize("m,k,p", [(1, 1, 1), (3, 4, 3), (4, 4, 1), (5, 2, 6)])
def test_matmul_node_last(m, k, p):
    rng = np.random.default_rng(m * 100 + k * 10 + p)
    A, B = rng.normal(size=(N, m, k)), rng.normal(size=(N, k, p))
    check_layouts(lambda A, B: (matmul(A, B),), (A, B), [(N, m, p)])
    # each product as the ascending sum of its terms
    want = A[:, :, 0, None] * B[:, None, 0, :]
    for j in range(1, k):
        want = want + A[:, :, j, None] * B[:, None, j, :]
    assert_same(matmul(A, B), want, (N, m, p))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_newton_matrices_stack(n):
    H = symmetric_stack(n, 10 + n)
    check_layouts(lambda H: tuple(newton_matrices_stack(H, n)), (H,), [(N, n, n)] * (n + 1))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_trace_identity_residual_stack(n):
    H = symmetric_stack(n, 20 + n)
    e = elementary_all_stack(eigh_stack(H)[0])
    check_layouts(lambda H, e: (trace_identity_residual_stack(H, e),), (H, e), [(N, n)])


def scalar_direction(angles):
    """The unit vector of iterated spherical angles, one float at a time."""
    out, s = [], 1.0
    for a in angles:
        out.append(s * math.cos(a))
        s *= math.sin(a)
    return out + [s]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_sphere_direction(n):
    A = np.random.default_rng(30 + n).uniform(0.0, 2 * np.pi, (N, n - 1))
    check_layouts(lambda A: (sphere_direction(A),), (A,), [(N, n)])
    # each row has the bits of its angles alone, and one ray is one row
    assert hexes(sphere_direction(A)) == hexes([scalar_direction(a) for a in A])
    assert_same(sphere_direction(list(A[3])), scalar_direction(A[3]), (n,))
    assert sphere_direction(A[:0]).shape == (0, n)


CASES = [
    (constant_curvature(-1.0, 4), OffCenterDistanceField(0.3)),
    (constant_curvature(-1.0, 3), RadialDistanceField()),
    (warped(poly3_profile(), 4), RadialSquaredHalfField()),
    (euclidean(3), QuadraticFormField(np.diag([1.0, 2.0, 4.0]) + 0.3)),
]


def points(M, seed):
    return _sample_points(M, np.random.default_rng(seed), N)


@pytest.mark.parametrize("M,u", CASES, ids=lambda x: getattr(x, "label", getattr(x, "kind", "")))
def test_hessian_and_principal_frames(M, u):
    n = M.dim
    P = points(M, 3)

    def hessian(P):
        hd = hessian_frame_stack(u, M, P)
        return hd.grad_norm, hd.hess_frame, hd.frame_scale, hd.grad_frame

    check_layouts(hessian, (P,), [(N,), (N, n, n), (N, n), (N, n)])

    def frames(*fields):
        pf = principal_frame_stack(HessianData(*fields))
        return pf.kappa, pf.grad_norm_derivs, pf.frame

    check_layouts(frames, hessian(P), [(N, n - 1), (N, n - 1), (N, n, n)])


@pytest.mark.parametrize("M", [constant_curvature(-1.0, 4), warped(poly3_profile(), 4),
                               warped(poly3_profile(), 3)], ids=lambda M: f"{M.label}-{M.dim}")
def test_riemann_stack_in_principal_frames(M):
    n = M.dim
    P = points(M, 4)
    frames = principal_frame_stack(hessian_frame_stack(RadialSquaredHalfField(), M, P)).frame
    # rotate the frames so that row 0 (the components of d_r) is generic
    theta = np.random.default_rng(5).uniform(0.0, np.pi, N)
    G = np.broadcast_to(np.eye(n), (N, n, n)).copy()
    G[:, 0, 0] = G[:, 1, 1] = np.cos(theta)
    G[:, 0, 1], G[:, 1, 0] = -np.sin(theta), np.sin(theta)
    frames = matmul(G, frames)

    def curvature(P, F):
        rd = riemann_stack(M, P, F)
        return rd.R, rd.K, rd.ricci_n

    check_layouts(curvature, (P, frames), [(N, n, n, n, n), (N, n, n), (N,)])
