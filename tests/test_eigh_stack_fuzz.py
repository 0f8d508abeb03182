"""eigh_stack against eigh, one matrix at a time, with Hypothesis, and the
eigenvalues' accuracy against a 40-digit oracle.

Small stacks: symmetric m x m matrices, m = 1..6, with entries from 1e-300
to 1e308 in magnitude, repeated entries (so tied eigenvalues), signed zeros
and NaN.  Large stacks: up to 64 matrices, m = 2..8, mixing diagonal,
nearly diagonal, tied-eigenvalue and full matrices at every scale up to
8e307, so that the diagonal branch and LAPACK share a stack.  Diagonal
stacks: up to 64 matrices, m = 1..8, with tied and signed-zero diagonals
and off-diagonal entries of 0.0 and -0.0.  eigh_stack must raise
ValueError exactly when as_sym_matrix refuses some matrix of the stack, and
otherwise give each matrix, byte for byte, the eigenpairs eigh gives it
alone."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvatura.symmetric_algebra import as_sym_matrix, eigh, eigh_stack


SCALES = (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300, 1e307, 1e308)
ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, math.nan)),
                    st.floats(-1.0, 1.0))
SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
KINDS = ("diagonal", "nearly", "sparse", "tied", "full", "positive")
# 8e307 is accepted, and its positive matrices have eigenvalues that
# overflow to inf for m >= 3
MIXED_SCALES = SCALES + (8e307,)
ACCEPTED_SCALES = tuple(s for s in MIXED_SCALES if s != 1e308)


def assert_stack_matches_eigh(stack):
    try:
        for A in stack:
            as_sym_matrix(A)
    except ValueError:
        with pytest.raises(ValueError):
            eigh_stack(stack)
        return
    w, V = eigh_stack(stack)
    assert w.shape == stack.shape[:2] and V.shape == stack.shape
    for k, A in enumerate(stack):
        wk, Vk = eigh(A)
        assert w[k].tobytes() == wk.tobytes(), k
        assert V[k].tobytes() == Vk.tobytes(), k


@st.composite
def symmetric(draw, m):
    scale = draw(st.sampled_from(SCALES))
    A = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            A[i, j] = A[j, i] = scale * draw(ENTRIES)
    return A


@st.composite
def stacks(draw):
    m = draw(st.integers(1, 6))
    return np.array(draw(st.lists(symmetric(m), min_size=1, max_size=4)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stacks())
def test_stacked_eigh_matches_eigh_or_refuses_with_it(stack):
    assert_stack_matches_eigh(stack)


def mixed_matrix(kind, m, scale, rng):
    """One symmetric m x m matrix of the given kind, with entries of order
    scale.  "nearly" has off-diagonal entries 1e-15 times its diagonal ones,
    so it is not diagonal; "sparse" has some off-diagonal entries 1e-17
    times the rest (or zero); "positive" has every entry in [scale/2,
    scale], so its largest eigenvalue is about m times its entries."""
    d = scale * rng.uniform(-1.0, 1.0, m)
    if kind == "diagonal":
        return np.diag(d)
    if kind == "tied":
        angle = rng.uniform(0, math.pi)
        p, q = rng.choice(m, 2, replace=False)
        G = np.eye(m)
        G[p, p] = G[q, q] = math.cos(angle)
        G[q, p] = math.sin(angle)
        G[p, q] = -G[q, p]
        A = G @ np.diag(rng.choice([-1.0, 0.5, 1.0], m)) @ G.T
        return scale * (0.5 * (A + A.T))
    B = rng.uniform(0.5 if kind == "positive" else -1.0, 1.0, (m, m))
    specials = rng.random((m, m)) < 0.2
    B[specials] = rng.choice(SPECIALS, int(specials.sum()))
    A = scale * np.triu(B) + scale * np.triu(B, 1).T
    off = ~np.eye(m, dtype=bool)
    if kind == "nearly":
        A[off] *= 1e-15
        A[0, 1] = A[1, 0] = 1e-15 * scale
    elif kind == "sparse":
        tiny = np.triu(rng.random((m, m)) < 0.4, 1)
        tiny = tiny | tiny.T
        A[tiny] = 1e-17 * A[tiny]
    return A


@st.composite
def mixed_stacks(draw):
    m = draw(st.integers(2, 8))
    members = draw(st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(MIXED_SCALES)),
                            min_size=1, max_size=64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = np.array([mixed_matrix(kind, m, scale, rng) for kind, scale in members])
    if draw(st.booleans()) and draw(st.booleans()):
        k = draw(st.integers(0, len(stack) - 1))
        stack[k, m - 1, 0] = stack[k, 0, m - 1] = math.nan
    return stack


@settings(derandomize=True, max_examples=120, deadline=None)
@given(mixed_stacks())
def test_large_mixed_stacks_match_eigh_or_refuse_with_it(stack):
    assert_stack_matches_eigh(stack)


@pytest.mark.parametrize("m", range(2, 9))
def test_every_kind_and_scale_in_one_stack_matches_eigh(m):
    # every (kind, scale) pair at a scale the stack accepts, in one stack,
    # and for m >= 3 some eigenvalues overflow
    rng = np.random.default_rng(40 + m)
    stack = np.array([mixed_matrix(kind, m, scale, rng)
                      for scale in ACCEPTED_SCALES for kind in KINDS])
    assert_stack_matches_eigh(stack)
    assert eigh_stack(stack[:0])[1].shape == (0, m, m)


@st.composite
def diagonal_stacks(draw):
    """Stacks of diagonal matrices: ties and signed zeros on the diagonal,
    off-diagonal entries 0.0 or -0.0, at every scale the stack accepts."""
    m = draw(st.integers(1, 8))
    size = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from(ACCEPTED_SCALES))
    d = rng.choice(np.concatenate((SPECIALS, rng.uniform(-1.0, 1.0, 3))), (size, m)) * scale
    A = rng.choice([0.0, -0.0], (size, m, m))
    A = np.triu(A, 1) + np.triu(A, 1).transpose(0, 2, 1)
    A[:, np.arange(m), np.arange(m)] = d
    return A


@settings(derandomize=True, max_examples=200, deadline=None)
@given(diagonal_stacks())
def test_a_diagonal_matrix_keeps_its_sorted_diagonal(stack):
    # a stable sort of the diagonal and the matching columns of the
    # identity, byte for byte, alone or in a stack
    assert_stack_matches_eigh(stack)
    w, V = eigh_stack(stack)
    d = np.diagonal(stack, axis1=1, axis2=2)
    order = np.argsort(d, axis=1, kind="stable")
    assert w.tobytes() == np.take_along_axis(d, order, axis=1).tobytes()
    eye = np.eye(stack.shape[1])
    assert np.ascontiguousarray(V).tobytes() == eye[:, order].transpose(1, 0, 2).tobytes()


@pytest.mark.parametrize("m", range(1, 9))
def test_lapack_gives_a_matrix_the_bits_it_gets_alone(m):
    # the premise of one eigensolve per stack: np.linalg.eigh gives a
    # matrix the same bits whatever stack it sits in, so a node's bits do
    # not depend on its stack, its chunk or its split over threads.  A host
    # whose LAPACK does not fails here.
    rng = np.random.default_rng(60 + m)
    A = rng.normal(size=(4097, m, m)) * rng.choice([1e-8, 1.0, 1e8], (4097, 1, 1))
    A = A + A.transpose(0, 2, 1)
    w, V = np.linalg.eigh(A)
    for k in range(len(A)):
        wk, Vk = np.linalg.eigh(A[k])
        assert wk.tobytes() == w[k].tobytes() and Vk.tobytes() == V[k].tobytes(), k
    for length in (2, 3, 5, 64, 1000, 4096):
        for lo in rng.integers(0, len(A) - length + 1, 4).tolist():
            wp, Vp = np.linalg.eigh(A[lo:lo + length])
            assert wp.tobytes() == w[lo:lo + length].tobytes(), (lo, length)
            assert Vp.tobytes() == V[lo:lo + length].tobytes(), (lo, length)
    for step in (2, 3, 7):
        for lo in range(step):
            wp, Vp = np.linalg.eigh(A[lo::step])
            assert wp.tobytes() == w[lo::step].tobytes(), (lo, step)
            assert Vp.tobytes() == V[lo::step].tobytes(), (lo, step)
    # a node-last stack is a strided view of (m, m, N) storage
    last = np.ascontiguousarray(A.transpose(1, 2, 0)).transpose(2, 0, 1)
    wp, Vp = np.linalg.eigh(last)
    assert wp.tobytes() == w.tobytes() and Vp.tobytes() == V.tobytes()


def eigenvalue_bounds(Q, w, V):
    """A posteriori bounds on |lambda_i - w_i| for computed eigenpairs
    (w, V) of a symmetric Q: Weyl's inequality on the residual, Ostrowski's
    theorem on V's departure from orthogonality, and the rounding in
    forming both."""
    n, eps = len(w), np.finfo(float).eps
    return (np.linalg.norm(Q - (V * w) @ V.T) + np.abs(w) * np.linalg.norm(V.T @ V - np.eye(n))
            + 2 * n * (n + 1) * eps * np.abs(w).max())


def rotated_spectra():
    """Per n = 2..6, 60 rotated spectra with signed eigenvalues spread over
    up to e^12, drawn in that order from one generator."""
    rng = np.random.default_rng(29)
    out = {}
    for n in range(2, 7):
        lam = rng.choice([-1.0, 1.0], (60, n)) * np.exp(rng.uniform(0.0, 12.0, (60, n)))
        R = np.linalg.qr(rng.normal(size=(60, n, n)))[0]
        Q = (R * lam[:, None]) @ R.transpose(0, 2, 1)
        out[n] = 0.5 * (Q + Q.transpose(0, 2, 1))
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_eigenvalues_lie_within_their_a_posteriori_bounds(n):
    # against mpmath's Jacobi at 40 digits, in stacks of 60
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    Q = rotated_spectra()[n]
    w, V = eigh_stack(Q)
    for k in range(len(Q)):
        exact = sorted(mp.eigsy(mp.matrix(Q[k].tolist()), eigvals_only=True))
        bound = eigenvalue_bounds(Q[k], w[k], V[k])
        for i in range(n):
            assert abs(mp.mpf(w[k, i]) - exact[i]) <= bound[i], (k, i)


@pytest.mark.parametrize("m", range(1, 9))
def test_diagonal_matrices_are_exact(m):
    rng = np.random.default_rng(30 + m)
    d = rng.normal(size=(20, m)) * np.exp(rng.uniform(-30.0, 30.0, (20, 1)))
    w, V = eigh_stack(d[:, :, None] * np.eye(m))
    assert w.tobytes() == np.sort(d, axis=1).tobytes()
    assert set(np.unique(V).tolist()) <= {0.0, 1.0}


@pytest.mark.parametrize("m", range(2, 9))
def test_the_diagonal_test_is_exact_zero_per_entry(m):
    # the fork between the sorted diagonal and LAPACK: -0.0 off the
    # diagonal counts as zero, the smallest subnormal does not, and a
    # non-finite entry is refused whichever branch would take it.  Each
    # off-diagonal pair is set alone, in a matrix alone and in a diagonal
    # stack, and only its own matrix leaves the diagonal branch.
    rng = np.random.default_rng(80 + m)
    base = np.diag(rng.choice([-1.0, 0.0, -0.0, 0.5, 2.0], m))
    order = np.argsort(np.diagonal(base), kind="stable")
    resting = (np.diagonal(base)[order], np.eye(m)[:, order])
    stack = np.repeat(base[None], 5, axis=0)
    for p, q in zip(*np.triu_indices(m, 1)):
        for x in (-0.0, 5e-324, -5e-324, math.nan, math.inf):
            A = base.copy()
            A[p, q] = A[q, p] = x
            mixed = stack.copy()
            mixed[2] = A
            if not math.isfinite(x):
                with pytest.raises(ValueError, match="non-finite"):
                    eigh(A)
                with pytest.raises(ValueError, match="matrix 2 "):
                    eigh_stack(mixed)
                continue
            want = resting if x == 0.0 else np.linalg.eigh(A)
            w, V = eigh(A)
            assert w.tobytes() == want[0].tobytes() and V.tobytes() == want[1].tobytes(), (p, q, x)
            ws, Vs = eigh_stack(mixed)
            for k in range(len(mixed)):
                wk, Vk = want if k == 2 else resting
                assert ws[k].tobytes() == wk.tobytes() and Vs[k].tobytes() == Vk.tobytes(), (p, q, x, k)
