"""Fuzz of the lockstep Jacobi route against the plain-float walk (Python
floats, one matrix at a time, the route of stacks below _LOCKSTEP_MIN
matrices) with Hypothesis: every stack here runs the lockstep, and each of
its matrices must get the walk's bits.

Small stacks: symmetric m x m matrices, m = 1..6, with entries from 1e-300
to 1e308 in magnitude, repeated entries (so tied eigenvalues), signed zeros
and NaN.  Large stacks: up to 64 matrices, m = 2..8, mixing diagonal,
already-converged, tied-eigenvalue, full and partly skipped matrices at
every scale, so that matrices leave the lockstep at different sweeps and
skip pairs that others rotate.  Resting stacks: up to 64 matrices, m =
1..8, with nothing to rotate (tied and signed-zero diagonals, off-diagonal
entries within the tolerance), which return before any sweep.
jacobi_eigh_stack must raise ValueError exactly when the oracle raises it
on some matrix of the stack, raise RuntimeError exactly when the oracle
does not converge on some matrix, and otherwise return the same
eigenpairs, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvatura import symmetric_algebra as sa
from curvatura.symmetric_algebra import as_sym_matrix, jacobi_eigh, jacobi_eigh_stack


SCALES = (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300, 1e307, 1e308)
ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, math.nan)),
                    st.floats(-1.0, 1.0))
SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
KINDS = ("diagonal", "converged", "skipped", "tied", "full", "positive")
# 8e307 is accepted, and its positive matrices overflow to inf and NaN
# within the sweeps for m >= 3
MIXED_SCALES = SCALES + (8e307,)


@pytest.fixture(autouse=True)
def lockstep_only(monkeypatch):
    monkeypatch.setattr(sa, "_LOCKSTEP_MIN", 0)


def oracle(A):
    return sa._jacobi_walk(as_sym_matrix(A))


def assert_stack_matches_oracle(stack):
    pairs, refused, diverged = [], False, False
    for A in stack:
        try:
            pairs.append(oracle(A))
        except ValueError:
            refused = True
        except RuntimeError:
            diverged = True
    if refused:
        with pytest.raises(ValueError):
            jacobi_eigh_stack(stack)
        return
    if diverged:
        with pytest.raises(RuntimeError, match="did not converge"):
            jacobi_eigh_stack(stack)
        return
    w, V = jacobi_eigh_stack(stack)
    for k, (wk, Vk) in enumerate(pairs):
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
def test_stacked_jacobi_matches_jacobi_or_refuses_with_it(stack):
    assert_stack_matches_oracle(stack)


def mixed_matrix(kind, m, scale, rng):
    """One symmetric m x m matrix of the given kind, with entries of order
    scale.  "converged" has off-diagonal entries within the tolerance, so it
    leaves the lockstep before its first rotation; "skipped" has some below
    the skip threshold (or zero), so it skips pairs in its first sweep;
    "positive" has every entry in [scale/2, scale], so its largest
    eigenvalue is about m times its entries."""
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
    if kind == "converged":
        A[off] *= 1e-15
        A[0, 0] = scale
    elif kind == "skipped":
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
def test_large_mixed_stacks_match_the_oracle_or_refuse_with_it(stack):
    assert_stack_matches_oracle(stack)


@pytest.mark.parametrize("m", range(2, 9))
def test_every_kind_and_scale_in_one_stack_matches_the_oracle(m):
    # every (kind, scale) pair at a scale the stack accepts, so matrices of
    # every kind converge at their own sweeps within one lockstep, and for
    # m >= 3 some overflow within them
    rng = np.random.default_rng(40 + m)
    stack = np.array([mixed_matrix(kind, m, scale, rng)
                      for scale in MIXED_SCALES if scale != 1e308 for kind in KINDS])
    assert_stack_matches_oracle(stack)


@pytest.mark.parametrize("sweeps,converges", [(1, False), (2, True)])
def test_a_matrix_that_cannot_converge_fails_its_mixed_stack(monkeypatch, sweeps, converges):
    # a diagonal matrix stops before its first rotation, one rotation zeroes
    # the 2 x 2 matrix's off-diagonal pair, and the sweep that sees it is
    # the second
    monkeypatch.setattr(sa, "_MAX_SWEEPS", sweeps)
    stack = np.array([np.diag([2.0, 1.0]), [[1.0, 3.0], [3.0, -2.0]], np.eye(2)])
    if converges:
        assert_stack_matches_oracle(stack)
        return
    with pytest.raises(RuntimeError, match="did not converge"):
        oracle(stack[1])
    for k in (0, 2):
        oracle(stack[k])
    with pytest.raises(RuntimeError, match="did not converge"):
        jacobi_eigh_stack(stack)
    with pytest.raises(RuntimeError, match="did not converge"):
        jacobi_eigh(stack[1])


def test_one_sweep_short_fails_a_mixed_stack_of_dimension_five(monkeypatch):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(5, 5))
    stack = np.array([np.diag(rng.normal(size=5)), A + A.T,
                      mixed_matrix("converged", 5, 1.0, rng)])
    monkeypatch.setattr(sa, "_MAX_SWEEPS", 3)
    assert_stack_matches_oracle(stack)
    with pytest.raises(RuntimeError):
        oracle(stack[1])


def python_off_diagonal_max(A):
    # the oracle's sweep test on one matrix: Python's max() over each row's
    # strict upper part, then over rows, starting from 0.0
    L = A.tolist()
    off = 0.0
    for p in range(len(L) - 1):
        off = max(off, max(abs(x) for x in L[p][p + 1:]))
    return off


@pytest.mark.parametrize("m", range(2, 9))
def test_the_sweep_test_takes_nan_as_the_oracle_does(m):
    # NaN and inf only arise within the sweeps of matrices near 1e308, so
    # the test is checked on its own: a NaN never wins against a number,
    # and a row whose first entry is NaN drops out with all its entries
    rng = np.random.default_rng(70 + m)
    A = rng.uniform(-1.0, 1.0, (400, m, m)) * rng.choice([1e-300, 1.0, 1e300], (400, 1, 1))
    A[rng.random(A.shape) < 0.3] = math.nan
    A[rng.random(A.shape) < 0.05] = math.inf
    rows, cols, _ = sa._upper_triangle(m)
    got = sa._off_diagonal_max(A, rows, cols)
    want = np.array([python_off_diagonal_max(Ak) for Ak in A])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", range(2, 9))
def test_stacks_below_the_lockstep_size_take_the_walk(monkeypatch, m):
    # the default routing: fewer than _LOCKSTEP_MIN matrices walk one at a
    # time, larger stacks rotate in lockstep, and both give every matrix
    # the same bits
    monkeypatch.undo()
    walked = []
    walk = sa._jacobi_walk
    monkeypatch.setattr(sa, "_jacobi_walk", lambda A: walked.append(1) or walk(A))
    rng = np.random.default_rng(90 + m)
    stack = np.array([mixed_matrix(kind, m, scale, rng)
                      for scale in (1e-8, 1.0, 1e150) for kind in KINDS])
    size = sa._LOCKSTEP_MIN
    w, V = jacobi_eigh_stack(stack)
    assert walked == []
    for k0 in range(0, len(stack), size - 1):
        part = stack[k0:k0 + size - 1]
        wp, Vp = jacobi_eigh_stack(part)
        assert len(walked) == k0 + len(part)
        assert wp.tobytes() == w[k0:k0 + len(part)].tobytes()
        assert Vp.tobytes() == V[k0:k0 + len(part)].tobytes()
    assert jacobi_eigh_stack(stack[:0])[1].shape == (0, m, m)


@st.composite
def resting_stacks(draw):
    """Whole stacks with nothing to rotate: diagonals with ties and signed
    zeros, and off-diagonal entries within the tolerance (at most 1e-13
    times the largest diagonal magnitude, some exactly zero or -0.0)."""
    m = draw(st.integers(1, 8))
    size = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from(SCALES))
    d = rng.choice(np.concatenate((SPECIALS, rng.uniform(-1.0, 1.0, 3))), (size, m)) * scale
    A = np.zeros((size, m, m))
    A[:, np.arange(m), np.arange(m)] = d
    dmax = np.abs(d).max(axis=1)
    off = rng.uniform(-1.0, 1.0, (size, m, m)) * 1e-13 * dmax[:, None, None]
    off[rng.random(off.shape) < 0.3] = rng.choice([0.0, -0.0])
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    A[:, upper] = off[:, upper]
    A = A + np.triu(A, 1).transpose(0, 2, 1)
    return A


@settings(derandomize=True, max_examples=200, deadline=None)
@given(resting_stacks())
def test_a_stack_with_nothing_to_rotate_returns_at_once_with_the_walks_bits(stack):
    # the early return: no sweep runs, and every matrix gets the walk's
    # sorted diagonal and permutation columns, byte for byte
    def no_sweeps(*args):
        raise AssertionError("a resting stack entered the sweeps")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sa, "_jacobi_sweeps_stack", no_sweeps)
        assert_stack_matches_oracle(stack)
