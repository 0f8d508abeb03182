"""Fuzz of the stacked Jacobi kernel against the scalar one with Hypothesis:
stacks of symmetric m x m matrices, m = 1..6, with entries from 1e-300 to
1e308 in magnitude, repeated entries (so tied eigenvalues), signed zeros
and NaN.  jacobi_eigh_stack must raise ValueError exactly when jacobi_eigh
raises on some matrix of the stack, and otherwise return the same
eigenpairs, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvatura.symmetric_algebra import jacobi_eigh, jacobi_eigh_stack

SCALES = (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300, 1e307, 1e308)
ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, math.nan)),
                    st.floats(-1.0, 1.0))


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
    pairs, refused = [], False
    for A in stack:
        try:
            pairs.append(jacobi_eigh(A))
        except ValueError:
            refused = True
    if refused:
        with pytest.raises(ValueError):
            jacobi_eigh_stack(stack)
        return
    w, V = jacobi_eigh_stack(stack)
    for k, (wk, Vk) in enumerate(pairs):
        assert w[k].tobytes() == wk.tobytes()
        assert V[k].tobytes() == Vk.tobytes()
