"""Contracts of the two scalar kernels, cyclic Jacobi and the Kronecker
contraction, and bit-identity with their direct array forms.

The array forms below are the reference: numpy slice updates for the Jacobi
rotations and nested loops over numpy scalar indexing for the contraction.
The kernels must give the same bits, not merely close values, because the
CSVs of the verification pipeline are a byte-level determinism surface.
The same holds for the eigenpair sort (a stable argsort with
take_along_axis in the reference) and for sigma_r of the stacked eigenvalue
route, whose reference form diagonalizes one matrix at a time.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from curvatura import symmetric_algebra as sa
from curvatura.errors import CapabilityError
from curvatura.symmetric_algebra import (
    as_sym_matrix,
    elementary_all_stack,
    jacobi_eigh,
    jacobi_eigh_stack,
    sigma_elementary,
    sigma_hessian_kronecker,
    sigma_hessian_kronecker_stack,
    sigma_stack,
)



def jacobi_array_form(H, tol_factor=1e-13, max_sweeps=60):
    # as_sym_matrix's symmetrization without its checks, so that a NaN entry
    # shows what the sweeps alone do with it
    A = np.array(H, dtype=float)
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    V = np.eye(n)
    norm = float(np.max(np.abs(A)))
    tol = tol_factor * max(norm, np.finfo(float).tiny)
    for _ in range(max_sweeps):
        off = max(float(np.abs(A[p, p + 1:]).max()) for p in range(n - 1))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol * 1e-2:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                A[:, p], A[:, q] = c * A[:, p] - s * A[:, q], s * A[:, p] + c * A[:, q]
                A[p, :], A[q, :] = c * A[p, :] - s * A[q, :], s * A[p, :] + c * A[q, :]
                A[p, q] = A[q, p] = 0.0
                V[:, p], V[:, q] = c * V[:, p] - s * V[:, q], s * V[:, p] + c * V[:, q]
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    w = A.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def jacobi_argsort_form(H):
    # the same sweeps, sorted as a one-matrix stack by a stable argsort
    H = as_sym_matrix(H)
    n = H.shape[0]
    if n == 1:
        return H.diagonal().copy(), np.eye(1)
    A = H.tolist()
    V = sa._walk_sweeps(A, 1e-13 * max(float(np.abs(H).max()), np.finfo(float).tiny), 60)
    w, V = np.array([[A[i][i] for i in range(n)]]), np.array([V])
    order = np.argsort(w, axis=1, kind="stable")
    return (np.take_along_axis(w, order, axis=1)[0],
            np.take_along_axis(V, order[:, None, :], axis=2)[0])


def sigma_eig_array_form(H, r):
    return sigma_elementary(jacobi_eigh(as_sym_matrix(H))[0], r)


def kronecker_array_form(H, r):
    A = as_sym_matrix(H)
    total = 0.0
    for S in combinations(range(A.shape[0]), r):
        for perm, sgn in sa._perms_with_parity(r):
            prod = 1.0
            for m in range(r):
                prod *= A[S[m], S[perm[m]]]
            total += sgn * prod
    return float(total)


def sample_matrices(n, count=20):
    rng = np.random.default_rng(500 + n)
    out = [np.zeros((n, n)), np.eye(n), np.ones((n, n))]
    for scale in (1e-8, 1.0, 1e8):
        for _ in range(count):
            A = rng.normal(size=(n, n)) * scale
            out.append(A + A.T)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    out.append(Q @ np.diag(np.resize([1.0, -2.0], n)) @ Q.T)   # repeated eigenvalues
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_jacobi_bits_match_array_form(n):
    for H in sample_matrices(n):
        w, V = jacobi_eigh(H)
        w0, V0 = jacobi_array_form(H)
        assert w.tobytes() == w0.tobytes()
        assert V.tobytes() == V0.tobytes()


def sort_cases(n):
    """Ties, signed zeros on the diagonal and diagonal input (no rotation,
    so the raw diagonal is sorted), with and without off-diagonal terms."""
    rng = np.random.default_rng(900 + n)
    zeros = np.resize([0.0, -0.0], n)
    ties = np.resize([2.0, 1.0, 2.0, -0.0, 1.0, 0.0], n)
    out = [np.diag(zeros), np.diag(-zeros), np.diag(ties), np.diag(ties[::-1]),
           np.diag(rng.normal(size=n))]
    for d in (zeros, ties):
        A = rng.normal(size=(n, n))
        A = A + A.T
        A[np.arange(n), np.arange(n)] = d
        out.append(A)
        B = np.diag(d)
        if n > 1:
            B[0, n - 1] = B[n - 1, 0] = 1e-3
        out.append(B)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_jacobi_sort_bits_match_argsort_form(n):
    for H in sample_matrices(n) + sort_cases(n):
        w, V = jacobi_eigh(H)
        w0, V0 = jacobi_argsort_form(H)
        assert w.tobytes() == w0.tobytes()
        assert V.tobytes() == V0.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_sigma_bits_match_array_form(n):
    # the eigenvalue route of the pointwise suite: one jacobi_eigh_stack,
    # then elementary_all_stack, read at every r
    stack = sample_matrices(n, count=5) + sort_cases(n)
    e = elementary_all_stack(jacobi_eigh_stack(np.array(stack))[0])
    for k, H in enumerate(stack):
        for r in range(n + 2):
            got = float(sigma_stack(e[k:k + 1], r)[0])
            assert got.hex() == sigma_eig_array_form(H, r).hex(), (k, r)


@pytest.mark.parametrize("n", range(1, 7))
def test_kronecker_bits_match_array_form(n):
    for H in sample_matrices(n, count=5):
        for r in range(1, n + 1):
            assert sigma_hessian_kronecker(H, r).hex() == kronecker_array_form(H, r).hex()


def kronecker_stack_inputs(n):
    """Symmetric matrices at scales 1e-150..1e150, where the r-fold products
    underflow or overflow to inf and NaN, with signed zeros and ties."""
    rng = np.random.default_rng(700 + n)
    out = [np.zeros((n, n)), np.full((n, n), -0.0), np.eye(n), np.ones((n, n))]
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        for _ in range(4):
            A = rng.normal(size=(n, n)) * scale
            out.append(A + A.T)
    return np.array(out)


@pytest.mark.parametrize("n", range(1, 7))
def test_kronecker_stack_bits_match_array_form(n):
    H = kronecker_stack_inputs(n)
    for r in range(n + 2):
        got = sigma_hessian_kronecker_stack(H, r)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [kronecker_array_form(h, r) for h in H]
        assert got.shape == (len(H),)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want], r


@pytest.mark.parametrize("n", range(1, 7))
def test_kronecker_stack_rows_do_not_depend_on_the_stack(n):
    H = kronecker_stack_inputs(n)
    for r in range(1, n + 1):
        whole = sigma_hessian_kronecker_stack(H, r)
        for k in range(len(H)):
            alone = sigma_hessian_kronecker_stack(H[k:k + 1], r)
            assert alone.tobytes() == whole[k:k + 1].tobytes(), (r, k)
            assert sigma_hessian_kronecker(H[k], r).hex() == float(whole[k]).hex(), (r, k)
        halves = np.concatenate([sigma_hessian_kronecker_stack(H[:5], r),
                                 sigma_hessian_kronecker_stack(H[5:], r)])
        assert halves.tobytes() == whole.tobytes()


def test_kronecker_stack_validates_input():
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        sigma_hessian_kronecker_stack(np.eye(3)[None], -1)
    H = np.array([np.eye(3)] * 3)
    H[1, 0, 2] = H[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="matrix 1 of the stack has non-finite entries"):
        sigma_hessian_kronecker_stack(H, 2)
    with pytest.raises(CapabilityError, match="dimension 6"):
        sigma_hessian_kronecker_stack(np.zeros((2, 7, 7)), 2)
    assert sigma_hessian_kronecker_stack(np.zeros((0, 3, 3)), 2).shape == (0,)


def test_kronecker_uses_no_eigenvalue_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigenvalue route called")
    monkeypatch.setattr(sa, "jacobi_eigh", forbidden)
    monkeypatch.setattr(sa, "elementary_all", forbidden)
    monkeypatch.setattr(sa, "sigma_elementary", forbidden)
    H = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    assert sigma_hessian_kronecker(H, 3) == pytest.approx(np.linalg.det(H))


def test_jacobi_one_by_one():
    w, V = jacobi_eigh([[-2.5]])
    assert w.tolist() == [-2.5] and V.tolist() == [[1.0]]


def test_jacobi_ties_keep_column_order():
    w, V = jacobi_eigh(np.diag([2.0, 1.0, 2.0]))
    assert w.tolist() == [1.0, 2.0, 2.0]
    assert V.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


def test_jacobi_not_converged_raises(monkeypatch):
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5))
    monkeypatch.setattr(sa, "_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        jacobi_eigh(A + A.T)


def test_jacobi_nan_entry_raises():
    H = np.array([[np.nan, 1.0], [1.0, 2.0]])
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="did not converge"):
        jacobi_array_form(H)
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh(H)


@pytest.mark.parametrize("H,err", [
    (np.zeros((2, 3)), ValueError),
    (np.zeros((0, 0)), ValueError),
    (np.array([[1.0, 2.0], [0.0, 1.0]]), ValueError),
    (np.eye(9), CapabilityError),
    (np.array([[np.inf, 1.0], [1.0, 2.0]]), ValueError),
    (np.array([[1e308, 1e308], [1e308, 1e308]]), ValueError),
])
def test_jacobi_validates_input(H, err):
    with pytest.raises(err):
        jacobi_eigh(H)
