"""Contracts of the two scalar kernels, the eigensolver and the Kronecker
contraction, and bit-identity with their direct array forms.

The array forms below are the reference: the sorted diagonal or LAPACK, one
matrix at a time, for the eigensolver, nested loops over numpy scalar
indexing for the contraction, and for sigma_r of the stacked eigenvalue
route one diagonalization per matrix.  The kernels must give the same bits,
not merely close values, because the CSVs of the verification pipeline are
a byte-level determinism surface.
"""

from itertools import combinations

import numpy as np
import pytest

from curvatura import symmetric_algebra as sa
from curvatura.errors import CapabilityError
from curvatura.symmetric_algebra import (
    as_sym_matrix,
    eigh,
    eigh_stack,
    elementary_all_stack,
    sigma_elementary,
    sigma_hessian_kronecker,
    sigma_hessian_kronecker_stack,
    sigma_stack,
)



def sigma_eig_array_form(H, r):
    return sigma_elementary(eigh(H)[0], r)


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


def sort_cases(n):
    """Ties, signed zeros on the diagonal and diagonal input (whose
    diagonal is sorted), with and without off-diagonal terms."""
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


def eigh_array_form(H):
    # the two branches one matrix at a time: a matrix with no nonzero entry
    # off the diagonal keeps its diagonal in stable argsort order and the
    # matching identity columns, every other one is LAPACK's
    A = as_sym_matrix(H)
    n = A.shape[0]
    if not np.any(A[~np.eye(n, dtype=bool)]):
        order = np.argsort(A.diagonal(), kind="stable")
        return A.diagonal()[order], np.eye(n)[:, order]
    return np.linalg.eigh(A)


@pytest.mark.parametrize("n", range(1, 9))
def test_eigh_bits_match_array_form(n):
    for H in sample_matrices(n) + sort_cases(n):
        w, V = eigh(H)
        w0, V0 = eigh_array_form(H)
        assert w.tobytes() == w0.tobytes()
        assert V.tobytes() == V0.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_sigma_bits_match_array_form(n):
    # the eigenvalue route of the pointwise suite: one eigh_stack,
    # then elementary_all_stack, read at every r
    stack = sample_matrices(n, count=5) + sort_cases(n)
    e = elementary_all_stack(eigh_stack(np.array(stack))[0])
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
    monkeypatch.setattr(sa, "eigh", forbidden)
    monkeypatch.setattr(sa, "_eigh_stack", forbidden)
    monkeypatch.setattr(sa, "elementary_all", forbidden)
    monkeypatch.setattr(sa, "sigma_elementary", forbidden)
    H = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    assert sigma_hessian_kronecker(H, 3) == pytest.approx(np.linalg.det(H))


def test_eigh_one_by_one():
    w, V = eigh([[-2.5]])
    assert w.tolist() == [-2.5] and V.tolist() == [[1.0]]


def test_eigh_ties_keep_column_order():
    w, V = eigh(np.diag([2.0, 1.0, 2.0]))
    assert w.tolist() == [1.0, 2.0, 2.0]
    assert V.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


def test_eigh_nan_entry_raises():
    H = np.array([[np.nan, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        eigh(H)


@pytest.mark.parametrize("H,err", [
    (np.zeros((2, 3)), ValueError),
    (np.zeros((0, 0)), ValueError),
    (np.array([[1.0, 2.0], [0.0, 1.0]]), ValueError),
    (np.eye(9), CapabilityError),
    (np.array([[np.inf, 1.0], [1.0, 2.0]]), ValueError),
    (np.array([[1e308, 1e308], [1e308, 1e308]]), ValueError),
])
def test_eigh_validates_input(H, err):
    with pytest.raises(err):
        eigh(H)
