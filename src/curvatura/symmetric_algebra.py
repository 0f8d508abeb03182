"""Elementary symmetric functions, generalized Kronecker tensors, and Newton
operators of small symmetric matrices.

Everything here is plain dense linear algebra on matrices of dimension <= 8.
Two independent evaluation routes are kept side by side on purpose: an
eigenvalue route (cyclic Jacobi + stable coefficient recurrence) and an
explicit Kronecker-delta contraction route (iteration over index subsets and
signed permutations).  Downstream verification relies on cross-checking the
two, so neither may be expressed in terms of the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import CapabilityError

MAX_DIM = 8
_KRONECKER_MAX_DIM = 6
_TINY = float(np.finfo(float).tiny)
_SYM_MAX = float(np.finfo(float).max) / 2


def as_sym_matrix(H) -> np.ndarray:
    """Validate and return a float copy of a symmetric matrix.

    The result is stored exactly symmetric (average of H and H^T after a
    near-symmetry check), with finite entries and dimension capped at
    MAX_DIM.  Entries above half the largest double are refused: H + H^T
    would overflow.
    """
    A = np.array(H, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if n > MAX_DIM:
        raise CapabilityError(f"dimension {n} exceeds the design bound {MAX_DIM}")
    amax = float(np.abs(A).max())
    if not math.isfinite(amax):
        raise ValueError("matrix has non-finite entries")
    if amax > _SYM_MAX:
        raise ValueError(f"matrix entry {amax:g} overflows when symmetrized")
    scale = max(1.0, amax)
    if np.abs(A - A.T).max() > 1e-9 * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (A + A.T)


def elementary_all(x) -> np.ndarray:
    """All elementary symmetric functions e_0..e_k of a vector of length k.

    Uses the incremental product recurrence (building up prod_i (t + x_i)
    one root at a time), which is O(k^2) and numerically stable; subsets are
    never enumerated.
    """
    xs = np.asarray(x, dtype=float).ravel()
    k = xs.size
    e = np.zeros(k + 1)
    e[0] = 1.0
    for i, xi in enumerate(xs):
        # update in place, descending so e[j-1] is still the old value
        for j in range(i + 1, 0, -1):
            e[j] += xi * e[j - 1]
    return e


def elementary_all_stack(X) -> np.ndarray:
    """elementary_all of every row of an (N, k) array, by the same
    recurrence in the same order, so each row is bit-identical."""
    X = np.asarray(X, dtype=float)
    e = np.zeros((X.shape[0], X.shape[1] + 1))
    e[:, 0] = 1.0
    for i in range(X.shape[1]):
        xi = X[:, i]
        for j in range(i + 1, 0, -1):
            e[:, j] += xi * e[:, j - 1]
    return e


def matmul_stack(A, B) -> np.ndarray:
    """Products A[k] @ B[k] of two matrix stacks, summed over the inner
    index in ascending order.  Each product is formed by the same
    operations whatever the stack's length, so a node's result does not
    depend on how a rule is split into stacks (BLAS kernels may change
    their summation order with the problem size)."""
    out = A[:, :, 0, None] * B[:, None, 0, :]
    for k in range(1, A.shape[2]):
        out += A[:, :, k, None] * B[:, None, k, :]
    return out


def sigma_elementary(x, r: int) -> float:
    """r-th elementary symmetric function of a real vector.

    sigma_0 = 1 and sigma_r = 0 for r >= len(x) + 1 by convention.
    """
    if r < 0:
        raise ValueError(f"order r must be nonnegative, got {r}")
    xs = np.asarray(x, dtype=float).ravel()
    if r == 0:
        return 1.0
    if r > xs.size:
        return 0.0
    return float(elementary_all(xs)[r])


def _perm_parity(perm) -> int:
    """Parity (+1/-1) of a permutation of 0..m-1, by inversion count."""
    inv = 0
    m = len(perm)
    for a in range(m):
        pa = perm[a]
        for b in range(a + 1, m):
            if pa > perm[b]:
                inv += 1
    return -1 if inv & 1 else 1


def parity_between(ref, tup) -> int:
    """Parity of the permutation taking tuple `ref` to tuple `tup`.

    Both must be arrangements of the same distinct values.
    """
    pos = {v: m for m, v in enumerate(ref)}
    return _perm_parity([pos[v] for v in tup])


@lru_cache(maxsize=None)
def _perms_with_parity(r: int):
    """Permutations of range(r) with their parities, in lexicographic order."""
    return tuple((p, _perm_parity(p)) for p in permutations(range(r)))


def kronecker_delta(upper, lower) -> int:
    """Generalized Kronecker tensor delta^{upper}_{lower} in {-1, 0, 1}.

    1 if the upper indices are distinct and lower is an even permutation of
    them, -1 for an odd permutation, 0 otherwise.
    """
    up = tuple(upper)
    lo = tuple(lower)
    if len(up) != len(lo):
        raise ValueError(f"index lists differ in length: {len(up)} vs {len(lo)}")
    if len(up) > MAX_DIM:
        raise CapabilityError(f"index lists longer than {MAX_DIM} are unsupported")
    if len(set(up)) != len(up):
        return 0
    if set(lo) != set(up):
        return 0
    return parity_between(up, lo)


# ---------------------------------------------------------------------------
# Eigenvalues: cyclic Jacobi
# ---------------------------------------------------------------------------

def jacobi_eigh(H, tol_factor: float = 1e-13, max_sweeps: int = 60):
    """Eigen-decomposition of a small symmetric matrix by cyclic Jacobi.

    Sweeps the strict upper triangle in fixed row-major order and rotates
    every entry, stopping once the largest off-diagonal magnitude drops
    below tol_factor * ||H||_max.  Deterministic, no external dependency.

    The sweeps run on plain Python floats (A and V as nested lists): each
    rotation updates the columns p, q of A, then its rows p, q, then zeroes
    A[p][q] = A[q][p], and updates the columns p, q of V.  Every entry is
    formed by the same IEEE operations, in the same order, as in the numpy
    slice-update form of the rotation, so the iteration order and the result
    bits are unchanged from that form; only the per-entry array indexing is
    gone.

    Returns (eigenvalues ascending, eigenvectors as matching columns); the
    ascending sort is stable.  Raises ValueError for a non-finite entry and
    RuntimeError when max_sweeps sweeps do not converge.
    """
    return _jacobi_eigh(as_sym_matrix(H), tol_factor, max_sweeps)


def _jacobi_eigh(A: np.ndarray, tol_factor: float = 1e-13, max_sweeps: int = 60):
    """jacobi_eigh of a matrix that as_sym_matrix returned.  The pairs are
    put in order by Python's stable sort, which orders floats as a stable
    argsort does (-0.0 and 0.0 tie)."""
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy(), np.eye(1)
    L = A.tolist()
    norm = max(abs(x) for row in L for x in row)
    V = _jacobi_sweeps(L, tol_factor * max(norm, _TINY), max_sweeps)
    w = [L[i][i] for i in range(n)]
    order = sorted(range(n), key=w.__getitem__)
    return np.array([w[i] for i in order]), np.array([[row[i] for i in order] for row in V])


def _jacobi_sweeps(A: list, tol: float, max_sweeps: int) -> list:
    """The cyclic Jacobi iteration of jacobi_eigh on one validated, exactly
    symmetric matrix of dimension >= 2, given as nested lists and rotated
    in place until its off-diagonal part is within tol.  Returns the
    accumulated rotations V as nested lists; A's diagonal holds the
    eigenvalues, unsorted."""
    n = len(A)
    skip = tol * 1e-2
    V = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            off = max(off, max(abs(x) for x in A[p][p + 1:]))
        if off <= tol:
            return V
        for p, q in pairs:
            Ap, Aq = A[p], A[q]
            apq = Ap[q]
            if abs(apq) <= skip:
                continue
            theta = (Aq[q] - Ap[p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for R in A:
                x, y = R[p], R[q]
                R[p] = c * x - s * y
                R[q] = s * x + c * y
            for j in range(n):
                x, y = Ap[j], Aq[j]
                Ap[j] = c * x - s * y
                Aq[j] = s * x + c * y
            Ap[q] = Aq[p] = 0.0
            for R in V:
                x, y = R[p], R[q]
                R[p] = c * x - s * y
                R[q] = s * x + c * y
    raise RuntimeError("Jacobi iteration did not converge")


def _sorted_eigenpairs(w: np.ndarray, V: np.ndarray):
    """Eigenvalues (K, m) stably sorted ascending per row, with the columns
    of the eigenvector matrices (K, m, m) in the same order."""
    order = np.argsort(w, axis=1, kind="stable")
    return np.take_along_axis(w, order, axis=1), np.take_along_axis(V, order[:, None, :], axis=2)


def jacobi_eigh_stack(H, tol_factor: float = 1e-13, max_sweeps: int = 60):
    """jacobi_eigh of every matrix of a stack (N, m, m), bit-identical to
    calling it on each matrix.

    The stack is validated once, with as_sym_matrix's checks made per
    matrix, and symmetrized the same way.  A matrix whose off-diagonal part
    is already within tolerance (every shape operator of a radial field)
    keeps its diagonal and the identity, as the sweep loop does when it
    stops before its first rotation; the others run the sweeps of
    jacobi_eigh one by one.  The sort is one stable argsort of the stack.
    """
    A = np.array(H, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {A.shape}")
    N, m = A.shape[0], A.shape[1]
    if m < 1:
        raise ValueError("matrix dimension must be >= 1")
    if m > MAX_DIM:
        raise CapabilityError(f"dimension {m} exceeds the design bound {MAX_DIM}")
    if N == 0:
        return np.zeros((0, m)), np.zeros((0, m, m))
    amax = np.abs(A).max(axis=(1, 2))
    bad = ~np.isfinite(amax)
    if bad.any():
        raise ValueError(f"matrix {int(np.argmax(bad))} of the stack has non-finite entries")
    At = A.transpose(0, 2, 1)
    scale = np.maximum(1.0, amax)
    asym = np.abs(A - At).max(axis=(1, 2)) > 1e-9 * scale
    if asym.any():
        raise ValueError(f"matrix {int(np.argmax(asym))} of the stack is not symmetric")
    A = 0.5 * (A + At)
    if m == 1:
        return A[:, :, 0].copy(), np.ones((N, 1, 1))
    tol = tol_factor * np.maximum(np.abs(A).max(axis=(1, 2)), np.finfo(float).tiny)
    upper = np.triu_indices(m, 1)
    rotate = ~(np.abs(A[:, upper[0], upper[1]]).max(axis=1) <= tol)
    w = np.diagonal(A, axis1=1, axis2=2).copy()
    V = np.broadcast_to(np.eye(m), (N, m, m)).copy()
    for k in np.nonzero(rotate)[0]:
        Ak = A[k].tolist()
        V[k] = _jacobi_sweeps(Ak, float(tol[k]), max_sweeps)
        w[k] = [Ak[i][i] for i in range(m)]
    return _sorted_eigenpairs(w, V)


# ---------------------------------------------------------------------------
# sigma_r of a Hessian: the two routes
# ---------------------------------------------------------------------------

def sigma_hessian_eig(H, r: int) -> float:
    """sigma_r of the eigenvalues of H (Jacobi + coefficient recurrence)."""
    A = as_sym_matrix(H)
    if r < 0:
        raise ValueError(f"order r must be nonnegative, got {r}")
    return sigma_elementary(_jacobi_eigh(A)[0], r)


@lru_cache(maxsize=None)
def _kronecker_terms(n: int, r: int):
    """Signed terms of the order-r Kronecker contraction in dimension n.

    One (sign, flat indices) pair per ascending r-subset S of range(n) and
    signed permutation perm of range(r), in that nesting order; the flat
    indices address H[S[m], S[perm[m]]] for m = 0..r-1 in a row-major
    ravel of the n x n matrix.
    """
    return tuple(
        (sgn, tuple(S[m] * n + S[perm[m]] for m in range(r)))
        for S in combinations(range(n), r)
        for perm, sgn in _perms_with_parity(r))


def sigma_hessian_kronecker(H, r: int) -> float:
    """sigma_r of H via the explicit generalized-Kronecker contraction.

    The 1/r! prefactor cancels against the sum over orderings of the upper
    index tuple, so what is iterated is: ascending r-subsets S of the index
    range, and signed permutations pairing the lower indices against S.
    The terms come from a table cached per (n, r) (`_kronecker_terms`);
    each is a product formed left to right from 1.0 over the entries of H
    as plain floats, added to the running total in table order.  The
    iteration order, and so the result bits, are unchanged from the direct
    nested loops over subsets and permutations.  Nothing from the eigenvalue
    route is used.
    """
    A = as_sym_matrix(H)
    n = A.shape[0]
    if r < 0:
        raise ValueError(f"order r must be nonnegative, got {r}")
    if n > _KRONECKER_MAX_DIM:
        raise CapabilityError(
            f"Kronecker contraction limited to dimension {_KRONECKER_MAX_DIM}")
    if r == 0:
        return 1.0
    if r > n:
        return 0.0
    a = A.ravel().tolist()
    total = 0.0
    for sgn, idx in _kronecker_terms(n, r):
        prod = 1.0
        for k in idx:
            prod *= a[k]
        total += sgn * prod
    return total


# ---------------------------------------------------------------------------
# Newton operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonOperator:
    """Newton operator T_r of a symmetric matrix: T_0 = I,
    T_r = sigma_r(H) I - T_{r-1} H."""
    order: int
    matrix: np.ndarray


def newton_matrices(H, r: int) -> list[np.ndarray]:
    """The sequence [T_0, ..., T_r] from the defining recursion."""
    A = as_sym_matrix(H)
    n = A.shape[0]
    if not 0 <= r <= n:
        raise ValueError(f"order r must satisfy 0 <= r <= {n}, got {r}")
    return _newton_matrices(A, r)[0]


def _newton_matrices(A: np.ndarray, r: int):
    """([T_0, ..., T_r], e_0..e_n of the eigenvalues) of a matrix that
    as_sym_matrix returned."""
    I = np.eye(A.shape[0])
    e = elementary_all(_jacobi_eigh(A)[0])
    mats = [I]
    for k in range(1, r + 1):
        T = e[k] * I - mats[-1] @ A
        mats.append(0.5 * (T + T.T))
    return mats, e


def newton_operator(H, r: int) -> NewtonOperator:
    """T_r of H via the recursion; symmetric by construction."""
    return NewtonOperator(order=r, matrix=newton_matrices(H, r)[r])


def newton_partial_form(H, r: int) -> np.ndarray:
    """T_r of H via the (r+1)-index Kronecker-delta contraction.

    This is the partial-derivative form of T_r (entrywise gradient of
    sigma_{r+1} with respect to the matrix entries), evaluated by explicit
    iteration: for each entry (i, j), ascending r-subsets I of the indices
    excluding i, and signed arrangements of ({i} u I) \\ {j} on the lower
    slots.  Cost is O(n^2 C(n-1, r) r!), so the dimension is capped.
    """
    A = as_sym_matrix(H)
    n = A.shape[0]
    if n > _KRONECKER_MAX_DIM:
        raise CapabilityError(
            f"partial form limited to dimension {_KRONECKER_MAX_DIM}")
    if not 0 <= r <= n:
        raise ValueError(f"order r must satisfy 0 <= r <= {n}, got {r}")
    T = np.zeros((n, n))
    idx = range(n)
    for i in idx:
        others = [x for x in idx if x != i]
        for I in combinations(others, r):
            S = (i,) + I
            sset = set(S)
            for j in idx:
                if j not in sset:
                    continue
                rest = [v for v in S if v != j]
                for J in permutations(rest):
                    L = (j,) + J
                    sgn = parity_between(S, L)
                    prod = 1.0
                    for m in range(r):
                        prod *= A[I[m], J[m]]
                    T[i, j] += sgn * prod
    return 0.5 * (T + T.T)


def trace_identity_residual(H, r: int) -> float:
    """|trace(T_r H) - (r+1) sigma_{r+1}(H)|.

    Both sides are exactly equal in real arithmetic (Euler's identity for
    the homogeneous polynomial sigma_{r+1}); the residual is pure roundoff.
    """
    A = as_sym_matrix(H)
    n = A.shape[0]
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r must satisfy 0 <= r <= {n - 1}, got {r}")
    mats, e = _newton_matrices(A, r)
    lhs = float(np.trace(mats[r] @ A))
    # e[r + 1] is sigma_hessian_eig(A, r + 1): the same eigenvalues, recurrence and entry
    rhs = (r + 1) * float(e[r + 1])
    return abs(lhs - rhs)


def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ...; equal to 1 for every k <= 0."""
    if k <= 0:
        return 1
    out = 1
    while k > 0:
        out *= k
        k -= 2
    return out


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside the valid range."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
