"""Elementary symmetric functions, generalized Kronecker tensors, and Newton
operators of small symmetric matrices.

Everything here is plain dense linear algebra on matrices of dimension <= 8.
Two independent evaluation routes are kept side by side on purpose: an
eigenvalue route (LAPACK's symmetric eigensolver + stable coefficient
recurrence) and an explicit Kronecker-delta contraction route (iteration
over index subsets and signed permutations).  Downstream verification relies
on cross-checking the two, so neither may be expressed in terms of the
other.

Both routes run over whole matrix stacks, each matrix with the bits it gets
alone: the eigensolver works on one matrix at a time (a diagonal matrix
keeps its sorted diagonal), and the Kronecker route gathers each term's
entries from every matrix at once.

A stack has shape (N, ...) and is stored node-last: its node axis is the
contiguous one, so that an elementwise product runs over a whole node
vector at a time.  The kernels accept either order (_node_last) and return
(N, ...) views of node-last storage; the memory order never changes a bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import CapabilityError

MAX_DIM = 8
_KRONECKER_MAX_DIM = 6
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


def elementary_all_stack(X) -> np.ndarray:
    """All elementary symmetric functions e_0..e_k of every row of an
    (N, k) array, (N, k + 1).

    Uses the incremental product recurrence (building up prod_i (t + x_i)
    one root at a time), which is O(k^2) and numerically stable; subsets are
    never enumerated.  Each row gets the bits it gets alone.
    """
    X = np.asarray(X, dtype=float)
    e = np.zeros((X.shape[0], X.shape[1] + 1))
    e[:, 0] = 1.0
    for i in range(X.shape[1]):
        xi = X[:, i]
        # update in place, descending so e[:, j-1] is still the old value
        for j in range(i + 1, 0, -1):
            e[:, j] += xi * e[:, j - 1]
    return e


def elementary_all(x) -> np.ndarray:
    """elementary_all_stack of a vector of length k as one row, (k + 1,)."""
    return elementary_all_stack(np.asarray(x, dtype=float).reshape(1, -1))[0]


def sigma_stack(e: np.ndarray, r: int) -> np.ndarray:
    """sigma_r per row from elementary_all_stack rows (sigma_elementary's
    conventions: 1 at r = 0, 0 beyond the row length)."""
    if r == 0:
        return np.ones(e.shape[0])
    if r >= e.shape[1]:
        return np.zeros(e.shape[0])
    return e[:, r]


def _node_last(X) -> np.ndarray:
    """The node-last array (..., N) behind a stack X of shape (N, ...): a
    view when X is stored node-last (its node axis has unit stride), one
    copy otherwise.  Stack kernels compute on these arrays, whose
    elementwise products run over contiguous node vectors, and hand back
    (N, ...) views of them (_node_first)."""
    X = np.asarray(X, dtype=float)
    Y = X.transpose(*range(1, X.ndim), 0)
    return Y if Y.strides[-1] == Y.itemsize else np.ascontiguousarray(Y)


def _node_first(Y: np.ndarray) -> np.ndarray:
    """The stack (N, ...) viewing a node-last array Y (..., N)."""
    return Y.transpose(-1, *range(Y.ndim - 1))


def _matmul_node_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of node-last arrays a (m, k, N) and b (k, p, N), (m, p, N),
    each summed over the inner index in ascending order whatever the stack's
    length, so a node's result does not depend on how a rule is split into
    stacks (BLAS kernels may change their summation order with the size)."""
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
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


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------

def eigh(H):
    """Eigen-decomposition of one symmetric matrix: eigh_stack of the
    one-matrix stack, with as_sym_matrix's checks."""
    w, V = _eigh_stack(as_sym_matrix(H)[None])
    return w[0], V[0]


def _as_sym_stack(H) -> np.ndarray:
    """as_sym_matrix of every matrix of a stack (N, m, m): the checks are
    made per matrix and name the first one that fails."""
    A = np.asarray(H, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {A.shape}")
    N, m = A.shape[0], A.shape[1]
    if m < 1:
        raise ValueError("matrix dimension must be >= 1")
    if m > MAX_DIM:
        raise CapabilityError(f"dimension {m} exceeds the design bound {MAX_DIM}")
    if N == 0:
        return A
    amax = np.abs(A).max(axis=(1, 2))
    bad = ~np.isfinite(amax)
    if bad.any():
        raise ValueError(f"matrix {int(np.argmax(bad))} of the stack has non-finite entries")
    big = amax > _SYM_MAX
    if big.any():
        raise ValueError(f"matrix {int(np.argmax(big))} of the stack overflows when symmetrized")
    At = A.transpose(0, 2, 1)
    scale = np.maximum(1.0, amax)
    asym = np.abs(A - At).max(axis=(1, 2)) > 1e-9 * scale
    if asym.any():
        raise ValueError(f"matrix {int(np.argmax(asym))} of the stack is not symmetric")
    return 0.5 * (A + At)


def eigh_stack(H):
    """Eigen-decomposition of every matrix of a stack (N, m, m), each with
    the bits it gets alone: eigenvalues ascending (N, m), eigenvectors as
    matching columns (N, m, m).  Raises ValueError where as_sym_matrix
    would, naming the first failing matrix."""
    return _eigh_stack(_as_sym_stack(H))


def _eigh_stack(A: np.ndarray):
    """eigh_stack of a stack that _as_sym_stack returned.  A matrix whose
    off-diagonal entries are all zero (a radial field's shape operators in
    a polar chart) keeps its diagonal, sorted by a stable argsort, and the
    matching permutation matrix; every other one goes to LAPACK's symmetric
    eigensolver (np.linalg.eigh), which works on each matrix alone.
    Entries of order 1e308 may give infinite eigenvalues, silently."""
    N, m = A.shape[0], A.shape[1]
    rows, cols = _upper_triangle(m)
    full = np.flatnonzero(A[:, rows, cols].any(axis=1))
    d = np.diagonal(A, axis1=1, axis2=2)
    order = np.argsort(d, axis=1, kind="stable")
    w = np.take_along_axis(d, order, axis=1)
    # column j of V is the identity's column order[j], formed node-last
    # (V[i, j] is order[:, j] == i)
    V = _node_first((order.T[None] == np.arange(m)[:, None, None]).astype(float))
    if full.size:
        w[full], V[full] = np.linalg.eigh(A[full])
    return w, V


@lru_cache(maxsize=None)
def _upper_triangle(m: int):
    """Rows and columns of the strict upper triangle, as read-only index
    arrays."""
    rows, cols = np.triu_indices(m, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


# ---------------------------------------------------------------------------
# sigma_r of a Hessian: the two routes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _kronecker_terms(n: int, r: int):
    """Signed terms of the order-r Kronecker contraction in dimension n.

    One term per ascending r-subset S of range(n) and signed permutation
    perm of range(r), in that nesting order, as read-only arrays: the signs
    (T,) as floats and the flat indices (r, T), whose row m addresses
    H[S[m], S[perm[m]]] in a row-major ravel of the n x n matrix.
    """
    terms = [(sgn, [S[m] * n + S[perm[m]] for m in range(r)])
             for S in combinations(range(n), r)
             for perm, sgn in _perms_with_parity(r)]
    signs = np.array([sgn for sgn, _ in terms], dtype=float)
    idx = np.array([i for _, i in terms], dtype=np.intp).reshape(len(terms), r).T.copy()
    signs.flags.writeable = idx.flags.writeable = False
    return signs, idx


def sigma_hessian_kronecker(H, r: int) -> float:
    """sigma_r of H via the explicit generalized-Kronecker contraction: the
    one-matrix case of sigma_hessian_kronecker_stack, with as_sym_matrix's
    checks."""
    return float(_sigma_kronecker_stack(as_sym_matrix(H)[None], r)[0])


def sigma_hessian_kronecker_stack(H, r: int) -> np.ndarray:
    """sigma_r of every matrix of a stack (N, n, n) via the explicit
    generalized-Kronecker contraction, (N,).  Raises ValueError where
    as_sym_matrix would (naming the first failing matrix) and for r < 0,
    CapabilityError above dimension _KRONECKER_MAX_DIM.

    The 1/r! prefactor cancels against the sum over orderings of the upper
    index tuple, so what is iterated is: ascending r-subsets S of the index
    range, and signed permutations pairing the lower indices against S.
    The terms come from index arrays cached per (n, r) (`_kronecker_terms`),
    gathered from every matrix at once; each is a product formed left to
    right over its r entries, and the signed terms are added to a running
    total from 0.0 in table order (a cumulative sum, never a pairwise one),
    so each matrix gets the bits of the direct nested loops over subsets and
    permutations, whatever the stack.  Overflow gives inf and NaN silently,
    as on Python floats.  Nothing from the eigenvalue route is used.
    """
    return _sigma_kronecker_stack(_as_sym_stack(H), r)


def _sigma_kronecker_stack(A: np.ndarray, r: int) -> np.ndarray:
    """sigma_hessian_kronecker_stack of a stack that _as_sym_stack returned."""
    N, n = A.shape[0], A.shape[1]
    if r < 0:
        raise ValueError(f"order r must be nonnegative, got {r}")
    if n > _KRONECKER_MAX_DIM:
        raise CapabilityError(
            f"Kronecker contraction limited to dimension {_KRONECKER_MAX_DIM}")
    if r == 0:
        return np.ones(N)
    if r > n:
        return np.zeros(N)
    signs, idx = _kronecker_terms(n, r)
    flat = A.reshape(N, n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = flat[:, idx[0]]
        for m in range(1, r):
            prod *= flat[:, idx[m]]
        prod *= signs
        # the walk starts from 0.0: a first term of -0.0 sums to +0.0
        prod[:, 0] += 0.0
        return np.cumsum(prod, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# Newton operators
# ---------------------------------------------------------------------------

def newton_matrices_stack(H, r: int) -> list[np.ndarray]:
    """The Newton operators [T_0, ..., T_r] of every matrix of a stack
    (N, n, n), each (N, n, n) and stored node-last, from the defining
    recursion T_0 = I, T_k = sigma_k(H) I - T_{k-1} H on eigh_stack
    eigenvalues.  Products are summed in ascending index order
    (_matmul_node_last)."""
    A = _as_sym_stack(H)
    n = A.shape[1]
    if not 0 <= r <= n:
        raise ValueError(f"order r must satisfy 0 <= r <= {n}, got {r}")
    e = elementary_all_stack(_eigh_stack(A)[0])
    return [_node_first(T) for T in _newton_recursion(_node_last(A), e, r)]


def _newton_recursion(a: np.ndarray, e: np.ndarray, r: int) -> list[np.ndarray]:
    """[T_0, ..., T_r], node-last (n, n, N), of the node-last array a of a
    stack that _as_sym_stack returned, given the elementary symmetric
    functions e (N, n + 1) of its eigenvalues."""
    n, N = a.shape[1], a.shape[2]
    I = np.eye(n)[:, :, None]
    mats = [np.broadcast_to(I, (n, n, N)).copy()]
    for k in range(1, r + 1):
        T = e[:, k] * I - _matmul_node_last(mats[-1], a)
        mats.append(0.5 * (T + T.transpose(1, 0, 2)))
    return mats


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


def trace_identity_residual_stack(H, e) -> np.ndarray:
    """|trace(T_r H) - (r+1) sigma_{r+1}(H)| for r = 0..n-1 at every matrix
    of a stack (N, n, n): (N, n), column r for T_r, stored node-last.

    e is elementary_all_stack of the stack's eigh_stack eigenvalues,
    (N, n + 1); it feeds both the Newton recursion and the right side.  Both
    sides are exactly equal in real arithmetic (Euler's identity for the
    homogeneous polynomial sigma_{r+1}); the residual is pure roundoff.
    """
    A = _as_sym_stack(H)
    N, n = A.shape[0], A.shape[1]
    e = np.asarray(e, dtype=float)
    if e.shape != (N, n + 1):
        raise ValueError(f"e must be {N}x{n + 1}, got {e.shape}")
    a = _node_last(A)
    out = np.empty((n, N))
    for r, T in enumerate(_newton_recursion(a, e, n - 1)):
        TA = _matmul_node_last(T, a)
        lhs = TA[0, 0]
        for i in range(1, n):
            lhs = lhs + TA[i, i]
        out[r] = np.abs(lhs - (r + 1) * e[:, r + 1])
    return out.T


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
