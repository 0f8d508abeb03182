"""Tests for elementary symmetric functions, permutation parities, and Newton
operators.  The eigensolver's accuracy against an independent
high-precision oracle is checked in tests/test_eigh_stack_fuzz.py."""

import numpy as np
import pytest

from curvatura.errors import CapabilityError
from curvatura.symmetric_algebra import (
    binomial,
    double_factorial,
    eigh,
    eigh_stack,
    elementary_all,
    elementary_all_stack,
    newton_matrices_stack,
    newton_partial_form,
    parity_between,
    sigma_elementary,
    sigma_hessian_kronecker,
    sigma_stack,
    trace_identity_residual_stack,
)


def sigma_eig(H, r):
    """sigma_r of H by the eigenvalue route: eigh_stack, then the
    elementary symmetric functions of the eigenvalues."""
    return float(sigma_stack(elementary_all_stack(eigh_stack([H])[0]), r)[0])


def newton(H, r):
    """newton_matrices_stack of the one-matrix stack [H], as matrices."""
    return [T[0] for T in newton_matrices_stack([H], r)]


def trace_residual(H, r):
    """trace_identity_residual_stack of [H] at order r."""
    e = elementary_all_stack(eigh_stack([H])[0])
    return float(trace_identity_residual_stack([H], e)[0, r])


def random_sym(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return A + A.T


class TestSigmaElementary:
    def test_direct_expansion(self):
        assert sigma_elementary([1, 2, 3], 2) == pytest.approx(11.0, abs=1e-14)

    def test_order_zero_convention(self):
        assert sigma_elementary([5, 7], 0) == 1.0

    def test_above_length_convention(self):
        assert sigma_elementary([5, 7], 3) == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            sigma_elementary([1.0], -1)

    def test_recurrence_matches_characteristic_polynomial(self):
        # prod (t + x_i) expanded brute force for a small vector
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        poly = np.poly1d([1.0])
        for xi in x:
            poly = poly * np.poly1d([1.0, xi])
        coeffs = poly.coefficients[::-1]  # e_k is the coefficient of t^{k}... reversed
        e = elementary_all(x)
        np.testing.assert_allclose(e, coeffs[::-1], rtol=1e-13, atol=1e-13)


class TestParity:
    def test_identity_permutation(self):
        assert parity_between((1, 2), (1, 2)) == 1

    def test_single_transposition(self):
        assert parity_between((1, 2), (2, 1)) == -1

    def test_three_cycle_is_even(self):
        assert parity_between((1, 2, 3), (2, 3, 1)) == 1


class TestEigh:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_against_numpy(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            H = random_sym(rng, n)
            w, V = eigh(H)
            w_ref = np.linalg.eigvalsh(H)
            np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=1e-11)
            np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-12)
            np.testing.assert_allclose(H @ V, V @ np.diag(w), atol=1e-10)

    def test_ascending(self):
        w, _ = eigh(np.diag([3.0, -1.0, 2.0]))
        assert list(w) == sorted(w)


class TestSigmaHessian:
    def test_diagonal(self):
        assert sigma_eig(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0, rel=1e-13)

    def test_order_zero(self):
        rng = np.random.default_rng(0)
        assert sigma_eig(random_sym(rng, 4), 0) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dual_paths_agree(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(25):
            H = random_sym(rng, n)
            scale = max(1.0, np.max(np.abs(H)))
            for r in range(1, n + 1):
                a = sigma_eig(H, r)
                b = sigma_hessian_kronecker(H, r)
                assert abs(a - b) <= 1e-10 * scale ** r

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(5)
        H = random_sym(rng, 4)
        for _ in range(10):
            Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            Hr = Q @ H @ Q.T
            for r in range(1, 5):
                a, b = sigma_eig(H, r), sigma_eig(Hr, r)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_kronecker_dimension_cap(self):
        with pytest.raises(CapabilityError):
            sigma_hessian_kronecker(np.eye(7), 2)


class TestNewtonOperator:
    def test_diag_recursion(self):
        T = newton(np.diag([2.0, 3.0]), 1)[1]
        np.testing.assert_allclose(T, np.diag([3.0, 2.0]), atol=1e-14)

    def test_order_zero_is_identity(self):
        rng = np.random.default_rng(1)
        T = newton(random_sym(rng, 3), 0)[0]
        np.testing.assert_allclose(T, np.eye(3), atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cofactor_identity(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(10):
            H = random_sym(rng, n) + 3.0 * np.eye(n)   # keep well-conditioned
            det = np.linalg.det(H)
            Hinv = np.linalg.inv(H)
            T = newton(H, n - 1)[n - 1]
            bound = 1e-9 * abs(det) * np.max(np.abs(Hinv)) * max(1.0, np.max(np.abs(H)))
            assert np.max(np.abs(T - det * Hinv)) <= bound

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cayley_hamilton(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(10):
            H = random_sym(rng, n)
            T = newton(H, n)[n]
            scale = max(1.0, np.max(np.abs(H)))
            assert np.max(np.abs(T)) <= 1e-9 * scale ** n

    def test_power_series_form(self):
        # classical expansion: T_r = sum_{i<=r} (-1)^i sigma_{r-i} H^i
        # (consistent with the recursion, the trace identity, and T_{n-1}
        # being the cofactor operator)
        rng = np.random.default_rng(7)
        H = random_sym(rng, 4)
        w = np.linalg.eigvalsh(H)
        for r in range(5):
            T = newton(H, r)[r]
            S = np.zeros((4, 4))
            for i in range(r + 1):
                S += (-1) ** i * sigma_elementary(w, r - i) * np.linalg.matrix_power(H, i)
            np.testing.assert_allclose(T, S, atol=1e-10 * max(1, np.max(np.abs(S))))

    def test_scalar_matrix_closed_form(self):
        # T_r(c I) = C(n-1, r) c^r I
        for n in (2, 4, 6):
            for c in (0.7, -1.3):
                for r in range(n):
                    T = newton(c * np.eye(n), r)[r]
                    np.testing.assert_allclose(
                        T, binomial(n - 1, r) * c ** r * np.eye(n),
                        atol=1e-10 * max(1.0, abs(c) ** r))

    def test_order_range_validated(self):
        with pytest.raises(ValueError):
            newton(np.eye(3), 4)
        with pytest.raises(ValueError):
            newton(np.eye(3), -1)


class TestNewtonPartialForm:
    def test_diag(self):
        np.testing.assert_allclose(newton_partial_form(np.diag([2.0, 3.0]), 1),
                                   np.diag([3.0, 2.0]), atol=1e-14)

    def test_identity_binomial(self):
        # T_r of the identity is C(n-1, r) I; oracle = recursion path
        np.testing.assert_allclose(newton_partial_form(np.eye(3), 2), np.eye(3),
                                   atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_recursion(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            H = random_sym(rng, n)
            mats = newton(H, n - 1)
            scale = max(1.0, np.max(np.abs(H)))
            for r in range(n):
                P = newton_partial_form(H, r)
                assert np.max(np.abs(P - mats[r])) <= 1e-10 * scale ** max(r, 1)

    def test_dimension_cap(self):
        with pytest.raises(CapabilityError):
            newton_partial_form(np.eye(7), 1)


class TestTraceIdentity:
    def test_diag_r0(self):
        assert trace_residual(np.diag([2.0, 3.0]), 0) == pytest.approx(0, abs=1e-13)

    def test_diag_r1(self):
        # trace(diag(3,2) diag(2,3)) = 12 = 2 sigma_2
        assert trace_residual(np.diag([2.0, 3.0]), 1) == pytest.approx(0, abs=1e-13)

    def test_random_5x5(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            H = random_sym(rng, 5)
            scale = max(1.0, np.max(np.abs(H)))
            for r in range(5):
                assert trace_residual(H, r) <= 1e-10 * scale ** (r + 1)

    def test_eigenvalue_oracle(self):
        # both sides recomputed from numpy eigenvalues
        rng = np.random.default_rng(51)
        H = random_sym(rng, 5)
        w = np.linalg.eigvalsh(H)
        for r in range(4):
            T = newton(H, r)[r]
            lhs = np.trace(T @ H)
            rhs = (r + 1) * sigma_elementary(w, r + 1)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestDoubleFactorial:
    @pytest.mark.parametrize("k,expected", [(5, 15), (6, 48), (-1, 1), (0, 1),
                                            (-4, 1), (1, 1), (2, 2), (7, 105),
                                            (8, 384)])
    def test_values(self, k, expected):
        assert double_factorial(k) == expected
