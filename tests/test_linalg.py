"""Tests for the Hermitian/J-invariant dictionary and dense kernels."""

import numpy as np
import pytest

from dhymgeo.linalg import (
    bordered_det,
    bordered_matrix,
    check_hermitian,
    check_symmetric,
    eig_complex,
    eig_hermitian,
    format_complex_entry,
    format_matrix_literal,
    hermitian_of,
    iota,
    jmatrix,
    jproject,
    parse_complex_entry,
    parse_matrix_literal,
)


def random_hermitian(rng, n, scale=1.0):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (G + G.conj().T)


class TestIota:
    def test_real_scalar(self):
        assert np.allclose(iota([[1.0]]), np.eye(2))

    def test_zero(self):
        assert np.allclose(iota([[0.0]]), np.zeros((2, 2)))

    def test_hand_expanded_2x2(self):
        H = np.array([[2, 1 + 1j], [1 - 1j, 3]])
        expected = np.array(
            [
                [2, 1, 0, 1],
                [1, 3, -1, 0],
                [0, -1, 2, 1],
                [1, 0, 1, 3],
            ],
            dtype=float,
        )
        assert np.allclose(iota(H), expected)

    def test_output_symmetric_jinvariant(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            H = random_hermitian(rng, n)
            N = iota(H)
            J = jmatrix(n)
            assert np.allclose(N, N.T)
            assert np.allclose(J.T @ N @ J, N)

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(ValueError):
            iota(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            iota(np.eye(10))

    def test_eigenvalue_doubling(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            H = random_hermitian(rng, n)
            lam = np.linalg.eigvalsh(H)
            doubled = np.sort(np.repeat(lam, 2))
            assert np.allclose(np.linalg.eigvalsh(iota(H)), doubled, atol=1e-10)


class TestFiniteness:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_checks_reject_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            check_hermitian(np.array([[1.0, bad], [np.conj(bad), 2.0]]))
        N = np.eye(2, dtype=complex)
        N[0, 1] = N[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric(N)

    def test_checks_reject_overflowing_norm(self):
        # the error alone reports the overflow: no numpy warning comes first
        with pytest.raises(ValueError, match="non-finite"):
            check_hermitian(np.diag([1e200, 1e200]))
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric(np.diag([1e200, 1e200]))

    def test_checks_accept_large_finite(self):
        H = 1e140 * np.array([[1.0, 1j], [-1j, 2.0]])
        assert np.array_equal(check_hermitian(H), H)
        assert np.array_equal(check_symmetric(H.real), H.real)


class TestJProject:
    def test_fixes_iota_image(self):
        rng = np.random.default_rng(2)
        H = random_hermitian(rng, 2)
        N = iota(H)
        assert np.allclose(jproject(N), N)

    def test_rank_one_oracle(self):
        N = np.diag([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(jproject(N), np.diag([0.5, 0.0, 0.5, 0.0]))

    def test_zero(self):
        assert np.allclose(jproject(np.zeros((4, 4))), 0.0)

    def test_idempotent_and_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            S = rng.standard_normal((6, 6))
            N = 0.5 * (S + S.T)
            P = jproject(N)
            J = jmatrix(3)
            assert np.allclose(jproject(P), P, atol=1e-12)
            assert np.allclose(J.T @ P @ J, P, atol=1e-12)


class TestHermitianOf:
    def test_identity(self):
        assert np.allclose(hermitian_of(np.eye(4)), np.eye(2))

    def test_skew_example(self):
        H = np.array([[0, 1j], [-1j, 0]])
        assert np.allclose(hermitian_of(iota(H)), H)

    def test_roundtrip_bulk(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(10000):
            n = int(rng.integers(1, 4))
            H = random_hermitian(rng, n)
            worst = max(worst, float(np.max(np.abs(hermitian_of(iota(H)) - H))))
        assert worst < 1e-12

    def test_rejects_non_jinvariant(self):
        with pytest.raises(ValueError):
            hermitian_of(np.diag([1.0, 0.0, 0.0, 0.0]))


class TestEigen:
    def test_hermitian_trivial(self):
        assert np.allclose(eig_hermitian(np.eye(3)), np.ones(3))
        assert np.allclose(eig_hermitian(np.diag([5.0, -1.0])), [-1.0, 5.0])

    def test_hermitian_charpoly_oracle(self):
        rng = np.random.default_rng(5)
        for n in (2, 3):
            H = random_hermitian(rng, n)
            lam = eig_hermitian(H)
            roots = np.sort(np.roots(np.poly(H)).real)
            assert np.allclose(lam, roots, atol=1e-9)

    def test_complex_trivial(self):
        assert np.allclose(sorted(eig_complex(np.eye(2)), key=abs), [1, 1])
        mu = eig_complex(np.diag([1j, 1.0]))
        assert np.allclose(sorted(mu, key=lambda z: z.real), [1j, 1.0])

    def test_complex_residual(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for mu in eig_complex(B):
            assert abs(np.linalg.det(B - mu * np.eye(3))) < 1e-9


class TestBorderedDet:
    def test_diagonal_corner(self):
        assert np.allclose(bordered_det(np.eye(1), 1.0, [0.0], 0.0), 1j)

    def test_eta_only(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(bordered_det(B, 0.0, [0, 0], 1.0), np.linalg.det(B))

    def test_against_direct_determinant(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            Ap = 0.5 * (
                (g := rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                + g.conj().T
            )
            B_plus = np.eye(n) + 1j * Ap
            a11 = float(rng.standard_normal())
            a1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            eta = float(abs(rng.standard_normal()))
            lhs = bordered_det(B_plus, a11, a1, eta)
            rhs = np.linalg.det(bordered_matrix(B_plus, a11, a1, eta))
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1.0)

    def test_rejects_singular_block(self):
        with pytest.raises(ValueError):
            bordered_det(np.zeros((2, 2)), 0.0, [1.0, 0.0], 0.0)


class TestMatrixLiteral:
    def test_entry_forms(self):
        assert parse_complex_entry("2") == 2
        assert parse_complex_entry("-1.5i") == -1.5j
        assert parse_complex_entry("1+i") == 1 + 1j
        assert parse_complex_entry("3-4i") == 3 - 4j
        assert parse_complex_entry("1.5e-3+2e+4i") == 1.5e-3 + 2e4j
        assert parse_complex_entry("-i") == -1j

    def test_entry_errors(self):
        for bad in ("", "abc", "1+2", "i2"):
            with pytest.raises(ValueError):
                parse_complex_entry(bad)

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            back = parse_matrix_literal(format_matrix_literal(M))
            assert np.array_equal(back, M)

    def test_entry_roundtrip_exact(self):
        for z in (0.0, -2.0, 1j, 0.1 - 0.3j, 1e-17 + 5j):
            assert parse_complex_entry(format_complex_entry(z)) == complex(z)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix_literal("1 2\n3")
