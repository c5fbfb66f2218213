"""Tests for the spatial and lifted space-time angle operators."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from dhymgeo import angles
from dhymgeo.angles import (
    REGULAR,
    _level_roots,
    _ray_boundary,
    SINGULAR_LOWER,
    SINGULAR_UPPER,
    classify_singular,
    eta_squeeze,
    modulus_r,
    phi_lifted_lsc,
    phi_lifted_lsc_batch,
    phi_lifted_usc,
    phi_lifted_usc_batch,
    phi_regular,
    realpart_spectrum_check,
    slice_angle_gap,
    theta,
    theta_symmetric,
)
from dhymgeo.linalg import iota, jproject

from test_linalg import random_hermitian


def random_spacetime(rng, n, scale=1.0):
    return random_hermitian(rng, n + 1, scale)


class TestTheta:
    def test_zero(self):
        assert theta(np.zeros((2, 2))) == 0.0

    def test_identity(self):
        assert theta(np.eye(2)) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_diag(self):
        assert theta(np.diag([3.0, 3.0])) == pytest.approx(2 * math.atan(3), abs=1e-14)

    def test_oddness(self):
        rng = np.random.default_rng(10)
        for _ in range(10000):
            H = random_hermitian(rng, int(rng.integers(1, 4)))
            assert abs(theta(-H) + theta(H)) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            v = theta(random_hermitian(rng, n, scale=50.0))
            assert abs(v) < n * math.pi / 2


class TestThetaSymmetric:
    def test_matches_iota_path(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            H = random_hermitian(rng, int(rng.integers(1, 4)))
            assert theta_symmetric(iota(H)) == pytest.approx(theta(H), abs=1e-10)

    def test_zero(self):
        assert theta_symmetric(np.zeros((4, 4))) == 0.0

    def test_full_spectrum_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            S = rng.standard_normal((2 * n, 2 * n))
            A = 0.5 * (S + S.T)
            nu = np.linalg.eigvalsh(jproject(A))
            assert theta_symmetric(A) == pytest.approx(
                0.5 * float(np.sum(np.arctan(nu))), abs=1e-10
            )


class TestModulus:
    def test_trivial(self):
        assert modulus_r(np.zeros((2, 2))) == 1.0
        assert modulus_r(np.array([[1.0]])) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_det_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            H = random_hermitian(rng, int(rng.integers(1, 4)))
            direct = abs(np.linalg.det(np.eye(H.shape[0]) + 1j * H))
            assert modulus_r(H) == pytest.approx(direct, rel=1e-12)
            assert modulus_r(H) >= 1.0


class TestClassifySingular:
    def test_zero_in_S(self):
        assert classify_singular(np.zeros((3, 3))).in_S

    def test_corner_out(self):
        A = np.zeros((2, 2))
        A[0, 0] = 1.0
        assert not classify_singular(A).in_S

    def test_small_tail_out(self):
        A = np.zeros((2, 2), dtype=complex)
        A[0, 1] = 1e-3
        A[1, 0] = 1e-3
        assert not classify_singular(A, eps=1e-10).in_S


class TestPhiRegular:
    def test_positive_corner(self):
        A = np.diag([1.0, 0.0])
        assert phi_regular(A) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_negative_corner(self):
        A = np.diag([-1.0, 0.0])
        assert phi_regular(A) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_diag_ones(self):
        A = np.diag([1.0, 1.0])
        assert phi_regular(A) == pytest.approx(3 * math.pi / 4, abs=1e-12)

    def test_eig_oracle(self):
        # the definition sum(arg(mu_i)) over the eigenvalues of I0 + i*A,
        # independent of the Schur-complement form every lift evaluates
        rng = np.random.default_rng(15)
        for k in range(1800):
            n, scale = 1 + k % 3, (0.1, 1.0, 10.0)[k // 3 % 3]
            A = random_spacetime(rng, n, scale)
            if classify_singular(A).in_S:
                continue
            I0 = np.diag(np.r_[0.0, np.ones(n)])
            mu = np.linalg.eigvals(I0 + 1j * A)
            assert np.min(mu.real) > -1e-12
            expected = float(np.sum(np.angle(mu)))
            assert phi_regular(A) == pytest.approx(expected, abs=1e-10)
            assert phi_lifted_usc(A).value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        A = np.array([[1.0, bad], [bad, 2.0]])
        for fn in (phi_lifted_usc, phi_lifted_lsc, phi_regular, theta):
            with pytest.raises(ValueError, match="non-finite"):
                fn(A)
        with pytest.raises(ValueError, match="non-finite"):
            theta_symmetric(np.diag([1.0, bad]))

    def test_batch_rejects_corrupt_input(self):
        bad = np.zeros((1, 2, 2), dtype=complex)
        bad[0, 0, 0] = 5j  # not self-adjoint
        with pytest.raises(ValueError):
            phi_lifted_usc_batch(bad)

    @pytest.mark.parametrize("fn", [phi_lifted_usc_batch, phi_lifted_lsc_batch])
    @pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
    def test_batch_rejects_non_finite_input(self, fn, bad):
        # one bad matrix in a stack of Hermitian 3x3s; 1e155 entries are
        # finite, but the norm of the matrix overflows
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        A = X + X.conj().swapaxes(-2, -1)
        if bad == "overflow":
            A[2] *= 1e155
        else:
            A[2, 1, 1] = float(bad)
        with pytest.raises(ValueError, match="non-finite"):
            fn(A)


class TestLiftedExtensions:
    def test_zero_matrix(self):
        usc = phi_lifted_usc(np.zeros((2, 2)))
        lsc = phi_lifted_lsc(np.zeros((2, 2)))
        assert usc.value == pytest.approx(math.pi / 2)
        assert usc.tag == SINGULAR_UPPER
        assert lsc.value == pytest.approx(-math.pi / 2)
        assert lsc.tag == SINGULAR_LOWER

    def test_singular_with_spatial_block(self):
        A = np.diag([0.0, 1.0])
        assert phi_lifted_usc(A).value == pytest.approx(math.pi / 2 + math.pi / 4)

    def test_regular_coincide(self):
        rng = np.random.default_rng(16)
        A = random_spacetime(rng, 2)
        usc, lsc = phi_lifted_usc(A), phi_lifted_lsc(A)
        assert usc.tag == REGULAR and lsc.tag == REGULAR
        assert usc.value == lsc.value == phi_regular(A)

    def test_duality_identity(self):
        rng = np.random.default_rng(17)
        for k in range(2000):
            A = random_spacetime(rng, int(rng.integers(1, 3)))
            if k % 10 == 0:
                A[0, :] = 0.0
                A[:, 0] = 0.0
            err = abs(phi_lifted_usc(-A).value + phi_lifted_lsc(A).value)
            assert err < 1e-9

    def test_psd_monotone(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            n = int(rng.integers(1, 3))
            A = random_spacetime(rng, n)
            F = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal(
                (n + 1, n + 1)
            )
            P = F @ F.conj().T
            assert phi_lifted_usc(A + P).value >= phi_lifted_usc(A).value - 1e-10
            assert theta(A + P) >= theta(A) - 1e-10

    def test_batch_matches_scalar(self):
        # One 2x2 or 3x3 matrix is lifted on Python numbers, any other as a
        # stack of one.  With a 1x1 spatial block the arithmetic is the
        # batch's bit for bit; with a 2x2 block numpy's vectorized complex
        # products may round differently in the last bit.
        rng = np.random.default_rng(19)
        scales = (0.1, 1.0, 10.0)
        for n in (0, 1, 2, 3):
            A = np.stack(
                [random_spacetime(rng, n, scale=scales[k % 3]) for k in range(300)]
            )
            A[:30, 0, :] = 0.0
            A[:30, :, 0] = 0.0
            vals, singular = phi_lifted_usc_batch(A)
            lvals, _ = phi_lifted_lsc_batch(A)
            for k in range(A.shape[0]):
                assert vals[k] == pytest.approx(phi_lifted_usc(A[k]).value, abs=1e-12)
                assert lvals[k] == pytest.approx(phi_lifted_lsc(A[k]).value, abs=1e-12)
            assert singular[:30].all() and not singular[30:].any()
        for n, gap in ((1, 0.0), (2, 1e-15)):
            m = n + 1
            draws = np.random.default_rng(7)
            X = draws.standard_normal((2000, m, m)) + 1j * draws.standard_normal((2000, m, m))
            G = 0.5 * (X + X.conj().swapaxes(-2, -1))
            # first row and column at 1e-9 (outside the band) down to 1e-11
            near = G.copy()
            amp = np.array([1e-9, 3e-10, 1e-10, 1e-11])[np.arange(2000) % 4]
            near[:, 0, :] *= amp[:, None]
            near[:, 1:, 0] *= amp[:, None]
            for A in (G, near, 1e100 * G):
                for fn, batch in ((phi_lifted_usc, phi_lifted_usc_batch),
                                  (phi_lifted_lsc, phi_lifted_lsc_batch)):
                    vals, singular = batch(A)
                    lifted = [fn(a) for a in A]
                    assert np.max(np.abs(vals - [x.value for x in lifted])) <= gap
                    assert np.array_equal(singular, [not x.regular for x in lifted])
            assert 0 < np.sum(phi_lifted_usc_batch(near)[1]) < 2000
        bad = random_spacetime(rng, 2)
        bad[0, 1] += 1e-6  # not self-adjoint
        for fn in (phi_lifted_usc, phi_lifted_lsc, phi_regular, slice_angle_gap):
            with pytest.raises(ValueError, match="A is not self-adjoint: defect 1.414e-06 exceeds"):
                fn(bad)
        on_S = random_spacetime(rng, 2)
        on_S[0, :] = on_S[:, 0] = 0.0
        with pytest.raises(angles.DegenerateAngleError):
            phi_regular(on_S)

    @pytest.mark.parametrize("amp", [1e-2, 1e-4, 1e-6])
    def test_batch_near_singular_diagonal_block(self, amp):
        # With A+ = diag(lam) the Schur complement is explicit:
        # phi = sum arctan(lam) + arg(i*a + sum |b_k|^2 / (1 + i*lam_k)).
        rng = np.random.default_rng(27)
        count = 200
        lam = rng.uniform(-3.0, 3.0, size=(count, 2))
        a = amp**2 * rng.standard_normal(count)
        b = amp * (rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2)))
        A = np.zeros((count, 3, 3), dtype=complex)
        A[:, 0, 0] = a
        A[:, 1:, 0] = b
        A[:, 0, 1:] = np.conj(b)
        A[:, 1, 1] = lam[:, 0]
        A[:, 2, 2] = lam[:, 1]
        sigma = 1j * a + np.sum(np.abs(b) ** 2 / (1.0 + 1j * lam), axis=-1)
        expected = np.sum(np.arctan(lam), axis=-1) + np.angle(sigma)
        vals, singular = phi_lifted_usc_batch(A)
        assert not singular.any()
        assert np.max(np.abs(vals - expected)) < 1e-13
        for k in range(count):
            assert abs(phi_lifted_usc(A[k]).value - expected[k]) < 1e-13
            assert abs(phi_regular(A[k]) - expected[k]) < 1e-13

    def test_batch_working_set_bounded(self):
        rng = np.random.default_rng(28)
        A = np.stack([random_spacetime(rng, 2) for _ in range(16000)])
        phi_lifted_usc_batch(A[:16])
        tracemalloc.start()
        try:
            phi_lifted_usc_batch(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes


def exact_lift(A):
    """theta(A+) + arg(sigma) of one regular 3x3 matrix: tr A+, 1 - det A+ and
    sigma evaluated exactly from its float entries, each rounded once."""
    a11, p, q = (Fraction(float(A[k, k].real)) for k in range(3))
    (xr, xi), (yr, yi), (rr, ri) = (
        (Fraction(float(z.real)), Fraction(float(z.imag))) for z in (A[1, 0], A[2, 0], A[2, 1])
    )
    tr = p + q
    re_d = 1 - (p * q - rr * rr - ri * ri)
    # a1^* adj(I + i*A+) a1 = |x|^2 + |y|^2 + i*(q|x|^2 + p|y|^2 - 2 Re(conj(x r) y))
    n_re = xr * xr + xi * xi + yr * yr + yi * yi
    n_im = q * (xr * xr + xi * xi) + p * (yr * yr + yi * yi) - 2 * (
        (xr * rr - xi * ri) * yr + (xr * ri + xi * rr) * yi
    )
    mod2 = re_d * re_d + tr * tr
    re_sigma = (n_re * re_d + n_im * tr) / mod2
    im_sigma = a11 + (n_im * re_d - n_re * tr) / mod2
    return math.atan2(float(tr), float(re_d)) + math.atan2(float(im_sigma), float(re_sigma))


def eigh_lift(A):
    """The lift of a regular (k, m, m) stack through one eigensolve of A+."""
    lam, V = np.linalg.eigh(A[:, 1:, 1:])
    wd = np.abs(np.einsum("ki,kij->kj", np.conj(A[:, 1:, 0]), V)) ** 2 / (1.0 + lam * lam)
    re_sigma = np.sum(wd, axis=-1)
    im_sigma = A[:, 0, 0].real - np.sum(wd * lam, axis=-1)
    return np.sum(np.arctan(lam), axis=-1) + np.arctan2(im_sigma, re_sigma)


def lift_parts(A):
    """(values, singular, theta(A+)) of the usc lift of a (k, m, m) stack."""
    scale = 1.0 + np.sqrt(np.sum(np.abs(A) ** 2, axis=(1, 2)))
    return angles._lift(A.astype(complex), scale, angles.EPS_SINGULAR, +1)


class TestClosedForm:
    """The 1x1 and 2x2 spatial blocks are lifted without an eigensolver."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_eigensolver_for_small_blocks(self, n):
        rng = np.random.default_rng(40 + n)
        A = np.stack([random_spacetime(rng, n) for _ in range(8)])
        A[0, 0, :] = A[0, :, 0] = 0.0
        calls = [
            lambda: phi_lifted_usc_batch(A),
            lambda: phi_lifted_lsc_batch(A),
            lambda: phi_lifted_usc(A[1]),
            lambda: slice_angle_gap(A[0]),
        ]
        with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh")):
            for call in calls:
                if n <= 2:
                    call()
                else:
                    with pytest.raises(AssertionError, match="eigh"):
                        call()

    def test_exact_reference(self):
        # Worst error against exact_lift over these draws: 7.7e-15 for the
        # closed form (batch and scalar alike), 1.4e-14 for the eigensolve
        # path it replaced.  Both peak on the near-singular rows, where
        # Im sigma cancels against a11.
        rng = np.random.default_rng(41)
        for scale in (0.1, 1.0, 10.0, 25.0, 1e3):
            rows = []
            for amp, corner in ((1.0, 1.0), (1e-4, 1.0), (1e-8, 1.0), (1e-12, 1.0), (1e-4, 1e-8)):
                A = np.stack([random_spacetime(rng, 2, scale) for _ in range(60)])
                A[:, 1:, 0] *= amp
                A[:, 0, 1:] *= amp
                A[:, 0, 0] *= corner
                A[30:] *= -1.0
                rows.append(A)
            A = np.concatenate(rows)
            vals, singular = phi_lifted_usc_batch(A)
            assert not singular.any()
            expected = np.array([exact_lift(a) for a in A])
            scalar = np.array([phi_lifted_usc(a).value for a in A])
            assert np.max(np.abs(vals - expected)) < 1e-14
            assert np.max(np.abs(scalar - expected)) < 1e-14

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_eigenvalues_beyond_1e3(self, sign):
        # theta(A+) near +-pi, where 1 - det A+ is large and negative
        rng = np.random.default_rng(42)
        A = np.stack([random_spacetime(rng, 2) for _ in range(200)])
        A[:, 1:, 1:] += sign * rng.uniform(1e3, 1e5, size=(200, 1, 1)) * np.eye(2)
        vals, singular, theta_plus = lift_parts(A)
        assert not singular.any()
        assert np.all(sign * theta_plus > math.pi - 2e-3)
        assert np.max(np.abs(theta_plus - [theta(a[1:, 1:]) for a in A])) < 1e-15
        assert np.max(np.abs(vals - [exact_lift(a) for a in A])) < 1e-15

    def test_traceless_indefinite_block(self):
        # tr A+ = 0 and det A+ < 0: theta(A+) is exactly 0
        rng = np.random.default_rng(43)
        A = np.stack([random_spacetime(rng, 2) for _ in range(200)])
        A[:, 2, 2] = -A[:, 1, 1]
        assert np.all(A[:, 1, 1].real * A[:, 2, 2].real - np.abs(A[:, 2, 1]) ** 2 < 0)
        vals, _, theta_plus = lift_parts(A)
        assert np.all(theta_plus == 0.0)
        assert np.max(np.abs(vals - [exact_lift(a) for a in A])) < 1e-15

    def test_diagonal_block(self):
        rng = np.random.default_rng(44)
        A = np.stack([random_spacetime(rng, 2, 10.0) for _ in range(200)])
        A[:, 1, 2] = A[:, 2, 1] = 0.0
        lam = A[:, (1, 2), (1, 2)].real
        b = A[:, 1:, 0]
        sigma = 1j * A[:, 0, 0].real + np.sum(np.abs(b) ** 2 / (1.0 + 1j * lam), axis=-1)
        expected = np.sum(np.arctan(lam), axis=-1) + np.angle(sigma)
        vals, _ = phi_lifted_usc_batch(A)
        assert np.max(np.abs(vals - expected)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_first_column(self, n):
        # a1 = 0 gives sigma = i*a11: on S when a11 = 0, else arg(sigma) = +-pi/2
        rng = np.random.default_rng(45)
        A = np.stack([random_spacetime(rng, n) for _ in range(30)])
        A[:, 1:, 0] = A[:, 0, 1:] = 0.0
        A[:10, 0, 0] = 0.0
        theta_plus = np.array([theta(a[1:, 1:]) for a in A])
        usc, singular = phi_lifted_usc_batch(A)
        lsc, _ = phi_lifted_lsc_batch(A)
        assert singular[:10].all() and not singular[10:].any()
        half = 0.5 * math.pi * np.where(singular, 1.0, np.sign(A[:, 0, 0].real))
        assert np.max(np.abs(usc - (theta_plus + half))) < 1e-15
        assert np.max(np.abs(lsc - (theta_plus + np.where(singular, -half, half)))) < 1e-15
        for k in range(30):
            assert phi_lifted_usc(A[k]).value == usc[k]
            assert phi_lifted_usc(A[k]).regular == (not singular[k])

    @pytest.mark.parametrize("big", [1e100, 1e140])
    def test_huge_entries(self, big):
        # all entries at the scale, and a1 and a11 at the scale over a small A+
        rng = np.random.default_rng(46)
        A = np.stack([random_spacetime(rng, 2, big) for _ in range(100)])
        B = np.stack([random_spacetime(rng, 2) for _ in range(100)])
        B[:, 0, :] *= big
        B[:, 1:, 0] *= big
        for X in (A, B):
            vals, singular = phi_lifted_usc_batch(X)
            scalar = np.array([phi_lifted_usc(x).value for x in X])
            assert np.all(np.isfinite(vals)) and not singular.any()
            assert np.max(np.abs(vals - eigh_lift(X))) < 1e-12
            assert np.max(np.abs(scalar - eigh_lift(X))) < 1e-12


class TestValidatesOnce:
    @pytest.mark.parametrize(
        "fn", [phi_lifted_usc, phi_lifted_lsc, phi_regular, slice_angle_gap],
        ids=lambda fn: fn.__name__,
    )
    @pytest.mark.parametrize("singular", [False, True])
    def test_one_check_per_call(self, fn, singular):
        A = random_spacetime(np.random.default_rng(29), 2)
        if singular:
            A[0, 0] = 1e-12
            A[1:, 0] = A[0, 1:] = 1e-12
        with mock.patch.object(angles, "check_hermitian", wraps=angles.check_hermitian) as check:
            fn(A)
        assert check.call_count == 1


class TestEtaSqueeze:
    def test_identity_scaling(self):
        rng = np.random.default_rng(20)
        A = random_spacetime(rng, 2)
        assert eta_squeeze(A, 1.0) == pytest.approx(theta(A), abs=1e-12)

    def test_closed_form(self):
        A = np.diag([1.0, 1.0])
        for eta in (10.0, 100.0):
            expected = math.atan(eta * eta) + math.atan(1.0)
            assert eta_squeeze(A, eta) == pytest.approx(expected, abs=1e-12)
        assert abs(eta_squeeze(A, 1e4) - phi_regular(A)) < 1e-6

    def test_singular_limit_brackets(self):
        # spatial-block-only matrix sits in S; the squeeze limit lands on
        # theta(A+), inside the usc/lsc bracket
        A = np.diag([0.0, 2.0])
        val = eta_squeeze(A, 1e5)
        assert phi_lifted_lsc(A).value - 1e-6 <= val <= phi_lifted_usc(A).value + 1e-6
        assert val == pytest.approx(math.atan(2.0), abs=1e-8)

    def test_convergence_decreasing(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            A = random_spacetime(rng, int(rng.integers(1, 3)))
            rep = classify_singular(A)
            if rep.a11 < 0.1 and rep.a1_norm < 0.1:
                continue
            target = phi_regular(A)
            errs = [abs(eta_squeeze(A, eta) - target) for eta in (10.0, 1e2, 1e3, 1e4)]
            assert errs[-1] < 1e-6
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-12
            checked += 1


class TestRealpartSpectrum:
    def test_zero(self):
        assert realpart_spectrum_check(np.zeros((2, 2)), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_positive_eta(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            A = random_spacetime(rng, int(rng.integers(1, 3)))
            assert realpart_spectrum_check(A, 0.5) > 0.0

    def test_positive_with_tail(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            A = random_spacetime(rng, 2)
            A[0, 0] = 0.0
            if np.linalg.norm(A[1:, 0]) < 1e-3:
                continue
            assert realpart_spectrum_check(A, 0.0) > 0.0
            assert realpart_spectrum_check(A, 0.0) >= -1e-12


class TestSliceGap:
    def test_singular_exactly_half_pi(self):
        rng = np.random.default_rng(24)
        A = np.zeros((3, 3), dtype=complex)
        A[1:, 1:] = random_hermitian(rng, 2)
        assert slice_angle_gap(A) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_diag_ones(self):
        assert slice_angle_gap(np.diag([1.0, 1.0])) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_negative_corner(self):
        assert slice_angle_gap(np.diag([-1.0, 0.0])) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_bound_random(self):
        rng = np.random.default_rng(25)
        for _ in range(5000):
            A = random_spacetime(rng, int(rng.integers(1, 3)), scale=float(rng.choice([0.1, 1, 10])))
            assert abs(slice_angle_gap(A)) <= math.pi / 2 + 1e-10


class TestUscConsistency:
    def test_delta_descent_onto_usc(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            A = np.zeros((n + 1, n + 1), dtype=complex)
            A[1:, 1:] = random_hermitian(rng, n)
            target = phi_lifted_usc(A).value
            errs = [
                abs(phi_regular(A + d * np.eye(n + 1)) - target)
                for d in (1e-2, 1e-4, 1e-6)
            ]
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 1e-5


def plain_bisection(angle, A, d, c, lo, phi_lo, tol, spatial=False, eps=None):
    """Reference for _ray_boundary, same contract: the same doubling up from
    lo to a non-member, then bisection alone."""
    base, step = lo, 1.0
    while angle(base + step) >= c:
        lo, step = base + step, 2.0 * step
    hi = base + step
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if angle(mid) >= c:
            lo = mid
        else:
            hi = mid
    return lo


def ray_member(angle, c):
    lo = -1.0
    while angle(lo) < c:
        lo *= 2.0
    return lo


class TestRayBoundary:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_bisection_in_regime(self, m, scale):
        rng = np.random.default_rng(int(100 * m + 10 * scale))
        tol = 1e-10
        for _ in range(25):
            H0 = random_spacetime(rng, m - 1, scale)
            D = np.diag(rng.uniform(0.1, 300.0, m))
            c = (m - 2 + rng.uniform(0.02, 0.98)) * math.pi / 2

            def angle(v):
                return phi_lifted_usc(H0 - v * D).value

            lo = ray_member(angle, c)
            phi_lo = angle(lo)
            v = _ray_boundary(angle, H0, np.diag(D), c, lo, phi_lo, tol)
            assert abs(v - plain_bisection(angle, H0, D, c, lo, phi_lo, tol)) <= tol
            assert angle(v - tol) >= c
            assert angle(v + 2 * tol) < c

    def test_roots_are_the_level_crossings(self):
        # every root of q is real and phi~ sits on a level c + k pi there
        rng = np.random.default_rng(27)
        for m in (2, 3, 4):
            H0 = random_spacetime(rng, m - 1)
            d = rng.uniform(0.5, 2.0, m)
            c = (m - 1.5) * math.pi / 2
            roots = _level_roots(H0, d, c, spatial=False)
            assert len(roots) == m
            for r in roots:
                k = (phi_lifted_usc(H0 - (r - 1e-7) * np.diag(d)).value - c) / math.pi
                assert abs(k - round(k)) < 1e-5

    def test_real_roots_match_np_roots(self):
        # the companion eigensolve is np.roots' own, bit for bit, including its
        # trimming: zero constant terms (roots at 0), zero leading terms, and
        # the zero polynomial
        rng = np.random.default_rng(31)
        cases = [[0.0, 0.0, 0.0], [1.0, -3.0, 2.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 5.0]]
        for _ in range(2000):
            q = rng.standard_normal(int(rng.integers(2, 6))) * 10.0 ** rng.integers(-3, 4)
            cut = int(rng.integers(0, len(q)))
            kind = rng.integers(0, 3)
            if kind == 1:
                q[len(q) - cut :] = 0.0  # zero constant term and more
            elif kind == 2:
                q[:cut] = 0.0
            cases.append(q)
        for q in cases:
            q = np.asarray(q, dtype=float)
            ref = np.sort(np.roots(q).real)
            got = angles._real_roots(q)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), q

    @pytest.mark.parametrize("spatial", [False, True])
    @pytest.mark.parametrize("m", [2, 3])
    def test_closed_form_coefficients(self, m, spatial):
        # up to 3 x 3 the coefficients of det(I0 + i(A - v diag(d))) come
        # from principal minors; the reference expands the eigenvalues of
        # diag(d)^{-1} (A - i I0), as matrices from 4 x 4 up do
        rng = np.random.default_rng(30 + m)
        I0 = np.eye(m)
        if not spatial:
            I0[0, 0] = 0.0
        for k in range(300):
            A = random_hermitian(rng, m, (0.1, 1.0, 10.0)[k % 3])
            d = rng.uniform(0.1, 300.0, m)
            kappa = np.linalg.eigvals((A - 1j * I0) / d[:, None])
            ref = (-1j) ** m * np.prod(d) * np.poly(kappa)
            coef = np.array(angles._det_coeffs((I0 + 1j * A).tolist(), d.tolist()))
            assert np.max(np.abs(coef - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("b", [0.0, 1e-11, 1e-6])
    @pytest.mark.parametrize("d", [(1.0, 1.0), (266.0, 64.0)], ids=["unit", "grid"])
    def test_near_singular_set(self, b, d):
        # with b = 0 the ray meets S where its corner vanishes; with a unit
        # diagonal the probes then fall inside the singular band, and two
        # more at the band's upper edge certify the boundary
        d = np.array(d)
        H0 = np.array([[0.3, b * np.exp(-0.7j)], [b * np.exp(0.7j), 2.0]])
        c = 1.2
        evals = [0]

        def angle(v):
            evals[0] += 1
            return phi_lifted_usc(H0 - v * np.diag(d)).value

        lo = ray_member(angle, c)
        phi_lo = angle(lo)
        evals[0] = 0
        tol = 1e-10
        v = _ray_boundary(angle, H0, d, c, lo, phi_lo, tol)
        in_band = b < 1e-10 and d[0] == 1.0
        assert (2 < evals[0] <= 5) if in_band else (evals[0] <= 2)
        ref = plain_bisection(angle, H0, d, c, lo, phi_lo, tol)
        assert abs(v - ref) <= tol
        assert angle(v) >= c and angle(v + tol) < c
