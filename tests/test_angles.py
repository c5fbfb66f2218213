"""Tests for the spatial and lifted space-time angle operators."""

import math
import tracemalloc
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

    def test_batch_rejects_corrupt_input(self):
        bad = np.zeros((1, 2, 2), dtype=complex)
        bad[0, 0, 0] = 5j  # not self-adjoint
        with pytest.raises(ValueError):
            phi_lifted_usc_batch(bad)


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
        rng = np.random.default_rng(19)
        scales = (0.1, 1.0, 10.0)
        for n in (1, 2, 3):
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


def plain_bisection(angle, A, d, c, lo, hi, phi_lo, tol, spatial=False):
    """Reference for _ray_boundary: bisection alone, same contract."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if angle(mid) >= c:
            lo = mid
        else:
            hi = mid
    return lo


def ray_bracket(angle, c):
    lo, hi = -1.0, 1.0
    while angle(lo) < c:
        lo *= 2.0
    while angle(hi) >= c:
        hi *= 2.0
    return lo, hi


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

            lo, hi = ray_bracket(angle, c)
            phi_lo = angle(lo)
            v = _ray_boundary(angle, H0, np.diag(D), c, lo, hi, phi_lo, tol)
            assert abs(v - plain_bisection(angle, H0, D, c, lo, hi, phi_lo, tol)) <= tol
            assert angle(v - tol) >= c
            assert angle(v + 2 * tol) < c

    def test_roots_are_the_level_crossings(self):
        # every root of q is real and phi~ sits on a level c + k pi there
        rng = np.random.default_rng(27)
        for m in (2, 3):
            H0 = random_spacetime(rng, m - 1)
            d = rng.uniform(0.5, 2.0, m)
            c = (m - 1.5) * math.pi / 2
            roots = _level_roots(H0, d, c, spatial=False)
            assert len(roots) == m
            for r in roots:
                k = (phi_lifted_usc(H0 - (r - 1e-7) * np.diag(d)).value - c) / math.pi
                assert abs(k - round(k)) < 1e-5

    @pytest.mark.parametrize("b", [0.0, 1e-11, 1e-6])
    @pytest.mark.parametrize("d", [(1.0, 1.0), (266.0, 64.0)], ids=["unit", "grid"])
    def test_near_singular_set(self, b, d):
        # with b = 0 the ray meets S where its corner vanishes; with a unit
        # diagonal the probes then fall inside the singular band and
        # bisection finishes from the bracket they narrowed
        d = np.array(d)
        H0 = np.array([[0.3, b * np.exp(-0.7j)], [b * np.exp(0.7j), 2.0]])
        c = 1.2
        evals = [0]

        def angle(v):
            evals[0] += 1
            return phi_lifted_usc(H0 - v * np.diag(d)).value

        lo, hi = ray_bracket(angle, c)
        phi_lo = angle(lo)
        evals[0] = 0
        tol = 1e-10
        v = _ray_boundary(angle, H0, d, c, lo, hi, phi_lo, tol)
        fallback = b < 1e-10 and d[0] == 1.0
        assert (evals[0] > 2) == fallback
        ref = plain_bisection(angle, H0, d, c, lo, hi, phi_lo, tol)
        assert abs(v - ref) <= tol
        assert angle(v) >= c and angle(v + tol) < c
