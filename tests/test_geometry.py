"""Tests for torus backgrounds, discrete operators, and field diagnostics."""

import math

import numpy as np
import pytest

from dhymgeo.errors import PreconditionError
from dhymgeo.geometry import (
    TorusGeometry,
    angle_field,
    complex_hessian,
    dhym_residual,
    eval_field_expr,
    h_membership,
    hat_theta,
    lambda_endo,
    read_grid,
    select_branch,
    write_grid,
    z_integral,
    zderiv,
)
from dhymgeo.angles import modulus_r_batch, theta_batch


def geom1(nx=32, ny=32, a0=3.0, psi=None):
    return TorusGeometry(n=1, grid=(nx, ny), alpha0=[[a0]], psi_alpha=psi)


def geom2(size=16, a0=None):
    a0 = np.eye(2) * 3.0 if a0 is None else a0
    return TorusGeometry(n=2, grid=(size,) * 4, alpha0=a0)


class TestGeometryValidation:
    def test_grid_constraints(self):
        with pytest.raises(PreconditionError):
            TorusGeometry(n=1, grid=(7, 8), alpha0=[[0.0]])
        with pytest.raises(PreconditionError):
            TorusGeometry(n=1, grid=(9,), alpha0=[[0.0]], reduced=True)
        with pytest.raises(PreconditionError):
            TorusGeometry(n=2, grid=(8, 8), alpha0=np.eye(2))

    def test_reduced_only_n1(self):
        with pytest.raises(PreconditionError):
            TorusGeometry(n=2, grid=(8,), alpha0=np.eye(2), reduced=True)

    def test_alpha0_must_match_n(self):
        with pytest.raises(PreconditionError):
            TorusGeometry(n=1, grid=(8, 8), alpha0=np.eye(2))


class TestComplexHessian:
    def test_constant_is_zero(self):
        g = geom1(16, 16)
        assert np.allclose(complex_hessian(g, np.full(g.grid, 2.5)), 0.0)

    def test_cosine_oracle_and_order(self):
        errs = []
        for nx in (32, 64):
            g = geom1(nx, 8)
            x = g.coordinates()["x1"]
            u = np.cos(2 * math.pi * x)
            got = complex_hessian(g, u)[..., 0, 0].real
            exact = -0.25 * (2 * math.pi) ** 2 * np.cos(2 * math.pi * x)
            errs.append(float(np.max(np.abs(got - exact))))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_mixed_term_imaginary_part(self):
        # u couples x_1 with y_2, so the (1,2) entry is purely imaginary
        errs = []
        for size in (16, 32):
            g = geom2(size)
            co = g.coordinates()
            u = np.sin(2 * math.pi * co["x1"]) * np.sin(2 * math.pi * co["y2"])
            got = complex_hessian(g, u)[..., 0, 1]
            exact = (
                0.25j
                * (2 * math.pi) ** 2
                * np.cos(2 * math.pi * co["x1"])
                * np.cos(2 * math.pi * co["y2"])
            )
            assert np.max(np.abs(got.real)) < 1e-12
            errs.append(float(np.max(np.abs(got - exact))))
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_output_selfadjoint(self):
        rng = np.random.default_rng(40)
        g = geom2(8)
        u = rng.standard_normal(g.grid)
        H = complex_hessian(g, u)
        assert np.allclose(H, np.conj(np.swapaxes(H, -2, -1)))

    def test_reduced_mode(self):
        g = TorusGeometry(n=1, grid=(64,), alpha0=[[0.0]], reduced=True)
        x = g.coordinates()["x1"]
        u = np.sin(2 * math.pi * x)
        got = complex_hessian(g, u)[..., 0, 0].real
        exact = -0.25 * (2 * math.pi) ** 2 * np.sin(2 * math.pi * x)
        assert np.max(np.abs(got - exact)) < 0.02


def stack_geom(kind, rng):
    """Reduced n = 1, full n = 1, or n = 2 with a psi_alpha background."""
    if kind == "reduced-n1":
        return TorusGeometry(n=1, grid=(16,), alpha0=[[3.0]], reduced=True)
    if kind == "full-n1":
        return TorusGeometry(n=1, grid=(8, 16), alpha0=[[3.0]])
    grid = (8,) * 4
    a0 = np.array([[1.5, 0.2 - 0.1j], [0.2 + 0.1j, 2.0]])
    return TorusGeometry(n=2, grid=grid, alpha0=a0, psi_alpha=0.01 * rng.standard_normal(grid))


class TestStackedOperators:
    """Leading axes batch: a (k, *grid) stack in one call equals the per-slice calls."""

    @pytest.mark.parametrize("kind", ["reduced-n1", "full-n1", "n2-psi"])
    def test_stack_equals_slices(self, kind):
        rng = np.random.default_rng(47)
        g = stack_geom(kind, rng)
        for _ in range(3):
            k = int(rng.integers(1, 5))
            u = rng.uniform(-0.05, 0.05) * rng.standard_normal((k,) + g.grid)

            def per_slice(op):
                return np.stack([op(s) for s in u])

            assert np.array_equal(
                complex_hessian(g, u), per_slice(lambda s: complex_hessian(g, s))
            )
            for j in range(g.n):
                assert np.array_equal(zderiv(g, u, j), per_slice(lambda s: zderiv(g, s, j)))
            assert np.array_equal(lambda_endo(g, u), per_slice(lambda s: lambda_endo(g, s)))
            assert np.array_equal(
                angle_field(g, u).values, per_slice(lambda s: angle_field(g, s).values)
            )

    def test_reduced_equals_full_on_y_invariant_data(self):
        rng = np.random.default_rng(48)
        red = TorusGeometry(n=1, grid=(16,), alpha0=[[3.0]], reduced=True)
        full = TorusGeometry(n=1, grid=(16, 8), alpha0=[[3.0]])
        for _ in range(5):
            u = 0.1 * rng.standard_normal((3, 16))
            wide = np.repeat(u[..., None], 8, axis=-1)

            def spread(a):
                return np.repeat(a[:, :, None], 8, axis=2)

            assert np.array_equal(complex_hessian(full, wide), spread(complex_hessian(red, u)))
            assert np.array_equal(zderiv(full, wide, 0), spread(zderiv(red, u, 0)))
            assert np.array_equal(lambda_endo(full, wide), spread(lambda_endo(red, u)))
            assert np.array_equal(angle_field(full, wide).values, spread(angle_field(red, u).values))

    def test_trailing_axes_must_be_the_grid(self):
        g = TorusGeometry(n=1, grid=(8, 16), alpha0=[[3.0]])
        for bad in (np.zeros((16, 8)), np.zeros((2, 16, 8)), np.zeros(16), np.zeros(())):
            with pytest.raises(PreconditionError):
                complex_hessian(g, bad)
            with pytest.raises(PreconditionError):
                lambda_endo(g, bad)
            with pytest.raises(PreconditionError):
                angle_field(g, bad)
            with pytest.raises(PreconditionError):
                zderiv(g, bad, 0)


class TestLambdaEndo:
    def test_background_only(self):
        g = geom1(16, 16)
        lam = lambda_endo(g)
        assert np.allclose(lam[..., 0, 0], 3.0)

    def test_constant_shift_invariant(self):
        g = geom1(16, 16)
        rng = np.random.default_rng(41)
        phi = rng.standard_normal(g.grid)
        assert np.allclose(lambda_endo(g, phi), lambda_endo(g, phi + 5.0), atol=1e-9)

    def test_sum_of_parts(self):
        rng = np.random.default_rng(42)
        psi = rng.standard_normal((16, 16))
        g = geom1(16, 16, psi=psi)
        phi = rng.standard_normal(g.grid)
        direct = lambda_endo(g, phi)
        parts = (
            g.alpha0
            + complex_hessian(g, psi)
            + complex_hessian(g, phi)
        )
        assert np.allclose(direct, parts, atol=1e-10)


class TestAngleField:
    def test_constant_diag3_n2(self):
        g = geom2(8)
        fld = angle_field(g)
        assert fld.values.flat[0] == pytest.approx(2 * math.atan(3), abs=1e-12)
        assert fld.oscillation == pytest.approx(0.0, abs=1e-12)

    def test_zero_background(self):
        g = geom1(16, 16, a0=0.0)
        assert np.allclose(angle_field(g).values, 0.0)

    def test_perturbation_oscillates_below_pi(self):
        g = geom1(32, 32)
        x = g.coordinates()["x1"]
        fld = angle_field(g, 0.05 * np.cos(2 * math.pi * x))
        assert 0 < fld.oscillation < math.pi


class TestZIntegral:
    def test_zero_background_real(self):
        g = geom1(16, 16, a0=0.0)
        Z = z_integral(g)
        assert Z.imag == pytest.approx(0.0, abs=1e-14)
        assert Z.real > 0
        assert hat_theta(g) == pytest.approx(0.0, abs=1e-14)

    def test_constant_closed_form(self):
        g = geom1(16, 16)
        Z = z_integral(g)
        assert Z == pytest.approx(1 + 3j, abs=1e-13)
        assert hat_theta(g) == pytest.approx(math.atan(3), abs=1e-13)

    def test_invariance_under_potential_n1(self):
        g = geom1(32, 32)
        x = g.coordinates()["x1"]
        phi = 0.2 * np.cos(2 * math.pi * x)
        assert abs(z_integral(g, phi) - z_integral(g)) < 1e-9

    def test_invariance_under_potential_n2_refines(self):
        errs = []
        for size in (8, 16, 32):
            g = geom2(size)
            co = g.coordinates()
            phi = 0.1 * np.cos(2 * math.pi * co["x1"]) * np.sin(2 * math.pi * co["x2"])
            errs.append(abs(z_integral(g, phi) - z_integral(g)))
        assert errs[0] > errs[1] > errs[2]
        # first refinement is pre-asymptotic; second is clean second order
        assert math.log2(errs[1] / errs[2]) >= 1.9


class TestSelectBranch:
    def test_constant_field_n2(self):
        g = geom2(8)
        br = select_branch(g)
        assert br.c == pytest.approx(2 * math.atan(3), abs=1e-12)
        assert br.in_convexity_regime

    def test_negative_background_wraps_mod_2pi(self):
        g = geom2(8, a0=-3.0 * np.eye(2))
        br = select_branch(g)
        assert br.c == pytest.approx(-2 * math.atan(3), abs=1e-12)
        th = hat_theta(g)
        assert (br.c - th) % (2 * math.pi) == pytest.approx(0.0, abs=1e-10)

    def test_oscillation_at_least_pi_rejected(self):
        # n = 1 angles live in (-pi/2, pi/2) so the oscillation bound can
        # only trip for n >= 2, with both eigenvalues swinging
        g = geom2(8, a0=np.zeros((2, 2)))
        co = g.coordinates()
        phi = 1.0 * (np.cos(2 * math.pi * co["x1"]) + np.cos(2 * math.pi * co["x2"]))
        with pytest.raises(PreconditionError):
            select_branch(g, phi)

    def test_regime_enforcement(self):
        g = geom1(16, 16, a0=-3.0)
        with pytest.raises(PreconditionError):
            select_branch(g, require_regime=True)


class TestHMembership:
    def test_constant_full_margin(self):
        g = geom1(16, 16)
        ok, delta = h_membership(g, g.zeros(), math.atan(3))
        assert ok
        assert delta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_boundary_point_fails(self):
        g = geom1(16, 16)
        c = math.atan(3) + math.pi / 2
        ok, delta = h_membership(g, g.zeros(), c)
        assert not ok
        assert delta <= 0

    def test_margin_matches_scan(self):
        g = geom1(32, 32)
        x = g.coordinates()["x1"]
        phi = 0.1 * np.sin(2 * math.pi * x)
        c = math.atan(3)
        _, delta = h_membership(g, phi, c)
        vals = angle_field(g, phi).values
        assert delta == pytest.approx(float(np.min(math.pi / 2 - np.abs(vals - c))))

    def test_membership_implies_oscillation_below_pi(self):
        rng = np.random.default_rng(46)
        g = geom1(16, 16)
        c = math.atan(3)
        for _ in range(20):
            phi = 0.2 * rng.standard_normal() * np.cos(
                2 * math.pi * g.coordinates()["x1"]
            )
            ok, _ = h_membership(g, phi, c)
            if ok:
                assert angle_field(g, phi).oscillation < math.pi


class TestResidual:
    def test_constant_solution_zero(self):
        c = 2 * math.atan(1.2)
        g = geom2(8, a0=np.eye(2) * math.tan(c / 2))
        assert np.max(np.abs(dhym_residual(g, g.zeros(), c))) < 1e-13

    def test_r_sin_identity(self):
        rng = np.random.default_rng(43)
        g = geom1(32, 32)
        x = g.coordinates()["x1"]
        phi = 0.15 * np.cos(2 * math.pi * x)
        c = 0.7
        res = dhym_residual(g, phi, c)
        lam = lambda_endo(g, phi)
        expected = modulus_r_batch(lam) * np.sin(theta_batch(lam) - c)
        assert np.max(np.abs(res - expected)) < 1e-12

    def test_scaling_limit_to_constant(self):
        g0 = geom1(32, 32)
        x = g0.coordinates()["x1"]
        c = math.atan(3)
        sups = []
        for amp in (0.2, 0.02, 0.002):
            g = geom1(32, 32, psi=amp * np.cos(2 * math.pi * x))
            sups.append(float(np.max(np.abs(dhym_residual(g, g.zeros(), c)))))
        assert sups[0] > sups[1] > sups[2]
        base = float(np.max(np.abs(dhym_residual(g0, g0.zeros(), c))))
        assert sups[2] == pytest.approx(base, abs=1e-2)

    def test_theta_increasing_along_identity(self):
        rng = np.random.default_rng(44)
        g = geom1(16, 16)
        phi = 0.05 * rng.standard_normal(g.grid)
        lam = lambda_endo(g, phi)
        t_prev = theta_batch(lam)
        for t in (0.5, 1.0, 2.0):
            t_now = theta_batch(lam + t * np.eye(1))
            assert np.all(t_now > t_prev)
            t_prev = t_now


class TestFieldExpr:
    def test_values(self):
        g = TorusGeometry(n=1, grid=(8,), alpha0=[[0.0]], reduced=True)
        x = g.coordinates()["x1"]
        out = eval_field_expr("0.5*cos(2*pi*x1) - 1", g)
        assert np.allclose(out, 0.5 * np.cos(2 * math.pi * x) - 1)

    def test_constant_broadcast(self):
        g = TorusGeometry(n=1, grid=(8, 8), alpha0=[[0.0]])
        out = eval_field_expr("-0.25", g)
        assert out.shape == (8, 8) and np.all(out == -0.25)

    def test_rejects_division_and_unknowns(self):
        g = TorusGeometry(n=1, grid=(8, 8), alpha0=[[0.0]])
        for bad in ("1/2", "__import__('os')", "tan(x1)", "z1", "x1**2"):
            with pytest.raises(PreconditionError):
                eval_field_expr(bad, g)

    def test_reduced_mode_has_no_y(self):
        g = TorusGeometry(n=1, grid=(8,), alpha0=[[0.0]], reduced=True)
        with pytest.raises(PreconditionError):
            eval_field_expr("sin(y1)", g)


class TestGridIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(45)
        arr = rng.standard_normal((5, 6, 7))
        path = tmp_path / "field.grid"
        write_grid(path, arr)
        assert np.array_equal(read_grid(path), arr)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.grid"
        with open(path, "wb") as fh:
            fh.write(b"4 4\n")
            fh.write(np.zeros(3).tobytes())
        with pytest.raises(PreconditionError):
            read_grid(path)


class TestZDeriv:
    def test_holomorphic_derivative_oracle(self):
        g = geom1(64, 64)
        co = g.coordinates()
        u = np.sin(2 * math.pi * co["x1"]) + np.cos(2 * math.pi * co["y1"])
        got = zderiv(g, u, 0)
        exact = 0.5 * (
            2 * math.pi * np.cos(2 * math.pi * co["x1"])
            + 2j * math.pi * np.sin(2 * math.pi * co["y1"])
        )
        assert np.max(np.abs(got - exact)) < 2e-2
