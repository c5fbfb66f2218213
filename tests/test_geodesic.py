"""Tests for barriers, jets, the Perron update, the Newton solver and its
validation."""

import decimal
import itertools
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dhymgeo import geodesic, geometry
from dhymgeo.errors import PreconditionError, ValidationError
from dhymgeo.geodesic import (
    GeodesicProblem,
    SpaceTimeJet,
    T_TOTAL,
    assemble_jet,
    build_barriers,
    harmonic_residual,
    interior_jets,
    linear_interpolation,
    perron_update,
    rho,
    rho_complex_hessian_factor,
    solve,
    strictify,
    validate_slices,
)
from dhymgeo.geometry import TorusGeometry, angle_field, complex_hessian, select_branch
from dhymgeo.angles import phi_lifted_usc
from dhymgeo.subequations import (
    Branch,
    SPACETIME,
    SubeqSpec,
    member,
    sample_hermitian,
    strict_margin,
)

from pin_geodesic import SET_A_PINS, read_pins, set_a_lines
from test_angles import plain_bisection

GOLDEN = Path(__file__).resolve().parent / "golden"


def reduced_geom(nx=16, a0=3.0):
    return TorusGeometry(n=1, grid=(nx,), alpha0=[[a0]], reduced=True)


def small_problem(nx=16, nt=9, **kw):
    geom = reduced_geom(nx)
    x = geom.coordinates()["x1"]
    phi1 = 0.2 * np.cos(2 * math.pi * x)
    phi2 = 0.15 * np.sin(2 * math.pi * x) + 0.1
    kw.setdefault("sweep_tol", 1e-13)
    kw.setdefault("check_two_init", False)
    c = math.atan(3.0)
    return GeodesicProblem(
        geom=geom, phi1=phi1, phi2=phi2, branch=Branch(c=c, n=1), nt=nt, **kw
    )


class TestRho:
    def test_endpoint_values(self):
        assert rho(0.0) == pytest.approx(0.0, abs=1e-15)
        assert rho(T_TOTAL) == pytest.approx(0.0, abs=1e-14)
        assert rho(math.log(1.5)) == pytest.approx(-0.25, abs=1e-14)

    def test_hessian_factor(self):
        # the factor attains 1/4 in the limit at |s| = 1 and 5/8 at |s| = 2
        assert rho_complex_hessian_factor(0.0) == pytest.approx(0.25, abs=1e-15)
        assert rho_complex_hessian_factor(T_TOTAL) == pytest.approx(0.625, abs=1e-14)
        t = np.linspace(0.0, T_TOTAL, 101)
        assert np.all(rho_complex_hessian_factor(t) >= 0.25)

    def test_negative_inside(self):
        t = np.linspace(0.0, T_TOTAL, 33)[1:-1]
        assert np.all(rho(t) < 0.0)


class TestBarriers:
    def test_boundary_rows_exact(self):
        pb = small_problem()
        bars = build_barriers(pb)
        assert np.array_equal(bars.lower[0], pb.phi1)
        assert np.array_equal(bars.lower[-1], pb.phi2)
        assert np.array_equal(bars.upper[0], pb.phi1)
        assert np.array_equal(bars.upper[-1], pb.phi2)

    def test_component_inequalities(self):
        pb = small_problem()
        bars = build_barriers(pb)
        assert np.all(bars.u1[-1] < pb.phi2)
        assert np.all(bars.u2[0] < pb.phi1)
        assert np.all(bars.v1[-1] < -pb.phi2)
        assert np.all(bars.v2[0] < -pb.phi1)
        assert np.all(bars.lower <= bars.upper + 1e-12)

    def test_equal_boundaries_envelope(self):
        geom = reduced_geom()
        zero = geom.zeros()
        pb = GeodesicProblem(
            geom=geom,
            phi1=zero,
            phi2=zero,
            branch=Branch(c=math.atan(3.0), n=1),
            nt=9,
            check_two_init=False,
        )
        bars = build_barriers(pb)
        t = pb.t_grid
        C = 1.0
        A = 1.0 / T_TOTAL
        expect = rho(t) + np.maximum(-C * t, A * (t - T_TOTAL))
        assert np.allclose(bars.lower[:, 0], expect)

    def test_lower_barrier_jets_strict(self):
        # the smooth u1 sheet is strictly inside the set: angle = pi/2 + theta
        pb = small_problem(nt=17)
        bars = build_barriers(pb)
        c = pb.branch.c
        delta1 = pb.margins[0]
        for it in (1, 8, 15):
            jet = assemble_jet(pb, bars.u1, it, (3,))
            assert jet.udotdot > 0
            val = phi_lifted_usc(jet.matrix()).value
            assert val > c + delta1 - 1e-9

    def test_sandwich_orders_linear(self):
        pb = small_problem()
        bars = build_barriers(pb)
        lin = linear_interpolation(pb)
        assert np.all(bars.lower <= lin + 1e-12)
        assert np.all(lin <= bars.upper + 1e-12)


class TestJets:
    def test_linear_in_t_constant_in_x(self):
        pb = small_problem()
        t = pb.t_grid.reshape(-1, 1)
        U = np.broadcast_to(2.0 * t, (pb.nt,) + pb.geom.grid).copy()
        jet = assemble_jet(pb, U, 3, (5,))
        assert jet.udotdot == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(jet.b, 0.0)
        assert jet.spatial[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_quadratic_exact(self):
        pb = small_problem()
        t = pb.t_grid.reshape(-1, 1)
        U = np.broadcast_to(t * t, (pb.nt,) + pb.geom.grid).copy()
        jet = assemble_jet(pb, U, 4, (0,))
        assert jet.udotdot == pytest.approx(2.0, rel=1e-10)

    def test_smooth_oracle_second_order(self):
        errs = []
        for (nt, nx) in ((17, 16), (33, 32)):
            geom = reduced_geom(nx)
            x = geom.coordinates()["x1"]
            pb = GeodesicProblem(
                geom=geom,
                phi1=np.zeros(nx),
                phi2=np.zeros(nx),
                branch=Branch(c=math.atan(3.0), n=1),
                nt=nt,
                check_two_init=False,
            )
            t = pb.t_grid.reshape(-1, 1)
            U = np.sin(2 * math.pi * x) * np.exp(t) + t * t
            it, ix = nt // 2, nx // 3
            jet = assemble_jet(pb, U, it, (ix,))
            tv, xv = pb.t_grid[it], x[ix]
            udd_exact = math.sin(2 * math.pi * xv) * math.exp(tv) + 2.0
            b_exact = 0.5 * 2 * math.pi * math.cos(2 * math.pi * xv) * math.exp(tv)
            errs.append(
                abs(jet.udotdot - udd_exact) + abs(jet.b[0] - b_exact)
            )
        assert math.log2(errs[0] / errs[1]) >= 1.8

    def test_matrix_layout(self):
        jet = SpaceTimeJet(
            udotdot=2.0, b=np.array([1 + 2j]), spatial=np.array([[3.0 + 0j]])
        )
        H = jet.matrix()
        assert H[0, 0] == 2.0
        assert H[1, 0] == 1 + 2j
        assert H[0, 1] == 1 - 2j
        assert np.allclose(H, H.conj().T)


def psi_problem(n, nt=7):
    """A problem with a psi_alpha background: full n = 1 on 8 x 8 or n = 2 on 8^4."""
    if n == 1:
        geom = TorusGeometry(n=1, grid=(8, 8), alpha0=[[3.0]], psi_alpha=np.zeros((8, 8)))
        co = geom.coordinates()
        geom.psi_alpha = 0.03 * np.cos(2 * math.pi * co["x1"]) * np.sin(2 * math.pi * co["y1"])
    else:
        geom = TorusGeometry(
            n=2, grid=(8,) * 4, alpha0=np.diag([1.5, 2.0]), psi_alpha=np.zeros((8,) * 4)
        )
        co = geom.coordinates()
        geom.psi_alpha = 0.02 * np.cos(2 * math.pi * (co["x1"] + co["y2"])) + 0.01 * np.sin(
            2 * math.pi * (co["x2"] - co["y1"])
        )
    zero = geom.zeros()
    branch = select_branch(geom, require_regime=True)
    return GeodesicProblem(
        geom=geom, phi1=zero, phi2=zero + 0.1, branch=branch, nt=nt, check_two_init=False
    )


def pointwise_n2_problem():
    """An n = 2 8^4 problem shaped like the pointwise benchmark's (no psi_alpha,
    nt = 9) and a grid between its barriers: (problem, U, barriers)."""
    geom = TorusGeometry(n=2, grid=(8,) * 4, alpha0=np.diag([1.5, 2.0]))
    co = geom.coordinates()
    tau = 2 * math.pi
    phi1 = 0.03 * np.cos(tau * co["x1"] + 0.4) + 0.02 * np.sin(tau * co["y2"] + 1.1)
    phi2 = 0.025 * np.sin(tau * co["x2"] + 2.0) * np.cos(tau * co["y1"] + 0.7) + 0.015
    branch = select_branch(geom, require_regime=True)
    pb = GeodesicProblem(geom=geom, phi1=phi1, phi2=phi2, branch=branch, nt=9)
    bars = build_barriers(pb)
    return pb, bars.lower + 0.45 * (bars.upper - bars.lower), bars


JET_GRIDS = {
    "reduced-n1": small_problem,
    "full-n1-psi": lambda: psi_problem(1),
    "n2": lambda: pointwise_n2_problem()[0],
    "n2-psi": lambda: psi_problem(2),
}


class TestPointJet:
    @pytest.mark.parametrize("grid", sorted(JET_GRIDS))
    def test_equals_interior_jets_at_random_points(self, grid):
        # bytes, not values: signed zeros and every last bit must match
        pb = JET_GRIDS[grid]()
        rng = np.random.default_rng(65)
        U = 0.1 * rng.standard_normal((pb.nt,) + pb.geom.grid)
        H, shape = interior_jets(pb, U)
        H = H.reshape(shape + H.shape[-2:])
        for _ in range(200):
            it = int(rng.integers(1, pb.nt - 1))
            ix = tuple(int(rng.integers(-g, g)) for g in pb.geom.grid)
            jet = assemble_jet(pb, U, it, ix)
            assert jet.matrix().tobytes() == H[(it - 1,) + ix].tobytes(), (it, ix)

    @pytest.mark.parametrize("grid", ["reduced-n1", "full-n1", "n2"])
    def test_equals_interior_jets_on_seam(self, grid):
        pb = small_problem() if grid == "reduced-n1" else psi_problem(1 if grid == "full-n1" else 2)
        rng = np.random.default_rng(60)
        U = 0.1 * rng.standard_normal((pb.nt,) + pb.geom.grid)
        H, shape = interior_jets(pb, U)
        H = H.reshape(shape + H.shape[-2:])
        # every combination of the two seam indices and one inner index
        per_axis = [(0, g - 1, 3) for g in pb.geom.grid]
        points = list(itertools.product(*per_axis))
        for it in (1, pb.nt - 2):
            for ix in points:
                jet = assemble_jet(pb, U, it, ix)
                assert np.array_equal(jet.matrix(), H[(it - 1,) + ix]), (it, ix)

    def test_negative_index_wraps(self):
        pb = psi_problem(1)
        U = 0.1 * np.random.default_rng(61).standard_normal((pb.nt,) + pb.geom.grid)
        assert np.array_equal(
            assemble_jet(pb, U, 2, (-1, -8)).matrix(), assemble_jet(pb, U, 2, (7, 0)).matrix()
        )

    @pytest.mark.parametrize(
        "ix", [(), (3,), (3, 4, 5), (8, 0), (0, 8), (-9, 0), (3, -9)], ids=str
    )
    def test_bad_index_raises(self, ix):
        pb = psi_problem(1)
        bars = build_barriers(pb)
        U = bars.lower.copy()
        with pytest.raises(PreconditionError):
            assemble_jet(pb, U, 2, ix)
        with pytest.raises(PreconditionError):
            perron_update(pb, U, 2, ix, bars.lower, bars.upper)

    @pytest.mark.parametrize("call", ["assemble_jet", "perron_update", "solve", "interior_jets"])
    @pytest.mark.parametrize("shape", ["wide", "transposed", "short-t", "one-slice"])
    def test_grid_shape_raises(self, call, shape):
        # a grid of the wrong shape would be read through the wrong neighbours
        if shape == "transposed":
            geom = TorusGeometry(n=1, grid=(8, 16), alpha0=[[3.0]])
            pb = GeodesicProblem(
                geom=geom,
                phi1=geom.zeros(),
                phi2=geom.zeros() + 0.1,
                branch=Branch(c=math.atan(3.0), n=1),
                nt=7,
                check_two_init=False,
            )
            U = np.swapaxes(build_barriers(pb).lower, 1, 2).copy()
        else:
            pb = small_problem()
            lower = build_barriers(pb).lower
            U = {"wide": np.tile(lower, (1, 2)), "short-t": lower[:-1], "one-slice": lower[3]}[shape]
        with pytest.raises(PreconditionError, match="space-time grid must have shape"):
            if call == "assemble_jet":
                assemble_jet(pb, U, 2, (3,) * len(pb.geom.grid))
            elif call == "perron_update":
                perron_update(pb, U, 2, (3,) * len(pb.geom.grid))
            elif call == "solve":
                solve(pb, init=U)
            else:
                interior_jets(pb, U)

    @pytest.mark.parametrize(
        "it, ix",
        [(2, (3.7, 1)), (2, (3, np.float64(1.0))), (2, (True, 1)), (2, np.array([3.0, 1.0])),
         (2.0, (3, 1)), (True, (3, 1)), (np.float64(2.0), (3, 1))],
        ids=["float-entry", "numpy-float-entry", "bool-entry", "float-array", "float-t",
             "bool-t", "numpy-float-t"],
    )
    def test_non_integer_index_raises(self, it, ix):
        # a float index must not be truncated to a neighbouring point, and a bool
        # is not the index 1
        pb = psi_problem(1)
        bars = build_barriers(pb)
        with pytest.raises(PreconditionError, match="must be an integer"):
            assemble_jet(pb, bars.lower, it, ix)
        with pytest.raises(PreconditionError, match="must be an integer"):
            perron_update(pb, bars.lower, it, ix, bars.lower, bars.upper)

    def test_numpy_integer_index(self):
        pb = psi_problem(1)
        U, bars = random_grid(pb, 66)
        expect = assemble_jet(pb, U, 2, (3, -1)).matrix()
        for it, ix in ((np.int64(2), (np.int32(3), np.int64(-1))), (2, np.array([3, -1]))):
            assert assemble_jet(pb, U, it, ix).matrix().tobytes() == expect.tobytes()
            assert perron_update(pb, U, it, ix, bars.lower, bars.upper) == perron_update(
                pb, U, 2, (3, -1), bars.lower, bars.upper
            )

    @pytest.mark.parametrize("ix", [(5,), (9,)], ids=["inside-short", "beyond-short"])
    def test_lower_of_wrong_shape_raises(self, ix):
        # a (9, 8) lower for a (9, 16) problem: read at ix = 5 it would give
        # another point's value, and at ix >= 8 an IndexError
        pb = small_problem()
        U = build_barriers(pb).lower
        with pytest.raises(PreconditionError, match="space-time grid must have shape"):
            perron_update(pb, U, 2, ix, U[:, :8])

    def test_bad_index_raises_reduced(self):
        pb = small_problem()
        U = build_barriers(pb).lower
        for ix in ((16,), (-17,), (1, 2)):
            with pytest.raises(PreconditionError):
                assemble_jet(pb, U, 2, ix)
            with pytest.raises(PreconditionError):
                perron_update(pb, U, 2, ix)


class TestHarmonicResidual:
    def test_det_form_matches_expansion(self):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            udd = float(rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            lam = float(rng.standard_normal())
            c = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            jet = SpaceTimeJet(
                udotdot=udd, b=np.array([b]), spatial=np.array([[lam + 0j]])
            )
            _, det_form = harmonic_residual(jet, c)
            expansion = udd * (math.cos(c) + lam * math.sin(c)) - abs(b) ** 2 * math.sin(c)
            assert abs(det_form - expansion) <= 1e-12 * (1 + abs(expansion))

    def test_flat_solution_zero(self):
        c = 0.9
        jet = SpaceTimeJet(
            udotdot=0.0, b=np.zeros(1), spatial=np.array([[math.tan(c) + 0j]])
        )
        gap, det_form = harmonic_residual(jet, c)
        assert det_form == pytest.approx(0.0, abs=1e-14)
        assert gap == pytest.approx(math.pi / 2 - c + math.atan(math.tan(c)), abs=1e-12)

    def test_singular_jet_sign(self):
        c = 1.1
        for lam, sign in ((math.tan(c - math.pi / 2) + 0.4, 1), (math.tan(c - math.pi / 2) - 0.1, -1)):
            jet = SpaceTimeJet(udotdot=0.0, b=np.zeros(1), spatial=np.array([[lam + 0j]]))
            gap, _ = harmonic_residual(jet, c)
            assert math.copysign(1, gap) == sign


class TestPerronUpdate:
    def test_linear_solution_is_fixed(self):
        pb = small_problem(bisect_tol=1e-12)
        shift = GeodesicProblem(
            geom=pb.geom,
            phi1=pb.phi1,
            phi2=pb.phi1 + 0.2,
            branch=pb.branch,
            nt=pb.nt,
            bisect_tol=1e-12,
            check_two_init=False,
        )
        t = shift.t_grid.reshape(-1, 1)
        U = shift.phi1 + 0.2 * t / T_TOTAL
        bars = build_barriers(shift)
        for it in (1, 4, 7):
            v = perron_update(shift, U, it, (3,), bars.lower, bars.upper)
            assert v == pytest.approx(U[it, 3], abs=1e-10)

    def test_ray_contract(self):
        pb = small_problem()
        bars = build_barriers(pb)
        rng = np.random.default_rng(51)
        U = bars.lower + 0.1 * rng.random((pb.nt,) + pb.geom.grid)
        U[0], U[-1] = pb.phi1, pb.phi2
        it, ix = 4, 7
        v = perron_update(pb, U, it, (ix,), bars.lower, bars.upper)
        c = pb.branch.c
        for eps, expect in ((-1e-6, True), (1e-6, False)):
            W = U.copy()
            W[it, ix] = v + eps
            jet = assemble_jet(pb, W, it, (ix,))
            assert (phi_lifted_usc(jet.matrix()).value >= c) == expect

    def test_closed_form_matches_bisection_full_grid(self):
        from dhymgeo.geodesic import _SweepN1

        geom = TorusGeometry(n=1, grid=(8, 8), alpha0=[[3.0]])
        co = geom.coordinates()
        phi1 = 0.15 * np.cos(2 * math.pi * co["x1"]) + 0.05 * np.sin(2 * math.pi * co["y1"])
        phi2 = 0.1 * np.sin(2 * math.pi * co["x1"]) + 0.05
        pb = GeodesicProblem(
            geom=geom,
            phi1=phi1,
            phi2=phi2,
            branch=Branch(c=math.atan(3.0), n=1),
            nt=7,
            bisect_tol=1e-12,
            check_two_init=False,
        )
        bars = build_barriers(pb)
        rng = np.random.default_rng(54)
        U = bars.lower + 0.1 * rng.random((pb.nt,) + geom.grid)
        U[0], U[-1] = phi1, phi2
        V = _SweepN1(pb).updates(U[2:], U[1:-1], U[:-2])
        for _ in range(25):
            it = int(rng.integers(1, pb.nt - 1))
            ix = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            v = perron_update(pb, U, it, ix, bars.lower, bars.upper)
            assert v == pytest.approx(V[(it - 1,) + ix], abs=1e-10)

    def test_monotone_in_axis_neighbors(self):
        # neighbors that enter through the second differences act through a
        # positive semidefinite direction and can only raise the update
        pb = small_problem()
        bars = build_barriers(pb)
        rng = np.random.default_rng(52)
        U = bars.lower + 0.1 * rng.random((pb.nt,) + pb.geom.grid)
        U[0], U[-1] = pb.phi1, pb.phi2
        it, ix = 4, 7
        base = perron_update(pb, U, it, (ix,), bars.lower, bars.upper)
        for dit, dix in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            for bump in (1e-3, 1e-2):
                W = U.copy()
                W[it + dit, (ix + dix) % 16] += bump
                v = perron_update(pb, W, it, (ix,), bars.lower, bars.upper)
                assert v >= base - 1e-9

    def test_generic_path_n2_linear_family(self):
        # the bisection path serves n = 2 point updates; on linear-in-t data
        # the exact fixed point is the t-neighbor average, as for n = 1
        geom = TorusGeometry(n=2, grid=(8, 8, 8, 8), alpha0=np.eye(2) * 3.0)
        zero = geom.zeros()
        pb = GeodesicProblem(
            geom=geom,
            phi1=zero,
            phi2=zero + 0.2,
            branch=Branch(c=2 * math.atan(3.0), n=2),
            nt=5,
            bisect_tol=1e-11,
            check_two_init=False,
        )
        U = linear_interpolation(pb)
        v = perron_update(pb, U, 2, (3, 4, 1, 6))
        assert v == pytest.approx(U[2, 3, 4, 1, 6], abs=1e-9)

    def test_diagonal_neighbors_not_monotone(self):
        # negative control: diagonal neighbors act only through |b|^2, which
        # is a parabola in the neighbor value, so monotonicity genuinely fails
        pb = small_problem()
        bars = build_barriers(pb)
        rng = np.random.default_rng(53)
        U = bars.lower + 0.1 * rng.random((pb.nt,) + pb.geom.grid)
        U[0], U[-1] = pb.phi1, pb.phi2
        it, ix = 4, 7
        base = perron_update(pb, U, it, (ix,), bars.lower, bars.upper)
        shifts = []
        for dit, dix in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            W = U.copy()
            W[it + dit, (ix + dix) % 16] += 1e-2
            shifts.append(perron_update(pb, W, it, (ix,), bars.lower, bars.upper) - base)
        assert min(shifts) < -1e-8 and max(shifts) > 1e-8


def random_grid(pb, seed):
    bars = build_barriers(pb)
    rng = np.random.default_rng(seed)
    U = bars.lower + rng.uniform(0.2, 0.8) * (bars.upper - bars.lower)
    U[1:-1] += 0.01 * rng.standard_normal(U[1:-1].shape)
    return U, bars


def counted(fn, box):
    def wrapper(*args, **kw):
        box[0] += 1
        return fn(*args, **kw)

    return wrapper


class TestPerronRoot:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_plain_bisection(self, n, seed):
        pb = small_problem() if n == 1 else psi_problem(2, nt=5)
        U, bars = random_grid(pb, seed)
        rng = np.random.default_rng(seed)
        it = int(rng.integers(1, pb.nt - 1))
        ix = tuple(int(rng.integers(0, g)) for g in pb.geom.grid)
        v = perron_update(pb, U, it, ix, bars.lower, bars.upper)
        with mock.patch.object(geodesic, "_ray_boundary", plain_bisection):
            ref = perron_update(pb, U, it, ix, bars.lower, bars.upper)
        tol = pb.bisect_tol
        assert abs(v - ref) <= tol
        # the ray contract, on jets assembled at the shifted values
        c = pb.branch.c
        for shift, expect in ((-tol, True), (2 * tol, False)):
            W = U.copy()
            W[(it,) + ix] = v + shift
            assert (phi_lifted_usc(assemble_jet(pb, W, it, ix).matrix()).value >= c) == expect

    def test_pointwise_certificates(self):
        # the pointwise benchmark's check at 32 seeded points of one n = 2
        # grid: each update is evaluated admissible at v - tol and not at
        # v + 2 tol, and each strict margin certifies its ball
        pb = psi_problem(2, nt=5)
        U, bars = random_grid(pb, 64)
        rng = np.random.default_rng(64)
        c, tol = pb.branch.c, pb.bisect_tol
        spec = SubeqSpec(space=SPACETIME, branch=pb.branch)
        eye = np.eye(3)
        shifts = math.tan(c / 3) * rng.uniform(0.6, 1.8, 32)
        matrices = sample_hermitian(rng, 3, 32) + shifts[:, None, None] * eye
        certified = 0
        for A in matrices:
            it = int(rng.integers(1, pb.nt - 1))
            ix = tuple(int(i) for i in rng.integers(0, 8, 4))
            v = perron_update(pb, U, it, ix, bars.lower, bars.upper)
            for shift, expect in ((-tol, True), (2 * tol, False)):
                W = U.copy()
                W[(it,) + ix] = v + shift
                assert (phi_lifted_usc(assemble_jet(pb, W, it, ix).matrix()).value >= c) == expect
            margin = strict_margin(spec, A)
            if margin is None:
                assert not member(spec, A)
                continue
            certified += 1
            assert member(spec, A - margin * eye)
            assert not member(spec, A - (margin + 2e-10) * eye)
        assert certified >= 8

    def test_pinned_values(self):
        # perron_update and strict_margin at 64 seeded points of a problem shaped
        # like the pointwise benchmark's, bit for bit as recorded in the golden
        # file (it, ix, v.hex(), margin.hex() or None per line)
        pb, U, bars = pointwise_n2_problem()
        rng = np.random.default_rng(2323)
        spec = SubeqSpec(space=SPACETIME, branch=pb.branch)
        shifts = math.tan(pb.branch.c / 3) * rng.uniform(0.6, 1.8, 64)
        matrices = sample_hermitian(rng, 3, 64) + shifts[:, None, None] * np.eye(3)
        lines = (GOLDEN / "pointwise_n2_pinned.txt").read_text().splitlines()
        assert len(lines) == 64
        for A, line in zip(matrices, lines):
            it = int(rng.integers(1, pb.nt - 1))
            ix = tuple(int(i) for i in rng.integers(0, 8, 4))
            fields = line.split()
            assert [int(f) for f in fields[:5]] == [it, *ix]
            assert perron_update(pb, U, it, ix, bars.lower, bars.upper) == float.fromhex(fields[5])
            expect = None if fields[6] == "None" else float.fromhex(fields[6])
            assert strict_margin(spec, A) == expect

    def test_three_angle_evaluations(self):
        # one below the lower barrier, two certifying the root above it
        for pb in (small_problem(), psi_problem(2, nt=5)):
            U, bars = random_grid(pb, 62)
            box = [0]
            with mock.patch.object(geodesic, "phi_lifted_usc", counted(phi_lifted_usc, box)):
                for it, ix in ((1, (0,) * len(pb.geom.grid)), (pb.nt - 2, (3,) * len(pb.geom.grid))):
                    box[0] = 0
                    perron_update(pb, U, it, ix, bars.lower, bars.upper)
                    assert box[0] == 3

    def test_unbounded_ray_raises(self):
        # with no root past the member and an angle that never falls below
        # c, the upward search stops at its cap: 1, 2, 4, ..., 2**26
        from dhymgeo import angles, subequations

        no_roots = mock.patch.object(angles, "_level_roots", lambda *a, **k: np.array([]))
        evals = [0]

        def flat(v):
            evals[0] += 1
            return 1.0

        with no_roots, pytest.raises(ValidationError, match="unbounded"):
            angles._ray_boundary(flat, np.eye(2), np.ones(2), 0.5, 0.0, 1.0, 1e-10)
        assert evals[0] == 27
        pb = small_problem()
        U, bars = random_grid(pb, 62)
        spec = SubeqSpec(space=SPACETIME, branch=pb.branch)
        high = mock.Mock(return_value=mock.Mock(value=pb.branch.c + 1.0))
        with no_roots, mock.patch.object(geodesic, "phi_lifted_usc", high):
            with pytest.raises(ValidationError, match="unbounded"):
                perron_update(pb, U, 2, (3,), bars.lower, bars.upper)
        with no_roots, mock.patch.object(subequations, "phi_lifted_usc", high):
            with pytest.raises(ValidationError, match="unbounded"):
                strict_margin(spec, np.eye(2))

    @pytest.mark.parametrize("bump", [0.0, 4e-13])
    def test_singular_point(self, bump):
        # linear in t and constant along x: b = 0, and udotdot = 0 at the
        # current value, so the ray meets S there; the bump makes |b| about
        # 1e-11, inside the singular band
        pb = small_problem()
        t = pb.t_grid.reshape(-1, 1)
        U = np.broadcast_to(0.1 * t, (pb.nt,) + pb.geom.grid).copy()
        for it in (1, 4, 7):
            W = U.copy()
            W[it + 1, 6] += bump
            v = perron_update(pb, W, it, (5,))
            assert abs(assemble_jet(pb, W, it, (5,)).b[0]) == pytest.approx(23.1 * bump, rel=0.01)
            with mock.patch.object(geodesic, "_ray_boundary", plain_bisection):
                ref = perron_update(pb, W, it, (5,))
            assert abs(v - ref) <= pb.bisect_tol
            assert v == pytest.approx(U[it, 5], abs=1e-9)

    def test_wrong_root_falls_back_to_bisection(self):
        from dhymgeo import angles

        true_roots = angles._level_roots
        pb = psi_problem(2, nt=5)
        U, bars = random_grid(pb, 63)
        it, ix = 2, (1, 7, 0, 4)
        v = perron_update(pb, U, it, ix, bars.lower, bars.upper)
        for skew in (1e-3, -1e-3, 1e-9):
            with mock.patch.object(
                angles, "_level_roots", lambda *a, **k: true_roots(*a, **k) + skew
            ):
                assert abs(perron_update(pb, U, it, ix, bars.lower, bars.upper) - v) <= pb.bisect_tol


def _roll_rho0(pb):
    """The part of rho that does not depend on u, per grid point."""
    geom = pb.geom
    sinc = math.sin(pb.branch.c)
    g = float(geodesic._center_coeffs(pb)[1][0])
    psi = geom.psi_alpha if geom.psi_alpha is not None else geom.zeros()
    lam0 = float(geom.alpha0[0, 0].real) + complex_hessian(geom, psi)[..., 0, 0].real
    return (math.cos(pb.branch.c) + sinc * lam0) / (g * sinc)


def _roll_quadratic(pb, U, rho0):
    """(2 m0, r, 2w, axes) of the re-centred quadratic at every interior
    point, written with np.roll in the kernel's operation order; ``axes``
    holds (lam_w, b_w, Delta) per spatial axis."""
    geom = pb.geom
    a, gs = geodesic._center_coeffs(pb)
    g = float(gs[0])
    up, mid, dn = U[2:], U[1:-1], U[:-2]
    m2 = up + dn
    dt = up - dn
    rho, k4, axes = rho0, 0.0, []  # k4 = -4 kappa
    for j in (geom.x_axis(0), geom.y_axis(0)):
        if j is None:
            continue
        h, ax = geom.spacings[j], 1 + j
        lam_w, b_w = 1.0 / (4.0 * h * h * g), -1.0 / ((4.0 * pb.ht * h) ** 2 * a * g)
        rho = rho + ((np.roll(mid, -1, ax) + np.roll(mid, 1, ax)) - m2) * lam_w
        mixed = np.roll(dt, -1, ax) - np.roll(dt, 1, ax)
        k4 = k4 + (mixed * mixed) * b_w
        axes.append((lam_w, b_w, mixed))
    r = np.sqrt(rho * rho - k4)
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = np.where(rho > 0.0, k4 / (rho + r), rho - r)
    return m2, r, w2, axes


def _roll_updates(pb, U):
    """Reference Perron values of every interior point."""
    m2, _, w2, _ = _roll_quadratic(pb, U, _roll_rho0(pb))
    return (m2 + w2) * 0.5


def _decimal_update(pb, U, it, ix):
    """Perron value at one point from the quadratic in v itself,
    q2 v^2 + q1 v + q0 = 0, in 40-digit decimal arithmetic from the float
    inputs: the textbook formula, whose cancellation 40 digits absorb."""
    D = decimal.Decimal
    geom = pb.geom
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ht = D(pb.ht)
        sinc, cosc = D(math.sin(pb.branch.c)), D(math.cos(pb.branch.c))
        psi = geom.psi_alpha if geom.psi_alpha is not None else geom.zeros()
        lam = D(float(geom.alpha0[0, 0].real) + complex_hessian(geom, psi)[ix][0, 0].real)
        up, mid, dn = U[it + 1], U[it], U[it - 1]
        g = b2 = D(0)
        for j in (geom.x_axis(0), geom.y_axis(0)):
            if j is None:
                continue
            h = D(geom.spacings[j])
            g += D("0.5") / (h * h)
            plus, minus = list(ix), list(ix)
            plus[j] = (ix[j] + 1) % geom.grid[j]
            minus[j] = (ix[j] - 1) % geom.grid[j]
            plus, minus = tuple(plus), tuple(minus)
            lam += D("0.25") * (D(mid[plus]) + D(mid[minus])) / (h * h)
            udot_plus = (D(up[plus]) - D(dn[plus])) / (2 * ht)
            udot_minus = (D(up[minus]) - D(dn[minus])) / (2 * ht)
            b2 += ((udot_plus - udot_minus) / (2 * h)) ** 2
        b2 *= D("0.25")
        a = 2 / (ht * ht)
        p_udd = (D(up[ix]) + D(dn[ix])) / (ht * ht)
        P0 = cosc + lam * sinc
        q2 = a * g * sinc
        q1 = -(a * P0 + g * sinc * p_udd)
        q0 = p_udd * P0 - b2 * sinc
        return float((-q1 - (q1 * q1 - 4 * q2 * q0).sqrt()) / (2 * q2))


def y_invariant_problem(nx=16, ny=8, nt=9, **kw):
    """``small_problem``'s data on a full nx x ny grid, constant along y."""
    geom = TorusGeometry(n=1, grid=(nx, ny), alpha0=[[3.0]])
    x = geom.coordinates()["x1"]
    kw.setdefault("sweep_tol", 1e-13)
    kw.setdefault("check_two_init", False)
    return GeodesicProblem(
        geom=geom,
        phi1=0.2 * np.cos(2 * math.pi * x),
        phi2=0.15 * np.sin(2 * math.pi * x) + 0.1,
        branch=Branch(c=math.atan(3.0), n=1),
        nt=nt,
        **kw,
    )


def full_problem(n=8, nt=7, **kw):
    geom = TorusGeometry(n=1, grid=(n, n), alpha0=[[3.0]])
    co = geom.coordinates()
    phi1 = 0.15 * np.cos(2 * math.pi * co["x1"]) + 0.05 * np.sin(2 * math.pi * co["y1"])
    phi2 = 0.1 * np.sin(2 * math.pi * co["x1"]) + 0.05
    kw.setdefault("check_two_init", False)
    return GeodesicProblem(
        geom=geom, phi1=phi1, phi2=phi2, branch=Branch(c=math.atan(3.0), n=1), nt=nt, **kw
    )


class TestSweepKernel:
    @pytest.mark.parametrize("make", [small_problem, full_problem], ids=["reduced", "full"])
    def test_bitwise_matches_roll_reference(self, make):
        from dhymgeo.geodesic import _SweepN1

        pb = make()
        bars = build_barriers(pb)
        rng = np.random.default_rng(55)
        U = bars.lower + rng.random((pb.nt,) + pb.geom.grid) * (bars.upper - bars.lower)
        new = _SweepN1(pb).updates(U[2:], U[1:-1], U[:-2])
        assert np.array_equal(new, _roll_updates(pb, U))

    @pytest.mark.parametrize(
        "make",
        [lambda: small_problem(nx=32, nt=17), lambda: full_problem(n=32, nt=25)],
        ids=["reduced", "full"],
    )
    def test_matches_decimal_quadratic_on_rough_state(self, make):
        # on these grids the textbook discriminant q1^2 - 4 q2 q0 is a
        # difference of two terms near 1e9; the re-centred one is a sum of
        # squares
        from dhymgeo.geodesic import _SweepN1

        pb = make()
        bars = build_barriers(pb)
        rng = np.random.default_rng(8)
        U = 0.5 * (bars.lower + bars.upper)
        U[1:-1] += 1e-3 * rng.standard_normal(U[1:-1].shape)
        new = _SweepN1(pb).updates(U[2:], U[1:-1], U[:-2])
        err = 0.0
        for _ in range(300):
            it = int(rng.integers(1, pb.nt - 1))
            ix = tuple(int(rng.integers(0, g)) for g in pb.geom.grid)
            err = max(err, abs(new[(it - 1,) + ix] - _decimal_update(pb, U, it, ix)))
        assert err <= 1e-15

    @pytest.mark.parametrize(
        "shape, axis",
        [((7, 16), 1), ((5, 8, 12), 1), ((5, 8, 12), 2), ((4, 3, 5), 1), ((4, 5, 3), 2)],
        ids=["reduced", "full-x", "full-y", "length3-x", "length3-y"],
    )
    @pytest.mark.parametrize("op", [np.add, np.subtract], ids=["add", "subtract"])
    def test_neighbour_pairs_match_the_slice_loop(self, shape, axis, op):
        a = np.random.default_rng(21).standard_normal(shape)
        expected = np.empty(shape)
        for out, plus, minus in geodesic._pair_slices(axis):
            op(a[plus], a[minus], out=expected[out])
        out = np.full(shape, np.nan)
        geodesic._neighbour_pairs(op, a, out, axis, geodesic._pair_slices(axis)[1:])
        assert np.array_equal(out, expected)

    def test_sweeps_allocate_no_grid_arrays(self):
        # the kernel, its linearization and the Jacobian product run in
        # preallocated arrays: a whole-grid temporary would be faulted in again
        # on every call
        import tracemalloc

        from dhymgeo.geodesic import _SweepN1

        pb = full_problem(n=64, nt=17)
        U = build_barriers(pb).lower.copy()
        machine = _SweepN1(pb)
        v = np.random.default_rng(4).standard_normal(U[1:-1].shape)
        out = np.empty_like(v)
        machine.linearize(U[2:], U[1:-1], U[:-2])
        machine.jacobian_product(0.1, v, out)
        tracemalloc.start()
        try:
            for _ in range(10):
                plain_sweep(machine, U)
                machine.linearize(U[2:], U[1:-1], U[:-2])
                machine.jacobian_product(0.1, v, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < U[1:-1].nbytes


def plain_sweep(machine, U):
    """One Jacobi sweep u <- T(u) of U's interior, in place and allocating no
    grid array; returns the largest move."""
    mid = U[1:-1]
    new = machine.updates(U[2:], mid, U[:-2])
    np.subtract(mid, new, out=mid)
    move = float(np.max(np.abs(mid, out=mid)))
    np.copyto(mid, new)
    return move


def plain_fixed_point(pb, U0, tol=1e-14, max_sweeps=100000):
    """The reference fixed point: plain sweeps from U0 until one moves the
    grid by at most ``tol``; returns (grid, sweeps)."""
    U = U0.copy()
    machine = geodesic._SweepN1(pb)
    for sweeps in range(1, max_sweeps + 1):
        if plain_sweep(machine, U) <= tol:
            return U, sweeps
    raise AssertionError(f"plain sweeps did not settle in {max_sweeps} sweeps")


class TestSolve:
    def test_constant_boundary(self):
        geom = reduced_geom()
        phi = 0.1 * np.cos(2 * math.pi * geom.coordinates()["x1"])
        pb = GeodesicProblem(
            geom=geom,
            phi1=phi,
            phi2=phi,
            branch=Branch(c=math.atan(3.0), n=1),
            nt=9,
            sweep_tol=1e-13,
            check_two_init=False,
        )
        U, rep = solve(pb)
        assert np.max(np.abs(U - phi)) < 1e-10
        assert rep.converged and rep.sandwich_ok

    def test_constant_shift_exact(self):
        geom = reduced_geom()
        phi = 0.2 * np.cos(2 * math.pi * geom.coordinates()["x1"])
        pb = GeodesicProblem(
            geom=geom,
            phi1=phi,
            phi2=phi + 0.3,
            branch=Branch(c=math.atan(3.0), n=1),
            nt=17,
            sweep_tol=1e-13,
            check_two_init=True,
        )
        U, rep = solve(pb)
        exact = phi + 0.3 * pb.t_grid.reshape(-1, 1) / T_TOTAL
        assert np.max(np.abs(U - exact)) < 1e-9
        assert rep.two_init_discrepancy < 1e-9
        assert rep.n_regular == 0  # every interior jet has udotdot = b = 0
        assert rep.singular_usc_gap_min > 0

    def test_generic_report(self):
        pb = small_problem(nt=17, check_two_init=True)
        U, rep = solve(pb)
        assert rep.converged
        assert rep.residual_regular_max < 1e-5
        assert rep.sandwich_ok and rep.slice_ok
        assert rep.two_init_discrepancy < 1e-8
        assert rep.all_finite()

    def test_two_init_agreement_tracks_sweep_tol(self):
        pb = small_problem(nt=17, sweep_tol=1e-8, check_two_init=True)
        _, rep = solve(pb)
        assert rep.two_init_discrepancy <= 10.0 * pb.sweep_tol

    def test_iterates_respect_sandwich_except_at_envelope_kink(self):
        # the lower envelope max(u1, u2) is not a discrete subsolution along
        # its kink (the t-derivative jump creates an O(1/h) spike in b), so
        # the first sweeps may dip below it there; the converged solution
        # sits back inside the sandwich
        from dhymgeo.geodesic import _SweepN1

        pb = small_problem(nx=32, nt=33)
        bars = build_barriers(pb)
        U = bars.lower.copy()
        U[0], U[-1] = pb.phi1, pb.phi2
        machine = _SweepN1(pb)
        dips = []
        for _ in range(200):
            plain_sweep(machine, U)
            dips.append(float(np.min(U - bars.lower)))
        assert min(dips) < -1e-4  # the kink dip is real
        Ufinal, rep = solve(pb)
        assert rep.sandwich_low_worst >= -1e-9

    def test_reaches_the_rounding_floor_below_the_old_kernel_noise(self):
        # a kernel that cancels in its discriminant leaves updates at about
        # 5e-14 here, so sup|T(U) - U| could not fall to the rounding floor
        # (about 2e-15); with a quadratic Newton tail the solve gets there
        # before an unshifted step moves the grid by less than 1e-12
        U, rep = solve(full_problem(n=32, nt=17, sweep_tol=1e-12, max_iters=50))
        assert rep.stop_reason == "plateau"

    @pytest.mark.parametrize(
        "kw, reason",
        [
            # the unshifted step from sup|F| = 2.4e-10 moves the grid 1.5e-9,
            # more than sweep_tol, and takes sup|F| to the rounding floor
            (dict(n=16, nt=9, sweep_tol=1e-10), "plateau"),
            # no step moves the grid by less than 1e-300
            (dict(sweep_tol=1e-300), "plateau"),
            (dict(sweep_tol=1e-8, max_iters=3), "max_iters"),
            # the unshifted step from sup|F| = 2.0e-14 moves the grid 6.8e-13
            (dict(n=16, nt=17, sweep_tol=1e-10), "projected"),
        ],
    )
    def test_stop_reason(self, kw, reason):
        U, rep = solve(full_problem(**kw))
        assert len(rep.details["newton_steps"]) == rep.iterations
        assert rep.krylov_iterations > 0
        assert rep.stop_reason == reason
        assert rep.converged == (reason != "max_iters")
        if reason == "max_iters":
            assert rep.iterations == kw["max_iters"]

    def test_constructor_guards(self):
        geom = reduced_geom()
        zero = geom.zeros()
        branch = Branch(c=math.atan(3.0), n=1)
        with pytest.raises(PreconditionError):
            GeodesicProblem(geom=geom, phi1=zero, phi2=zero, branch=branch, nt=3)
        with pytest.raises(PreconditionError):
            GeodesicProblem(
                geom=geom, phi1=zero, phi2=zero, branch=branch, nt=9, mode="sor"
            )
        with pytest.raises(PreconditionError):
            GeodesicProblem(
                geom=geom, phi1=np.zeros(8), phi2=zero, branch=branch, nt=9
            )
        with pytest.raises(PreconditionError):
            GeodesicProblem(
                geom=geom, phi1=zero, phi2=zero, branch=Branch(c=math.atan(3.0), n=2), nt=9
            )

    def test_jacobi_is_the_only_mode(self):
        geom = reduced_geom()
        zero = geom.zeros()
        branch = Branch(c=math.atan(3.0), n=1)
        assert GeodesicProblem(geom=geom, phi1=zero, phi2=zero, branch=branch).mode == "jacobi"
        for mode in ("gauss-seidel", "sor"):
            with pytest.raises(PreconditionError, match=f"mode '{mode}' is not supported"):
                GeodesicProblem(geom=geom, phi1=zero, phi2=zero, branch=branch, mode=mode)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(bisect_tol=0.0),
            dict(bisect_tol=-1e-10),
            dict(bisect_tol=math.nan),
            dict(bisect_tol=math.inf),
            dict(sweep_tol=0.0),
            dict(sweep_tol=math.nan),
            dict(sweep_tol=math.inf),
            dict(max_iters=-1),
            dict(max_iters=1.5),
            dict(max_iters=math.inf),
            dict(max_iters=True),
            dict(nt=9.5),
            dict(nt=9.0),
            dict(nt="9"),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_refuses_unusable_bounds(self, kw):
        # a bisection cannot narrow two adjacent floats below a zero
        # bisect_tol, the Newton step count never reaches a negative or
        # non-integral max_iters, a bool is not a step count, and np.linspace
        # takes no float or string nt: the problem is refused before any of
        # it runs
        pb = small_problem(nx=8, nt=5)
        U = build_barriers(pb).lower
        with mock.patch.object(geodesic, "_ray_boundary", side_effect=AssertionError) as ray:
            with pytest.raises(PreconditionError, match=next(iter(kw))):
                perron_update(replace(pb, **kw), U, 2, (3,))
        assert ray.call_count == 0

    @pytest.mark.parametrize("make", [small_problem, full_problem], ids=["reduced", "full"])
    def test_validates_from_one_jet_stack(self, make):
        # one interior_jets call serves the residual gate and the slice
        # ranges, and its spatial blocks are the solution's only spatial
        # Hessian build; the angle_field path (angle_field -> lambda_endo)
        # is never reached
        pb = make(check_two_init=True)
        with mock.patch.object(geodesic, "interior_jets", wraps=geodesic.interior_jets) as jets, \
                mock.patch.object(geodesic, "_hessian", wraps=geodesic._hessian) as hessian, \
                mock.patch("dhymgeo.geometry.angle_field", side_effect=AssertionError), \
                mock.patch("dhymgeo.geometry.lambda_endo", side_effect=AssertionError):
            U, rep = solve(pb)
        assert jets.call_count == hessian.call_count == 1
        assert not hasattr(geodesic, "angle_field")
        assert (rep.slice_ranges, rep.slice_ok) == validate_slices(pb, U)

    def test_full_grid_matches_reduced_on_y_invariant_data(self):
        # GMRES on the full grid, block Thomas on the reduced one
        Uf, rep_f = solve(y_invariant_problem())
        Ur, rep_r = solve(small_problem(nx=16, nt=9))
        assert rep_f.krylov_iterations > 0 and rep_r.krylov_iterations == 0
        assert np.max(np.abs(Uf - Ur[:, :, None])) <= 1e-12

    def test_inadmissible_boundary_rejected(self):
        geom = reduced_geom()
        x = geom.coordinates()["x1"]
        with pytest.raises(PreconditionError):
            GeodesicProblem(
                geom=geom,
                phi1=3.0 * np.cos(2 * math.pi * x),
                phi2=geom.zeros(),
                branch=Branch(c=math.atan(3.0), n=1),
                nt=9,
            )

    def test_out_of_regime_rejected(self):
        geom = reduced_geom(a0=-3.0)
        with pytest.raises(PreconditionError):
            GeodesicProblem(
                geom=geom,
                phi1=geom.zeros(),
                phi2=geom.zeros(),
                branch=Branch(c=-math.atan(3.0), n=1),
                nt=9,
            )

    def test_solve_requires_n1_grid(self):
        geom = TorusGeometry(n=2, grid=(8, 8, 8, 8), alpha0=np.eye(2) * 3.0)
        pb = GeodesicProblem(
            geom=geom,
            phi1=geom.zeros(),
            phi2=geom.zeros(),
            branch=Branch(c=2 * math.atan(3.0), n=2),
            nt=5,
            check_two_init=False,
        )
        with pytest.raises(PreconditionError):
            solve(pb)


def shift_problem(grid=(64,), nt=33):
    """Criterion 8's shift problem, 33 x 64 reduced by default: phi2 = phi1 + 0.2,
    exact solution linear in t."""
    geom = TorusGeometry(n=1, grid=grid, alpha0=[[3.0]], reduced=len(grid) == 1)
    phi = 0.3 * np.cos(2 * math.pi * geom.coordinates()["x1"])
    return GeodesicProblem(
        geom=geom,
        phi1=phi,
        phi2=phi + 0.2,
        branch=Branch(c=math.atan(3.0), n=1),
        nt=nt,
        sweep_tol=1e-13,
        max_iters=60000,
        check_two_init=False,
    )


class TestFullGridNewton:
    """Newton with GMRES steps on full grids against the fixed point of plain
    Perron sweeps."""

    @pytest.mark.parametrize(
        "make", [y_invariant_problem, full_problem], ids=["y-invariant", "full"]
    )
    def test_matches_plain_sweeps(self, make):
        pb = make(sweep_tol=1e-13)
        U, rep = solve(pb)
        assert rep.converged
        assert rep.krylov_iterations > 0
        assert rep.perron_check <= 1e-14
        Up, sweeps = plain_fixed_point(pb, lower_start(pb))
        assert np.max(np.abs(U - Up)) <= 1e-10
        assert rep.iterations < sweeps

    def test_perron_check_is_one_plain_sweep(self):
        from dhymgeo.geodesic import _SweepN1

        pb = full_problem(sweep_tol=1e-8, max_iters=2)
        U, rep = solve(pb)
        assert rep.iterations == 2
        machine = _SweepN1(pb)
        move = np.max(np.abs(machine.updates(U[2:], U[1:-1], U[:-2]) - U[1:-1]))
        assert rep.perron_check == move
        assert move > 1e-6  # two shifted steps from the linear start are still far off

    def test_shift_family_exact(self):
        pb = shift_problem(grid=(32, 8), nt=25)
        exact = pb.phi1 + 0.2 * pb.t_grid.reshape(-1, 1, 1) / T_TOTAL
        # from the lower envelope GMRES has the whole way to go ...
        U, rep = solve(pb, init="lower")
        assert rep.krylov_iterations > 0
        assert np.max(np.abs(U - exact)) < 1e-10
        # ... and the linear start is the exact solution already
        U, rep = solve(pb)
        assert rep.iterations == rep.krylov_iterations == 0
        assert np.max(np.abs(U - exact)) < 1e-10


def generic_problems(count):
    """The first ``count`` problems of the generic reduced set: admissible
    random-phase n = 1 problems on reduced grids, two-init, sweep_tol 1e-10."""
    rng = np.random.default_rng(12345)
    problems = []
    while len(problems) < count:
        nx, nt = int(rng.choice((16, 24, 32))), int(rng.choice((9, 13, 17)))
        a1, a2 = rng.uniform(0.05, 0.25, 2)
        b1, b2 = rng.uniform(0.0, 0.05, 2)
        off = rng.uniform(-0.15, 0.15)
        p = rng.uniform(0.0, 2 * math.pi, 4)
        geom = reduced_geom(nx)
        x = 2 * math.pi * geom.coordinates()["x1"]
        try:
            problems.append(
                GeodesicProblem(
                    geom=geom,
                    phi1=a1 * np.cos(x + p[0]) + b1 * np.cos(2 * x + p[1]),
                    phi2=a2 * np.cos(x + p[2]) + b2 * np.cos(2 * x + p[3]) + off,
                    branch=select_branch(geom, require_regime=True),
                    nt=nt,
                    sweep_tol=1e-10,
                )
            )
        except PreconditionError:
            pass
    return problems


def lower_start(pb):
    U0 = build_barriers(pb).lower.copy()
    U0[0], U0[-1] = pb.phi1, pb.phi2
    return U0


def dense_jacobian(wx, wd):
    """The interior Jacobian of the Perron map from the neighbour weights,
    stacked over the spatial axes as ``linearize`` returns them, entry by
    entry."""
    axes, m = wx.shape[:2]
    grid = wx.shape[2:]
    J = np.zeros((m,) + grid + (m,) + grid)

    def moved(x, h, d):
        y = list(x)
        y[h] = (y[h] + d) % grid[h]
        return tuple(y)

    for k, x in itertools.product(range(m), np.ndindex(grid)):
        row = (k,) + x
        for h, dx in itertools.product(range(axes), (1, -1)):
            J[row + (k,) + moved(x, h, dx)] += wx[(h,) + row]
        for dk in (1, -1):
            if 0 <= k + dk < m:
                J[row + (k + dk,) + x] += 0.5 - wx[(slice(None),) + row].sum()
                for h, dx in itertools.product(range(axes), (1, -1)):
                    J[row + (k + dk,) + moved(x, h, dx)] += dk * dx * wd[(h,) + row]
    return J.reshape(m * math.prod(grid), -1)


def newton_state(name):
    """A state for the weight checks: a seeded grid between the barriers of the
    reduced sample or of an 8 x 8 full grid, the shift family's exact
    solution, or the sample's solution."""
    if name.startswith("seed"):
        pb = small_problem()
        return pb, random_grid(pb, int(name[4:]))[0]
    if name == "full":
        pb = full_problem(n=8, nt=7)
        return pb, random_grid(pb, 3)[0]
    if name == "shift":
        pb = shift_problem(grid=(16,), nt=9)
        return pb, pb.phi1 + 0.2 * pb.t_grid.reshape(-1, 1) / T_TOTAL
    pb = small_problem(sweep_tol=1e-12)
    return pb, solve(pb)[0]


def linearized(pb, U):
    """(machine, F, wx, wd) at U, copied out of the machine's work arrays."""
    machine = geodesic._SweepN1(pb)
    F, wx, wd = (a.copy() for a in machine.linearize(U[2:], U[1:-1], U[:-2]))
    return machine, F, wx, wd


class TestNewton:
    @pytest.mark.parametrize("state", ["seed0", "seed1", "seed2", "shift", "sample", "full"])
    def test_weights_match_central_differences(self, state):
        pb, U = newton_state(state)
        machine, F, wx, wd = linearized(pb, U)
        assert np.array_equal(F, machine.updates(U[2:], U[1:-1], U[:-2]) - U[1:-1])
        J = dense_jacobian(wx, wd)
        fd = np.empty_like(J)
        h = 1e-6
        for col, index in enumerate(np.ndindex(F.shape)):
            Up, Um = U.copy(), U.copy()
            k = (index[0] + 1,) + index[1:]
            Up[k] += h
            Um[k] -= h
            vp = machine.updates(Up[2:], Up[1:-1], Up[:-2]).copy()
            vm = machine.updates(Um[2:], Um[1:-1], Um[:-2])
            fd[:, col] = ((vp - vm) / (2 * h)).reshape(-1)
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(J))

    @pytest.mark.parametrize(
        "state", ["seed0", "seed1", "shift", "sample", "full", "flat-reduced", "flat-full"]
    )
    def test_linearize_matches_roll_reference(self, state):
        # bitwise: the residual and the weights from the root, 2w and mixed
        # differences of the np.roll quadratic, and 0 where r = 0
        pb, U = newton_state({"flat-reduced": "seed0", "flat-full": "full"}.get(state, state))
        machine = geodesic._SweepN1(pb)
        rho0 = _roll_rho0(pb)
        if state.startswith("flat"):
            # with rho0 = 0, rho = kappa = 0 wherever the (t, x) neighbours
            # of a point hold one value
            U[:, :4] = 0.1
            machine.rho0 = rho0 = np.zeros_like(machine.rho0)
        m2, r, w2, axes = _roll_quadratic(pb, U, rho0)
        assert np.any(r == 0.0) == state.startswith("flat")
        with np.errstate(divide="ignore"):
            half_inv_r = np.where(r > 0.0, 0.5 / r, 0.0)
        F, wx, wd = machine.linearize(U[2:], U[1:-1], U[:-2])
        assert np.array_equal(F, (m2 + w2) * 0.5 - U[1:-1])
        assert np.array_equal(wx, np.stack([(w2 * -lam_w) * half_inv_r for lam_w, _, _ in axes]))
        assert np.array_equal(wd, np.stack([(mixed * b_w) * half_inv_r for _, b_w, mixed in axes]))

    @pytest.mark.parametrize("shift", [0.0, 0.01])
    def test_block_thomas_matches_dense_solve(self, shift):
        pb = small_problem(nt=13)
        U, _ = random_grid(pb, 7)
        _, F, wx, wd = linearized(pb, U)
        delta = geodesic._block_thomas(shift, wx[0], wd[0], F)
        M = (1.0 + shift) * np.eye(F.size) - dense_jacobian(wx, wd)
        assert np.max(np.abs(delta.reshape(-1) - np.linalg.solve(M, F.reshape(-1)))) <= 1e-12

    @pytest.mark.parametrize("shift", [0.0, 0.01])
    def test_gmres_matches_dense_solve(self, shift):
        pb = full_problem(n=8, nt=9)
        U, _ = random_grid(pb, 5)
        machine, F, wx, wd = linearized(pb, U)
        M = (1.0 + shift) * np.eye(F.size) - dense_jacobian(wx, wd)
        exact = np.linalg.solve(M, F.reshape(-1))
        krylov = geodesic._Krylov(machine)
        # the product and the preconditioner against their dense matrices
        v = np.random.default_rng(9).standard_normal(F.shape)
        out = np.empty_like(v)
        machine.jacobian_product(shift, v, out)
        assert np.max(np.abs(out.reshape(-1) - M @ v.reshape(-1))) <= 1e-12
        krylov.factor(shift)
        mean = wx.reshape(wx.shape[:2] + (-1,)).mean(axis=2)[:, :, None, None]
        P = (1.0 + shift) * np.eye(F.size) - dense_jacobian(
            np.broadcast_to(mean, wx.shape), np.zeros_like(wd)
        )
        precond = krylov.precondition(v, out).reshape(-1)
        assert np.max(np.abs(precond - np.linalg.solve(P, v.reshape(-1)))) <= 1e-12
        # at a forcing of 1e-2 GMRES meets that residual ...
        delta, iterations, reached = krylov.solve(shift, F, 1e-2)
        assert reached and 0 < iterations < geodesic._KRYLOV_MAX
        residual = F.reshape(-1) - M @ delta.reshape(-1)
        assert np.linalg.norm(residual) <= 1e-2 * np.linalg.norm(F)
        # ... and at a tight one, across restarts, it is the dense solution
        delta, iterations, reached = krylov.solve(shift, F, 1e-13)
        assert reached and geodesic._KRYLOV_RESTART < iterations < geodesic._KRYLOV_MAX
        assert np.max(np.abs(delta.reshape(-1) - exact)) <= 1e-10 * np.max(np.abs(exact))

    @pytest.mark.parametrize(
        "make",
        [small_problem] + [lambda k=k: generic_problems(3)[k] for k in range(3)] + [shift_problem],
        ids=["sample", "generic0", "generic1", "generic2", "shift"],
    )
    def test_matches_plain_sweep_fixed_point(self, make):
        # the reference is the fixed point of plain sweeps
        pb = make()
        U0 = lower_start(pb)
        machine = geodesic._SweepN1(pb)
        newton = geodesic._newton_solve(pb, U0.copy(), build_barriers(pb), machine, None)
        assert newton.stop_reason in ("projected", "plateau")
        assert plain_sweep(machine, newton.U.copy()) <= 1e-14
        Up, _ = plain_fixed_point(pb, U0)
        assert np.max(np.abs(newton.U - Up)) <= 1e-10
        if make is shift_problem:
            exact = pb.phi1 + 0.2 * pb.t_grid.reshape(-1, 1) / T_TOTAL
            assert np.max(np.abs(newton.U - exact)) <= 1e-12

    @pytest.mark.parametrize(
        "kw, reason",
        [
            # the unshifted step from sup|F| = 2.1e-15 moves the grid 6.0e-15
            (dict(nx=8, sweep_tol=1e-8), "projected"),
            # no step moves the grid by less than 1e-300
            (dict(sweep_tol=1e-300), "plateau"),
            (dict(sweep_tol=1e-8, max_iters=1), "max_iters"),
        ],
    )
    def test_stop_reason(self, kw, reason):
        U, rep = solve(small_problem(**kw))
        assert len(rep.details["newton_steps"]) == rep.iterations
        assert rep.krylov_iterations == 0
        assert rep.stop_reason == reason
        assert rep.converged == (reason != "max_iters")
        if reason == "max_iters":
            assert rep.iterations == 1
            assert rep.perron_check > 1e-6
        else:
            assert rep.perron_check <= 1e-14

    def test_singular_block_raises(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(ValidationError, match="singular Newton block at t row 1"):
            solve(small_problem())

    def test_non_finite_step_raises(self, monkeypatch):
        monkeypatch.setattr(geodesic, "_block_thomas", lambda s, wx, wd, F: np.full_like(F, np.inf))
        with pytest.raises(ValidationError, match="Newton step 1 is not finite"):
            solve(small_problem())

    def test_full_grid_failures_raise(self, monkeypatch):
        pb = full_problem()
        U, _ = random_grid(pb, 1)
        machine, F, _, _ = linearized(pb, U)
        krylov = geodesic._Krylov(machine)
        machine.wx[...] = 0.0  # so the pivot of the first t row is 1 + shift
        with pytest.raises(ValidationError, match="zero or non-finite pivot"):
            krylov.factor(-1.0)
        machine.wx[...] = np.nan
        with pytest.raises(ValidationError, match="zero or non-finite pivot"):
            krylov.factor(0.0)
        monkeypatch.setattr(
            geodesic._Krylov,
            "solve",
            lambda self, s, F, forcing: (np.full_like(F, np.inf), 1, True),
        )
        with pytest.raises(ValidationError, match="Newton step 1 is not finite"):
            solve(pb)

    def test_forcing_choice_2(self):
        assert geodesic._forcing(1.0, None, None, 0.0) == geodesic._FORCING_MAX
        # 0.9 eta_prev^2 = 0.081 is below the safeguard level
        assert geodesic._forcing(1e-3, 1e-1, 0.3, 0.0) == pytest.approx(0.9e-4, rel=1e-15)

    def test_forcing_safeguard(self):
        # 0.9 eta_prev^2 = 0.144 > 0.1 keeps the forcing from dropping to 9e-5
        assert geodesic._forcing(1e-3, 1e-1, 0.4, 0.0) == pytest.approx(0.144, rel=1e-15)

    def test_forcing_cap(self):
        assert geodesic._forcing(2.0, 1.0, 0.5, 0.0) == geodesic._FORCING_MAX
        assert geodesic._forcing(2.0, 1.0, 0.5, 0.4) == geodesic._FORCING_MAX

    def test_forcing_rounding_floor(self):
        assert geodesic._forcing(1e-12, 1e-6, 1e-3, 1e-4) == 1e-4
        assert geodesic._forcing(1e-12, 1e-6, 1e-3, 1e-20) == pytest.approx(0.9e-12, rel=1e-15)

    def test_last_gmres_solve_stops_at_the_rounding_floor(self, monkeypatch):
        # choice 2 alone asks the last step for a relative residual near
        # (|F_k| / |F_k-1|)^2, far below what the plateau test can see
        norms = []
        krylov_solve = geodesic._Krylov.solve

        def recording(self, shift, F, forcing):
            norms.append(float(np.linalg.norm(F)))
            return krylov_solve(self, shift, F, forcing)

        monkeypatch.setattr(geodesic._Krylov, "solve", recording)
        U, rep = solve(full_problem(n=32, nt=17, sweep_tol=1e-12))
        assert rep.stop_reason == "plateau"
        last = rep.details["newton_steps"][-1]
        floor = geodesic._NEWTON_FLOOR * max(1.0, float(np.max(np.abs(U))))
        assert last["forcing"] == pytest.approx(0.5 * floor / last["sup_residual"], rel=1e-9)
        assert geodesic._FORCING_GAMMA * (norms[-1] / norms[-2]) ** 2 < 1e-3 * last["forcing"]
        assert not last["krylov_capped"]

    def test_newton_trace_on_the_report(self, monkeypatch):
        pb = full_problem(n=16, nt=9)
        U, rep = solve(pb)
        steps = rep.details["newton_steps"]
        assert len(steps) == rep.iterations
        assert sum(s["krylov_iterations"] for s in steps) == rep.krylov_iterations
        start = geodesic._start(pb, build_barriers(pb), "linear")
        assert steps[0]["shift"] == (steps[0]["sup_residual"] / max(1.0, np.max(np.abs(start)))) ** 2
        assert steps[0]["forcing"] == geodesic._FORCING_MAX
        assert not any(s["krylov_capped"] for s in steps)
        # a GMRES solve stopped at its iteration limit is recorded
        monkeypatch.setattr(geodesic, "_KRYLOV_MAX", 2)
        _, rep = solve(full_problem(n=16, nt=9, max_iters=10))
        steps = rep.details["newton_steps"]
        assert any(s["krylov_capped"] for s in steps)
        assert all(s["krylov_iterations"] == 2 for s in steps if s["krylov_capped"])
        # reduced grids record sup|F|, the shift and the entries clipped
        _, rep = solve(small_problem(check_two_init=True))
        steps = rep.details["newton_steps"]
        assert len(steps) == rep.iterations
        assert all(set(s) == {"sup_residual", "shift", "clipped"} for s in steps)
        # and two-init's second start keeps its own trace
        second = rep.details["two_init_newton_steps"]
        assert second and all(set(s) == {"sup_residual", "shift", "clipped"} for s in second)
        assert "two_init_newton_steps" not in solve(small_problem())[1].details

    def test_second_start_is_the_upper_envelope(self, monkeypatch):
        # two-init's second run starts from the upper envelope after the
        # default start and after a grid; from "lower" the first step mostly
        # lands there, so the second run is the clipped linear interpolation
        starts = []
        newton_solve = geodesic._newton_solve

        def recording(problem, U0, *rest):
            starts.append(U0.copy())
            return newton_solve(problem, U0, *rest)

        monkeypatch.setattr(geodesic, "_newton_solve", recording)
        pb = small_problem(check_two_init=True)
        bars = build_barriers(pb)
        linear = np.clip(linear_interpolation(pb), bars.lower, bars.upper)
        linear[0], linear[-1] = pb.phi1, pb.phi2
        lower = lower_start(pb)
        for init, first, second in (
            ("linear", linear, bars.upper),
            (lower, lower, bars.upper),
            ("lower", lower, linear),
        ):
            starts.clear()
            solve(pb, init=init)
            assert len(starts) == 2
            assert np.array_equal(starts[0], first) and np.array_equal(starts[1], second)

    @pytest.mark.parametrize("make", [small_problem, full_problem], ids=["reduced", "full"])
    def test_one_workspace_per_two_init_solve(self, monkeypatch, make):
        # both starts run on one kernel (one background Hessian; the other
        # is the validation stack's) and one GMRES solver, and one plain
        # sweep checks the reported grid
        pb = make(check_two_init=True)
        boxes = {name: [0] for name in ("kernel", "krylov", "hessian", "updates", "linearize")}
        for cls, method, name in (
            (geodesic._SweepN1, "__init__", "kernel"),
            (geodesic._SweepN1, "updates", "updates"),
            (geodesic._SweepN1, "linearize", "linearize"),
            (geodesic._Krylov, "__init__", "krylov"),
        ):
            monkeypatch.setattr(cls, method, counted(getattr(cls, method), boxes[name]))
        for module in (geometry, geodesic):
            monkeypatch.setattr(module, "_hessian", counted(module._hessian, boxes["hessian"]))
        _, rep = solve(pb)
        assert rep.details["two_init_newton_steps"]
        assert boxes["kernel"] == [1]
        assert boxes["krylov"] == [0 if make is small_problem else 1]
        assert boxes["hessian"] == [2]
        assert boxes["updates"][0] - boxes["linearize"][0] == 1

    @pytest.mark.parametrize("init", ["linear", "lower"])
    @pytest.mark.parametrize("make", [small_problem, full_problem], ids=["reduced", "full"])
    def test_shift_is_the_scaled_residual(self, monkeypatch, make, init):
        # s = (sup|F| / max(1, sup|U|))^2 at each step's grid, 0 below _SHIFT_OFF
        scales = []
        linearize = geodesic._SweepN1.linearize

        def recording(self, up, mid, dn):
            scales.append(max(1.0, float(np.max(np.abs(up))), float(np.max(np.abs(dn)))))
            return linearize(self, up, mid, dn)

        monkeypatch.setattr(geodesic._SweepN1, "linearize", recording)
        _, rep = solve(make(sweep_tol=1e-12), init=init)
        steps = rep.details["newton_steps"]
        assert len(steps) == rep.iterations and len(scales) >= rep.iterations
        for step, scale in zip(steps, scales):
            expected = (step["sup_residual"] / scale) ** 2
            assert step["shift"] == (expected if expected >= geodesic._SHIFT_OFF else 0.0)
        assert steps[0]["shift"] > 0.0 and steps[-1]["shift"] == 0.0

    @pytest.mark.parametrize(
        "make",
        [lambda: small_problem(nt=17), lambda: full_problem(n=16, nt=9)],
        ids=["reduced", "full"],
    )
    def test_iterates_are_projected_onto_the_sandwich(self, monkeypatch, make):
        # the first step from the lower envelope overshoots it and is
        # clipped; every grid Newton linearizes at lies between the barriers
        pb = make()
        bars = build_barriers(pb)
        grids = []
        linearize = geodesic._SweepN1.linearize

        def recording(self, up, mid, dn):
            grids.append(mid.copy())
            return linearize(self, up, mid, dn)

        monkeypatch.setattr(geodesic._SweepN1, "linearize", recording)
        U, rep = solve(pb, init="lower")
        steps = rep.details["newton_steps"]
        assert steps[0]["clipped"] > 0 and steps[-1]["clipped"] == 0
        assert len(grids) == rep.iterations + 1
        for mid in grids:
            assert np.all(bars.lower[1:-1] <= mid) and np.all(mid <= bars.upper[1:-1])
        assert rep.perron_check <= 1e-14

    def test_linear_start_takes_no_more_steps(self):
        pb = full_problem(n=16, nt=9, sweep_tol=1e-12)
        U, rep = solve(pb)
        Ul, rep_l = solve(pb, init="lower")
        assert rep.iterations <= rep_l.iterations
        assert np.max(np.abs(U - Ul)) <= 1e-12
        assert max(rep.perron_check, rep_l.perron_check) <= 1e-14

    def test_second_start_on_the_generic_reduced_set(self):
        # set A: the upper start takes 210 Newton steps in all (the lower
        # start 253, and 348 with the unsquared shift and no projection),
        # reaches the linear start's grid, and no run's last step is clipped
        steps = 0
        for pb in generic_problems(40):
            U, rep = solve(pb)
            second = rep.details["two_init_newton_steps"]
            steps += len(second)
            assert rep.converged and rep.perron_check <= 1e-14
            assert rep.two_init_discrepancy <= 1e-13
            assert rep.details["newton_steps"][-1]["clipped"] == 0
            assert second[-1]["clipped"] == 0
        assert steps <= 215

    def test_sandwich_readings_are_interior_margins(self):
        # the boundary rows sit on both barriers, so the readings are minima
        # over the interior rows; set A's smallest are 0.0855 (low) and
        # 0.0856 (high)
        low = high = math.inf
        for pb in generic_problems(40):
            U, rep = solve(pb)
            bars = build_barriers(pb)
            assert rep.sandwich_low_worst == np.min(U[1:-1] - bars.lower[1:-1])
            assert rep.sandwich_high_worst == np.min(bars.upper[1:-1] - U[1:-1])
            low, high = min(low, rep.sandwich_low_worst), min(high, rep.sandwich_high_worst)
        assert min(low, high) >= 0.08

    def test_upper_start_repeats_a_lower_start_that_lands_there(self):
        # set A: where the lower start's first step is projected onto the
        # whole upper envelope (30 of 40 problems), the rest of that run is
        # the upper start's, bit for bit
        landed = 0
        for pb in generic_problems(40):
            bars = build_barriers(pb)
            U0 = lower_start(pb)
            machine = geodesic._SweepN1(pb)
            one_step = replace(pb, max_iters=1)
            first = geodesic._newton_solve(one_step, U0.copy(), bars, machine, None).U
            if np.array_equal(first, bars.upper):
                landed += 1
                lower = geodesic._newton_solve(pb, U0, bars, machine, None)
                upper = geodesic._newton_solve(pb, bars.upper.copy(), bars, machine, None)
                assert np.array_equal(upper.U, lower.U)
                assert len(upper.steps) == len(lower.steps) - 1
        assert landed >= 1

    def test_upper_start_takes_no_more_steps_than_the_lower(self):
        pb = full_problem(n=16, nt=9, sweep_tol=1e-12)
        Uu, rep_u = solve(pb, init=build_barriers(pb).upper)
        Ul, rep_l = solve(pb, init="lower")
        assert rep_u.iterations <= rep_l.iterations
        assert rep_u.krylov_iterations <= rep_l.krylov_iterations
        assert np.max(np.abs(Uu - Ul)) <= 1e-12

    def test_generic_reduced_set_meets_the_residual_gate(self):
        for pb in generic_problems(12):
            U, rep = solve(pb)
            assert rep.converged and rep.iterations > 0
            assert rep.residual_regular_max <= 1e-5
            assert rep.perron_check <= 1e-14
            assert rep.two_init_discrepancy <= 10.0 * pb.sweep_tol


class TestSetAPins:
    """Set A against its pins (``pin_geodesic``): both starts' Newton step
    counts exactly, the interior rows within 1e-13."""

    def test_matches_pins(self):
        pins = read_pins(SET_A_PINS)
        problems = generic_problems(40)
        assert sorted(pins) == sorted(f"set_a/{k}" for k in range(len(problems)))
        for k, pb in enumerate(problems):
            lines, grid = pins[f"set_a/{k}"]
            counts, interior = set_a_lines(pb)
            assert counts == lines, k
            assert interior.shape == grid.shape
            assert np.max(np.abs(interior - grid)) <= 1e-13, k


# Maps of the boundary data that the solution must follow: a periodic shift
# by 3 points, the reflection x -> -x, and a constant added to both potentials.
RELATIONS = {
    "roll": lambda a: np.roll(a, 3, axis=-1),
    "reflect": lambda a: np.roll(a[..., ::-1], 1, axis=-1),
    "offset": lambda a: a + 0.05,
}


class TestMetamorphic:
    """The solution moves as the data do, to rounding (about 1e-15 measured).
    These relations see seam, orientation and indexing defects that no
    run-time check reads.  Step counts may differ: the roll and the
    reflection change one on one of the 20 problems."""

    @pytest.mark.parametrize("relation", list(RELATIONS))
    def test_reduced(self, relation):
        move = RELATIONS[relation]
        for k, pb in enumerate(generic_problems(20)):
            U, _ = solve(pb)
            V, _ = solve(replace(pb, phi1=move(pb.phi1), phi2=move(pb.phi2)))
            assert np.max(np.abs(V - move(U))) <= 1e-13, k

    def test_full_transpose(self):
        pb = full_problem(n=16, nt=9, check_two_init=True)
        U, _ = solve(pb)
        V, _ = solve(replace(pb, phi1=pb.phi1.T, phi2=pb.phi2.T))
        assert np.max(np.abs(V - U.swapaxes(1, 2))) <= 1e-13


class TestValidateSlices:
    def test_constant_shift_ranges(self):
        geom = reduced_geom()
        phi = 0.1 * np.cos(2 * math.pi * geom.coordinates()["x1"])
        pb = GeodesicProblem(
            geom=geom,
            phi1=phi,
            phi2=phi + 0.2,
            branch=Branch(c=math.atan(3.0), n=1),
            nt=9,
            sweep_tol=1e-13,
            check_two_init=False,
        )
        U, _ = solve(pb)
        ranges, ok = validate_slices(pb, U)
        assert ok
        fld = angle_field(geom, phi)
        for lo, hi in ranges:
            assert lo == pytest.approx(fld.vmin, abs=1e-8)
            assert hi == pytest.approx(fld.vmax, abs=1e-8)

    def test_failure_injection_detected(self):
        pb = small_problem(nt=9)
        U, _ = solve(pb)
        U[4] += 50.0 * np.cos(2 * math.pi * pb.geom.coordinates()["x1"])
        _, ok = validate_slices(pb, U)
        assert not ok

    def test_nan_slice_fails(self):
        pb = small_problem()
        U = build_barriers(pb).lower.copy()
        assert validate_slices(pb, U)[1]
        U[3, 5] = np.nan
        ranges, ok = validate_slices(pb, U)
        assert np.isnan(ranges[2][0]) and not ok

    @pytest.mark.parametrize("grid", ["reduced-n1", "full-n1", "n2"])
    def test_equals_per_slice_loop(self, grid):
        pb = small_problem() if grid == "reduced-n1" else psi_problem(1 if grid == "full-n1" else 2)
        rng = np.random.default_rng(62)
        c = pb.branch.c
        for amp in (1e-3, 0.03, 0.3):
            U = amp * rng.standard_normal((pb.nt,) + pb.geom.grid)
            # the reference: one angle_field call per interior t slice
            ranges, ok = [], True
            for it in range(1, pb.nt - 1):
                fld = angle_field(pb.geom, U[it])
                ranges.append((fld.vmin, fld.vmax))
                if fld.vmin < c - math.pi / 2 - 1e-3 or fld.vmax > c + math.pi / 2 + 1e-3:
                    ok = False
            assert validate_slices(pb, U) == (ranges, ok)


class TestStrictify:
    def test_endpoint_identities(self):
        pb = small_problem(nt=9)
        bars = build_barriers(pb)
        U, _ = solve(pb)
        assert np.allclose(strictify(U, 0.0, "lower-1", bars), U)
        assert np.allclose(strictify(U, 1.0, "lower-2", bars), bars.u2)

    def test_interior_margins_positive(self):
        pb = small_problem(nt=9)
        bars = build_barriers(pb)
        U, _ = solve(pb)
        spec = SubeqSpec(space=SPACETIME, branch=pb.branch)
        for which in ("lower-1", "lower-2"):
            W = strictify(U, 0.1, which, bars)
            H, _ = interior_jets(pb, W)
            margins = []
            for k in range(0, H.shape[0], 17):
                m = strict_margin(spec, H[k])
                assert m is not None and m > 0
                margins.append(m)
            assert min(margins) > 1e-4
