"""Weak geodesics on the annulus-times-torus model.

The annulus 1 <= |s| <= 2 is parametrized radially by t = log|s| in
[0, log 2]; rotation invariance is built in by never discretizing the
angular coordinate.  At an interior grid point the space-time Hermitian
matrix of a potential grid u is

    H = [[udotdot, conj(b)^T],
         [b,       S        ]]

with udotdot the central second t-difference, b_j the holomorphic
z_j-derivative of the central t-derivative, and S the spatial
endomorphism of the t-slice (background twist included).  The harmonic
condition is phi~(H) = c for the lifted space-time angle phi~.

The Perron update replaces the value at a point by the largest v keeping
phi~(H(v)) >= c.  Raising v subtracts a positive diagonal from H, so the
admissible set is a ray (-inf, v*].  For n = 1 the boundary solves

    (udotdot(v)) (cos c + lambda(v) sin c) = |b|^2 sin c

which is quadratic in v; the smaller root is v*.  With a and g the
weights of the centre value in udotdot and lambda, the kernel solves it
for the offset w = v - m0 from the t-average m0 = (u(t+1) + u(t-1)) / 2,
where udotdot vanishes:

    w^2 - rho w - kappa = 0,    kappa = |b|^2 / (a g) >= 0,

with rho from the branch and the spatial second differences about m0.
Its discriminant rho^2 + 4 kappa is a sum of squares, so rounding cannot
make it negative and nothing is clamped, and the root is taken in the
form that does not cancel.  (The same quadratic in v has coefficients
near 1e4 on a 32-point grid; its discriminant cancels two terms near 1e9
and loses about 1e-14 in v, a floor on which the solve would stall.)
One vectorized kernel evaluates it on the whole interior at once: the
Perron map T, one Jacobi sweep.  The generic path (any n),
``perron_update``, finds an admissible value below the lower barrier and
takes v* from the polynomial Im(e^{-ic} det(I0 + iH(v))), of degree n + 1
in v: in the regime (n-1)pi/2 < c < n pi/2 no higher level c + k pi is
crossed first, so v* is its smallest root above that value.  Two
evaluations of the lifted angle at the root -+ bisect_tol/2 certify it;
bisection takes over only where they do not (on or near the singular set).

Every grid is solved by Newton's method on F(U) = T(U) - U, whose zero
is the fixed point of T (the Perron solution).  T is smooth off
rho = kappa = 0, and with r the square root of the discriminant its
derivative has neighbour weights per point and spatial axis h
(``_SweepN1.linearize``):

    wx_h = -(w/r) lam_w_h                at (t, x+-e_h),
    1/2 - sum_h wx_h                     at (t+-1, x),
    +-wd_h, wd_h = b_w_h Delta_h / (2r)  at the diagonal neighbours,

where Delta_h = D(x+e_h) - D(x-e_h) is the mixed difference of
D = u(t+1) - u(t-1), and wx = wd = 0 where r = 0.  A solve starts from
the linear radial interpolation of the boundary data clipped to the
barrier sandwich, already near the fixed point.  Plain Newton from an
envelope, such as two-init's second start (the upper one), meets singular
Jacobians: the envelopes' sheets have u_t constant in x, so kappa = 0, and
a t row with rho < 0 and kappa = 0 has the periodic spatial Laplacian,
null on constants, as its block.  Pseudo-transient continuation (Kelley
and Keyes, SIAM J. Numer. Anal. 35, 1998) shifts the step,
((1 + s) I - J) delta = F with s = 1/dtau, here
s = (sup|F| / max(1, sup|U|))^2 at every step, with s = 0 once it falls
below 1e-12, so the last steps are Newton steps.  Every iterate is
projected onto the barrier sandwich (clipped between the lower and upper
envelopes), where the Perron solution lies.  The first step from the
lower barrier (sup|F| 1e-2 and more) is nearly a full Newton step and
overshoots, on reduced grids often onto the whole upper envelope; the
projection absorbs that.  Under the
unsquared law s = sup|F| / max(1, sup|U|) (switched evolution
relaxation) the shift would follow the overshoot's larger residual and
damp the next three or four steps.  The fixed point sits inside the
sandwich, so near it the projection moves nothing and the quadratic tail
is plain Newton's.

The linear solve depends on the grid.  On a reduced grid (one x axis) the
Jacobian is block tridiagonal in t with periodic-tridiagonal nx x nx
blocks, and a step is an exact block LU (Thomas) solve, one dense inverse
per t row.  On a full grid the blocks are nx ny x nx ny, too large to
invert, and the step comes from restarted GMRES (Saad and Schultz, 1986),
Jacobian-free in the sense of Knoll and Keyes (J. Comput. Phys. 193,
2004): the matrix-vector product is formed from the weights.  The solve
stops at a residual of eta_k |F_k|_2, with the adaptive forcing of
Eisenstat and Walker (SIAM J. Sci. Comput. 17, 1996), their choice 2:
eta_k = 0.9 (|F_k|_2 / |F_k-1|_2)^2 from eta_0 = 0.5, raised to
0.9 eta_k-1^2 when that exceeds 0.1, and capped at 0.5.  Early steps are
solved loosely and the Newton tail stays quadratic.  The forcing is kept
at least half the rounding floor (below) over sup|F_k|, so the last step
does not solve below what the next residual can show.  GMRES is right
preconditioned by (1 + s) I - Jbar, where Jbar keeps the per-t-row means
of wx_h and drops wd; that matrix is diagonal in the spatial Fourier
modes and tridiagonal in t for each, so one Thomas elimination per mode
inverts it.

A Newton solve stops on ``projected`` when an unshifted step, which
estimates the distance to the fixed point, moves the grid by less than
``sweep_tol``; on ``plateau`` when sup|F| falls to the rounding floor
8 eps max(1, sup|U|) (the report's ``floor``) first; or on ``max_iters``
steps.  Every solve reports the largest move of one plain sweep from its
result (the Perron check).  A singular block or preconditioner pivot, a
GMRES breakdown or a non-finite step raises ValidationError.
"""

from __future__ import annotations

import math
import mmap
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .angles import _ray_boundary, phi_lifted_usc, phi_lifted_usc_batch
from .errors import PreconditionError, ValidationError
from .geometry import (
    _Point,
    _central,
    _grid_index,
    _hessian,
    _hessian_entries,
    _integer,
    _second,
    _stencil_reads,
    _zderiv,
    _zderiv_entry,
    angle_field,
    h_membership,
    lambda_endo,
)
from .linalg import check_hermitian
from .subequations import Branch

T_TOTAL = math.log(2.0)

JACOBI = "jacobi"

# Padding below the lower barrier where the pointwise update starts its search.
_BRACKET_PAD = 1.0

# Relative threshold for tagging converged jets as singular when reporting.
# Scaled to the solver's own noise floor, not to the sharp angle-level band.
EPS_REPORT = 1e-7


def rho(t):
    """(|s|-1)(|s|-2) at |s| = e^t; zero at the ends, negative inside."""
    s = np.exp(np.asarray(t, dtype=float))
    return (s - 1.0) * (s - 2.0)


def rho_complex_hessian_factor(t):
    """Coefficient 1 - 3/(4|s|) of the s-Hessian of rho; > 1/4 on the annulus."""
    return 1.0 - 3.0 / (4.0 * np.exp(np.asarray(t, dtype=float)))


@dataclass
class GeodesicProblem:
    """Boundary potentials, branch, and solver parameters.

    ``phi1`` sits at t = 0 (|s| = 1) and ``phi2`` at t = log 2 (|s| = 2).
    Both must be admissible with positive margin and the branch must lie
    in the convexity window (n-1)*pi/2 < c < n*pi/2.  ``bisect_tol`` is
    the width of the certified bracket of a pointwise update.  Grids are
    solved by Newton steps on T(U) - U, with T the Jacobi Perron map, which
    ``sweep_tol`` and ``max_iters`` bound; both tolerances must be finite
    and positive, and ``max_iters`` a non-negative integer.  ``mode``
    accepts only "jacobi" and is kept because the benchmark workloads pass
    it.
    """

    geom: object
    phi1: np.ndarray
    phi2: np.ndarray
    branch: Branch
    nt: int = 33
    sweep_tol: float = 1e-8
    bisect_tol: float = 1e-10
    max_iters: int = 100000
    mode: str = JACOBI
    check_two_init: bool = True

    def __post_init__(self):
        self.phi1 = np.asarray(self.phi1, dtype=float)
        self.phi2 = np.asarray(self.phi2, dtype=float)
        if self.phi1.shape != self.geom.grid or self.phi2.shape != self.geom.grid:
            raise PreconditionError("boundary potentials must live on the geometry grid")
        if self.nt < 5:
            raise PreconditionError("need at least 5 radial grid points")
        if self.mode != JACOBI:
            raise PreconditionError(f"mode {self.mode!r} is not supported; the Perron map is Jacobi")
        for name, value in (("sweep_tol", self.sweep_tol), ("bisect_tol", self.bisect_tol)):
            if not 0.0 < value < math.inf:
                raise PreconditionError(f"{name} must be finite and positive, got {value!r}")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 0):
            raise PreconditionError(f"max_iters must be a non-negative integer, got {self.max_iters!r}")
        if self.branch.n != self.geom.n:
            raise PreconditionError("branch dimension does not match the geometry")
        try:
            self.branch.require_regime()
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
        self.margins = []
        for name, phi in (("phi1", self.phi1), ("phi2", self.phi2)):
            ok, delta = h_membership(self.geom, phi, self.branch.c)
            if not ok:
                raise PreconditionError(
                    f"{name} is not admissible: angle margin {delta:.6g} <= 0"
                )
            self.margins.append(delta)

    @property
    def t_grid(self):
        return np.linspace(0.0, T_TOTAL, self.nt)

    @property
    def ht(self):
        return T_TOTAL / (self.nt - 1)


@dataclass(frozen=True)
class SpaceTimeJet:
    """Second-order data (udotdot, mixed vector b, spatial block) at a point."""

    udotdot: float
    b: np.ndarray
    spatial: np.ndarray

    def matrix(self):
        n = self.spatial.shape[0]
        H = np.zeros((n + 1, n + 1), dtype=complex)
        H[0, 0] = self.udotdot
        H[1:, 0] = self.b
        H[0, 1:] = np.conj(self.b)
        H[1:, 1:] = self.spatial
        return H


@dataclass
class Barriers:
    lower: np.ndarray
    upper: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


def build_barriers(problem):
    """Sub/super envelopes pinned to the boundary data.

    u1 = phi1 + rho - C t and u2 = phi2 + rho + A t - B with C, A, B just
    large enough that max(u1, u2) matches phi1 at t = 0 and phi2 at
    t = log 2; v1, v2 repeat the construction with the potentials negated
    and -max(v1, v2) is the upper envelope.
    """
    t = problem.t_grid.reshape((-1,) + (1,) * problem.phi1.ndim)
    phi1, phi2 = problem.phi1, problem.phi2
    r = rho(t)

    def envelope(p1, p2):
        C = float(np.max(p1 - p2)) / T_TOTAL + 1.0
        A = (float(np.max(p2 - p1)) + 1.0) / T_TOTAL
        return p1 + r - C * t, p2 + r + A * t - A * T_TOTAL

    u1, u2 = envelope(phi1, phi2)
    v1, v2 = envelope(-phi1, -phi2)
    lower = np.maximum(u1, u2)
    upper = -np.maximum(v1, v2)
    lower[0], lower[-1] = phi1, phi2
    upper[0], upper[-1] = phi1, phi2
    return Barriers(lower=lower, upper=upper, u1=u1, u2=u2, v1=v1, v2=v2)


def linear_interpolation(problem):
    """phi1 + (t/T)(phi2 - phi1) on the space-time grid."""
    t = problem.t_grid.reshape((-1,) + (1,) * problem.phi1.ndim)
    return problem.phi1 + (t / T_TOTAL) * (problem.phi2 - problem.phi1)


def strictify(U, eps, which, barriers):
    """(1 - eps) U + eps u_i, the convex push toward a strict barrier."""
    if which not in ("lower-1", "lower-2"):
        raise ValueError("which must be 'lower-1' or 'lower-2'")
    ui = barriers.u1 if which == "lower-1" else barriers.u2
    return (1.0 - eps) * np.asarray(U, dtype=float) + eps * ui


def _check_grid(problem, U):
    """U as a float array, checked to hold one value per space-time grid point."""
    U = np.asarray(U, dtype=float)
    shape = (problem.nt,) + problem.geom.grid
    if U.shape != shape:
        raise PreconditionError(f"space-time grid must have shape {shape}, got {U.shape}")
    return U


def _spacetime_matrices(problem, U):
    """Space-time matrices of U's interior t rows, one per point."""
    geom, n, ht = problem.geom, problem.geom.n, problem.ht
    mid, psi = U[1:-1], geom.psi_alpha
    udot = _central(U[2:], U[:-2], ht)
    H = np.empty(mid.shape + (n + 1, n + 1), dtype=complex)
    H[..., 0, 0] = _second(U[2:], mid, U[:-2], ht)
    for j in range(n):
        b = _zderiv(geom, udot, j)
        H[..., 1 + j, 0] = b
        H[..., 0, 1 + j] = np.conj(b)
    H[..., 1:, 1:] = geom.alpha0 + _hessian(geom, mid if psi is None else psi + mid)
    return H


def _point(problem, it, ix):
    """(it, ix) of an interior space-time grid point as ints, checked: it
    in (0, nt - 1) and ix a grid index (``geometry._grid_index``)."""
    it = _integer(it, "the t index")
    if not 0 < it < problem.nt - 1:
        raise PreconditionError("jet assembly needs an interior t index")
    return it, _grid_index(problem.geom, ix)


def assemble_jet(problem, U, it, ix):
    """SpaceTimeJet at interior t-index ``it`` and spatial multi-index ``ix``.

    Reads only the values the stencils reach, U on rows it - 1, it, it + 1
    (and psi_alpha) at the point, its axis neighbours and its diagonal
    neighbours in each pair of axes, as Python numbers, and runs the
    geometry stencil formulas ``interior_jets`` runs on rolled arrays, in
    the same order: the jet equals the point's row of ``interior_jets``
    bitwise.
    """
    U = _check_grid(problem, U)
    it, ix = _point(problem, it, ix)
    geom, ht = problem.geom, problem.ht
    column, flat = _stencil_reads(geom, ix)
    rows = U[it - 1 : it + 2].reshape(3, -1)[:, flat]
    pot = rows[1] if geom.psi_alpha is None else geom.psi_alpha.reshape(-1)[flat] + rows[1]
    (dn, mid, up), pot = rows.tolist(), pot.tolist()
    udot = _Point(lambda s: _central(up[column[s]], dn[column[s]], ht))
    b = [_zderiv_entry(geom, udot, j) for j in range(geom.n)]
    hessian = _hessian_entries(geom, _Point(lambda s: pot[column[s]]))
    return SpaceTimeJet(
        udotdot=_second(up[0], mid[0], dn[0], ht),
        b=np.array(b, dtype=complex),
        spatial=geom.alpha0 + np.array(hessian, dtype=complex),
    )


def harmonic_residual(jet, c):
    """(phi~(H) - c, det-form residual Im(e^{-ic} det(I0 + iH))) for one jet."""
    H = jet.matrix()
    H = check_hermitian(H, name="jet matrix")
    lifted = phi_lifted_usc(H)
    m = H.shape[0]
    I0 = np.diag(np.concatenate(([0.0], np.ones(m - 1))))
    det_form = float(np.imag(np.exp(-1j * c) * np.linalg.det(I0 + 1j * H)))
    return lifted.value - c, det_form


def _center_coeffs(problem):
    """Diagonal subtracted from H per unit of center value: (a, g_1..g_n)."""
    geom = problem.geom
    a = 2.0 / (problem.ht * problem.ht)
    gs = []
    for j in range(geom.n):
        hx = geom.spacings[geom.x_axis(j)]
        gj = 0.5 / (hx * hx)
        ya = geom.y_axis(j)
        if ya is not None:
            hy = geom.spacings[ya]
            gj += 0.5 / (hy * hy)
        gs.append(gj)
    return a, np.array(gs)


def perron_update(problem, U, it, ix, lower=None, upper=None):
    """Largest center value keeping the jet's lifted angle >= c.

    Works for any n.  The search starts 1.0 below the lower barrier (or the
    current value) and steps down until the value is admissible; the
    admissible set is a ray, so a member always appears eventually.  From
    there ``angles._ray_boundary`` takes the ray's boundary, a root of the
    polynomial Im(e^{-ic} det(I0 + iH(v))), certified by two angle
    evaluations; the result is evaluated admissible, a value at most
    ``bisect_tol`` above it evaluated inadmissible.  ``upper`` is unused
    and kept because the benchmark workloads pass it.
    """
    c = problem.branch.c
    it, ix = _point(problem, it, ix)
    jet = assemble_jet(problem, U, it, ix)
    a, gs = _center_coeffs(problem)
    d = np.concatenate(([a], gs))
    D = np.diag(d).astype(complex)
    v0 = float(U[it][ix])
    H0 = jet.matrix() + v0 * D  # center contribution removed

    def angle(v):
        return phi_lifted_usc(H0 - v * D).value

    lo = (float(lower[it][ix]) if lower is not None else v0) - _BRACKET_PAD
    for _ in range(80):
        phi_lo = angle(lo)
        if phi_lo >= c:
            break
        lo -= 2.0 * _BRACKET_PAD
    else:
        raise ValidationError("no admissible value found below the lower barrier")
    return _ray_boundary(angle, H0, d, c, lo, phi_lo, problem.bisect_tol)


def _pair_slices(axis):
    """(out, plus, minus) slice triples with out[i] from a[i+1] and a[i-1]
    along ``axis``, periodic: the interior, then the two wrapped ends.
    ``_neighbour_pairs`` takes only the ends from here; it runs the interior
    on flat views."""
    def at(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    return (
        (at(1, -1), at(2, None), at(None, -2)),
        (at(None, 1), at(1, 2), at(-1, None)),
        (at(-1, None), at(None, 1), at(-2, -1)),
    )


def _neighbour_pairs(op, a, out, axis, ends):
    """out = op(a(x + e), a(x - e)) along ``axis``, periodic, for C-contiguous
    ``a`` and ``out`` of one shape; ``ends`` are ``_pair_slices(axis)[1:]``.

    With k the axis's stride in elements, one op on the flat views,
    out.flat[k:-k] = op(a.flat[2k:], a.flat[:-2k]), gives every point off
    the axis's two ends its true neighbours; at the ends it reads the next
    or previous row, and the two small wrapped ops overwrite them.  An
    interior slice that spans t rows goes through numpy's buffered iterator
    and costs several times the contiguous op.  Bitwise the ``_pair_slices``
    loop: each entry is the same op on the same two values.
    """
    k = math.prod(out.shape[axis + 1 :])
    flat = a.reshape(-1)
    op(flat[2 * k :], flat[: -2 * k], out=out.reshape(-1)[k:-k])
    for o, plus, minus in ends:
        op(a[plus], a[minus], out=out[o])


class _SweepN1:
    """The Jacobi Perron map T on the interior, its linearization and Jacobian
    product for Newton, for n = 1 (full or reduced grid)."""

    def __init__(self, problem):
        geom = problem.geom
        if geom.n != 1:
            raise ValueError("the vectorized Perron map requires n = 1")
        cosc = math.cos(problem.branch.c)
        sinc = math.sin(problem.branch.c)
        ht = problem.ht
        a, gs = _center_coeffs(problem)
        g = float(gs[0])
        lam0 = lambda_endo(geom)[..., 0, 0].real
        # the Perron quadratic in w = v - m0 is w^2 - rho w - kappa = 0 (see
        # ``updates``); rho0 is the part of rho that does not depend on u
        self.rho0 = (cosc + sinc * lam0) / (g * sinc)
        # per spatial axis of a block of t rows: its array axis, the wrapped
        # ends of its neighbour pairs, the weight of its second difference in
        # rho, and the weight of its squared mixed difference in -4 kappa
        self.axes = []
        for j in (geom.x_axis(0), geom.y_axis(0)):
            if j is not None:
                h = geom.spacings[j]
                self.axes.append(
                    (
                        1 + j,
                        _pair_slices(1 + j)[1:],
                        1.0 / (4.0 * h * h * g),
                        -1.0 / ((4.0 * ht * h) ** 2 * a * g),
                    )
                )
        # Work arrays, all interior-shaped and C-contiguous, so
        # ``_neighbour_pairs`` can write its interior through a flat view of
        # the output.  Temporaries of a whole-grid expression sit above
        # glibc's mmap threshold: each one was mapped, trimmed and faulted in
        # again on every sweep, which cost about two thirds of a sweep on a
        # 25 x 32 x 32 grid.  Their roles, by the method that writes them:
        #        updates                   linearize  jacobian_product  GMRES
        #   0    2 m0, then v              v          S
        #   1    rho                       residual                     F
        #   2    u(t+1) - u(t-1), then r   r          Dv
        #   3    -4 kappa                  1/(2r)                       step
        #   4    temporaries, then 2w      2w         temporaries
        #   mask rho <= 0                  r > 0
        # wd holds each Delta_h after ``updates`` and the weights after
        # ``linearize``.  Array 3, ``spare``, is free after either of them,
        # and the mask, ``outside``, after ``linearize``: Newton marks in it
        # the entries its projection moves.
        shape = (problem.nt - 2,) + geom.grid
        self._work = tuple(np.empty(shape) for _ in range(5)) + (np.empty(shape, dtype=bool),)
        self.spare, self.outside = self._work[3], self._work[5]
        self.wx = np.empty((len(self.axes),) + shape)
        self.wd = np.empty_like(self.wx)

    def updates(self, up, mid, dn):
        """Closed-form Perron values at every interior point.

        ``mid`` is the interior, and ``up`` and ``dn`` are the rows one t
        step above and below it, as views of the same shape.  The value is
        v = m0 + w with m0 = (up + dn) / 2 and w the smaller root of
        w^2 - rho w - kappa, where

            rho = rho0 + sum_h (u(x + e_h) + u(x - e_h) - 2 m0) / (4 h^2 g),
            kappa = |b|^2 / (a g) >= 0.

        With r = sqrt(rho^2 + 4 kappa) the root is (rho - r) / 2 where
        rho <= 0 and -2 kappa / (rho + r) where rho > 0, so neither form
        cancels.  The result is a work array that the next call overwrites;
        r, 2w and each axis's mixed difference Delta_h (in wd) stay for
        ``linearize``.
        """
        M, R, D, F, W, mask = self._work
        np.add(up, dn, out=M)  # 2 m0
        np.subtract(up, dn, out=D)  # 2 ht u_t
        for i, ((axis, ends, lam_w, b_w), delta) in enumerate(zip(self.axes, self.wd)):
            # rho: the second difference along the axis about m0
            _neighbour_pairs(np.add, mid, W, axis, ends)
            np.subtract(W, M, out=W)
            np.multiply(W, lam_w, out=W)
            np.add(R if i else self.rho0, W, out=R)
            # -4 kappa: the squared mixed difference along the axis
            _neighbour_pairs(np.subtract, D, delta, axis, ends)
            T = W if i else F
            np.multiply(delta, delta, out=T)
            np.multiply(T, b_w, out=T)
            if i:
                np.add(F, T, out=F)
        # r = sqrt(rho^2 + 4 kappa): a sum of squares, never negative
        np.multiply(R, R, out=D)
        np.subtract(D, F, out=D)
        np.sqrt(D, out=D)
        # 2 w, through the product of the roots where rho > 0 and directly
        # where rho <= 0
        np.greater(R, 0.0, out=mask)
        np.add(R, D, out=W)
        np.divide(F, W, out=W, where=mask)
        np.logical_not(mask, out=mask)
        np.subtract(R, D, out=W, where=mask)
        # v = (2 m0 + 2 w) / 2
        np.add(M, W, out=M)
        np.multiply(M, 0.5, out=M)
        return M

    def linearize(self, up, mid, dn):
        """(T(u) - u, wx, wd): the residual of the Perron map and the neighbour
        weights of ``updates``, dv/du at each neighbour, with wx and wd
        stacked over the spatial axes h.

        With r = sqrt(rho^2 + 4 kappa) and w the root, dv/drho = -w/r and
        dv/d(-4 kappa) = 1/(4r).  Through the weights lam_w of rho and b_w of
        -4 kappa (``axes``), with D = u(t+1) - u(t-1) and
        Delta_h = D(x+e_h) - D(x-e_h):

            wx_h = -(w/r) lam_w_h        at (t, x+e_h) and (t, x-e_h),
            1/2 - sum_h wx_h             at (t+1, x) and (t-1, x),
            wd_h = b_w_h Delta_h / (2r)  at (t+1, x+e_h) and (t-1, x-e_h),
            -wd_h                        at (t+1, x-e_h) and (t-1, x+e_h).

        At r = 0 (rho = kappa = 0) the map has no derivative; the weights
        there are its limit along kappa = 0, rho -> 0+, where v = m0:
        wx = wd = 0.  The residual is a kernel work array that the next
        ``updates`` overwrites; the weights last until the next ``updates``.
        """
        v = self.updates(up, mid, dn)
        _, residual, r, half_inv_r, two_w, positive = self._work
        half_inv_r.fill(0.0)
        np.greater(r, 0.0, out=positive)
        np.divide(0.5, r, out=half_inv_r, where=positive)
        np.subtract(v, mid, out=residual)
        for (_, _, lam_w, b_w), wx, wd in zip(self.axes, self.wx, self.wd):
            np.multiply(two_w, -lam_w, out=wx)
            np.multiply(wx, half_inv_r, out=wx)
            np.multiply(wd, b_w, out=wd)
            np.multiply(wd, half_inv_r, out=wd)
        return residual, self.wx, self.wd

    def jacobian_product(self, shift, v, out):
        """out = ((1 + shift) I - J) v, with J the Jacobian of the Perron map at
        the last ``linearize``; ``v`` is interior-shaped and taken as zero on
        the two boundary rows.  Runs in the kernel's work arrays.

        With S = v(t+1) + v(t-1) and Dv = v(t+1) - v(t-1),
        J v = S/2 + sum_h [wx_h (v(x+e_h) + v(x-e_h) - S)
        + wd_h (Dv(x+e_h) - Dv(x-e_h))].
        """
        S, Dv, T = self._work[0], self._work[2], self._work[4]
        np.add(v[2:], v[:-2], out=S[1:-1])
        np.copyto(S[0], v[1])
        np.copyto(S[-1], v[-2])
        np.subtract(v[2:], v[:-2], out=Dv[1:-1])
        np.copyto(Dv[0], v[1])
        np.negative(v[-2], out=Dv[-1])
        np.multiply(S, 0.5, out=out)
        for (axis, ends, _, _), wx, wd in zip(self.axes, self.wx, self.wd):
            _neighbour_pairs(np.add, v, T, axis, ends)
            np.subtract(T, S, out=T)
            np.multiply(T, wx, out=T)
            np.add(out, T, out=out)
            _neighbour_pairs(np.subtract, Dv, T, axis, ends)
            np.multiply(T, wd, out=T)
            np.add(out, T, out=out)
        np.multiply(v, 1.0 + shift, out=T)
        return np.subtract(T, out, out=out)

    def max_change(self, new, old):
        """Largest |new - old| over the interior."""
        np.subtract(new, old, out=self.spare)
        np.abs(self.spare, out=self.spare)
        return float(np.max(self.spare))


@dataclass
class SolverReport:
    """What ``solve`` found and how.

    ``final_max_update`` is sup|delta| of the last Newton step, 0.0 if the
    start already met the plateau test.  Its meaning depends on
    ``stop_reason``: on ``projected`` that step was unshifted and moved the
    grid by less than ``sweep_tol``, an estimate of the distance to the
    fixed point; on ``plateau`` it is the step that took sup|T(U) - U| to
    ``floor``, often far larger than the distance left (``perron_check``
    measures that); on ``max_iters`` it is the last step
    of an unconverged run.  ``floor`` is the rounding level
    8 eps max(1, sup|U|) that the last plateau test compared sup|T(U) - U|
    against.
    """

    iterations: int
    final_max_update: float
    floor: float
    converged: bool
    stop_reason: str
    krylov_iterations: int
    perron_check: float
    residual_regular_max: float
    n_regular: int
    n_singular: int
    singular_usc_gap_min: float
    slice_ranges: list
    slice_ok: bool
    sandwich_low_worst: float
    sandwich_high_worst: float
    sandwich_ok: bool
    two_init_discrepancy: float | None
    runtime_seconds: float
    details: dict = field(default_factory=dict)

    def all_finite(self):
        vals = [
            self.final_max_update,
            self.residual_regular_max,
            self.sandwich_low_worst,
            self.sandwich_high_worst,
            self.perron_check,
        ]
        if self.n_singular > 0:
            vals.append(self.singular_usc_gap_min)
        if self.two_init_discrepancy is not None:
            vals.append(self.two_init_discrepancy)
        return all(math.isfinite(v) for v in vals)


def interior_jets(problem, U):
    """Assembled space-time matrices of every interior point, flattened.

    Returns (H, shape) with H of shape (count, n+1, n+1) and shape =
    (nt - 2,) + grid.  The geometry stencil formulas run on rolled arrays,
    the ones ``assemble_jet`` runs on one point's numbers.
    """
    H = _spacetime_matrices(problem, _check_grid(problem, U))
    return H.reshape((-1,) + H.shape[-2:]), H.shape[:-2]


def _residual_stats(problem, U):
    """Split interior points by singular tag and measure harmonicity."""
    c = problem.branch.c
    H, _ = interior_jets(problem, U)
    vals, singular = phi_lifted_usc_batch(H, eps=EPS_REPORT)
    usc_gap_min = math.inf
    res_max = 0.0
    if np.any(singular):
        usc_gap_min = float(np.min(vals[singular] - c))
    if np.any(~singular):
        res_max = float(np.max(np.abs(vals[~singular] - c)))
    return {
        "n_regular": int(np.sum(~singular)),
        "n_singular": int(np.sum(singular)),
        "residual_regular_max": res_max,
        "singular_usc_gap_min": usc_gap_min,
    }


def validate_slices(problem, U):
    """Spatial angle range of every interior t-slice against [c-pi/2, c+pi/2]
    widened by 1e-3, from one ``angle_field`` call on the stack of slices.
    A slice whose range is not finite fails."""
    c = problem.branch.c
    values = angle_field(problem.geom, _check_grid(problem, U)[1:-1]).values
    values = values.reshape(problem.nt - 2, -1)
    vmin, vmax = values.min(axis=1), values.max(axis=1)
    ok = bool(np.all(vmin >= c - math.pi / 2 - 1e-3) and np.all(vmax <= c + math.pi / 2 + 1e-3))
    return list(zip(vmin.tolist(), vmax.tolist())), ok


@dataclass
class _Run:
    """One solve: the grid, how it stopped, and what it took."""

    U: np.ndarray
    iterations: int = 0
    krylov_iterations: int = 0
    final_max_update: float = 0.0
    floor: float = 0.0
    stop_reason: str = "max_iters"
    perron_check: float = 0.0
    steps: list = field(default_factory=list)


# Pseudo-transient continuation: the shift 1/dtau below which a step is a
# plain Newton step.
_SHIFT_OFF = 1e-12
# sup|T(u) - u| at or below this multiple of eps max(1, sup|u|) is rounding.
_NEWTON_FLOOR = 8.0 * float(np.finfo(float).eps)


def _block_thomas(shift, wx, wd, F):
    """delta solving ((1 + shift) I - J) delta = F over a reduced interior.

    J, the Jacobian of the Perron map (weights from ``linearize``), is block
    tridiagonal in t.  Row t's own block of J holds wx at x+-1, so the
    matrix's diagonal block A is periodic tridiagonal; the blocks of rows
    t+1 and t-1, Jup and Jdn, hold 1/2 - wx on the diagonal and +-wd beside
    it.  Block LU (Thomas): S_0 = A_0 and S_k = A_k - Jdn_k P_{k-1},
    P_k = S_k^{-1} Jup_k and z_k = S_k^{-1} (F_k + Jdn_k z_{k-1}); then
    delta_k = z_k + P_k delta_{k+1} upwards from the last row.  Each block
    costs one inverse.
    """
    m, nx = F.shape
    # S, Jup (then P in place) and Jdn; on a flat view of a block the
    # diagonal has stride nx + 1, (x, x+1) starts at 1 and (x, x-1) at nx,
    # and the periodic ends are the entries nx (nx - 1) and nx - 1
    blocks = np.zeros((3, m, nx, nx))
    S, up, down = blocks
    half = 0.5 - wx
    for block, diagonal, plus, minus in (
        (S, 1.0 + shift, -wx, -wx),
        (up, half, wd, -wd),
        (down, half, -wd, wd),
    ):
        flat = block.reshape(m, nx * nx)
        flat[:, :: nx + 1] = diagonal
        flat[:, 1 :: nx + 1] += plus[:, :-1]
        flat[:, nx * (nx - 1)] += plus[:, -1]
        flat[:, nx :: nx + 1] += minus[:, 1:]
        flat[:, nx - 1] += minus[:, 0]
    z = F.copy()
    for k in range(m):
        if k:
            S[k] -= down[k] @ up[k - 1]
            z[k] += down[k] @ z[k - 1]
        try:
            inv = np.linalg.inv(S[k])
        except np.linalg.LinAlgError:
            raise ValidationError(
                f"singular Newton block at t row {k + 1}: the Perron map's Jacobian "
                "is not invertible there"
            ) from None
        z[k] = inv @ z[k]
        up[k] = inv @ up[k]
    for k in range(m - 2, -1, -1):
        z[k] += up[k] @ z[k + 1]
    return z


# GMRES on full grids: the basis vectors it keeps before a restart, and the
# most iterations one step runs.
_KRYLOV_RESTART = 8
_KRYLOV_MAX = 100
# Eisenstat-Walker forcing, choice 2: gamma and the exponent 2 of the ratio
# |F_k| / |F_k-1|, the first and largest forcing, and the level above which
# their safeguard keeps the forcing from dropping faster than gamma eta^2.
_FORCING_GAMMA = 0.9
_FORCING_MAX = 0.5
_FORCING_SAFEGUARD = 0.1


def _forcing(norm, norm_prev, eta_prev, floor_ratio):
    """The relative GMRES residual of a Newton step (Eisenstat and Walker,
    SIAM J. Sci. Comput. 17, 1996, choice 2).

    ``norm`` and ``norm_prev`` are |F|_2 of this step and the last (None on
    the first step, which takes _FORCING_MAX), and ``eta_prev`` the last
    forcing.  eta = gamma (norm / norm_prev)^2, raised to gamma eta_prev^2
    when that exceeds _FORCING_SAFEGUARD, capped at _FORCING_MAX, and kept
    at least ``floor_ratio``: solving below the rounding floor of F buys
    nothing the next residual can show.
    """
    if norm_prev is None:
        eta = _FORCING_MAX
    else:
        eta = _FORCING_GAMMA * (norm / norm_prev) ** 2
        safeguard = _FORCING_GAMMA * eta_prev**2
        if safeguard > _FORCING_SAFEGUARD:
            eta = max(eta, safeguard)
    return max(min(eta, _FORCING_MAX), floor_ratio)


def _hartley(n):
    """The discrete Hartley matrix cas(2 pi j k / n) / sqrt(n), cas = cos + sin:
    real, symmetric and orthogonal.  It diagonalizes v(x+1) + v(x-1) on a
    periodic axis of n points, with eigenvalue 2 cos(2 pi k / n) at mode k."""
    angle = 2.0 * math.pi * np.outer(np.arange(n), np.arange(n)) / n
    return (np.cos(angle) + np.sin(angle)) / math.sqrt(n)


class _Krylov:
    """Restarted GMRES for ((1 + s) I - J) delta = F on a full interior, right
    preconditioned by P = (1 + s) I - Jbar (module docstring).

    In the real Fourier (Hartley) modes row t of mode k of P holds
    -(1/2 - sum_h a_h(t)) at t+-1 and 1 + s - sum_h a_h(t) 2 cos(2 pi k_h / n_h)
    on the diagonal, with a_h(t) the mean of wx_h over the row.  The Hartley
    transform is two small matrix products, faster on 32-point axes than
    numpy's FFT, whose module adds about 0.7 MB to the process.  The basis
    is allocated once per solve, and the step is formed as P^-1 (V y), with
    no preconditioned vectors stored.
    """

    def __init__(self, machine, shape):
        self.machine = machine
        # the preconditioned vector (also the Gram-Schmidt scratch), taken
        # before the mapping below: after it, a 25 x 32 x 32 solve's process
        # peaked about 0.15 MB higher
        self.z = np.empty(shape)
        # The basis sits in an anonymous mapping of its own, out of malloc's
        # sight.  As a malloc block (1.7 MB on a 25 x 32 x 32 grid) its free
        # raised glibc's dynamic mmap threshold, the solver's freed arrays
        # stayed resident, and the process peaked about 0.25 MB higher.
        mapping = mmap.mmap(-1, 8 * (_KRYLOV_RESTART + 1) * math.prod(shape))
        self.vectors = np.frombuffer(mapping).reshape((_KRYLOV_RESTART + 1,) + shape)
        self.basis = self.vectors.reshape(_KRYLOV_RESTART + 1, -1)
        # the step, in the machine's array that is idle during the solve
        self.step = machine.spare
        self.hx, self.hy = _hartley(shape[1]), _hartley(shape[2])
        # 2 cos(2 pi k / n) per machine axis, shaped to broadcast over the modes
        self.cosines = [
            2.0 * np.cos(2.0 * math.pi * np.arange(shape[a]) / shape[a]).reshape((-1,) + (1,) * (2 - a))
            for a, _, _, _ in machine.axes
        ]
        self.modes = np.empty(shape)
        self.row = np.empty(shape[1:])
        # the Thomas factors: the inverse pivots, each t row's entry at t+-1,
        # and the multipliers inv_pivot * off of both sweeps
        self.inv_pivot = np.empty(shape)
        self.off = np.empty(shape[0])
        self.multipliers = np.empty(shape)

    def factor(self, shift):
        """Factor P for the weights of the last ``linearize``."""
        wx, off, inv_pivot, row = self.machine.wx, self.off, self.inv_pivot, self.row
        mean = wx.reshape(wx.shape[:2] + (-1,)).mean(axis=2)  # a_h(t)
        np.subtract(mean.sum(axis=0), 0.5, out=off)
        inv_pivot.fill(1.0 + shift)
        for a, cos in zip(mean, self.cosines):
            inv_pivot -= a[:, None, None] * cos
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t in range(inv_pivot.shape[0]):
                if t:
                    np.multiply(inv_pivot[t - 1], off[t] * off[t - 1], out=row)
                    np.subtract(inv_pivot[t], row, out=inv_pivot[t])
                np.divide(1.0, inv_pivot[t], out=inv_pivot[t])
        # a zero, infinite or nan pivot leaves an infinite, zero or nan inverse
        if not (np.all(np.isfinite(inv_pivot)) and np.all(inv_pivot != 0.0)):
            raise ValidationError(
                "singular Newton preconditioner: a zero or non-finite pivot in the "
                "t elimination of a Fourier mode"
            )
        np.multiply(inv_pivot, off[:, None, None], out=self.multipliers)

    def _transform(self, v, out):
        """out = the Hartley transform of every t row of v (its own inverse)."""
        np.matmul(self.hx, v, out=self.modes)
        ny = self.hy.shape[0]
        np.matmul(self.modes.reshape(-1, ny), self.hy, out=out.reshape(-1, ny))
        return out

    def precondition(self, v, out):
        """out = P^-1 v.

        With C = inv_pivot * off, the forward sweep y_t = inv_pivot_t v_t -
        C_t y_t-1 and the backward sweep x_t = y_t - C_t x_t+1 share the
        multipliers, so inv_pivot scales the whole array once and each t row
        of either sweep is two ops.
        """
        row, C = self.row, self.multipliers
        self._transform(v, out)
        np.multiply(out, self.inv_pivot, out=out)
        for t in range(1, out.shape[0]):
            np.multiply(C[t], out[t - 1], out=row)
            np.subtract(out[t], row, out=out[t])
        for t in range(out.shape[0] - 2, -1, -1):
            np.multiply(C[t], out[t + 1], out=row)
            np.subtract(out[t], row, out=out[t])
        return self._transform(out, out)

    def solve(self, shift, F, forcing):
        """(delta, iterations, reached): GMRES(_KRYLOV_RESTART) from delta = 0
        until the residual falls to ``forcing`` |F|_2, or after _KRYLOV_MAX
        iterations; ``reached`` says whether the residual met that goal.
        delta is a work array that the next call overwrites."""
        self.factor(shift)
        machine, V, vectors, x, z = self.machine, self.basis, self.vectors, self.step, self.z
        x.fill(0.0)
        np.copyto(vectors[0], F)
        beta = float(np.linalg.norm(V[0]))
        target = forcing * beta
        iterations = 0
        while not beta <= target and iterations < _KRYLOV_MAX:
            V[0] *= 1.0 / beta
            g, R, rotations = [beta], [], []  # R: the rotated Hessenberg columns
            for j in range(_KRYLOV_RESTART):
                w = V[j + 1]
                machine.jacobian_product(shift, self.precondition(vectors[j], z), vectors[j + 1])
                # classical Gram-Schmidt, twice
                h = np.zeros(j + 1)
                for _ in range(2):
                    c = V[: j + 1] @ w
                    np.subtract(w, np.matmul(c, V[: j + 1], out=z.reshape(-1)), out=w)
                    h += c
                h = h.tolist() + [float(np.linalg.norm(w))]
                for i, (cs, sn) in enumerate(rotations):
                    h[i], h[i + 1] = cs * h[i] + sn * h[i + 1], cs * h[i + 1] - sn * h[i]
                radius = math.hypot(h[j], h[j + 1])
                if radius == 0.0:
                    raise ValidationError(
                        f"singular Newton system: GMRES broke down at iteration {iterations + 1}"
                    )
                cs, sn = h[j] / radius, h[j + 1] / radius
                rotations.append((cs, sn))
                R.append(h[:j] + [radius])
                g[j], g[j + 1:] = cs * g[j], [-sn * g[j]]
                iterations += 1
                beta = abs(g[j + 1])
                if beta <= target or h[j + 1] == 0.0 or iterations == _KRYLOV_MAX:
                    break
                w *= 1.0 / h[j + 1]
            # x += P^-1 V y, with y from back substitution in R
            y = [0.0] * len(R)
            for i in reversed(range(len(R))):
                y[i] = (g[i] - sum(R[l][i] * y[l] for l in range(i + 1, len(R)))) / R[i][i]
            np.matmul(y, V[: len(R)], out=V[len(R)])
            x += self.precondition(vectors[len(R)], z)
            if beta <= target or iterations == _KRYLOV_MAX:
                break
            # restart from the true residual
            machine.jacobian_product(shift, x, vectors[0])
            np.subtract(F, vectors[0], out=vectors[0])
            beta = float(np.linalg.norm(V[0]))
        return x, iterations, beta <= target


def _newton_solve(problem, U0, barriers):
    """Newton on F(U) = T(U) - U; returns a _Run.

    Each step solves ((1 + s) I - J) delta = T(U) - U: by ``_block_thomas``
    on a reduced grid and by preconditioned GMRES (``_Krylov``) on a full
    one.  The shift is s = (sup|F| / max(1, sup|U|))^2 at the step's grid,
    with no state kept between steps, and 0 once it falls below
    _SHIFT_OFF.  U + delta is then clipped in place between the envelopes
    of ``barriers``, the ones ``solve`` built.  The stop reason is
    ``projected`` (an unshifted step moved the grid by less than
    ``sweep_tol``), ``plateau`` (sup|F| reached the rounding floor first,
    ``run.floor``) or ``max_iters``.

    GMRES stops at the Eisenstat-Walker forcing (``_forcing``), floored at
    half the rounding floor over sup|F|, so the last step does not solve
    far below what the plateau test can see.  ``run.steps`` records each
    step's sup|F|, its shift and ``clipped``, the number of entries the
    projection moved, and, on a full grid, its GMRES iterations, its
    forcing and whether GMRES stopped at _KRYLOV_MAX short of that goal.
    """
    run = _Run(U0.copy())
    U = run.U
    mid = U[1:-1]
    lower, upper = barriers.lower[1:-1], barriers.upper[1:-1]
    machine = _SweepN1(problem)
    outside = machine.outside
    krylov = None if problem.geom.reduced else _Krylov(machine, mid.shape)
    norm_prev = eta = None
    while True:
        F, wx, wd = machine.linearize(U[2:], mid, U[:-2])
        f = float(np.max(np.abs(F)))
        scale = max(1.0, float(np.max(np.abs(U))))
        floor = run.floor = _NEWTON_FLOOR * scale
        if f <= floor:
            run.stop_reason = "plateau"
            break
        if run.iterations == problem.max_iters:
            break
        shift = (f / scale) ** 2
        if shift < _SHIFT_OFF:
            shift = 0.0
        step = {"sup_residual": f, "shift": shift}
        if krylov is None:
            delta = _block_thomas(shift, wx[0], wd[0], F)
        else:
            norm = float(np.linalg.norm(F))
            eta = _forcing(norm, norm_prev, eta, 0.5 * floor / f)
            delta, iterations, reached = krylov.solve(shift, F, eta)
            run.krylov_iterations += iterations
            norm_prev = norm
            step.update(krylov_iterations=iterations, forcing=eta, krylov_capped=not reached)
        run.steps.append(step)
        run.iterations += 1
        run.final_max_update = float(np.max(np.abs(delta)))
        if not math.isfinite(run.final_max_update):
            raise ValidationError(f"Newton step {run.iterations} is not finite")
        mid += delta
        # project onto the barrier sandwich, as np.clip does
        clipped = 0
        for compare, bound in ((np.less, lower), (np.greater, upper)):
            compare(mid, bound, out=outside)
            clipped += int(np.count_nonzero(outside))
            np.copyto(mid, bound, where=outside)
        step["clipped"] = clipped
        if shift == 0.0 and run.final_max_update < problem.sweep_tol:
            run.stop_reason = "projected"
            break
    # the Perron oracle: one plain sweep from the result
    run.perron_check = machine.max_change(machine.updates(U[2:], mid, U[:-2]), mid)
    return run


def _start(problem, barriers, init):
    """The first grid of a run: ``init`` is "linear" (the linear radial
    interpolation clipped to the barrier sandwich), "lower" (the lower
    envelope) or a grid, with the boundary rows set to phi1 and phi2."""
    if isinstance(init, np.ndarray):
        U0 = _check_grid(problem, init).copy()
    elif init == "lower":
        U0 = barriers.lower.copy()
    elif init == "linear":
        U0 = np.clip(linear_interpolation(problem), barriers.lower, barriers.upper)
    else:
        raise PreconditionError(f"unknown initialization {init!r}")
    U0[0], U0[-1] = problem.phi1, problem.phi2
    return U0


def solve(problem, init="linear"):
    """Perron solution from the clipped linear interpolation; returns (grid,
    SolverReport).

    The solve is Newton's method on T(U) - U: block Thomas steps on reduced
    grids, preconditioned GMRES steps on full ones (``krylov_iterations``
    counts the GMRES iterations).  ``details["newton_steps"]`` holds one
    dict per Newton step of this run: ``sup_residual`` (sup|F|), ``shift``
    and ``clipped`` (the entries the projection onto the barrier sandwich
    moved), and on full grids ``krylov_iterations``, ``forcing`` (the
    relative GMRES residual asked for) and ``krylov_capped`` (GMRES stopped
    at its iteration limit short of it).

    ``init`` is "linear", "lower" or a grid (``_start``).  With
    ``check_two_init`` a second run starts from the upper envelope (from the
    linear interpolation when ``init`` is "lower"), the report carries the
    sup-norm disagreement of the two results, and
    ``details["two_init_newton_steps"]`` the second run's steps.
    """
    t0 = time.perf_counter()
    if problem.geom.n != 1:
        raise PreconditionError(
            "Newton solving is implemented for n = 1 grids; higher dimensions "
            "are served by the pointwise perron_update API"
        )
    barriers = build_barriers(problem)
    run = _newton_solve(problem, _start(problem, barriers, init), barriers)
    U = run.U
    details = {"margins": list(problem.margins), "c": problem.branch.c, "newton_steps": run.steps}

    two_init = None
    if problem.check_two_init:
        # the upper envelope, where a lower start's first step often lands
        second = "linear" if isinstance(init, str) and init == "lower" else barriers.upper
        other = _newton_solve(problem, _start(problem, barriers, second), barriers)
        two_init = float(np.max(np.abs(U - other.U)))
        details["two_init_newton_steps"] = other.steps

    stats = _residual_stats(problem, U)
    ranges, slice_ok = validate_slices(problem, U)
    low_worst = float(np.min(U - barriers.lower))
    high_worst = float(np.min(barriers.upper - U))
    report = SolverReport(
        iterations=run.iterations,
        final_max_update=run.final_max_update,
        floor=run.floor,
        converged=run.stop_reason != "max_iters",
        stop_reason=run.stop_reason,
        krylov_iterations=run.krylov_iterations,
        perron_check=run.perron_check,
        residual_regular_max=stats["residual_regular_max"],
        n_regular=stats["n_regular"],
        n_singular=stats["n_singular"],
        singular_usc_gap_min=stats["singular_usc_gap_min"],
        slice_ranges=ranges,
        slice_ok=slice_ok,
        sandwich_low_worst=low_worst,
        sandwich_high_worst=high_worst,
        sandwich_ok=(low_worst >= -1e-9) and (high_worst >= -1e-9),
        two_init_discrepancy=two_init,
        runtime_seconds=time.perf_counter() - t0,
        details=details,
    )
    return U, report
