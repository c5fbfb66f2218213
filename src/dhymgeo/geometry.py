"""Flat-torus backgrounds: fields, angles, branch selection, residuals.

The torus has period 1 in every real coordinate and the Kähler form is
the identity in flat coordinates, so the relative endomorphism of a
potential u is simply

    Lambda(u) = alpha0 + cxhess(psi_alpha) + cxhess(u)

with cxhess the complex Hessian

    u_{z_j zbar_k} = (u_{x_j x_k} + u_{y_j y_k})/4
                     + i (u_{x_j y_k} - u_{y_j x_k})/4,

discretized by second-order central differences with periodic wrap.
The constant-plus-Hessian-exact representation keeps the background
(1,1) form closed by construction.

Grid axes are ordered (x_1..x_n, y_1..y_n).  For n = 1 a reduced mode
drops the y axis entirely (y-invariant data), which is the fast lane the
geodesic solver uses for convergence studies.

The operators take the grid axes last and treat any leading axes as batch
axes, so a stack of fields, such as the interior t slices of a space-time
grid, goes through one call.  Their stencil formulas also run on the
neighbour values of one point as Python numbers (``_Point``), which is how
``geodesic.assemble_jet`` builds one jet.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .angles import theta_batch
from .errors import PreconditionError
from .linalg import check_hermitian
from .subequations import Branch

MIN_GRID = 8


@dataclass
class TorusGeometry:
    """Flat torus model: dimension, periodic grid, and background data.

    ``alpha0`` is the constant Hermitian part of the background form and
    ``psi_alpha`` an optional potential contributing its complex Hessian
    to it.  ``reduced`` (n = 1 only) keeps a single x axis for
    y-invariant data.  Each grid size must be an integer
    (``_integer``: no floats, strings or bools), even and at least
    MIN_GRID.
    """

    n: int
    grid: tuple
    alpha0: np.ndarray
    psi_alpha: np.ndarray | None = None
    reduced: bool = False

    def __post_init__(self):
        if self.n not in (1, 2):
            raise PreconditionError("only n = 1 and n = 2 are supported")
        # an object array keeps each size's own type for ``_integer``
        sizes = np.atleast_1d(np.asarray(self.grid, dtype=object))
        self.grid = tuple(_integer(g, "grid size") for g in sizes)
        if self.reduced:
            if self.n != 1 or len(self.grid) != 1:
                raise PreconditionError("reduced mode needs n = 1 and a single x axis")
        elif len(self.grid) != 2 * self.n:
            raise PreconditionError(
                f"grid must list {2 * self.n} axis sizes, got {len(self.grid)}"
            )
        for g in self.grid:
            if g < MIN_GRID or g % 2:
                raise PreconditionError(f"grid sizes must be even and >= {MIN_GRID}")
        self.alpha0 = check_hermitian(np.atleast_2d(self.alpha0), name="alpha0")
        if self.alpha0.shape[0] != self.n:
            raise PreconditionError("alpha0 must be n x n")
        if self.psi_alpha is not None:
            self.psi_alpha = np.asarray(self.psi_alpha, dtype=float)
            if self.psi_alpha.shape != self.grid:
                raise PreconditionError("psi_alpha shape must match the grid")

    @property
    def shape(self):
        return self.grid

    @property
    def spacings(self):
        return tuple(1.0 / g for g in self.grid)

    def x_axis(self, j):
        """Grid axis carrying the x_j coordinate (j zero-based)."""
        return j

    def y_axis(self, j):
        if self.reduced:
            return None
        return self.n + j

    def zeros(self):
        return np.zeros(self.grid)

    def coordinates(self):
        """Coordinate fields broadcast to the grid shape, keyed by name."""
        axes = [np.arange(g) / g for g in self.grid]
        mesh = np.meshgrid(*axes, indexing="ij") if axes else []
        names = [f"x{j + 1}" for j in range(self.n)]
        if not self.reduced:
            names += [f"y{j + 1}" for j in range(self.n)]
        coords = dict(zip(names, mesh))
        if self.n == 1:
            coords["x"] = coords["x1"]
            if not self.reduced:
                coords["y"] = coords["y1"]
        return coords


@functools.lru_cache(maxsize=None)
def _roll_index(g, shift):
    index = (np.arange(g) - shift) % g
    index.flags.writeable = False
    return index


def _roll(u, shift, axis):
    """``np.roll(u, shift, axis)`` as one gather, which costs a third of
    np.roll on an 8^4 grid."""
    return u.take(_roll_index(u.shape[axis], shift), axis=axis)


def _central(up, dn, h):
    """Central first difference from the values one step up and one step down."""
    return (up - dn) / (2.0 * h)


def _second(up, mid, dn, h):
    """Central second difference from the values one step up, at and one step down."""
    return (up - 2.0 * mid + dn) / (h * h)


class _Reader:
    """How the stencil formulas read a field: at(*steps) is the field moved by
    the (grid axis, +-1) steps, and at.central(axis, h) reads its central
    difference along the axis.  ``_Grid`` reads a whole field as rolled
    arrays, ``_Point`` one point of it as Python numbers; the formulas run
    unchanged on both, so a point's entries equal the field's there bit for
    bit."""

    def central(self, axis, h):
        # made once per axis: the mixed derivatives along it share it
        if axis not in self.centrals:
            self.centrals[axis] = self._difference(axis, h)
        return self.centrals[axis]


class _Grid(_Reader):
    """Reader of a field whose last ``ndim`` axes are grid axes, periodically."""

    def __init__(self, u, ndim):
        self.u, self.ndim, self.centrals = u, ndim, {}

    def __call__(self, *steps):
        u = self.u
        for axis, s in steps:
            u = _roll(u, -s, axis - self.ndim)
        return u

    def _difference(self, axis, h):
        return _Grid(_central(self((axis, 1)), self((axis, -1)), h), self.ndim)


class _Point(_Reader):
    """Reader of a field at one grid point: value(steps) is the number at the
    point moved by the steps."""

    def __init__(self, value):
        self.value, self.centrals = value, {}

    def __call__(self, *steps):
        return self.value(steps)

    def _difference(self, axis, h):
        value, up, dn = self.value, ((axis, 1),), ((axis, -1),)
        return _Point(lambda steps: _central(value(up + steps), value(dn + steps), h))


def _second_derivative(at, h, a, b):
    """Central second derivative along grid axes a and b: the second difference
    for a == b, else the central difference along b of the one along a.  None
    is a y axis absent in reduced mode, contributing zero."""
    if a is None or b is None:
        return 0.0
    if a == b:
        return _second(at((a, 1)), at(), at((a, -1)), h[a])
    first = at.central(a, h[a])
    return _central(first((b, 1)), first((b, -1)), h[b])


def _hessian_entries(geom, at):
    """Entries [[H_jk]] of the complex Hessian of the field read by ``at``,
    symmetrized so downstream spectral calls see exact Hermitian data."""
    n, h = geom.n, geom.spacings

    def entry(j, k):
        xj, yj, xk, yk = geom.x_axis(j), geom.y_axis(j), geom.x_axis(k), geom.y_axis(k)
        xx = _second_derivative(at, h, xj, xk)
        yy = _second_derivative(at, h, yj, yk)
        xy = _second_derivative(at, h, xj, yk)
        yx = _second_derivative(at, h, yj, xk)
        return 0.25 * (xx + yy) + 0.25j * (xy - yx)

    H = [[entry(j, k) for k in range(n)] for j in range(n)]
    return [[0.5 * (H[j][k] + H[k][j].conjugate()) for k in range(n)] for j in range(n)]


def _zderiv_entry(geom, at, j):
    """(d/dx_j - i d/dy_j)/2 of the field read by ``at``."""
    h = geom.spacings
    xa, ya = geom.x_axis(j), geom.y_axis(j)
    dx = _central(at((xa, 1)), at((xa, -1)), h[xa])
    if ya is None:  # reduced mode; complex for arrays and numbers alike
        return (0.5 + 0j) * dx
    return 0.5 * (dx - 1j * _central(at((ya, 1)), at((ya, -1)), h[ya]))


def _hessian(geom, u):
    """``complex_hessian`` of a float field whose last axes are grid axes."""
    n = geom.n
    H = _hessian_entries(geom, _Grid(u, len(geom.grid)))
    out = np.empty(np.shape(u) + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[..., j, k] = H[j][k]
    return out


def complex_hessian(geom, u):
    """Per-point complex Hessian of a real potential, grid axes last: u.shape + (n, n).

    Self-adjoint by construction up to round-off; the result is
    symmetrized so downstream spectral calls see exact Hermitian data.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-len(geom.grid) :] != geom.grid:
        raise PreconditionError("potential shape must end in the geometry grid")
    return _hessian(geom, u)


def zderiv(geom, u, j):
    """Holomorphic derivative (d/dx_j - i d/dy_j)/2 of a real field, grid axes last."""
    u = np.asarray(u, dtype=float)
    if u.shape[-len(geom.grid) :] != geom.grid:
        raise PreconditionError("field shape must end in the geometry grid")
    return _zderiv(geom, u, j)


def _zderiv(geom, u, j):
    """``zderiv`` of a float field whose last axes are grid axes."""
    return _zderiv_entry(geom, _Grid(u, len(geom.grid)), j)


def lambda_endo(geom, phi=None):
    """Relative endomorphism field alpha0 + cxhess(psi_alpha + phi), grid axes last."""
    pot = geom.zeros() if geom.psi_alpha is None else geom.psi_alpha
    if phi is not None:
        phi = np.asarray(phi, dtype=float)
        if phi.shape[-len(geom.grid) :] != geom.grid:
            raise PreconditionError("phi shape must end in the geometry grid")
        pot = pot + phi
    return geom.alpha0 + complex_hessian(geom, pot)


def _integer(value, what):
    """``value`` as an int: Python and numpy integers pass, while floats, bools
    and anything else raise PreconditionError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise PreconditionError(f"{what} must be an integer, got {value!r}")


def _grid_index(geom, ix):
    """Grid point ``ix`` as a tuple of ints (``_integer``), one per grid axis,
    each in [-g, g) as for array indexing."""
    entries = ix.tolist() if isinstance(ix, np.ndarray) else ix
    if not isinstance(entries, (tuple, list)):
        entries = (entries,)
    if len(entries) != len(geom.grid):
        raise PreconditionError(
            f"grid index must list {len(geom.grid)} entries, got {np.shape(ix)}"
        )
    index = tuple(_integer(i, "a grid index entry") for i in entries)
    for i, g in zip(index, geom.grid):
        if not -g <= i < g:
            raise PreconditionError(f"grid index {i} outside [-{g}, {g})")
    return index


@functools.lru_cache(maxsize=None)
def _stencil_steps(ndim):
    """(column, offsets) of the points the stencil formulas read about a point:
    the point, one step along an axis, and one step along each of two axes.
    ``column`` maps each steps tuple a ``_Point`` is asked for (two steps in
    either order) to its row of the (K, ndim) ``offsets``, the point itself
    row 0; both are shared by every caller and only read."""
    one = [((a, s),) for a in range(ndim) for s in (1, -1)]
    two = [(p, q) for (p,) in one for (q,) in one if p[0] < q[0]]
    keys = [()] + one + two
    column = {key: i for i, key in enumerate(keys)}
    column.update({(q, p): column[p, q] for p, q in two})
    offsets = np.zeros((len(keys), ndim), dtype=np.intp)
    for row, key in zip(offsets, keys):
        for axis, s in key:
            row[axis] = s
    offsets.flags.writeable = False
    return column, offsets


def _stencil_reads(geom, ix):
    """(column, flat) about the checked grid point ``ix``: ``_stencil_steps``'
    column map and the flat C-order indices of the points, wrapped
    periodically."""
    column, offsets = _stencil_steps(len(geom.grid))
    flat = np.ravel_multi_index(tuple((offsets + ix).T), geom.grid, mode="wrap")
    return column, flat


@dataclass
class AngleField:
    values: np.ndarray
    vmin: float = field(init=False)
    vmax: float = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.vmin = float(np.min(self.values))
        self.vmax = float(np.max(self.values))

    @property
    def oscillation(self):
        return self.vmax - self.vmin


def angle_field(geom, phi=None):
    """Pointwise Lagrangian angle of lambda_endo, with min/max/oscillation."""
    return AngleField(theta_batch(lambda_endo(geom, phi)))


def z_integral(geom, phi=None):
    """Periodic-trapezoid value of the central charge integral.

    The integrand is det(Id + i*Lambda) per unit cell; on a periodic
    grid the trapezoid rule is the plain mean, so this is spectrally
    accurate for smooth data.  Rejects configurations with |Z| <= 1e-8.
    """
    lam = lambda_endo(geom, phi)
    dets = np.linalg.det(np.eye(geom.n) + 1j * lam)
    Z = complex(np.mean(dets))
    if abs(Z) <= 1e-8:
        raise PreconditionError("central charge vanishes for this configuration")
    return Z


def hat_theta(geom, phi=None):
    """Principal argument of the central charge, mapped to [0, 2*pi)."""
    return float(np.angle(z_integral(geom, phi)) % (2.0 * math.pi))


def select_branch(geom, phi=None, require_regime=False):
    """The unique lift c of hat_theta with |angle(x) - c| < pi/2 everywhere.

    Rejects fields whose angle oscillation reaches pi, and rejects
    configurations where no representative of hat_theta mod 2*pi fits in
    the admissible band.  With ``require_regime`` the convexity window
    (n-1)*pi/2 < c < n*pi/2 is enforced on top.
    """
    fld = angle_field(geom, phi)
    if fld.oscillation >= math.pi:
        raise PreconditionError(
            f"angle oscillation {fld.oscillation:.6g} >= pi; no branch is determined"
        )
    th = hat_theta(geom, phi)
    lo, hi = fld.vmax - math.pi / 2, fld.vmin + math.pi / 2
    k0 = round((0.5 * (lo + hi) - th) / (2.0 * math.pi))
    c = None
    for k in (k0 - 1, k0, k0 + 1):
        cand = th + 2.0 * math.pi * k
        if lo < cand < hi:
            c = cand
            break
    if c is None:
        raise PreconditionError(
            "no representative of hat_theta mod 2*pi lies within pi/2 of the angle field"
        )
    branch = Branch(c=c, n=geom.n)
    if require_regime:
        try:
            branch.require_regime()
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
    return branch


def h_membership(geom, phi, c):
    """Positivity of the potential: cos(angle - c) > 0 at every grid point.

    Returns (ok, delta) with delta = min over the grid of
    pi/2 - |angle(x) - c|; ok requires delta > 0.
    """
    fld = angle_field(geom, phi)
    delta = float(np.min(math.pi / 2 - np.abs(fld.values - c)))
    return delta > 0.0, delta


def dhym_residual(geom, phi, c):
    """Pointwise residual field Im(e^{-ic} det(Id + i*Lambda))."""
    lam = lambda_endo(geom, phi)
    dets = np.linalg.det(np.eye(geom.n) + 1j * lam)
    return np.imag(np.exp(-1j * c) * dets)


# Field expression grammar: +, -, *, sin, cos, numeric constants (not the
# bools True and False), pi, and the coordinate names of the geometry.
# Deliberately no division or attribute access; configs stay dumb.

_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos}


def eval_field_expr(expr, geom):
    """Evaluate a field expression string to a grid-shaped array.  An
    overflow or an undefined value (``1e400*0``) comes out non-finite and
    without a numpy warning; ``config`` refuses such fields."""
    coords = geom.coordinates()
    env = dict(coords)
    env["pi"] = math.pi

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return float(node.value)
            raise PreconditionError(f"bad constant {node.value!r} in field expression")
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise PreconditionError(f"unknown name {node.id!r} in field expression")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult)
        ):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            return a * b
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _ALLOWED_FUNCS
                and len(node.args) == 1
                and not node.keywords
            ):
                return _ALLOWED_FUNCS[node.func.id](ev(node.args[0]))
            raise PreconditionError("only sin(...) and cos(...) calls are allowed")
        raise PreconditionError(
            f"disallowed syntax in field expression: {type(node).__name__}"
        )

    try:
        tree = ast.parse(expr.replace("−", "-"), mode="eval")
    except SyntaxError as exc:
        raise PreconditionError(f"cannot parse field expression {expr!r}") from exc
    with np.errstate(all="ignore"):
        out = ev(tree)
    return np.broadcast_to(np.asarray(out, dtype=float), geom.grid).copy()


# Grid file format: one ASCII header line with the axis sizes, then
# row-major float64 little-endian payload.


def write_grid(path, arr):
    arr = np.asarray(arr, dtype=float)
    with open(path, "wb") as fh:
        fh.write((" ".join(str(s) for s in arr.shape) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_grid(path):
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        shape = tuple(int(s) for s in header)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != int(np.prod(shape)):
        raise PreconditionError(f"grid file {path} payload does not match its header")
    return data.reshape(shape).copy()
