"""Lagrangian angle operators for spatial and space-time Hermitian data.

The spatial angle of a Hermitian matrix H is

    theta(H) = sum_k arctan(lambda_k),

summed over the (real) eigenvalues, valued in (-n*pi/2, n*pi/2).  For a
real symmetric 2n x 2n matrix the same angle is half the trace of
arg(Id + i*p(A)) with p the J-invariant projection; both evaluation
paths must agree.

Space-time data is carried as an (m x m) Hermitian matrix with the time
coordinate first, m = n + 1.  The degenerate identity I0 = diag(0, 1,
..., 1) replaces the metric in the time direction, and the lifted
space-time angle is

    phi(A) = sum_i arg(mu_i),    mu_i eigenvalues of I0 + i*A,

with principal-value args.  This is well defined because every mu_i has
non-negative real part, and lies in [-m*pi/2, m*pi/2].  On the singular
set S (first row and column of A vanish) the determinant of I0 + i*A is
zero and the angle jumps by pi; the upper/lower semicontinuous
extensions there are +-pi/2 + theta(A+), where A+ drops the first row
and column.

Every lift, scalar or batched, evaluates phi from the Schur complement of
the corner (``linalg.bordered_det``), in one core (``_lift``): over arrays
for a stack, over Python numbers for one 2x2 or 3x3 matrix, which skips
numpy's fixed per-call cost on tiny arrays.  Write A = [[a11, a1^*], [a1, A+]];
then

    det(I0 + i*A) = det(I + i*A+) * sigma,
    sigma = i*a11 + a1^* (I + i*A+)^{-1} a1.

When A+ is larger than 2x2 it comes from one Hermitian eigensolve,
A+ = V diag(lambda) V^*, w = |V^* a1|^2:

    Re sigma = sum_k w_k / (1 + lambda_k^2) >= 0,
    Im sigma = a11 - sum_k w_k lambda_k / (1 + lambda_k^2),

which for a 1x1 block A+ = (lambda) is read off the entries, w = |a1|^2.
A 2x2 block needs no eigensolver either.  With D = det(I + i*A+) =
(1 - det A+) + i*tr A+,

    theta(A+) = atan2(tr A+, 1 - det A+),
    sigma = i*a11 + a1^* adj(I + i*A+) a1 / D,

the first exact because arctan(lambda_1) + arctan(lambda_2) lies in
(-pi, pi), where it is the principal argument of D.  The division is well
conditioned: |D|^2 = prod(1 + lambda_k^2) >= 1.  For the unit vector
u = a1 / ||a1|| and g = adj(A+) u, the numerator times conj(D) is
1 + |g|^2 + i*(u^* g Re D - Im D): its real part is a sum of squares, so
Re sigma >= 0 holds in floating point too.  Dividing by |D| (``np.hypot``)
twice instead of by |D|^2, which grows like ||A||^4, and scaling a1 to a
unit vector keep every intermediate near the size of the entries: like
the eigensolve, the closed form stays finite for entries up to about
1e153, where 1 + ||A|| itself overflows.  a1 = 0 gives sigma = i*a11.

Either way phi(A) = theta(A+) + atan2(Im sigma, Re sigma).  The identity
is exact: sigma vanishes only on S (Re sigma = 0 forces a1 = 0, then
Im sigma = a11), and det(I + i*A+) never vanishes, each factor
1 + i*lambda_k having its argument arctan(lambda_k) in (-pi/2, pi/2).
So theta(A+) + arg(sigma) is
a continuous lift of arg det(I0 + i*A) off S, and so is sum_i arg(mu_i),
since there no mu_i vanishes or leaves the closed right half-plane.  The
two differ by a locally constant multiple of 2*pi off S.  S has real
codimension 2n + 1 >= 3 among Hermitian matrices, so its complement is
connected, and at diag(1, 0, ..., 0) both lifts equal pi/2; they agree
everywhere off S.  The same theta(A+) gives the singular extensions.
Near S this form stays accurate, while the eigenvalues mu_i of the
non-normal I0 + i*A lose accuracy; the eigenvalue definition is kept only
in ``realpart_spectrum_check`` and as the tests' oracle.

Along a Perron ray A - v*diag(d) the lift crosses a level c where
Im(e^{-ic} det(I0 + i(A - v*diag(d)))) vanishes, a real polynomial in v
(``_level_roots``).  Up to 3x3 its coefficients come from the principal
minors of I0 + i*A, with no eigensolve.  From one evaluated member,
``_ray_boundary`` certifies the root above it with two lift evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import HERM_TOL, check_hermitian, check_symmetric, hermitian_of, jproject

REGULAR = "regular"
SINGULAR_UPPER = "singular-upper"
SINGULAR_LOWER = "singular-lower"

# Relative half-width of the numerical band around the singular set S.
EPS_SINGULAR = 1e-10

# Below this modulus of the Schur complement sigma, relative to 1 + ||A||,
# arg(sigma) is meaningless: the lift takes its semicontinuous extension and
# phi_regular raises.
_TINY_EIG = 1e-14

# Matrices per block of the batch lift: bounds its working set, whatever the
# batch size.
_BLOCK = 2048


@dataclass(frozen=True)
class SingularityReport:
    in_S: bool
    a11: float
    a1_norm: float
    threshold: float


@dataclass(frozen=True)
class LiftedAngle:
    value: float
    tag: str

    @property
    def regular(self):
        return self.tag == REGULAR


class DegenerateAngleError(ValueError):
    """det(I0 + i*A) vanishes numerically (sigma below _TINY_EIG * (1 + ||A||));
    phi(A) is undefined there and only its semicontinuous extensions exist."""


def theta(H):
    """Spatial angle sum(arctan(lambda_k)) of a Hermitian matrix."""
    return float(theta_batch(check_hermitian(H)))


def theta_symmetric(A):
    """Half-trace angle of a real symmetric 2n x 2n matrix via its J-invariant part."""
    A = check_symmetric(A)
    return theta(hermitian_of(jproject(A)))


def modulus_r(H):
    """sqrt(prod(1 + lambda_k^2)); equals |det(I + iH)| and is >= 1."""
    return float(modulus_r_batch(check_hermitian(H)))


def degenerate_identity(m, eta=0.0):
    """diag(eta, 1, ..., 1) of size m."""
    d = np.ones(m)
    d[0] = eta
    return np.diag(d)


def _sq_sum(X):
    """Sum of squares of a real (k, ...) array over all but the first axis."""
    X = X.reshape(X.shape[0], -1)
    return np.einsum("ki,ki->k", X, X)


def _sq_norm(Z):
    """Squared norm of each complex Z[k], from its real and imaginary views
    so that no complex temporary of Z's size is made."""
    return _sq_sum(Z.real) + _sq_sum(Z.imag)


def _abs2(z):
    """|z|^2 as re^2 + im^2, elementwise over arrays or of a Python number."""
    return z.real * z.real + z.imag * z.imag


def _band(E, scale, eps):
    """(a11, a1, ||a1||, threshold, in band) of the band |a11| <= eps*scale
    and ||a1|| <= eps*scale around S, scale = 1 + ||A||.

    ``E[i][j]`` is entry (i, j): an array over a stack (``A.transpose(1, 2,
    0)``) or, for one matrix, a Python number (``A.tolist()``).
    """
    a11 = E[0][0].real
    a1 = [row[0] for row in E[1:]]
    sq = sum(z.real * z.real for z in a1) + sum(z.imag * z.imag for z in a1)
    a1_norm = math.sqrt(sq) if isinstance(sq, float) else np.sqrt(sq)
    thr = eps * scale
    return a11, a1, a1_norm, thr, (abs(a11) <= thr) & (a1_norm <= thr)


def _schur_2x2(a11, a1_norm, x, y, p, q, r):
    """(Re sigma, Im sigma, theta(A+)) for a 2x2 spatial block, in closed form.

    A = [[a11, conj(x), conj(y)], [x, p, conj(r)], [y, r, q]] with
    a1_norm = ||(x, y)||; the arguments are arrays (one entry per matrix)
    or Python numbers (one matrix), and the arithmetic is the same for both.
    See the module docstring for the formulas and their scaling.
    """
    tr = p + q
    re_d = 1.0 - (p * q - _abs2(r))
    theta_plus = np.arctan2(tr, re_d)
    mod = np.hypot(re_d, tr)
    inv = 1.0 / (a1_norm + (a1_norm == 0.0))
    x = x * inv
    y = y * inv
    g1 = q * x - r.conjugate() * y
    g2 = p * y - r * x
    n2 = _abs2(x) + _abs2(y)
    quad = (x.conjugate() * g1 + y.conjugate() * g2).real
    t = a1_norm / mod
    re_sigma = (n2 + (_abs2(g1) + _abs2(g2))) * t * t
    im_sigma = a11 + (quad * (re_d / mod) - n2 * (tr / mod)) * t * a1_norm
    return re_sigma, im_sigma, theta_plus


def _lift(A, scale, eps, sign):
    """(values, singular, theta(A+)) of the usc (sign +1) or lsc (sign -1) lift.

    A is a self-adjoint (k, m, m) stack and scale its 1 + ||A||, or one
    2 x 2 or 3 x 3 matrix as nested lists of Python numbers
    (``A.tolist()``) and its scale as a float; the arithmetic is the same
    for both, and Python numbers skip numpy's per-call cost on one matrix.
    See the module docstring.  No eigensolver runs for a 1x1 or 2x2 spatial
    block A+.  A 1x1 block is its own eigenvalue with eigenvector 1, so the
    eigensolve's arithmetic is kept and gives the same bits.  A 2x2 block
    goes through ``_schur_2x2``: theta(A+) = atan2(tr, 1 - det) is exact for
    two eigenvalues, and sigma is divided by |det(I + i*A+)| >= 1 twice
    over the unit vector a1 / ||a1||, so nothing grows like ||A||^4.  A
    larger block takes one batched ``np.linalg.eigh``.  The singular mask is
    the band of ``_band`` plus the points where sigma vanishes numerically.
    """
    one = isinstance(A, list)
    E = A if one else A.transpose(1, 2, 0)
    m = len(E)
    a11, a1, a1_norm, _, singular = _band(E, scale, eps)
    if m == 3:
        re_sigma, im_sigma, theta_plus = _schur_2x2(
            a11, a1_norm, a1[0], a1[1], E[1][1].real, E[2][2].real, E[2][1]
        )
    else:
        if m == 2:  # eigenvalue a22, eigenvector 1
            lam, p = E[1][1].real, a1[0]
        else:
            lam, V = np.linalg.eigh(A[:, 1:, 1:])
            p = np.matmul(np.conj(A[:, None, 1:, 0]), V)[:, 0, :]
        wd = _abs2(p) * (1.0 / (1.0 + lam * lam))
        parts = (wd, wd * lam, np.arctan(lam))
        if m != 2:  # sum over the eigensolve's eigenvalues
            parts = [np.sum(x, axis=-1) for x in parts]
        re_sigma, im_wd, theta_plus = parts
        im_sigma = a11 - im_wd
    singular = singular | (np.hypot(re_sigma, im_sigma) < _TINY_EIG * scale)
    half = sign * 0.5 * math.pi
    if one:
        tail = half if singular else np.arctan2(im_sigma, re_sigma)
    else:
        tail = np.where(singular, half, np.arctan2(im_sigma, re_sigma))
    return theta_plus + tail, singular, theta_plus


def _entries(A):
    """One matrix as nested lists of Python complex numbers, and its 1 + ||A||."""
    E = A.tolist()
    return E, 1.0 + math.sqrt(sum(_abs2(z) for row in E for z in row))


def classify_singular(A, eps=EPS_SINGULAR):
    """Membership in the band |a11| <= eps*(1+||A||) and ||a1|| <= eps*(1+||A||)."""
    E, scale = _entries(check_hermitian(A, name="A"))
    a11, _, a1_norm, thr, in_band = _band(E, scale, eps)
    return SingularityReport(
        in_S=bool(in_band), a11=abs(a11), a1_norm=float(a1_norm), threshold=thr
    )


def _lift_one(A, eps, sign):
    """(LiftedAngle, theta(A+)) of one matrix, validated once.

    A 2 x 2 or 3 x 3 matrix is lifted as Python numbers; any other (only
    the API reaches them) as a stack of one, for the eigensolve of A+.
    """
    A = check_hermitian(A, name="A")
    E, scale = _entries(A)
    if len(E) in (2, 3):
        value, singular, theta_plus = _lift(E, scale, eps, sign)
    else:
        value, singular, theta_plus = (x[0] for x in _lift(A[None], scale, eps, sign))
    tag = SINGULAR_UPPER if sign > 0 else SINGULAR_LOWER
    return LiftedAngle(float(value), tag if singular else REGULAR), float(theta_plus)


def phi_regular(A):
    """Lifted space-time angle phi(A) for A off the singular set.

    The lifts' core with an empty band, so off the band it equals
    ``phi_lifted_usc(A).value`` exactly.  Raises DegenerateAngleError where
    det(I0 + i*A) vanishes numerically, which only happens on the numerical
    boundary of the singular set.
    """
    lifted, _ = _lift_one(A, 0.0, +1)
    if not lifted.regular:
        raise DegenerateAngleError(
            "det(I0 + i*A) vanishes; use the semicontinuous extension"
        )
    return lifted.value


def phi_lifted_usc(A, eps=EPS_SINGULAR):
    """Upper semicontinuous lift: phi(A) off S, +pi/2 + theta(A+) on S."""
    return _lift_one(A, eps, +1)[0]


def phi_lifted_lsc(A, eps=EPS_SINGULAR):
    """Lower semicontinuous lift: phi(A) off S, -pi/2 + theta(A+) on S."""
    return _lift_one(A, eps, -1)[0]


def _det_coeffs(B, d):
    """Coefficients of det(B - i v diag(d)) in v, highest power first, for B of
    at most 3 x 3 (nested lists): the v^j coefficient is (-i)^j times the sum,
    over the index sets S of size j, of prod(d[S]) times the principal minor
    of B off S."""
    if len(B) == 1:
        return [-1j * d[0], B[0][0]]
    if len(B) == 2:
        (a, b), (e, f) = B
        d0, d1 = d
        return [-d0 * d1, -1j * (d0 * f + d1 * a), a * f - b * e]
    (a, b, c), (e, f, g), (h, k, l) = B
    d0, d1, d2 = d
    m01, m02, m12 = a * f - b * e, a * l - c * h, f * l - g * k
    det = a * m12 - b * (e * l - g * h) + c * (e * k - f * h)
    return [
        1j * (d0 * d1 * d2),
        -(d0 * d1 * l + d0 * d2 * f + d1 * d2 * a),
        -1j * (d0 * m12 + d1 * m02 + d2 * m01),
        det,
    ]


def _level_roots(A, d, c, spatial):
    """Ascending real parts of the roots of q(v) = Im(e^{-ic} det(I0 + i(A - v diag(d)))).

    I0 is the identity for spatial data, diag(0, 1, ..., 1) otherwise.  q is
    a real polynomial of degree m.  Off S, det = |det| e^{i phi~}, so q
    vanishes where phi~ crosses a level c + k pi; on S det vanishes, and
    there the lift jumps down by pi over one level.  phi~ falls from m pi/2
    to -m pi/2 along the ray and passes each of the m levels in that range
    once, so every root is real and rounding only adds imaginary noise.

    Up to 3 x 3 the coefficients of det come from the principal minors of
    I0 + iA (``_det_coeffs``).  A larger matrix (only the API reaches it)
    takes the eigenvalues kappa of M = diag(d)^{-1} (A - i I0): then
    I0 + i(A - v diag(d)) = -i diag(d) (v - M), and det is
    (-i)^m prod(d) prod_k (v - kappa_k).
    """
    m = A.shape[0]
    I0 = np.eye(m)
    if not spatial:
        I0[0, 0] = 0.0
    if m <= 3:
        coef = np.array(_det_coeffs((I0 + 1j * A).tolist(), d.tolist()))
    else:
        kappa = np.linalg.eigvals((A - 1j * I0) / d[:, None])
        coef = (-1j) ** m * np.prod(d) * np.poly(kappa)
    return _real_roots(np.imag(np.exp(-1j * c) * coef))


def _real_roots(q):
    """np.sort(np.roots(q).real) for real coefficients q, highest power first,
    with np.roots' own steps and less of its per-call cost: leading and
    trailing zero coefficients are trimmed, each trailing one a root at 0, and
    the other roots are the eigenvalues of the companion matrix."""
    q = q.tolist()
    nonzero = [i for i, x in enumerate(q) if x != 0.0]
    if not nonzero:
        return np.array([])
    p = q[nonzero[0] : nonzero[-1] + 1]
    A = np.eye(len(p) - 1, k=-1)
    if len(p) > 1:
        A[0] = [-x / p[0] for x in p[1:]]
    roots = np.linalg.eigvals(A).real
    return np.sort(np.concatenate((roots, np.zeros(len(q) - 1 - nonzero[-1]))))


def _probe(angle, c, r, tol, lo, hi):
    """(lo, hi) narrowed by evaluating r -+ tol/2, a pair at most tol wide,
    where it lies inside the bracket."""
    low = r - 0.5 * tol
    high = low + tol
    if high - low > tol:  # low + tol rounded up
        high = math.nextafter(high, low)
    for v in (low, high):
        if lo < v < hi:
            if angle(v) >= c:
                lo = v
            else:
                hi = v
    return lo, hi


def _band_edge(A, d, v, eps):
    """Upper end of the singular band along A - v' diag(d) when v lies in the
    band, else None.  Along the ray only the corner moves, a11(v') = a11(v)
    - (v' - v) d[0]; the band ends where it reaches -eps*(1 + ||A||)."""
    E, scale = _entries(A - v * np.diag(d))
    a11, _, _, thr, in_band = _band(E, scale, eps)
    return v + (a11 + thr) / d[0] if in_band else None


def _ray_boundary(angle, A, d, c, lo, phi_lo, tol, spatial=False, eps=EPS_SINGULAR):
    """Largest evaluated member of {v : angle(v) >= c} along A - v diag(d), d > 0.

    ``angle(v)`` evaluates the lifted angle (theta with ``spatial``) of
    A - v diag(d) with band width ``eps``, which does not increase in v.  On
    entry angle(lo) = phi_lo >= c.  The crossing of c is a root of the
    polynomial of ``_level_roots``: among the roots above lo, one is passed
    first for each level c + k pi (k >= 1) below phi_lo; in the convexity
    regime there is none, and the crossing is the smallest root.  Two
    evaluations at r -+ tol/2 certify it.  Where the ray meets S, the lift
    keeps its upper extension across the singular band, so when both probes
    land in the band the crossing is the band's upper edge, and two more
    evaluations there certify it.  While no non-member has been evaluated
    (no root above lo, or no probe outside the set), the search steps up
    from the highest evaluated member by 1, 2, 4, ... up to 1e8, and raises
    ValidationError if the ray never leaves the set; then, or where the
    probes do not bracket the boundary (a root off by more than tol/2),
    bisection goes on from the bracket.  Either way the returned v has
    angle(v) >= c evaluated and a value at most tol above it evaluated < c.
    """
    skip = max(math.ceil((phi_lo - c) / math.pi) - 1, 0)
    roots = _level_roots(A, d, c, spatial)
    roots = roots[roots > lo]
    hi = math.inf
    if len(roots) > skip:
        lo, hi = _probe(angle, c, roots[skip], tol, lo, hi)
        edge = None if spatial or hi - lo <= tol else _band_edge(A, d, lo, eps)
        if edge is not None:
            lo, hi = _probe(angle, c, edge, tol, lo, hi)
    base, step = lo, 1.0
    while hi - lo > tol:
        if hi < math.inf:
            v = 0.5 * (lo + hi)
        elif step <= 1e8:
            v, step = base + step, 2.0 * step
        else:
            raise ValidationError("the admissible set is unbounded along the ray")
        if angle(v) >= c:
            lo = v
        else:
            hi = v
    return lo


def eta_squeeze(A, eta):
    """Spatial angle of I^eta A I^eta where I^eta scales the time coordinate by eta.

    For A outside the singular set this converges to phi_regular(A) as
    eta grows; at eta = 1 it is the plain spatial angle of A.
    """
    A = check_hermitian(A, name="A")
    Ieta = degenerate_identity(A.shape[0], eta)
    As = Ieta @ A @ Ieta
    return theta(0.5 * (As + As.conj().T))


def _spacetime_eigs(A, eta=0.0):
    B = degenerate_identity(A.shape[0], eta) + 1j * A
    return np.linalg.eigvals(B)


def realpart_spectrum_check(A, eta=0.0):
    """min over i of Re(mu_i) for the eigenvalues of diag(eta,1,..,1) + i*A."""
    A = check_hermitian(A, name="A")
    return float(np.min(_spacetime_eigs(A, eta).real))


def slice_angle_gap(A, eps=EPS_SINGULAR):
    """phi_lifted_usc(A) - theta(A+); always within [-pi/2, pi/2]."""
    lifted, theta_plus = _lift_one(A, eps, +1)
    return lifted.value - theta_plus


# Batched variants over stacks of matrices; these back the fuzz suites and
# acceptance runs, where 1e4..1e5 small eigenproblems per call are routine.


def _eigvalsh(H):
    """Ascending eigenvalues of a (..., n, n) Hermitian stack, 1x1 read off the diagonal."""
    H = np.asarray(H, dtype=complex)
    if H.shape[-1] == 1:
        return H[..., 0, 0].real[..., None]
    return np.linalg.eigvalsh(H)


def theta_batch(H):
    """theta over a (..., n, n) stack of Hermitian matrices."""
    return np.sum(np.arctan(_eigvalsh(H)), axis=-1)


def modulus_r_batch(H):
    lam = _eigvalsh(H)
    return np.sqrt(np.prod(1.0 + lam * lam, axis=-1))


def _skew_defect(A):
    """||A - A^*|| of each matrix of a (k, m, m) stack."""
    At = A.swapaxes(-2, -1)
    return np.sqrt(_sq_sum(A.real - At.real) + _sq_sum(A.imag + At.imag))


def _phi_lifted_batch(A, eps, sign):
    """(values, singular) of the usc (sign +1) or lsc (sign -1) lift of a stack.

    Raises ValueError when a matrix has a non-finite entry or norm (its norm
    overflows from about 1e154), or is not self-adjoint within
    HERM_TOL * (1 + ||A||).
    """
    A = np.asarray(A)
    m = A.shape[-1]
    flat = A.reshape(-1, m, m)
    vals = np.empty(flat.shape[0])
    singular = np.empty(flat.shape[0], dtype=bool)
    for start in range(0, flat.shape[0], _BLOCK):
        stop = start + _BLOCK
        block = np.asarray(flat[start:stop], dtype=complex)
        scale = 1.0 + np.sqrt(_sq_norm(block))
        if not np.all(np.isfinite(scale)):
            raise ValueError("batch input has a non-finite entry or norm")
        if np.any(_skew_defect(block) > HERM_TOL * scale):
            raise ValueError("batch input is not self-adjoint")
        vals[start:stop], singular[start:stop], _ = _lift(block, scale, eps, sign)
    return vals.reshape(A.shape[:-2]), singular.reshape(A.shape[:-2])


def phi_lifted_usc_batch(A, eps=EPS_SINGULAR):
    """(values, singular_mask) of the usc lift over a stack of space-time matrices."""
    return _phi_lifted_batch(A, eps, +1)


def phi_lifted_lsc_batch(A, eps=EPS_SINGULAR):
    return _phi_lifted_batch(A, eps, -1)
