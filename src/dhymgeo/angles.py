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

Every lift, scalar or batched, evaluates phi from one Hermitian
eigensolve of A+.  Write A = [[a11, a1^*], [a1, A+]] and
A+ = V diag(lambda) V^*, w = |V^* a1|^2.  The Schur complement of the
corner (``linalg.bordered_det``) gives

    det(I0 + i*A) = det(I + i*A+) * sigma,
    sigma = i*a11 + a1^* (I + i*A+)^{-1} a1,
    Re sigma = sum_k w_k / (1 + lambda_k^2) >= 0,
    Im sigma = a11 - sum_k w_k lambda_k / (1 + lambda_k^2),

and phi(A) = theta(A+) + atan2(Im sigma, Re sigma).  The identity is exact:
sigma vanishes only on S (Re sigma = 0 forces a1 = 0, then Im sigma = a11),
and det(I + i*A+) never vanishes, each factor 1 + i*lambda_k having its
argument arctan(lambda_k) in (-pi/2, pi/2).  So theta(A+) + arg(sigma) is
a continuous lift of arg det(I0 + i*A) off S, and so is sum_i arg(mu_i),
since there no mu_i vanishes or leaves the closed right half-plane.  The
two differ by a locally constant multiple of 2*pi off S.  S has real
codimension 2n + 1 >= 3 among Hermitian matrices, so its complement is
connected, and at diag(1, 0, ..., 0) both lifts equal pi/2; they agree
everywhere off S.  The same theta(A+) gives the singular extensions.
Near S this form stays accurate, while the eigenvalues mu_i of the
non-normal I0 + i*A lose accuracy; the eigenvalue definition is kept only
in ``realpart_spectrum_check`` and as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_hermitian, check_symmetric, hermitian_of, jproject

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
    H = check_hermitian(H)
    return float(np.sum(np.arctan(np.linalg.eigvalsh(H))))


def theta_symmetric(A):
    """Half-trace angle of a real symmetric 2n x 2n matrix via its J-invariant part."""
    A = check_symmetric(A)
    return theta(hermitian_of(jproject(A)))


def modulus_r(H):
    """sqrt(prod(1 + lambda_k^2)); equals |det(I + iH)| and is >= 1."""
    H = check_hermitian(H)
    lam = np.linalg.eigvalsh(H)
    return float(np.sqrt(np.prod(1.0 + lam * lam)))


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


def _band(A, scale, eps):
    """(|a11|, ||a1||, threshold, in band) over a (k, m, m) stack: the band
    |a11| <= eps*scale and ||a1|| <= eps*scale around S, scale = 1 + ||A||."""
    a11 = np.abs(A[:, 0, 0].real)
    a1_norm = np.sqrt(_sq_norm(A[:, 1:, 0]))
    thr = eps * scale
    return a11, a1_norm, thr, (a11 <= thr) & (a1_norm <= thr)


def _lift(A, scale, eps, sign):
    """(values, singular, theta(A+)) of the usc (sign +1) or lsc (sign -1) lift.

    A is a self-adjoint (k, m, m) stack and scale its 1 + ||A||; see the
    module docstring.  The singular mask is the band of ``_band`` plus the
    points where sigma vanishes numerically.
    """
    a11 = A[:, 0, 0].real
    lam, V = np.linalg.eigh(A[:, 1:, 1:])
    p = np.matmul(np.conj(A[:, None, 1:, 0]), V)[:, 0, :]
    w = np.square(p.real) + np.square(p.imag)
    d = 1.0 / (1.0 + lam * lam)
    wd = w * d
    re_sigma = np.sum(wd, axis=-1)
    im_sigma = a11 - np.sum(wd * lam, axis=-1)
    theta_plus = np.sum(np.arctan(lam), axis=-1)
    singular = _band(A, scale, eps)[3]
    singular |= np.hypot(re_sigma, im_sigma) < _TINY_EIG * scale
    vals = theta_plus + np.where(
        singular, sign * 0.5 * math.pi, np.arctan2(im_sigma, re_sigma)
    )
    return vals, singular, theta_plus


def classify_singular(A, eps=EPS_SINGULAR):
    """Membership in the band |a11| <= eps*(1+||A||) and ||a1|| <= eps*(1+||A||)."""
    A = check_hermitian(A, name="A")
    a11, a1_norm, thr, in_band = _band(A[None], 1.0 + float(np.linalg.norm(A)), eps)
    return SingularityReport(
        in_S=bool(in_band[0]), a11=float(a11[0]), a1_norm=float(a1_norm[0]), threshold=thr
    )


def _lift_one(A, eps, sign):
    """(LiftedAngle, theta(A+)) of one matrix, validated once, lifted as a stack of one."""
    A = check_hermitian(A, name="A")
    vals, singular, theta_plus = _lift(A[None], 1.0 + float(np.linalg.norm(A)), eps, sign)
    tag = SINGULAR_UPPER if sign > 0 else SINGULAR_LOWER
    return LiftedAngle(float(vals[0]), tag if singular[0] else REGULAR), float(theta_plus[0])


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


def _level_roots(A, d, c, spatial):
    """Ascending real parts of the roots of q(v) = Im(e^{-ic} det(I0 + i(A - v diag(d)))).

    I0 is the identity for spatial data, diag(0, 1, ..., 1) otherwise.  With
    M = diag(d)^{-1} (A - i I0), I0 + i(A - v diag(d)) = -i diag(d) (v - M), so
    q(v) = prod(d) Im(e^{-i(c + m pi/2)} prod_k (v - kappa_k)) over the
    eigenvalues kappa of M: a real polynomial of degree m.  Off S,
    det = |det| e^{i phi~}, so q vanishes where phi~ crosses a level c + k pi;
    on S det vanishes, and there the lift jumps down by pi over one level.
    phi~ falls from m pi/2 to -m pi/2 along the ray and passes each of the m
    levels in that range once, so every root is real and rounding only adds
    imaginary noise.
    """
    m = A.shape[0]
    i0 = np.ones(m)
    if not spatial:
        i0[0] = 0.0
    kappa = np.linalg.eigvals((A - 1j * np.diag(i0)) / d[:, None])
    coef = np.imag(np.exp(-1j * (c + 0.5 * m * math.pi)) * np.poly(kappa))
    return np.sort(np.roots(coef).real)


def _ray_boundary(angle, A, d, c, lo, hi, phi_lo, tol, spatial=False):
    """Largest evaluated member of {v : angle(v) >= c} along A - v diag(d), d > 0.

    ``angle(v)`` evaluates the lifted angle (theta with ``spatial``) of
    A - v diag(d), which does not increase in v.  On entry angle(lo) =
    phi_lo >= c and angle(hi) < c.  The crossing of c is a root of the
    polynomial of ``_level_roots``: among the roots in (lo, hi), one is
    passed first for each level c + k pi (k >= 1) below phi_lo; in the
    convexity regime there is none, and the crossing is the smallest root.
    Two evaluations at r -+ tol/2 certify it.  When they do not bracket the
    boundary (on or near S, or a root off by more than tol/2), bisection
    goes on from the bracket they narrowed.  Either way the returned v has
    angle(v) >= c evaluated and a value at most tol above it evaluated < c.
    """
    skip = max(math.ceil((phi_lo - c) / math.pi) - 1, 0)
    roots = _level_roots(A, d, c, spatial)
    roots = roots[(roots > lo) & (roots < hi)]
    if len(roots) > skip:
        low = roots[skip] - 0.5 * tol
        high = low + tol
        if high - low > tol:  # low + tol rounded up
            high = math.nextafter(high, low)
        for v in (low, high):
            if lo < v < hi:
                if angle(v) >= c:
                    lo = v
                else:
                    hi = v
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if angle(mid) >= c:
            lo = mid
        else:
            hi = mid
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


def theta_batch(H):
    """theta over a (..., n, n) stack of Hermitian matrices."""
    H = np.asarray(H, dtype=complex)
    return np.sum(np.arctan(np.linalg.eigvalsh(H)), axis=-1)


def modulus_r_batch(H):
    H = np.asarray(H, dtype=complex)
    lam = np.linalg.eigvalsh(H)
    return np.sqrt(np.prod(1.0 + lam * lam, axis=-1))


def _skew_defect(A):
    """||A - A^*|| of each matrix of a (k, m, m) stack."""
    At = A.swapaxes(-2, -1)
    return np.sqrt(_sq_sum(A.real - At.real) + _sq_sum(A.imag + At.imag))


def _phi_lifted_batch(A, eps, sign, tol=1e-12):
    """(values, singular) of the usc (sign +1) or lsc (sign -1) lift of a stack.

    Raises ValueError when a matrix is not self-adjoint within tol * (1 + ||A||).
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
        if np.any(_skew_defect(block) > tol * scale):
            raise ValueError("batch input is not self-adjoint")
        vals[start:stop], singular[start:stop], _ = _lift(block, scale, eps, sign)
    return vals.reshape(A.shape[:-2]), singular.reshape(A.shape[:-2])


def phi_lifted_usc_batch(A, eps=EPS_SINGULAR):
    """(values, singular_mask) of the usc lift over a stack of space-time matrices."""
    return _phi_lifted_batch(A, eps, +1)


def phi_lifted_lsc_batch(A, eps=EPS_SINGULAR):
    return _phi_lifted_batch(A, eps, -1)
