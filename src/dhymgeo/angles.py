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
and column.  ``phi_regular`` evaluates this eigenvalue definition directly
and is kept as the reference.

The batch lifts evaluate phi from one Hermitian eigensolve of A+.  Write
A = [[a11, a1^*], [a1, A+]] and A+ = V diag(lambda) V^*, w = |V^* a1|^2.
The Schur complement of the corner (``linalg.bordered_det``) gives

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

# Below this (relative) eigenvalue modulus of I0 + i*A, or modulus of the
# Schur complement sigma in the batch lifts, the principal arg is meaningless
# and the semicontinuous extension takes over.
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
    """An eigenvalue of I0 + i*A sits at the origin; the regular arg is undefined."""


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


def spatial_block(A):
    """Drop the time row and column of a space-time matrix."""
    A = np.asarray(A)
    return A[..., 1:, 1:]


def degenerate_identity(m, eta=0.0):
    """diag(eta, 1, ..., 1) of size m."""
    d = np.ones(m)
    d[0] = eta
    return np.diag(d)


def classify_singular(A, eps=EPS_SINGULAR):
    """Membership in the band |a11| <= eps*(1+||A||) and ||a1|| <= eps*(1+||A||)."""
    A = check_hermitian(A, name="A")
    thr = eps * (1.0 + float(np.linalg.norm(A)))
    a11 = abs(float(A[0, 0].real))
    a1_norm = float(np.linalg.norm(A[1:, 0]))
    return SingularityReport(
        in_S=(a11 <= thr and a1_norm <= thr), a11=a11, a1_norm=a1_norm, threshold=thr
    )


def _spacetime_eigs(A, eta=0.0):
    B = degenerate_identity(A.shape[0], eta) + 1j * A
    return np.linalg.eigvals(B)


def phi_regular(A, tol=1e-12):
    """Lifted space-time angle sum(arg(mu_i)) for A outside the singular set.

    Raises ValueError when an eigenvalue of I0 + i*A has real part below
    -tol (impossible for genuine Hermitian input) and DegenerateAngleError
    when one sits at the origin, which only happens on the numerical
    boundary of the singular set.
    """
    A = check_hermitian(A, name="A")
    mu = _spacetime_eigs(A)
    scale = 1.0 + float(np.linalg.norm(A))
    if float(np.min(np.abs(mu))) < _TINY_EIG * scale:
        raise DegenerateAngleError(
            "eigenvalue of I0 + i*A at the origin; use the semicontinuous extension"
        )
    if float(np.min(mu.real)) < -tol * scale:
        raise ValueError(
            f"eigenvalue with negative real part {np.min(mu.real):.3e}: "
            "input is not a valid space-time Hermitian matrix"
        )
    args = np.arctan2(mu.imag, np.maximum(mu.real, 0.0))
    return float(np.sum(args))


def _theta_spatial(block):
    if block.size == 0:
        return 0.0
    return theta(block)


def _lifted(A, eps, sign):
    A = check_hermitian(A, name="A")
    if not classify_singular(A, eps).in_S:
        try:
            return LiftedAngle(phi_regular(A), REGULAR)
        except DegenerateAngleError:
            pass
    tag = SINGULAR_UPPER if sign > 0 else SINGULAR_LOWER
    return LiftedAngle(sign * 0.5 * math.pi + _theta_spatial(spatial_block(A)), tag)


def phi_lifted_usc(A, eps=EPS_SINGULAR):
    """Upper semicontinuous lift: phi(A) off S, +pi/2 + theta(A+) on S."""
    return _lifted(A, eps, +1)


def phi_lifted_lsc(A, eps=EPS_SINGULAR):
    """Lower semicontinuous lift: phi(A) off S, -pi/2 + theta(A+) on S."""
    return _lifted(A, eps, -1)


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


def realpart_spectrum_check(A, eta=0.0):
    """min over i of Re(mu_i) for the eigenvalues of diag(eta,1,..,1) + i*A."""
    A = check_hermitian(A, name="A")
    return float(np.min(_spacetime_eigs(A, eta).real))


def slice_angle_gap(A, eps=EPS_SINGULAR):
    """phi_lifted_usc(A) - theta(A+); always within [-pi/2, pi/2]."""
    A = check_hermitian(A, name="A")
    return phi_lifted_usc(A, eps).value - _theta_spatial(spatial_block(A))


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


def _sq_sum(X):
    """Sum of squares of a real (k, ...) array over all but the first axis."""
    X = X.reshape(X.shape[0], -1)
    return np.einsum("ki,ki->k", X, X)


def _sq_norm(Z):
    """Squared norm of each complex Z[k], from its real and imaginary views
    so that no complex temporary of Z's size is made."""
    return _sq_sum(Z.real) + _sq_sum(Z.imag)


def _skew_defect(A):
    """||A - A^*|| of each matrix of a (k, m, m) stack."""
    At = A.swapaxes(-2, -1)
    return np.sqrt(_sq_sum(A.real - At.real) + _sq_sum(A.imag + At.imag))


def _lifted_block(A, eps, sign, tol):
    """(values, singular) for one (k, m, m) block; see the module docstring."""
    a11 = A[:, 0, 0].real
    a1 = A[:, 1:, 0]
    scale = 1.0 + np.sqrt(_sq_norm(A))
    if np.any(_skew_defect(A) > tol * scale):
        raise ValueError("batch input is not self-adjoint")
    lam, V = np.linalg.eigh(A[:, 1:, 1:])
    p = np.matmul(np.conj(a1)[:, None, :], V)[:, 0, :]
    w = np.square(p.real) + np.square(p.imag)
    d = 1.0 / (1.0 + lam * lam)
    wd = w * d
    re_sigma = np.sum(wd, axis=-1)
    im_sigma = a11 - np.sum(wd * lam, axis=-1)
    theta_plus = np.sum(np.arctan(lam), axis=-1)
    thr = eps * scale
    singular = (np.abs(a11) <= thr) & (np.sqrt(_sq_norm(a1)) <= thr)
    singular |= np.hypot(re_sigma, im_sigma) < _TINY_EIG * scale
    vals = theta_plus + np.where(
        singular, sign * 0.5 * math.pi, np.arctan2(im_sigma, re_sigma)
    )
    return vals, singular


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
        vals[start:stop], singular[start:stop] = _lifted_block(
            np.asarray(flat[start:stop], dtype=complex), eps, sign, tol
        )
    return vals.reshape(A.shape[:-2]), singular.reshape(A.shape[:-2])


def phi_lifted_usc_batch(A, eps=EPS_SINGULAR):
    """(values, singular_mask) of the usc lift over a stack of space-time matrices."""
    return _phi_lifted_batch(A, eps, +1)


def phi_lifted_lsc_batch(A, eps=EPS_SINGULAR):
    return _phi_lifted_batch(A, eps, -1)
