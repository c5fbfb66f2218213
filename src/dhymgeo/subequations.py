"""Dirichlet sets for the two angle operators.

Four families are supported, all purely second order and parametrized by
a branch constant c and a Hermitian twist matrix L:

    spatial         theta(+L + A)  >=  c
    spatial dual    theta(-L + A)  >= -c
    spacetime       phi~(+L0 + A)  >=  c      (L0 = diag(0) (+) L)
    spacetime dual  phi~(-L0 + A)  >= -c

where phi~ is the upper semicontinuous lifted space-time angle.  Duality
swaps a family with its dual row and is involutive.  Every set is closed
under adding positive semidefinite matrices, which is also what makes
the strictness margin computable along the ray A - t*Id: if A - t*Id is
still a member then every Frobenius perturbation of size t keeps
membership, so t certifies the distance to the complement.  The angle
falls monotonically along the ray, so its boundary is a root of the real
polynomial Im(e^{-i c} det(I0 + i(A - t*Id))) (degree n for the spatial
sets, n + 1 for the space-time ones) above t = 0, checked by two
membership evaluations after the one at t = 0.

Every fuzz suite runs through one harness, ``_fuzz``.  It splits the
trials into shards of 2000 with child seeds spawned from ``seed``, so a
thread pool changes wall time but never results.  A suite supplies
``check(rng, start, size)`` for trials start .. start + size - 1, which
returns the violation mask, a per-trial measure (the report's ``worst``
is its min, or its max for duality), the witness of a violating trial
and counters summed into the report's details.  Each shard keeps its
first two witnesses and the report the first four.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .angles import (
    EPS_SINGULAR,
    _ray_boundary,
    phi_lifted_lsc_batch,
    phi_lifted_usc,
    phi_lifted_usc_batch,
    theta,
    theta_batch,
)
from .linalg import check_hermitian

SPATIAL = "spatial"
SPACETIME = "spacetime"

_SHARD = 2000
_SCALES = (0.1, 1.0, 10.0)
_PSD_SCALES = (0.1, 1.0)
# convexity gaps below -_GAP_TOL are violations
_GAP_TOL = 1e-8
_FORCED_SINGULAR = 100


@dataclass(frozen=True)
class Branch:
    """Branch constant c (radians) for spatial complex dimension n."""

    c: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spatial dimension must be >= 1")

    @property
    def spatial_ok(self):
        return abs(self.c) < self.n * math.pi / 2

    @property
    def in_convexity_regime(self):
        return (self.n - 1) * math.pi / 2 < self.c < self.n * math.pi / 2

    def require_regime(self):
        if not self.in_convexity_regime:
            lo, hi = (self.n - 1) * math.pi / 2, self.n * math.pi / 2
            raise ValueError(
                f"branch c={self.c:.6g} outside the convexity regime "
                f"({lo:.6g}, {hi:.6g}) for n={self.n}"
            )


@dataclass(frozen=True)
class SubeqSpec:
    """One of the four angle Dirichlet sets."""

    space: str
    branch: Branch
    twist: np.ndarray | None = None
    dual: bool = False

    def __post_init__(self):
        if self.space not in (SPATIAL, SPACETIME):
            raise ValueError(f"unknown space {self.space!r}")
        if self.twist is not None:
            T = check_hermitian(self.twist, name="twist")
            if T.shape[0] != self.branch.n:
                raise ValueError("twist dimension must equal the spatial dimension n")
            object.__setattr__(self, "twist", T)

    @property
    def kind(self):
        return self.space + ("-dual" if self.dual else "")

    @property
    def matrix_dim(self):
        return self.branch.n + (1 if self.space == SPACETIME else 0)

    @property
    def threshold(self):
        return -self.branch.c if self.dual else self.branch.c


def _twist(spec, X):
    """X with spec's signed twist added, over a (..., m, m) stack: to the
    whole matrix for spatial sets, to the spatial block for space-time ones.
    Raises ValueError when m is not spec's matrix dimension."""
    m = spec.matrix_dim
    if X.shape[-1] != m:
        raise ValueError(f"expected a {m}x{m} matrix for {spec.kind}, got {X.shape[-1]}")
    if spec.twist is None:
        return X
    sign = -1.0 if spec.dual else 1.0
    X = X.astype(complex)
    if spec.space == SPATIAL:
        X += sign * spec.twist
    else:
        X[..., 1:, 1:] += sign * spec.twist
    return X


def _angle(spec, A, eps):
    """The angle of an already validated A under spec's twist."""
    X = _twist(spec, A)
    if spec.space == SPATIAL:
        return theta(X)
    return phi_lifted_usc(X, eps).value


def member_angle(spec, A, eps=EPS_SINGULAR):
    """The angle value compared against spec.threshold by ``member``."""
    return _angle(spec, check_hermitian(A, name="A"), eps)


def member(spec, A, eps=EPS_SINGULAR):
    return member_angle(spec, A, eps) >= spec.threshold


def dual_of(spec):
    """The Dirichlet dual; involutive."""
    return replace(spec, dual=not spec.dual)


def strict_margin(spec, A, bisect_tol=1e-10, eps=EPS_SINGULAR):
    """Certified lower bound on dist(A, complement), or None for non-members.

    Evaluates membership once at t = 0, then takes the boundary along
    A - t*Id from the polynomial root of ``angles._ray_boundary`` with two
    certifying evaluations (bisection only where they do not bracket it).
    The returned t has member(A - t*Id) verified, and member(A - t'*Id)
    fails for some t' at most ``bisect_tol`` above it; positivity of the
    set under psd additions turns that into a Frobenius-ball certificate
    of the same radius.  Raises ValidationError if the ray never leaves
    the set.  ``bisect_tol`` must be finite and positive: no bisection can
    narrow a bracket of two adjacent floats to zero.
    """
    if not 0.0 < bisect_tol < math.inf:
        raise ValueError(f"bisect_tol must be finite and positive, got {bisect_tol!r}")
    A = check_hermitian(A, name="A")
    threshold = spec.threshold
    eye = np.eye(A.shape[0])

    def angle(t):
        return _angle(spec, A - t * eye, eps)

    phi_lo = angle(0.0)
    if phi_lo < threshold:
        return None
    return _ray_boundary(
        angle,
        _twist(spec, A),
        np.ones(A.shape[0]),
        threshold,
        0.0,
        phi_lo,
        bisect_tol,
        spatial=spec.space == SPATIAL,
        eps=eps,
    )


# Deterministic sampling and the fuzz harness.


@dataclass
class FuzzReport:
    suite: str
    trials: int
    violations: int
    worst: float
    seed: int
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)


def sample_hermitian(rng, dim, count, scales=_SCALES):
    """(count, dim, dim) Hermitian draws with a scale-mixture spread:
    s (G + G^H) / 2 with G = X + iY standard normal, X drawn before Y.  The
    real and imaginary parts are written in place, with no complex
    temporaries: one real buffer is filled with X, symmetrized into the
    real part, then refilled with Y (the same stream as two fresh draws).
    Halving is exact, so this is bitwise the complex form."""
    half_s = 0.5 * np.asarray(scales)[rng.integers(0, len(scales), size=count)][:, None, None]
    H = np.empty((count, dim, dim), dtype=complex)
    G = np.empty((count, dim, dim))
    for part, op in ((H.real, np.add), (H.imag, np.subtract)):
        rng.standard_normal(out=G)
        op(G, np.swapaxes(G, -2, -1), out=part)
        np.multiply(part, half_s, out=part)
    return H


def sample_psd(rng, dim, count):
    """Random positive semidefinite matrices from squared Gaussian factors."""
    s = np.asarray(_PSD_SCALES)[rng.integers(0, len(_PSD_SCALES), size=count)]
    F = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal(
        (count, dim, dim)
    )
    P = F @ np.conj(np.swapaxes(F, -2, -1)) / dim
    return P * s[:, None, None]


def _fuzz(suite, check, trials, seed, threads, details, worst=np.min):
    """Run ``check`` over the seeded shards of ``trials`` and build the report,
    as the module docstring describes; ``details`` holds every counter key
    at 0.  ``threads`` None or 1 runs the shards serially."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    starts = range(0, trials, _SHARD)
    jobs = list(zip(np.random.SeedSequence(seed).spawn(len(starts)), starts))

    def shard(job):
        seedseq, start = job
        rng = np.random.default_rng(seedseq)
        bad, measure, witness, counts = check(rng, start, min(_SHARD, trials - start))
        witnesses = [witness(i) for i in np.flatnonzero(bad)[:2]]
        return int(np.sum(bad)), float(worst(measure)), witnesses, counts

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(shard, jobs))
    else:
        results = [shard(job) for job in jobs]
    for *_, counts in results:
        for key, value in counts.items():
            details[key] += value
    return FuzzReport(
        suite=suite,
        trials=trials,
        violations=sum(r[0] for r in results),
        worst=float(worst([r[1] for r in results])),
        seed=seed,
        details=details,
        witnesses=[w for r in results for w in r[2]][:4],
    )


def _convexity_candidates(rng, c, m, count):
    """Scale-mixture Hermitian proposals aimed at the superlevel set of c.

    Three flavors: raw scale-mixture draws, draws recentered at
    tan(c/m) * Id (whose angle sits near c), and near-singular-set draws
    with a recentered spatial block and a damped first row and column.
    The convexity check only needs members, so widening the proposal
    never weakens the property; it just keeps acceptance healthy for
    branches close to the top of the range.
    """
    A = sample_hermitian(rng, m, count)
    flavor = rng.integers(0, 5, size=count)
    shift = math.tan(c / m)
    u = rng.uniform(0.6, 1.8, size=count)
    centered = flavor >= 2
    # the recentring shift on the real diagonal (a writable view)
    diagonal = np.einsum("kii->ki", A.real)
    np.add(diagonal, (shift * u)[:, None], out=diagonal, where=centered[:, None])
    near_s = flavor == 4
    if np.any(near_s):
        damp = np.asarray((1e-3, 1e-1))[rng.integers(0, 2, size=int(np.sum(near_s)))]
        A[near_s, 0, :] *= damp[:, None]
        A[near_s, :, 0] *= damp[:, None]
        # recenter the corner so the damped row stays consistent
        A[near_s, 0, 0] = damp * rng.standard_normal(damp.shape)
    return A


def _sample_members_spacetime(rng, c, m, count, eps):
    """Rejection-sample ``count`` space-time matrices with usc angle >= c.

    The first round draws one candidate per member still needed; each
    later round draws about 1.1 * need / p + 64, with p the acceptance
    seen so far in this call, so most calls finish in two rounds and few
    lifted candidates are thrown away.  Every round is capped at
    max(4 * need, 512), which is also the size taken while nothing has
    been accepted.  Round sizes depend only on ``rng``'s own draws, so a
    shard's members are fixed by its seed, and each kept member is still
    a proposal draw conditioned on phi~ >= c.

    Returns (members, drawn, accepted): the first ``count`` members, the
    number of candidates drawn and how many of them had angle >= c (members
    beyond ``count`` in the last round are counted but not kept).  Starves
    (RuntimeError) after 200 rounds, or below 0.1% acceptance in 20000 draws.
    """
    out = []
    got = 0
    drawn = 0
    accepted = 0
    for _ in range(200):
        need = count - got
        cap = max(4 * need, 512)
        if not drawn:
            chunk = need
        elif accepted:
            chunk = min(int(1.1 * need * drawn / accepted) + 64, cap)
        else:
            chunk = cap
        A = _convexity_candidates(rng, c, m, chunk)
        vals, _ = phi_lifted_usc_batch(A, eps)
        keep = A[vals >= c]
        drawn += chunk
        accepted += keep.shape[0]
        if keep.shape[0]:
            out.append(keep[:need])
            got += min(keep.shape[0], need)
        if got >= count:
            return np.concatenate(out, axis=0), drawn, accepted
        if drawn > 20000 and got / drawn < 1e-3:
            break
    raise RuntimeError(
        f"sampling starvation: acceptance rate below 0.1% for c={c:.6g}, dim={m}"
    )


def convexity_fuzz(
    branch, trials, seed, eps=EPS_SINGULAR, allow_out_of_regime=False, threads=None
):
    """Segment-sample the superlevel set {phi~ >= c} and count convexity violations.

    Draws member pairs (A0, A1), a uniform t in (0,1), and checks
    phi~((1-t)A0 + t A1) >= c - 1e-8 (``_GAP_TOL``).  Inside the regime
    (n-1)pi/2 < c < n pi/2 the expected violation count is zero; outside
    it (negative control) violations are expected to appear.
    """
    if not allow_out_of_regime:
        branch.require_regime()
    m = branch.n + 1
    c = branch.c

    def check(rng, start, size):
        members, drawn, accepted = _sample_members_spacetime(rng, c, m, 2 * size, eps)
        A0, A1 = members[:size], members[size:]
        t = rng.uniform(0.0, 1.0, size=size)
        mid = (1.0 - t)[:, None, None] * A0 + t[:, None, None] * A1
        vals, _ = phi_lifted_usc_batch(mid, eps)
        gaps = vals - c
        return (
            gaps < -_GAP_TOL,
            gaps,
            lambda i: (A0[i], A1[i], float(t[i]), float(gaps[i])),
            {"drawn": drawn, "accepted": accepted},
        )

    details = {"c": c, "n": branch.n, "gap_tol": _GAP_TOL, "drawn": 0, "accepted": 0}
    rep = _fuzz("convexity", check, trials, seed, threads, details)
    rep.details["acceptance_rate"] = rep.details.pop("accepted") / max(rep.details["drawn"], 1)
    return rep


def positivity_fuzz(spec, trials, seed, tol=1e-10, eps=EPS_SINGULAR, threads=None):
    """Check monotonicity of the defining angle under psd additions.

    Each trial draws Hermitian A and psd P and requires both
    angle(A + P) >= angle(A) - tol and the membership implication.
    """
    m = spec.matrix_dim

    def angle_values(X):
        X = _twist(spec, X)
        if spec.space == SPATIAL:
            return theta_batch(X)
        vals, _ = phi_lifted_usc_batch(X, eps)
        return vals

    def check(rng, start, size):
        A = sample_hermitian(rng, m, size)
        P = sample_psd(rng, m, size)
        va = angle_values(A)
        vap = angle_values(A + P)
        drop = vap - va
        member_broken = (va >= spec.threshold) & (vap < spec.threshold - tol)
        bad = (drop < -tol) | member_broken
        return bad, drop, lambda i: (A[i], P[i], float(drop[i])), {}

    details = {"kind": spec.kind, "c": spec.branch.c, "n": spec.branch.n, "tol": tol}
    return _fuzz("positivity", check, trials, seed, threads, details)


def duality_fuzz(n, trials, seed, tol=1e-9, eps=EPS_SINGULAR, threads=None):
    """Check phi~(-A) = -phi_lower~(A) on random space-time matrices.

    F = min(100, trials // 2) draws (``_FORCED_SINGULAR``) have the first
    row and column zeroed so both sides exercise the semicontinuous
    extension formulas; the shard of trials [start, end) zeroes its first
    floor(F end / trials) - floor(F start / trials) draws.
    """
    if n < 1:
        raise ValueError("spatial dimension must be >= 1")
    m = n + 1
    forced = min(_FORCED_SINGULAR, trials // 2)

    def check(rng, start, size):
        A = sample_hermitian(rng, m, size)
        k = forced * (start + size) // trials - forced * start // trials
        A[:k, 0, :] = 0.0
        A[:k, :, 0] = 0.0
        usc_neg, _ = phi_lifted_usc_batch(-A, eps)
        lsc, _ = phi_lifted_lsc_batch(A, eps)
        err = np.abs(usc_neg + lsc)
        return err > tol, err, lambda i: (A[i], float(err[i])), {"forced_singular": k}

    details = {"n": n, "tol": tol, "forced_singular": 0}
    return _fuzz("duality", check, trials, seed, threads, details, worst=np.max)
