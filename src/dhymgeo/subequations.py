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
sets, n + 1 for the space-time ones), checked by two membership
evaluations.

The fuzzers are deterministic given (trials, seed) and shard their
trials into fixed-size blocks with per-shard child seeds, so a thread
pool changes wall time but never results.
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

    Brackets the boundary along A - t*Id by doubling, then takes it from
    the polynomial root of ``angles._ray_boundary`` with two certifying
    evaluations (bisection only where they do not bracket it).  The
    returned t has member(A - t*Id) verified, and member(A - t'*Id) fails
    for some t' at most ``bisect_tol`` above it; positivity of the set
    under psd additions turns that into a Frobenius-ball certificate of
    the same radius.  ``bisect_tol`` must be finite and positive: no
    bisection can narrow a bracket of two adjacent floats to zero.
    """
    if not 0.0 < bisect_tol < math.inf:
        raise ValueError(f"bisect_tol must be finite and positive, got {bisect_tol!r}")
    A = check_hermitian(A, name="A")
    threshold = spec.threshold
    eye = np.eye(A.shape[0])

    def angle(t):
        return _angle(spec, A - t * eye, eps)

    lo, hi = 0.0, 1.0
    phi_lo = angle(lo)
    if phi_lo < threshold:
        return None
    phi_hi = angle(hi)
    while phi_hi >= threshold:
        lo, phi_lo = hi, phi_hi
        hi *= 2.0
        if hi > 1e8:
            raise RuntimeError("strict_margin bracket failed to close")
        phi_hi = angle(hi)
    return _ray_boundary(
        angle,
        _twist(spec, A),
        np.ones(A.shape[0]),
        threshold,
        lo,
        hi,
        phi_lo,
        bisect_tol,
        spatial=spec.space == SPATIAL,
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
    temporaries; halving is exact, so this is bitwise the complex form."""
    half_s = 0.5 * np.asarray(scales)[rng.integers(0, len(scales), size=count)][:, None, None]
    H = np.empty((count, dim, dim), dtype=complex)
    for part, op in ((H.real, np.add), (H.imag, np.subtract)):
        G = rng.standard_normal((count, dim, dim))
        op(G, np.swapaxes(G, -2, -1), out=part)
        np.multiply(part, half_s, out=part)
    return H


def sample_psd(rng, dim, count, scales=(0.1, 1.0)):
    """Random positive semidefinite matrices from squared Gaussian factors."""
    s = np.asarray(scales)[rng.integers(0, len(scales), size=count)]
    F = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal(
        (count, dim, dim)
    )
    P = F @ np.conj(np.swapaxes(F, -2, -1)) / dim
    return P * s[:, None, None]


def _shard_seeds(seed, n_shards):
    return np.random.SeedSequence(seed).spawn(n_shards)


def _run_shards(worker, trials, seed, threads=None):
    n_shards = max(1, math.ceil(trials / _SHARD))
    seeds = _shard_seeds(seed, n_shards)
    sizes = [min(_SHARD, trials - i * _SHARD) for i in range(n_shards)]
    jobs = list(zip(seeds, sizes))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: worker(*job), jobs))
    else:
        results = [worker(*job) for job in jobs]
    return results


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


def _sample_members_spacetime(rng, c, m, count, eps, max_rounds=200):
    """Rejection-sample ``count`` space-time matrices with usc angle >= c.

    Returns (members, drawn, accepted): the first ``count`` members, the
    number of candidates drawn and how many of them had angle >= c (members
    beyond ``count`` in the last round are counted but not kept).
    """
    out = []
    got = 0
    drawn = 0
    accepted = 0
    for _ in range(max_rounds):
        chunk = max(4 * (count - got), 512)
        A = _convexity_candidates(rng, c, m, chunk)
        vals, _ = phi_lifted_usc_batch(A, eps)
        keep = A[vals >= c]
        drawn += chunk
        accepted += keep.shape[0]
        if keep.shape[0]:
            out.append(keep[: count - got])
            got += min(keep.shape[0], count - got)
        if got >= count:
            return np.concatenate(out, axis=0), drawn, accepted
        if drawn > 20000 and got / drawn < 1e-3:
            break
    raise RuntimeError(
        f"sampling starvation: acceptance rate below 0.1% for c={c:.6g}, dim={m}"
    )


def convexity_fuzz(
    branch,
    trials,
    seed,
    gap_tol=1e-8,
    eps=EPS_SINGULAR,
    allow_out_of_regime=False,
    threads=None,
):
    """Segment-sample the superlevel set {phi~ >= c} and count convexity violations.

    Draws member pairs (A0, A1), a uniform t in (0,1), and checks
    phi~((1-t)A0 + t A1) >= c - gap_tol.  Inside the regime
    (n-1)pi/2 < c < n pi/2 the expected violation count is zero; outside
    it (negative control) violations are expected to appear.
    """
    if not allow_out_of_regime:
        branch.require_regime()
    m = branch.n + 1
    c = branch.c

    def worker(seedseq, size):
        rng = np.random.default_rng(seedseq)
        members, drawn, accepted = _sample_members_spacetime(rng, c, m, 2 * size, eps)
        A0, A1 = members[:size], members[size : 2 * size]
        t = rng.uniform(0.0, 1.0, size=size)
        mid = (1.0 - t)[:, None, None] * A0 + t[:, None, None] * A1
        vals, _ = phi_lifted_usc_batch(mid, eps)
        gaps = vals - c
        bad = gaps < -gap_tol
        wit = [
            (A0[i], A1[i], float(t[i]), float(gaps[i]))
            for i in np.nonzero(bad)[0][:2]
        ]
        return int(np.sum(bad)), float(np.min(gaps)), accepted, drawn, wit

    results = _run_shards(worker, trials, seed, threads)
    violations = sum(r[0] for r in results)
    worst = min(r[1] for r in results)
    accepted = sum(r[2] for r in results)
    drawn = sum(r[3] for r in results)
    witnesses = [w for r in results for w in r[4]][:4]
    return FuzzReport(
        suite="convexity",
        trials=trials,
        violations=violations,
        worst=worst,
        seed=seed,
        details={
            "c": c,
            "n": branch.n,
            "gap_tol": gap_tol,
            "acceptance_rate": accepted / max(drawn, 1),
        },
        witnesses=witnesses,
    )


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

    def worker(seedseq, size):
        rng = np.random.default_rng(seedseq)
        A = sample_hermitian(rng, m, size)
        P = sample_psd(rng, m, size)
        va = angle_values(A)
        vap = angle_values(A + P)
        drop = vap - va
        bad = drop < -tol
        member_broken = (va >= spec.threshold) & (vap < spec.threshold - tol)
        wit = [(A[i], P[i], float(drop[i])) for i in np.nonzero(bad)[0][:2]]
        return int(np.sum(bad | member_broken)), float(np.min(drop)), wit

    results = _run_shards(worker, trials, seed, threads)
    return FuzzReport(
        suite="positivity",
        trials=trials,
        violations=sum(r[0] for r in results),
        worst=min(r[1] for r in results),
        seed=seed,
        details={"kind": spec.kind, "c": spec.branch.c, "n": spec.branch.n, "tol": tol},
        witnesses=[w for r in results for w in r[2]][:4],
    )


def duality_fuzz(n, trials, seed, tol=1e-9, forced_singular=100, eps=EPS_SINGULAR, threads=None):
    """Check phi~(-A) = -phi_lower~(A) on random space-time matrices.

    A fixed fraction of the draws has the first row and column zeroed so
    both sides exercise the semicontinuous extension formulas.
    """
    m = n + 1
    frac = forced_singular / max(trials, 1)

    def worker(seedseq, size):
        rng = np.random.default_rng(seedseq)
        A = sample_hermitian(rng, m, size)
        k = int(math.ceil(frac * size))
        if k:
            A[:k, 0, :] = 0.0
            A[:k, :, 0] = 0.0
        usc_neg, _ = phi_lifted_usc_batch(-A, eps)
        lsc, _ = phi_lifted_lsc_batch(A, eps)
        err = np.abs(usc_neg + lsc)
        bad = err > tol
        wit = [(A[i], float(err[i])) for i in np.nonzero(bad)[0][:2]]
        return int(np.sum(bad)), float(np.max(err)), k, wit

    results = _run_shards(worker, trials, seed, threads)
    return FuzzReport(
        suite="duality",
        trials=trials,
        violations=sum(r[0] for r in results),
        worst=max(r[1] for r in results),
        seed=seed,
        details={"n": n, "tol": tol, "forced_singular": sum(r[2] for r in results)},
        witnesses=[w for r in results for w in r[3]][:4],
    )
