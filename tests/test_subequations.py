"""Tests for Dirichlet-set membership, margins, duality, and the fuzzers."""

import math
from unittest import mock

import numpy as np
import pytest

from dhymgeo import angles, subequations
from dhymgeo.subequations import (
    SPACETIME,
    SPATIAL,
    Branch,
    SubeqSpec,
    convexity_fuzz,
    dual_of,
    duality_fuzz,
    member,
    member_angle,
    positivity_fuzz,
    sample_hermitian,
    strict_margin,
)

from test_angles import plain_bisection
from test_linalg import random_hermitian


# the negative control: outside the convexity regime for n = 2
NEGATIVE = Branch(c=-0.75 * math.pi, n=2)


def spacetime_spec(c, n, twist=None, dual=False):
    return SubeqSpec(space=SPACETIME, branch=Branch(c=c, n=n), twist=twist, dual=dual)


class TestBranch:
    def test_regime_window(self):
        assert Branch(c=math.pi / 4, n=1).in_convexity_regime
        assert not Branch(c=-0.1, n=1).in_convexity_regime
        assert Branch(c=0.75 * math.pi, n=2).in_convexity_regime
        with pytest.raises(ValueError):
            Branch(c=0.3, n=2).require_regime()

    def test_spatial_window(self):
        assert Branch(c=1.5, n=1).spatial_ok
        assert not Branch(c=2.0, n=1).spatial_ok


class TestMember:
    def test_spatial_zero(self):
        spec = SubeqSpec(space=SPATIAL, branch=Branch(c=0.0, n=1))
        assert member(spec, np.zeros((1, 1)))

    def test_spacetime_zero_at_half_pi(self):
        assert member(spacetime_spec(math.pi / 2, 1), np.zeros((2, 2)))
        assert not member(spacetime_spec(math.pi / 2 + 0.1, 1), np.zeros((2, 2)))

    def test_twist_enters_with_sign(self):
        twist = np.array([[1.0]])
        spec = spacetime_spec(math.pi / 2 + math.atan(1.0) - 0.01, 1, twist=twist)
        assert member(spec, np.zeros((2, 2)))
        dual = dual_of(spec)
        # dual subtracts the twist and compares against -c
        A = np.zeros((2, 2))
        assert member_angle(dual, A) == pytest.approx(
            math.pi / 2 + math.atan(-1.0), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            member(spacetime_spec(0.3, 1), np.zeros((3, 3)))

    def test_spatial_matches_angle_module(self):
        rng = np.random.default_rng(30)
        twist = random_hermitian(rng, 2)
        spec = SubeqSpec(space=SPATIAL, branch=Branch(c=1.0, n=2), twist=twist)
        from dhymgeo.angles import theta

        for _ in range(50):
            A = random_hermitian(rng, 2)
            assert member(spec, A) == (theta(twist + A) >= 1.0)


class TestStrictMargin:
    def test_nonmember_absent(self):
        spec = spacetime_spec(math.pi / 2 + 0.1, 1)
        assert strict_margin(spec, np.zeros((2, 2))) is None

    def test_boundary_zero(self):
        spec = SubeqSpec(space=SPATIAL, branch=Branch(c=math.atan(1.0) * 2, n=2))
        margin = strict_margin(spec, np.eye(2))
        assert margin == pytest.approx(0.0, abs=1e-8)

    def test_monotone_in_identity_shift(self):
        rng = np.random.default_rng(31)
        spec = spacetime_spec(math.pi / 4, 1)
        A0 = random_hermitian(rng, 2)
        while not member(spec, A0):
            A0 = A0 + 0.5 * np.eye(2)
        m1 = strict_margin(spec, A0 + 0.5 * np.eye(2))
        m2 = strict_margin(spec, A0 + 1.5 * np.eye(2))
        assert m1 is not None and m2 is not None
        assert m2 > m1 > 0

    def test_certificate_is_safe(self):
        # perturbations of Frobenius size below the margin stay members
        rng = np.random.default_rng(32)
        spec = spacetime_spec(math.pi / 4, 1)
        A = np.eye(2) * 2.0
        m = strict_margin(spec, A)
        for _ in range(100):
            E = random_hermitian(rng, 2)
            E *= 0.99 * m / np.linalg.norm(E)
            assert member(spec, A + E)


class TestStrictMarginValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            spacetime_spec(math.pi / 4, 1),
            spacetime_spec(0.3, 2, twist=np.diag([0.5, -0.2])),
            SubeqSpec(space=SPATIAL, branch=Branch(c=0.6, n=2), dual=True),
        ],
        ids=lambda s: s.kind,
    )
    def test_validates_once(self, spec):
        # one check of A, although the member at t = 0 and the root take at
        # least three angle evaluations
        rng = np.random.default_rng(36)
        A = random_hermitian(rng, spec.matrix_dim) + 3.0 * np.eye(spec.matrix_dim)
        with mock.patch.object(
            subequations, "check_hermitian", wraps=subequations.check_hermitian
        ) as check:
            assert strict_margin(spec, A) is not None
        assert check.call_count == 1

    @pytest.mark.parametrize(
        "spec",
        [
            spacetime_spec(math.pi / 4, 1),
            spacetime_spec(0.3, 2, twist=np.diag([0.5, -0.2])),
            SubeqSpec(space=SPATIAL, branch=Branch(c=0.6, n=2), dual=True),
        ],
        ids=lambda s: s.kind,
    )
    def test_angle_evaluations(self, spec):
        # one for a non-member; for a member away from S, one at t = 0 and
        # two certifying the root
        dim = spec.matrix_dim
        A = random_hermitian(np.random.default_rng(36), dim) + 3.0 * np.eye(dim)
        with mock.patch.object(subequations, "_angle", wraps=subequations._angle) as angle:
            assert strict_margin(spec, A - 10.0 * np.eye(dim)) is None
            assert angle.call_count == 1
            angle.reset_mock()
            assert strict_margin(spec, A) is not None
            assert angle.call_count == 3


def margin_and_reference(spec, A):
    m = strict_margin(spec, A)
    with mock.patch.object(subequations, "_ray_boundary", plain_bisection):
        ref = strict_margin(spec, A)
    return m, ref


def probe_count(spec, A):
    """Angle evaluations strict_margin makes after its bracket."""
    box = [0]
    real = subequations._ray_boundary

    def counted(angle, *args, **kw):
        def count(t):
            box[0] += 1
            return angle(t)

        return real(count, *args, **kw)

    with mock.patch.object(subequations, "_ray_boundary", counted):
        strict_margin(spec, A)
    return box[0]


def assert_certified(spec, A, m, tol=1e-10):
    eye = np.eye(A.shape[0])
    assert member(spec, A - m * eye)
    assert not member(spec, A - (m + tol) * eye)


class TestStrictMarginRoot:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_plain_bisection(self, n):
        rng = np.random.default_rng(39 + n)
        certified = 0
        for _ in range(50):
            spec = spacetime_spec((n - 1 + rng.uniform(0.02, 0.98)) * math.pi / 2, n)
            A = random_hermitian(rng, n + 1) + rng.uniform(0.0, 3.0) * np.eye(n + 1)
            m, ref = margin_and_reference(spec, A)
            if ref is None:
                assert m is None
                continue
            certified += 1
            assert abs(m - ref) <= 1e-10
            assert_certified(spec, A, m)
            eye = np.eye(n + 1)
            assert member(spec, A - (m - 1e-10) * eye)
            assert not member(spec, A - (m + 2e-10) * eye)
        assert certified >= 10

    @pytest.mark.parametrize(
        "spec",
        [
            SubeqSpec(space=SPATIAL, branch=Branch(c=-math.pi / 4, n=2)),
            SubeqSpec(space=SPATIAL, branch=Branch(c=0.6, n=2), dual=True),
            spacetime_spec(math.pi / 4, 1, dual=True),
            spacetime_spec(-0.5, 1),
            spacetime_spec(0.3, 2, twist=np.diag([0.5, -0.2])),
        ],
        ids=lambda s: f"{s.kind}-{s.threshold:.3g}",
    )
    def test_skips_higher_levels(self, spec):
        # the angle at t = 0 lies above threshold + pi, so the ray first
        # crosses that level: its smallest root is not the boundary
        rng = np.random.default_rng(37)
        m_dim = spec.matrix_dim
        A = 0.3 * random_hermitian(rng, m_dim) + 6.0 * np.eye(m_dim)
        assert member_angle(spec, A) > spec.threshold + math.pi
        m, ref = margin_and_reference(spec, A)
        assert abs(m - ref) <= 1e-10
        assert_certified(spec, A, m)
        X = subequations._twist(spec, A)
        roots = angles._level_roots(X, np.ones(m_dim), spec.threshold, spec.space == SPATIAL)
        assert roots[roots > 0][0] < m - 0.1
        # the skipped root costs nothing: the two probes certify the boundary
        assert probe_count(spec, A) == 2

    @pytest.mark.parametrize("b", [0.0, 1e-11])
    def test_near_singular_set(self, b):
        # A - t Id meets the singular band at t = 0.3: the probes land
        # inside it, and two more at the band's upper edge certify it
        spec = spacetime_spec(1.2, 1)
        A = np.array([[0.3, b * np.exp(-0.4j)], [b * np.exp(0.4j), 2.0]])
        m, ref = margin_and_reference(spec, A)
        assert abs(m - ref) <= 1e-10
        assert_certified(spec, A, m)
        assert m == pytest.approx(0.3, abs=1e-8)
        assert probe_count(spec, A) == 4

    def test_wrong_root_still_certified(self):
        true_roots = angles._level_roots
        rng = np.random.default_rng(38)
        spec = spacetime_spec(0.75 * math.pi, 2)
        A = random_hermitian(rng, 3) + 2.0 * np.eye(3)
        m = strict_margin(spec, A)
        assert m is not None and m > 0.1
        for skew in (1e-2, -1e-2, 1e-9):
            with mock.patch.object(
                angles, "_level_roots", lambda *a, **k: true_roots(*a, **k) + skew
            ):
                wrong = strict_margin(spec, A)
            assert abs(wrong - m) <= 1e-10
            assert_certified(spec, A, wrong)


class TestDuality:
    def test_involution(self):
        spec = spacetime_spec(0.8, 1, twist=np.array([[0.3]]))
        assert dual_of(dual_of(spec)) == spec

    def test_kind_labels(self):
        spec = SubeqSpec(space=SPATIAL, branch=Branch(c=0.5, n=1))
        assert spec.kind == "spatial"
        assert dual_of(spec).kind == "spatial-dual"
        assert dual_of(spec).threshold == -0.5

    def test_phi_identity_suite(self):
        rep = duality_fuzz(1, 2000, seed=77)
        assert rep.violations == 0
        assert rep.worst < 1e-9
        assert rep.details["forced_singular"] >= 100

    @pytest.mark.parametrize("trials", [1, 10, 50, 199, 3000, 4001])
    def test_forced_singular_count_is_exact(self, monkeypatch, trials):
        # min(100, trials // 2) draws in all, however the shards split them
        zeroed = []
        lsc = subequations.phi_lifted_lsc_batch

        def recording(A, eps):
            zeroed.append(int(np.sum(np.all(A[:, 0, :] == 0.0, axis=-1))))
            return lsc(A, eps)

        monkeypatch.setattr(subequations, "phi_lifted_lsc_batch", recording)
        rep = duality_fuzz(1, trials, seed=5)
        assert sum(zeroed) == rep.details["forced_singular"] == min(100, trials // 2)

    def test_member_band_duality(self):
        # strict interior of the primal at -A forces dual non-membership of A,
        # and primal non-membership of -A forces dual membership of A
        rng = np.random.default_rng(33)
        spec = spacetime_spec(math.pi / 4, 1)
        dual = dual_of(spec)
        checked_in = checked_out = 0
        for _ in range(300):
            A = random_hermitian(rng, 2)
            m = strict_margin(spec, -A)
            if m is not None and m > 1e-8:
                assert not member(dual, A)
                checked_in += 1
            elif not member(spec, -A):
                assert member(dual, A)
                checked_out += 1
        assert checked_in > 20 and checked_out > 20


def fixed_round_drawn(branch, trials, seed):
    """Candidates that fixed rounds of max(4 * need, 512) draw on
    convexity_fuzz's shard seeds: the cost the acceptance-sized rounds
    are held against."""
    m = branch.n + 1
    n_shards = math.ceil(trials / subequations._SHARD)
    drawn = 0
    for i, seedseq in enumerate(np.random.SeedSequence(seed).spawn(n_shards)):
        rng = np.random.default_rng(seedseq)
        need = 2 * min(subequations._SHARD, trials - i * subequations._SHARD)
        while need > 0:
            chunk = max(4 * need, 512)
            A = subequations._convexity_candidates(rng, branch.c, m, chunk)
            vals, _ = angles.phi_lifted_usc_batch(A, angles.EPS_SINGULAR)
            drawn += chunk
            need -= min(int(np.sum(vals >= branch.c)), need)
    return drawn


class TestConvexityFuzz:
    def test_in_regime_clean(self):
        rep = convexity_fuzz(Branch(c=math.pi / 4, n=1), 3000, seed=42)
        assert rep.violations == 0
        assert rep.worst > -1e-8

    def test_same_endpoints_trivial(self):
        rng = np.random.default_rng(34)
        c = math.pi / 4
        from dhymgeo.angles import phi_lifted_usc

        A = random_hermitian(rng, 2) + 3 * np.eye(2)
        assert phi_lifted_usc(A).value >= c
        for t in (0.0, 0.3, 1.0):
            mid = (1 - t) * A + t * A
            assert phi_lifted_usc(mid).value >= c - 1e-12

    def test_out_of_regime_requires_flag(self):
        with pytest.raises(ValueError):
            convexity_fuzz(Branch(c=-0.75 * math.pi, n=2), 100, seed=1)

    def test_negative_control_finds_violations(self):
        # outside the regime the superlevel sets are genuinely non-convex;
        # this is a documented expectation, not a theorem being asserted
        rep = convexity_fuzz(
            Branch(c=-0.75 * math.pi, n=2), 4000, seed=5, allow_out_of_regime=True
        )
        assert rep.violations > 0
        assert rep.worst < -1e-3
        assert len(rep.witnesses) > 0
        # at acceptance about 0.77, rounds sized from it draw at most half
        # of the fixed rounds' max(4 * need, 512)
        assert fixed_round_drawn(NEGATIVE, 4000, 5) == 32000
        assert rep.details["drawn"] <= 16000

    def test_acceptance_rate_counts_every_member_drawn(self):
        # the negative control's superlevel set holds about 3/4 of the
        # candidates; counting only the kept pairs capped the rate at 1/4
        rep = convexity_fuzz(
            Branch(c=-0.75 * math.pi, n=2), 2000, seed=5, allow_out_of_regime=True
        )
        assert rep.details["acceptance_rate"] > 0.5

    def test_deterministic_and_thread_invariant(self):
        def convexity(branch):
            return lambda threads: convexity_fuzz(
                branch, 3000, seed=11, allow_out_of_regime=True, threads=threads
            )

        def run(suite, threads):
            rep = suite(threads)
            witnesses = [[np.asarray(x).tobytes() for x in w] for w in rep.witnesses]
            return rep.worst, rep.violations, rep.details, witnesses

        suites = [
            convexity(Branch(c=math.pi / 4, n=1)),
            convexity(Branch(c=0.6 * math.pi, n=2)),
            convexity(NEGATIVE),
            lambda threads: positivity_fuzz(
                spacetime_spec(0.75 * math.pi, 2), 4500, seed=11, threads=threads
            ),
            lambda threads: duality_fuzz(2, 4500, seed=11, threads=threads),
        ]
        for k, suite in enumerate(suites):
            first = run(suite, None)
            assert run(suite, None) == first
            for threads in (1, 2, 4):
                assert run(suite, threads) == first, (k, threads)


class TestMemberSampler:
    @pytest.mark.parametrize(
        "branch",
        [Branch(c=0.35 * math.pi, n=1), Branch(c=0.9 * math.pi, n=2), NEGATIVE],
    )
    @pytest.mark.parametrize("count", [3, 600, 4000])
    def test_rounds_never_exceed_the_fixed_cap(self, monkeypatch, branch, count):
        m = branch.n + 1
        rounds = []
        candidates = subequations._convexity_candidates

        def recording(rng, c, dim, size):
            A = candidates(rng, c, dim, size)
            vals, _ = angles.phi_lifted_usc_batch(A, angles.EPS_SINGULAR)
            rounds.append((size, int(np.sum(vals >= c))))
            return A

        monkeypatch.setattr(subequations, "_convexity_candidates", recording)
        rng = np.random.default_rng(3)
        members, drawn, accepted = subequations._sample_members_spacetime(
            rng, branch.c, m, count, angles.EPS_SINGULAR
        )
        assert members.shape == (count, m, m)
        assert rounds[0][0] == count
        need = count
        for size, kept in rounds:
            assert 0 < size <= max(4 * need, 512)
            need -= min(kept, need)
        assert need == 0
        assert drawn == sum(size for size, _ in rounds)
        assert accepted == sum(kept for _, kept in rounds)

    def test_nothing_accepted_takes_the_cap(self, monkeypatch):
        # a first round with no member leaves no acceptance to size from
        rounds = []
        candidates = subequations._convexity_candidates

        def recording(rng, c, dim, size):
            rounds.append(size)
            A = candidates(rng, c, dim, size)
            return A - 1e3 * np.eye(dim) if len(rounds) == 1 else A

        monkeypatch.setattr(subequations, "_convexity_candidates", recording)
        subequations._sample_members_spacetime(
            np.random.default_rng(4), 0.25 * math.pi, 2, 100, angles.EPS_SINGULAR
        )
        assert rounds[:2] == [100, 512]

    def test_low_acceptance_draws_no_more(self):
        # acceptance about 0.24: the fixed rounds were already near the floor,
        # and the cap keeps the sized rounds near them
        branch = Branch(c=0.6 * math.pi, n=2)
        rep = convexity_fuzz(branch, 4000, seed=5)
        assert rep.details["drawn"] <= 1.05 * fixed_round_drawn(branch, 4000, 5)
        assert rep.violations == 0


class TestOtherStreams:
    # Floats recorded at a fixed seed: duality and positivity draw through
    # sample_hermitian like the convexity sampler, and a sampler change
    # must not move their streams unnoticed.

    def test_duality_stream_pinned(self, monkeypatch):
        seen = []
        lsc = subequations.phi_lifted_lsc_batch

        def recording(A, eps):
            seen.append(A.copy())
            return lsc(A, eps)

        monkeypatch.setattr(subequations, "phi_lifted_lsc_batch", recording)
        rep = duality_fuzz(2, 3000, seed=17)
        # the identity holds exactly on these draws, so the inputs carry the pin
        assert rep.worst == 0.0
        assert rep.details["forced_singular"] == 100
        assert seen[0][150, 1, 2] == complex(-0.40000748131906483, -0.029700817103563315)
        assert seen[1][-1, 2, 2] == 7.623034880220385

    @pytest.mark.parametrize(
        "spec, worst",
        [
            (spacetime_spec(0.75 * math.pi, 2), 0.0003634334196205291),
            (SubeqSpec(space=SPATIAL, branch=Branch(c=0.4, n=2)), 0.000309965595107764),
        ],
    )
    def test_positivity_worst_pinned(self, spec, worst):
        rep = positivity_fuzz(spec, 3000, seed=19)
        assert rep.worst == worst
        assert rep.violations == 0


class TestPositivityFuzz:
    def test_zero_and_identity_shift(self):
        from dhymgeo.angles import phi_lifted_usc

        rng = np.random.default_rng(35)
        A = random_hermitian(rng, 3)
        v = phi_lifted_usc(A).value
        assert phi_lifted_usc(A + 0.0 * np.eye(3)).value == v
        assert phi_lifted_usc(A + np.eye(3)).value > v

    def test_suite_clean(self):
        for spec in (
            spacetime_spec(math.pi / 4, 1),
            spacetime_spec(0.75 * math.pi, 2),
            dual_of(spacetime_spec(math.pi / 4, 1)),
            SubeqSpec(space=SPATIAL, branch=Branch(c=0.4, n=2)),
        ):
            rep = positivity_fuzz(spec, 2000, seed=91)
            assert rep.violations == 0, spec.kind


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize(
    "suite",
    [
        lambda trials: duality_fuzz(1, trials, seed=3),
        lambda trials: positivity_fuzz(spacetime_spec(math.pi / 4, 1), trials, seed=3),
        lambda trials: convexity_fuzz(Branch(c=math.pi / 4, n=1), trials, seed=3),
    ],
    ids=["duality", "positivity", "convexity"],
)
def test_refuses_fewer_than_one_trial(suite, trials):
    # no shard to reduce over: numpy raised on the empty or negative sizes
    with pytest.raises(ValueError, match="trials must be at least 1"):
        suite(trials)


class TestSampling:
    def test_sample_shapes_and_hermitian(self):
        rng = np.random.default_rng(36)
        A = sample_hermitian(rng, 3, 10)
        assert A.shape == (10, 3, 3)
        assert np.allclose(A, np.conj(np.swapaxes(A, -2, -1)))

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_samples_match_the_complex_form_bitwise(self, m, seed):
        # s (G + G^H) / 2 with G = X + iY, X drawn first, and the recentring
        # shift added to every entry through the identity
        def reference_hermitian(rng, count):
            scales = np.asarray(subequations._SCALES)
            s = scales[rng.integers(0, len(scales), size=count)]
            G = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
            return 0.5 * (G + np.conj(np.swapaxes(G, -2, -1))) * s[:, None, None]

        count = 500
        got = sample_hermitian(np.random.default_rng(seed), m, count)
        assert got.tobytes() == reference_hermitian(np.random.default_rng(seed), count).tobytes()

        c = 0.35 * math.pi
        rng = np.random.default_rng(seed)
        A = reference_hermitian(rng, count)
        flavor = rng.integers(0, 5, size=count)
        u = rng.uniform(0.6, 1.8, size=count)
        centered = flavor >= 2
        A[centered] += (math.tan(c / m) * u[centered])[:, None, None] * np.eye(m)
        got = subequations._convexity_candidates(np.random.default_rng(seed), c, m, count)
        # the near-singular flavour after the shift is shared code
        rows = flavor != 4
        assert got[rows].tobytes() == A[rows].tobytes()
