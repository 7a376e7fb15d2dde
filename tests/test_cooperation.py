import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopfb import cooperation, montecarlo, numerics, qbc, scheduler
from coopfb.cooperation import (
    GlobalChannel,
    LocalCsi,
    acquire_global_csi,
    acquire_local_csi,
    assign_roles,
    build_global_matrix,
)
from coopfb.model import (
    LocalCodebook,
    SystemConfig,
    derive_trial_rng,
    gen_all_channels,
    gen_global_codebook,
    gen_local_codebook,
)

RNG = np.random.default_rng(2024)


def random_channel(n, m, rng=RNG):
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def random_codebook(qcl, m, rng=RNG):
    vecs = (rng.standard_normal((qcl, m)) + 1j * rng.standard_normal((qcl, m))) / np.sqrt(2)
    return LocalCodebook(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))


class TestAcquireLocalCsi:
    def test_single_codeword_always_selected(self):
        h = random_channel(2, 4)
        cb = random_codebook(1, 4)
        local = acquire_local_csi(h, cb)
        np.testing.assert_array_equal(local.cdi, cb.vectors[0])

    def test_in_span_codeword_is_exact(self):
        h = random_channel(2, 4)
        inside = h.conj().T @ np.array([0.3, 0.7j])
        inside /= np.linalg.norm(inside)
        cb = LocalCodebook(np.vstack([random_codebook(3, 4).vectors, inside]))
        local = acquire_local_csi(h, cb)
        np.testing.assert_array_equal(local.cdi, inside)
        assert local.sin2_error < 1e-12
        assert abs(local.cqi - np.linalg.norm(local.h_virt)) < 1e-10

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            h = random_channel(2, 4, rng)
            cb = random_codebook(8, 4, rng)
            local = acquire_local_csi(h, cb)
            gains = []
            for q in range(8):
                combined = qbc.combine_for_codeword(h, cb.vectors[q])
                hv = combined.h_eff
                gains.append(np.abs(np.vdot(cb.vectors[q], hv)) ** 2 / np.vdot(hv, hv).real)
            best = int(np.argmax(gains))
            np.testing.assert_array_equal(local.cdi, cb.vectors[best])
            assert abs((1.0 - gains[best]) - local.sin2_error) < 1e-12

    def test_invariants(self):
        for _ in range(20):
            h = random_channel(2, 4)
            cb = random_codebook(16, 4)
            local = acquire_local_csi(h, cb)
            hv_norm = np.linalg.norm(local.h_virt)
            assert 0.0 <= local.sin2_error <= 1.0
            assert local.cqi >= 0.0
            assert np.linalg.norm(local.quantized_virtual) <= hv_norm + 1e-12
            assert abs(np.linalg.norm(local.combiner) - 1.0) < 1e-12
            # error direction reassembles the unquantized vector
            rebuilt = local.quantized_virtual + hv_norm * np.sqrt(local.sin2_error) * local.error_direction
            assert np.linalg.norm(rebuilt - local.h_virt) < 1e-9 * hv_norm

    @pytest.mark.parametrize("n, scale", [(2, 1e-100), (2, 1e80), (3, 1e-60), (3, 1e60)])
    def test_scaled_channel_gives_the_same_choice(self, n, scale):
        # The rank rule's two products of 2n powers of the scale left the
        # float range here, refusing or overflowing on a well-conditioned
        # channel; an absolute residual threshold zeroed the small scales'
        # error directions.
        rng = np.random.default_rng(3)
        h, cb = random_channel(n, 4, rng), random_codebook(16, 4, rng)
        local, scaled = acquire_local_csi(h, cb), acquire_local_csi(scale * h, cb)
        np.testing.assert_array_equal(scaled.cdi, local.cdi)
        assert abs(scaled.sin2_error - local.sin2_error) <= 1e-12
        np.testing.assert_allclose(scaled.error_direction, local.error_direction, rtol=0, atol=1e-12)


def per_user_pipeline(channels, local_cb, codebook, rho):
    """Criterion 1's per-user cooperative pipeline on one trial's channels:
    local records, every user's global report, the main users' reports and
    the schedule."""
    k, m = channels.shape[0], channels.shape[2]
    locals_ = [acquire_local_csi(channels[u], local_cb) for u in range(k)]
    reports = [
        acquire_global_csi(build_global_matrix(channels[u], locals_[u ^ 1]), codebook, rho, user=u)[0]
        for u in range(k)
    ]
    mains = [assign_roles((a, a + 1), reports[a], reports[a + 1]).mu_csi for a in range(0, k, 2)]
    return locals_, reports, mains, scheduler.schedule_users(mains, m).assignment


class TestScaleInvariance:
    """Channels scaled by 10^e with the SNR scaled by 10^(-2e) leave every
    SINR as it was, so the per-user pipeline must decide as at e = 0.
    Beyond about 1e+-150 the squared norms leave the float range."""

    @given(n=st.integers(1, 3), e=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1))
    @example(n=2, e=-13, seed=3)
    @example(n=2, e=13, seed=3)
    @example(n=3, e=-100, seed=3)
    @example(n=1, e=100, seed=3)
    @settings(max_examples=100, deadline=None)
    def test_pipeline_decides_as_at_unit_scale(self, n, e, seed):
        cfg = SystemConfig(m=4, n=n, k=8, rho=10.0, bcl=6, trials=1, seed=seed)
        rng = derive_trial_rng(cfg.seed, 0)
        channels = gen_all_channels(cfg, rng)
        codebook, local_cb = gen_global_codebook(cfg, rng), gen_local_codebook(cfg, rng)
        base = per_user_pipeline(channels, local_cb, codebook, cfg.rho)
        scaled = per_user_pipeline(10.0**e * channels, local_cb, codebook, cfg.rho * 10.0 ** (-2 * e))
        base_locals, base_reports, base_mains, base_schedule = base
        locals_, reports, mains, schedule = scaled
        for got, want in zip(locals_, base_locals):
            np.testing.assert_array_equal(got.cdi, want.cdi)
            assert abs(got.sin2_error - want.sin2_error) <= 1e-12
            np.testing.assert_allclose(got.error_direction, want.error_direction, rtol=0, atol=1e-12)
        assert [r.beam for r in reports] == [r.beam for r in base_reports]
        np.testing.assert_allclose([r.cqi for r in reports], [r.cqi for r in base_reports], rtol=1e-12, atol=0)
        assert [r.user for r in mains] == [r.user for r in base_mains]
        assert schedule == base_schedule

    @staticmethod
    def exact_direction(h, v):
        """mpmath's error direction ``(P v - (v^H P v) v) / ||.||`` for ``P``
        the projection onto the span of ``H^H``, and its ``sin(phi)``."""
        with mpmath.workdps(50):
            a = mpmath.matrix(h.conj().T.tolist())
            pv = a * mpmath.inverse(a.H * a) * a.H * mpmath.matrix(v.tolist())
            cos2 = sum(abs(x) ** 2 for x in pv)
            residual = [x - cos2 * y for x, y in zip(pv, v.tolist())]
            norm = mpmath.sqrt(sum(abs(x) ** 2 for x in residual))
            return np.array([complex(x / norm) for x in residual]), float(mpmath.sqrt(1 - cos2))

    def test_error_direction_is_off_only_by_its_conditioning(self):
        # The property above fails for n=3, e=-63, seed=173 (README, "Known-failing"):
        # user 3's error_direction moves 1.26e-12 between the scales, against atol
        # 1e-12. Its sin(phi) is 6.3e-4, and a direction is a residual of relative
        # size sin(phi), so rounding moves it by about eps / sin(phi) = 3.5e-13.
        # Against mpmath, each scale's direction is within a few of those of its own
        # exact value, and the two exact directions (of the channel and of its
        # rounded scaled copy) agree far closer: the gap is conditioning, not scale.
        cfg = SystemConfig(m=4, n=3, k=8, rho=10.0, bcl=6, trials=1, seed=173)
        rng = derive_trial_rng(cfg.seed, 0)
        h = gen_all_channels(cfg, rng)[3]
        gen_global_codebook(cfg, rng)
        local_cb = gen_local_codebook(cfg, rng)
        exact = []
        for channel in (h, 10.0**-63 * h):
            local = acquire_local_csi(channel, local_cb)
            direction, sin_phi = self.exact_direction(channel, local.cdi)
            assert abs(sin_phi - 6.3e-4) < 1e-5
            assert np.abs(local.error_direction - direction).max() <= 8 * np.finfo(float).eps / sin_phi
            exact.append(direction)
        assert np.abs(exact[0] - exact[1]).max() <= 1e-13


def oracle_pick(vectors, h):
    """Index of the codeword ``v`` of largest ``||B^H v||^2`` over an
    orthonormal basis ``B`` of the conjugated rows of ``h``, the first on a
    tie: a plain loop over the codewords."""
    basis = np.linalg.qr(h.conj().T)[0]
    best, best_gain = 0, -1.0
    for q, v in enumerate(vectors):
        gain = np.linalg.norm(basis.conj().T @ v) ** 2
        if gain > best_gain:
            best, best_gain = q, gain
    return best


class TestGroupedPick:
    """Every user's codeword in each layout of the grouped pick, against a
    per-user loop over the codewords."""

    @staticmethod
    def book_with_ties(rng, qcl):
        # Ends in the negatives of its first four rows: the same alignment
        # to the last bit, told apart by value, so the first must win.
        vectors = random_codebook(qcl - 4, 4, rng).vectors
        return LocalCodebook(np.concatenate([vectors, -vectors[:4]]))

    def test_one_codebook_for_a_stack(self):
        # 200 channels of 2 rows take 64 words in products of 20, 20, 20 and 4.
        rng = np.random.default_rng(41)
        hs = np.stack([random_channel(2, 4, rng) for _ in range(200)])
        for cb in (random_codebook(64, 4, rng), self.book_with_ties(rng, 64), self.book_with_ties(rng, 8)):
            chosen = acquire_local_csi(hs, cb).cdi
            for h, v in zip(hs, chosen):
                np.testing.assert_array_equal(v, cb.vectors[oracle_pick(cb.vectors, h)])

    def test_one_codebook_per_channel(self):
        rng = np.random.default_rng(42)
        hs = np.stack([random_channel(3, 4, rng) for _ in range(30)])
        books = [self.book_with_ties(rng, 8) for _ in range(15)] + [random_codebook(8, 4, rng) for _ in range(15)]
        books = np.stack([cb.vectors for cb in books])
        chosen = acquire_local_csi(hs, LocalCodebook(books)).cdi
        for h, vectors, v in zip(hs, books, chosen):
            np.testing.assert_array_equal(v, vectors[oracle_pick(vectors, h)])

    def test_rate_engine_block_of_trials(self, monkeypatch):
        # 6 trials of 16 users against 256-word codebooks: the pick runs in
        # passes of 4 trials and then 2.
        cfg = SystemConfig(m=4, n=2, k=16, rho=5.0, bcl=8, trials=6, seed=43)
        picked = []

        def choice(vectors, basis):
            picked.append(local_choice(vectors, basis))
            return picked[-1]

        local_choice = cooperation._local_choice
        monkeypatch.setattr(cooperation, "_local_choice", choice)
        rngs = [derive_trial_rng(cfg.seed, t) for t in range(cfg.trials)]
        montecarlo._workspaces(cfg, rngs, coop=True, conv=False)
        chosen = np.concatenate(picked).reshape(cfg.trials, cfg.k, cfg.m)
        for rng, users in zip(rngs, chosen):
            vectors = gen_local_codebook(cfg, rng).vectors
            for h, v in zip(gen_all_channels(cfg, rng), users):
                np.testing.assert_array_equal(v, vectors[oracle_pick(vectors, h)])

    def test_partial_last_pass(self):
        # 6 codebooks of 256 words for 16 channels each: passes of 4 groups,
        # then a partial one of 2, against the oracle.
        rng = np.random.default_rng(44)
        hs = np.stack([random_channel(2, 4, rng) for _ in range(96)])
        books = np.stack([self.book_with_ties(rng, 256).vectors for _ in range(6)])
        chosen = acquire_local_csi(hs, LocalCodebook(books)).cdi
        for i, (h, v) in enumerate(zip(hs, chosen)):
            np.testing.assert_array_equal(v, books[i // 16][oracle_pick(books[i // 16], h)])

    def test_pick_bounds_its_memory(self):
        # 32 per-trial 256-word codebooks for 16 users each peaked at
        # 6.16 MiB when the pick ran in one pass.
        rng = np.random.default_rng(45)
        hs = np.stack([random_channel(2, 4, rng) for _ in range(32 * 16)])
        books = LocalCodebook(np.stack([random_codebook(256, 4, rng).vectors for _ in range(32)]))
        tracemalloc.start()
        try:
            acquire_local_csi(hs, books)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_one_large_group_split_across_passes(self):
        # One 512-word codebook for 100 channels: passes of 32 subspaces,
        # then a partial one of 4, against the oracle.
        rng = np.random.default_rng(47)
        hs = np.stack([random_channel(2, 4, rng) for _ in range(100)])
        cb = self.book_with_ties(rng, 512)
        for h, v in zip(hs, acquire_local_csi(hs, cb).cdi):
            np.testing.assert_array_equal(v, cb.vectors[oracle_pick(cb.vectors, h)])

    def test_one_large_group_bounds_its_memory(self):
        # 512 channels against one 256-word codebook peaked at 6.17 MiB
        # when the group's subspaces ran in one pass.
        rng = np.random.default_rng(46)
        hs = np.stack([random_channel(2, 4, rng) for _ in range(512)])
        cb = random_codebook(256, 4, rng)
        tracemalloc.start()
        try:
            acquire_local_csi(hs, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20


class TestStackedLocalCsi:
    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_one_channel_at_a_time(self, shared):
        rng = np.random.default_rng(77)
        hs = np.stack([random_channel(2, 4, rng) for _ in range(7)])
        books = [random_codebook(32, 4, rng) for _ in range(7)]
        if shared:
            books = [books[0]] * 7
            stacked = acquire_local_csi(hs, books[0])
        else:
            stacked = acquire_local_csi(hs, LocalCodebook(np.stack([b.vectors for b in books])))
        for i in range(7):
            single = acquire_local_csi(hs[i], books[i])
            np.testing.assert_array_equal(stacked.cdi[i], single.cdi)
            for field in ("cqi", "combiner", "h_virt", "sin2_error", "quantized_virtual"):
                np.testing.assert_allclose(
                    getattr(stacked, field)[i], getattr(single, field), rtol=1e-12, atol=1e-14
                )


class TestShapeRule:
    def test_block_of_trials_matches_its_flat_call(self):
        # 3 trials of 8 users, each trial against its own 64-word codebook.
        rng = np.random.default_rng(78)
        h = np.stack([[random_channel(2, 4, rng) for _ in range(8)] for _ in range(3)])
        vectors = np.stack([random_codebook(64, 4, rng).vectors for _ in range(3)])
        block = cooperation._local_stage(h, *qbc._subspace(h), vectors)
        flat_h = h.reshape(24, 2, 4)
        flat = cooperation._local_stage(flat_h, *qbc._subspace(flat_h), vectors)
        assert block.cqi.shape == (3, 8) and block.combiner.shape == (3, 8, 2)
        for name, value in vars(block).items():
            np.testing.assert_array_equal(value, getattr(flat, name).reshape(value.shape))

    def test_one_channel_record_has_scalar_fields(self):
        local = acquire_local_csi(random_channel(2, 4), random_codebook(16, 4))
        assert type(local.cqi) is np.float64 and type(local.sin2_error) is np.float64
        assert local.cdi.shape == local.h_virt.shape == (4,) and local.combiner.shape == (2,)


class TestBuildGlobalMatrix:
    def test_exact_quantization_gives_equal_matrices(self):
        h_b = random_channel(2, 4)
        inside = h_b.conj().T @ np.array([1.0, 0.5 - 0.25j])
        inside /= np.linalg.norm(inside)
        local = acquire_local_csi(h_b, LocalCodebook(inside[None, :]))
        glob = build_global_matrix(random_channel(2, 4), local)
        np.testing.assert_allclose(glob.h_qu, glob.h_dl, atol=1e-9)

    def test_zero_quality_partner(self):
        h_virt = random_channel(1, 4)[0]
        partner = LocalCsi(
            cdi=np.array([1.0, 0, 0, 0], dtype=complex),
            cqi=0.0,
            combiner=np.array([1.0, 0], dtype=complex),
            h_virt=h_virt,
            sin2_error=1.0,
        )
        glob = build_global_matrix(random_channel(2, 4), partner)
        np.testing.assert_array_equal(glob.h_qu[2], np.zeros(4))
        np.testing.assert_array_equal(glob.h_dl[2], h_virt.conj())

    def test_row_difference_identity(self):
        # The matrices differ exactly by the scaled local error row.
        for _ in range(20):
            h_b = random_channel(2, 4)
            cb = random_codebook(8, 4)
            local = acquire_local_csi(h_b, cb)
            glob = build_global_matrix(random_channel(2, 4), local)
            np.testing.assert_array_equal(glob.h_qu[:2], glob.h_dl[:2])
            diff = glob.h_dl[2] - glob.h_qu[2]
            expected_norm = np.linalg.norm(local.h_virt) * np.sqrt(local.sin2_error)
            assert abs(np.linalg.norm(diff) - expected_norm) < 1e-10
            expected_row = (expected_norm * local.error_direction).conj()
            assert np.linalg.norm(diff - expected_row) < 1e-10

    @pytest.mark.parametrize("k", [1, 6])
    def test_stack_is_the_per_user_calls(self, k):
        rng = np.random.default_rng(k)
        h = np.stack([random_channel(2, 4, rng) for _ in range(k)])
        partner_h = np.stack([random_channel(2, 4, rng) for _ in range(k)])
        partners = acquire_local_csi(partner_h, random_codebook(8, 4, rng))
        stacked = build_global_matrix(h, partners)
        assert stacked.h_qu.shape == stacked.h_dl.shape == (k, 3, 4)
        for u in range(k):
            single = build_global_matrix(h[u], partners[u])
            np.testing.assert_array_equal(stacked.h_qu[u], single.h_qu)
            np.testing.assert_array_equal(stacked.h_dl[u], single.h_dl)


class TestAcquireGlobalCsi:
    def cfg(self):
        return SystemConfig(m=4, n=2, k=8, rho=8.0, bcl=3, trials=1, seed=11)

    def test_full_rank_stack_has_zero_error(self):
        # n+1 = m and an exact partner row: the stacked subspace is all of
        # C^m, so the selected beam aligns perfectly.
        cfg = SystemConfig(m=4, n=3, k=8, rho=8.0, bcl=3, trials=1, seed=11)
        cb = gen_global_codebook(cfg, derive_trial_rng(cfg.seed, 0))
        h_b = random_channel(3, 4)
        inside = h_b.conj().T @ np.array([0.2, -0.4j, 0.9])
        inside /= np.linalg.norm(inside)
        local = acquire_local_csi(h_b, LocalCodebook(inside[None, :]))
        glob = build_global_matrix(random_channel(3, 4), local)
        report, z_bar = acquire_global_csi(glob, cb, cfg.rho)
        h_eff = glob.h_qu.conj().T @ z_bar
        align = np.abs(np.vdot(h_eff, cb.codeword(report.beam))) ** 2 / np.vdot(h_eff, h_eff).real
        assert abs(align - 1.0) < 1e-10

    def test_pure_function(self):
        cfg = self.cfg()
        cb = gen_global_codebook(cfg, derive_trial_rng(cfg.seed, 0))
        local = acquire_local_csi(random_channel(2, 4), random_codebook(8, 4))
        glob = build_global_matrix(random_channel(2, 4), local)
        r1, z1 = acquire_global_csi(glob, cb, cfg.rho)
        r2, z2 = acquire_global_csi(glob, cb, cfg.rho)
        assert r1.beam == r2.beam and r1.cqi == r2.cqi
        np.testing.assert_array_equal(z1, z2)

    def test_reported_cqi_reevaluates(self):
        cfg = self.cfg()
        cb = gen_global_codebook(cfg, derive_trial_rng(cfg.seed, 1))
        for _ in range(20):
            local = acquire_local_csi(random_channel(2, 4), random_codebook(8, 4))
            glob = build_global_matrix(random_channel(2, 4), local)
            report, z_bar = acquire_global_csi(glob, cb, cfg.rho)
            h_eff = glob.h_qu.conj().T @ z_bar
            again = qbc.sinr_for_beam(h_eff, cb, report.beam, cfg.rho)
            assert abs(report.cqi - again) <= 1e-12 * max(1.0, report.cqi)


class TestAssignRoles:
    def report(self, user, cqi):
        return qbc.CsiReport(user=user, beam=0, cqi=cqi, combiner=np.ones(3, dtype=complex))

    def test_larger_cqi_wins(self):
        role = assign_roles((2, 3), self.report(2, 3.0), self.report(3, 2.0))
        assert role.mu == 2 and role.au == 3
        role = assign_roles((2, 3), self.report(2, 1.0), self.report(3, 2.0))
        assert role.mu == 3 and role.au == 2

    def test_tie_goes_to_lower_index(self):
        role = assign_roles((0, 1), self.report(0, 1.5), self.report(1, 1.5))
        assert role.mu == 0

    def test_rejects_bad_pairing(self):
        with pytest.raises(ValueError):
            assign_roles((1, 2), self.report(1, 1.0), self.report(2, 1.0))
        with pytest.raises(ValueError):
            assign_roles((0, 2), self.report(0, 1.0), self.report(2, 1.0))

    def test_rejects_reports_of_other_users(self):
        # The main user must carry its own CSI, not its partner's.
        with pytest.raises(ValueError, match="own finite CQIs"):
            assign_roles((0, 1), self.report(1, 5.0), self.report(0, 1.0))

    def test_rejects_nan_cqi(self):
        with pytest.raises(ValueError, match="own finite CQIs"):
            assign_roles((0, 1), self.report(0, float("nan")), self.report(1, 1.0))
        with pytest.raises(ValueError, match="own finite CQIs"):
            assign_roles((0, 1), self.report(0, 1.0), self.report(1, float("nan")))

    def test_symmetric_draws_split_evenly(self):
        rng = np.random.default_rng(8)
        wins = 0
        trials = 10000
        for _ in range(trials):
            a = float(rng.exponential())
            b = float(rng.exponential())
            role = assign_roles((0, 1), self.report(0, a), self.report(1, b))
            wins += role.mu == 0
        assert abs(wins / trials - 0.5) < 0.02


class TestCooperativeStatistics:
    def test_mu_cqi_at_least_au_cqi_every_draw(self):
        cfg = SystemConfig(m=4, n=2, k=8, rho=6.0, bcl=4, trials=1, seed=4)
        for t in range(30):
            rng = derive_trial_rng(cfg.seed, t)
            h = gen_all_channels(cfg, rng)
            cb = gen_global_codebook(cfg, rng)
            local_cb = gen_local_codebook(cfg, rng)
            for a in range(0, cfg.k, 2):
                la = acquire_local_csi(h[a], local_cb)
                lb = acquire_local_csi(h[a + 1], local_cb)
                ra, _ = acquire_global_csi(build_global_matrix(h[a], lb), cb, cfg.rho, user=a)
                rb, _ = acquire_global_csi(build_global_matrix(h[a + 1], la), cb, cfg.rho, user=a + 1)
                role = assign_roles((a, a + 1), ra, rb)
                other = rb if role.mu == a else ra
                assert role.mu_csi.cqi >= other.cqi

    def test_selected_error_is_minimum_over_codewords(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h = random_channel(2, 4, rng)
            cb = random_codebook(16, 4, rng)
            local = acquire_local_csi(h, cb)
            basis = numerics.orthonormal_basis(h)
            errors = 1.0 - np.sum(np.abs(cb.vectors.conj() @ basis) ** 2, axis=1)
            assert local.sin2_error <= errors.min() + 1e-12
