import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from coopfb import numerics, qbc
from coopfb.model import GlobalCodebook, SystemConfig, derive_trial_rng, gen_global_codebook
from coopfb.qbc import combine_for_codeword, select_csi, sinr_for_beam

RNG = np.random.default_rng(99)


def random_channel(n, m, rng=RNG):
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def haar_codebook(m, seed=0):
    return GlobalCodebook(numerics.haar_unitary(m, np.random.default_rng(seed)))


def alignment(h_eff, c):
    return np.abs(np.vdot(h_eff, c)) ** 2 / np.vdot(h_eff, h_eff).real


class TestCombineForCodeword:
    def test_full_rank_channel_has_zero_error(self):
        # With as many receive rows as transmit antennas the subspace is everything.
        u = numerics.haar_unitary(4, np.random.default_rng(1))
        c = haar_codebook(4, seed=2).codeword(0)
        combined = combine_for_codeword(u, c)
        assert abs(alignment(combined.h_eff, c) - 1.0) < 1e-10

    def test_single_row_gives_phase_combiner(self):
        h = random_channel(1, 4)
        c = haar_codebook(4, seed=3).codeword(1)
        combined = combine_for_codeword(h, c)
        assert combined.combiner.shape == (1,)
        assert abs(abs(combined.combiner[0]) - 1.0) < 1e-12
        # Effective channel is the conjugated row up to that phase.
        np.testing.assert_allclose(
            combined.h_eff, h.conj().T[:, 0] * combined.combiner[0], atol=1e-12
        )

    def test_invariants(self):
        for _ in range(10):
            h = random_channel(2, 4)
            c = haar_codebook(4, seed=5).codeword(2)
            combined = combine_for_codeword(h, c)
            assert abs(np.linalg.norm(combined.combiner) - 1.0) < 1e-12
            np.testing.assert_array_equal(combined.h_eff, h.conj().T @ combined.combiner)
            # Effective direction is parallel to the projected codeword.
            proj = reference.project_unit(c, reference.row_space_basis(h))
            direction = combined.h_eff / np.linalg.norm(combined.h_eff)
            assert np.linalg.norm(direction - proj) < 1e-9

    def test_beats_random_combiners(self):
        h = random_channel(2, 4)
        c = haar_codebook(4, seed=8).codeword(0)
        combined = combine_for_codeword(h, c)
        best = alignment(combined.h_eff, c)
        rng = np.random.default_rng(13)
        w = (rng.standard_normal((10000, 2)) + 1j * rng.standard_normal((10000, 2)))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        h_effs = w @ h.conj()  # row i is H^H w_i
        gains = np.abs(h_effs.conj() @ c) ** 2 / np.sum(np.abs(h_effs) ** 2, axis=1)
        assert best >= gains.max() - 1e-12


class TestCombineProjection:
    """The effective direction of QBC is the unit projection of the codeword
    onto the channel's row space."""

    def test_vector_already_in_span(self):
        h = random_channel(2, 4)
        c = h.conj().T @ np.array([0.6, 0.8j])
        combined = combine_for_codeword(h, c)
        direction = combined.h_eff / np.linalg.norm(combined.h_eff)
        np.testing.assert_allclose(direction, c / np.linalg.norm(c), atol=1e-12)

    def test_orthogonal_vector_raises(self):
        h = np.zeros((2, 4), dtype=complex)
        h[0, 0] = 1.0
        h[1, 1] = 1.0
        c = np.array([0, 0, 1.0, 0], dtype=complex)
        with pytest.raises(numerics.DegenerateProjection):
            combine_for_codeword(h, c)

    def test_alignment_matches_least_squares_residual(self):
        # |out^H c|^2 = ||c||^2 - ||residual||^2 with residual from brute lstsq
        # against the conjugated rows.
        for _ in range(20):
            h = random_channel(2, 4)
            c = random_channel(1, 4)[0]
            c /= np.linalg.norm(c)
            combined = combine_for_codeword(h, c)
            coeff, *_ = np.linalg.lstsq(h.conj().T, c, rcond=None)
            residual = c - h.conj().T @ coeff
            expected = 1.0 - np.linalg.norm(residual) ** 2
            assert abs(alignment(combined.h_eff, c) - expected) < 1e-10


class TestStackedCombine:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_one_channel_at_a_time(self, n):
        rng = np.random.default_rng(40 + n)
        hs = np.stack([random_channel(n, 4, rng) for _ in range(9)])
        cs = np.stack([haar_codebook(4, seed=s).codeword(s % 4) for s in range(9)])
        stacked = combine_for_codeword(hs, cs)
        assert stacked.combiner.shape == (9, n) and stacked.h_eff.shape == (9, 4)
        for i in range(9):
            single = combine_for_codeword(hs[i], cs[i])
            np.testing.assert_allclose(stacked.combiner[i], single.combiner, rtol=0, atol=1e-12)
            np.testing.assert_allclose(stacked.h_eff[i], single.h_eff, rtol=0, atol=1e-12)

    def test_rank_deficient_member_fails_the_stack(self):
        hs = np.stack([random_channel(2, 4), np.zeros((2, 4), complex)])
        cs = np.stack([haar_codebook(4).codeword(0)] * 2)
        with pytest.raises(numerics.RankDeficient):
            combine_for_codeword(hs, cs)


class TestSinrForBeam:
    def test_served_codeword_at_matched_snr(self):
        cb = haar_codebook(4, seed=21)
        gamma = sinr_for_beam(cb.codeword(1), cb, 1, rho=4.0)
        assert abs(gamma - 1.0) < 1e-10

    def test_interfering_codeword_scores_zero(self):
        cb = haar_codebook(4, seed=22)
        gamma = sinr_for_beam(cb.codeword(2), cb, 0, rho=123.0)
        assert gamma < 1e-20

    def test_term_by_term_oracle(self):
        cb = haar_codebook(4, seed=23)
        for _ in range(10):
            h_eff = random_channel(1, 4)[0]
            for beam in range(4):
                num = np.abs(np.vdot(h_eff, cb.codeword(beam))) ** 2
                den = 4 / 2.5
                for other in range(4):
                    if other != beam:
                        den += np.abs(np.vdot(h_eff, cb.codeword(other))) ** 2
                expected = num / den
                got = sinr_for_beam(h_eff, cb, beam, rho=2.5)
                assert abs(got - expected) <= 1e-12 * max(expected, 1.0)


class TestSelectCsi:
    def test_aligned_channel_picks_that_beam(self):
        cb = haar_codebook(4, seed=31)
        h = np.vstack([cb.codeword(0).conj(), cb.codeword(3).conj() * 1e-3])
        report = select_csi(h, cb, rho=10.0)
        assert report.beam == 0

    def test_tie_breaks_to_lowest_beam(self):
        # Rank-1 channel along e0+e1: beams 0 and 1 tie exactly, beams 2 and
        # 3 are orthogonal to the subspace and skipped.
        cb = GlobalCodebook(np.eye(4, dtype=complex))
        h = np.zeros((1, 4), dtype=complex)
        h[0, 0] = h[0, 1] = 1.0
        report = select_csi(h, cb, rho=4.0)
        gammas = []
        for beam in range(2):
            combined = combine_for_codeword(h, cb.codeword(beam))
            gammas.append(sinr_for_beam(combined.h_eff, cb, beam, rho=4.0))
        assert gammas[0] == gammas[1]
        assert report.beam == 0

    def test_matches_brute_force(self):
        cb = haar_codebook(4, seed=33)
        rng = np.random.default_rng(14)
        for _ in range(1000):
            h = random_channel(2, 4, rng)
            report = select_csi(h, cb, rho=7.0, user=5)
            gammas = []
            for beam in range(4):
                combined = combine_for_codeword(h, cb.codeword(beam))
                gammas.append(sinr_for_beam(combined.h_eff, cb, beam, rho=7.0))
            assert report.user == 5
            assert report.beam == int(np.argmax(gammas))
            assert report.cqi == gammas[report.beam]


class TestDistributionalInvariants:
    """Moments the combining construction must reproduce."""

    def test_fixed_codeword_error_beta_mean(self):
        # Quantization error vs a fixed isotropic codeword has mean (m-n)/m.
        m, n, draws = 4, 2, 100_000
        rng = np.random.default_rng(77)
        h = (rng.standard_normal((draws, m, n)) + 1j * rng.standard_normal((draws, m, n))) / np.sqrt(2)
        basis = numerics.mgs_columns(h)[0]
        c = (rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m))) / np.sqrt(2)
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        cos2 = np.sum(np.abs(np.matmul(basis.conj().transpose(0, 2, 1), c[:, :, None])[:, :, 0]) ** 2, axis=1)
        err = 1.0 - cos2
        expected = (m - n) / m
        assert abs(err.mean() - expected) / expected < 0.01

    def test_effective_norm_mean(self):
        # ||h_eff||^2 for QBC over n antennas has mean m - n + 1.
        m, n, draws = 4, 2, 100_000
        rng = np.random.default_rng(78)
        h = (rng.standard_normal((draws, n, m)) + 1j * rng.standard_normal((draws, n, m))) / np.sqrt(2)
        ht = h.conj().transpose(0, 2, 1)
        basis = numerics.mgs_columns(ht)[0]
        c = (rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m))) / np.sqrt(2)
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        w = np.matmul(basis.conj().transpose(0, 2, 1), c[:, :, None])
        proj = np.matmul(basis, w)[:, :, 0]
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        gram = np.matmul(h, ht)
        u = np.linalg.solve(gram, np.matmul(h, proj[:, :, None]))[:, :, 0]
        norm2 = 1.0 / np.sum(np.abs(u) ** 2, axis=1)
        expected = m - n + 1
        assert abs(norm2.mean() - expected) / expected < 0.01


class TestCsiReportInvariant:
    def test_reported_cqi_recomputable(self):
        cfg = SystemConfig(m=4, n=2, k=8, rho=5.0, bcl=2, trials=1, seed=0)
        cb = gen_global_codebook(cfg, derive_trial_rng(0, 0))
        for t in range(20):
            h = random_channel(2, 4)
            report = select_csi(h, cb, cfg.rho)
            combined = combine_for_codeword(h, cb.codeword(report.beam))
            again = sinr_for_beam(combined.h_eff, cb, report.beam, cfg.rho)
            assert abs(report.cqi - again) <= 1e-12 * max(1.0, report.cqi)


class TestScaleInvariance:
    """QBC and local acquisition depend on the channel's direction only:
    scaling h by s leaves combiners, chosen codewords and errors unchanged
    and scales effective channels and CQIs by s."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        scale=st.sampled_from([1e-3, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_combine_and_local_acquisition(self, seed, n, scale):
        from coopfb.cooperation import acquire_local_csi
        from coopfb.model import LocalCodebook

        rng = np.random.default_rng(seed)
        h = random_channel(n, 4, rng)
        c = haar_codebook(4, seed=seed).codeword(seed % 4)
        ref, scaled = combine_for_codeword(h, c), combine_for_codeword(scale * h, c)
        np.testing.assert_allclose(scaled.combiner, ref.combiner, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(scaled.h_eff, scale * ref.h_eff, rtol=1e-9, atol=1e-12 * scale)

        vecs = random_channel(16, 4, rng)
        codebook = LocalCodebook(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
        ref, scaled = acquire_local_csi(h, codebook), acquire_local_csi(scale * h, codebook)
        np.testing.assert_array_equal(scaled.cdi, ref.cdi)
        assert abs(scaled.sin2_error - ref.sin2_error) <= 1e-12
        assert abs(scaled.cqi - scale * ref.cqi) <= 1e-9 * scale * ref.cqi
        np.testing.assert_allclose(scaled.combiner, ref.combiner, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(scaled.h_virt, scale * ref.h_virt, rtol=1e-9, atol=1e-12 * scale)
