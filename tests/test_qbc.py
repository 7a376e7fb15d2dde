import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from coopfb import numerics, qbc
from coopfb.model import GlobalCodebook, SystemConfig, derive_trial_rng, dft_matrix, gen_global_codebook
from coopfb.qbc import combine_for_codeword, select_csi, sinr_for_beam

RNG = np.random.default_rng(99)


def random_channel(n, m, rng=RNG):
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def haar_codebook(m, seed=0):
    return GlobalCodebook(numerics.haar_unitary(m, [np.random.default_rng(seed)])[0])


def alignment(h_eff, c):
    return np.abs(np.vdot(h_eff, c)) ** 2 / np.vdot(h_eff, h_eff).real


class TestCombineForCodeword:
    def test_full_rank_channel_has_zero_error(self):
        # With as many receive rows as transmit antennas the subspace is everything.
        u = numerics.haar_unitary(4, [np.random.default_rng(1)])[0]
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


class TestShapeRule:
    """The stages take any leading axes: a block stays (trials, users) and
    one channel needs no stack of one, bit for bit."""

    @pytest.mark.parametrize("m, n, k, b", [(4, 2, 16, 3), (4, 1, 8, 2), (5, 3, 12, 4)])
    def test_stage_on_a_block_matches_the_flat_stack(self, m, n, k, b):
        rng = np.random.default_rng(60 + n)
        h = np.stack([[random_channel(n, m, rng) for _ in range(k)] for _ in range(b)])
        cb = numerics.haar_unitary(m, [np.random.default_rng(s) for s in range(b)])  # one per trial
        block = qbc._qbc_stage(*qbc._subspace(h), cb[:, None])
        flat = qbc._qbc_stage(*qbc._subspace(h.reshape(b * k, n, m)), np.repeat(cb, k, axis=0))
        assert block[2].shape == (b, k, n, m)
        for got, want in zip(block, flat):
            np.testing.assert_array_equal(got, want.reshape(got.shape))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_combine_one_channel_is_its_stack_of_one(self, n):
        rng = np.random.default_rng(70 + n)
        h, c = random_channel(n, 4, rng), haar_codebook(4, seed=n).codeword(1)
        one, stack = combine_for_codeword(h, c), combine_for_codeword(h[None], c[None])
        np.testing.assert_array_equal(one.combiner, stack.combiner[0])
        np.testing.assert_array_equal(one.h_eff, stack.h_eff[0])
        basis, r = qbc._subspace(h)
        assert basis.shape == (4, n) and r.shape == (n, n)
        np.testing.assert_array_equal(qbc._qbc_stage(basis, r, c[:, None])[2][:, 0], one.combiner)

    def test_one_channel_is_checked(self):
        with pytest.raises(ValueError, match="finite"):
            combine_for_codeword(np.full((2, 4), np.nan), haar_codebook(4).codeword(0))
        with pytest.raises(ValueError, match="row count"):
            select_csi(random_channel(3, 2), haar_codebook(2), 1.0)


class TestScaledByReciprocals:
    """The stage scales by real reciprocals; the same arithmetic written
    with quotients gives the same bits."""

    @staticmethod
    def division_stage(basis, r, cb):
        corr = np.matmul(basis.conj().swapaxes(-1, -2), cb)
        cos2 = np.sum(corr.real**2 + corr.imag**2, axis=-2)
        u = numerics.solve_triangular(r, corr / np.sqrt(cos2)[..., None, :])
        u_norm2 = np.sum(u.real**2 + u.imag**2, axis=-2)
        return cos2, 1.0 / u_norm2, u / np.sqrt(u_norm2)[..., None, :]

    @pytest.mark.parametrize("lead", [(1,), (7,), (3, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_stage_matches_the_division_form(self, lead, n, scale):
        rng = np.random.default_rng(80 + n + len(lead))
        h = scale * (rng.standard_normal(lead + (n, 4)) + 1j * rng.standard_normal(lead + (n, 4)))
        cb = numerics.haar_unitary(4, [np.random.default_rng(s) for s in range(lead[0])])[:, None]
        cb = cb.reshape(lead[:1] + (1,) * (len(lead) - 1) + (4, 4))  # one codebook per leading row
        basis, r = qbc._subspace(h)
        for got, want in zip(qbc._qbc_stage(basis, r, cb), self.division_stage(basis, r, cb)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


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


class TestSnrRefused:
    @pytest.mark.parametrize("rho", [-1.0, 0.0, np.nan, np.inf])
    def test_not_positive_and_finite(self, rho):
        h, cb = random_channel(2, 4), haar_codebook(4)
        with pytest.raises(ValueError, match="positive finite SNR"):
            sinr_for_beam(h.conj().T @ np.array([1.0, 0.0]), cb, 0, rho)
        with pytest.raises(ValueError, match="positive finite SNR"):
            select_csi(h, cb, rho)


class TestBeamRefused:
    @pytest.mark.parametrize("beam", [-1, 4])
    def test_outside_the_codebook(self, beam):
        # -1 would otherwise read beam 3's SINR at m = 4.
        h, cb = random_channel(2, 4), haar_codebook(4)
        h_eff = combine_for_codeword(h, cb.codeword(3)).h_eff
        with pytest.raises(ValueError, match=f"beam {beam} outside 0..3"):
            sinr_for_beam(h_eff, cb, beam, 1.0)
        assert np.isfinite(sinr_for_beam(h_eff, cb, 3, 1.0))


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
        haar, dft = haar_codebook(4, seed=33), GlobalCodebook(dft_matrix(4))
        rng = np.random.default_rng(14)
        cases = [(haar, random_channel(n, 4, rng), range(4)) for n in (1, 2, 3) for _ in range(1000)]
        # Rank-1 channels in the span of DFT codewords 1..s, so codeword 0
        # (and codeword 3 when s = 2) is orthogonal and skipped.
        for s in (2, 3) * 500:
            h = (dft.matrix[:, 1 : s + 1] @ random_channel(1, s, rng)[0]).conj()[None]
            cases.append((dft, h, range(1, s + 1)))
        for cb, h, served in cases:
            report = select_csi(h, cb, rho=7.0, user=5)
            gammas = {}
            for beam in served:
                combined = combine_for_codeword(h, cb.codeword(beam))
                gammas[beam] = sinr_for_beam(combined.h_eff, cb, beam, rho=7.0)
            assert report.user == 5
            assert report.beam == max(gammas, key=gammas.get)  # the first maximum
            assert report.cqi == gammas[report.beam]
            np.testing.assert_array_equal(report.combiner, combine_for_codeword(h, cb.codeword(report.beam)).combiner)


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
