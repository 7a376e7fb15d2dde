import numpy as np
import pytest

from coopfb import model
from coopfb.model import (
    ConfigError,
    SystemConfig,
    derive_trial_rng,
    dft_matrix,
    gen_all_channels,
    gen_global_codebook,
    gen_local_codebook,
)


def small_cfg(**kw):
    base = dict(m=4, n=2, k=8, rho=10.0, bcl=4, trials=10, seed=7)
    base.update(kw)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_derived_quantities(self):
        cfg = small_cfg(bcl=6)
        assert cfg.qcl == 64
        assert cfg.b == 2

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0),
            dict(n=4),  # n+1 > m
            dict(k=9),  # odd
            dict(k=6),  # < 2m
            dict(rho=0.0),
            dict(rho=-1.0),
            dict(bcl=-1),
            dict(trials=0),
            dict(codebook_mode="fourier"),
        ],
    )
    def test_rejects_bad_configs(self, kw):
        with pytest.raises(ConfigError):
            small_cfg(**kw)

    def test_error_names_constraint(self):
        with pytest.raises(ConfigError, match="n\\+1 <= m"):
            small_cfg(n=4, m=4)


class TestRandomStream:
    def test_same_label_same_output(self):
        a = derive_trial_rng(3, 5, "x").generator().standard_normal(8)
        b = derive_trial_rng(3, 5, "x").generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_labels_separate_streams(self):
        a = derive_trial_rng(3, 5, "x").generator().standard_normal(8)
        b = derive_trial_rng(3, 5, "y").generator().standard_normal(8)
        c = derive_trial_rng(3, 6, "x").generator().standard_normal(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_cross_trial_correlation_is_small(self):
        n = 20000
        a = derive_trial_rng(0, 0, "corr").generator().standard_normal(n)
        b = derive_trial_rng(0, 1, "corr").generator().standard_normal(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4 / np.sqrt(n)

    def test_child_extends_path(self):
        s = derive_trial_rng(1, 2, "p")
        assert s.child("q").path == (2, "p", "q")


class TestChannelGeneration:
    def test_deterministic_per_seed_trial_user(self):
        cfg = small_cfg()
        h1 = gen_all_channels(cfg, derive_trial_rng(cfg.seed, 3))
        h2 = gen_all_channels(cfg, derive_trial_rng(cfg.seed, 3))
        np.testing.assert_array_equal(h1, h2)
        assert not np.allclose(h1, gen_all_channels(cfg, derive_trial_rng(cfg.seed, 4)))

    def test_single_user_matches_block_draw(self):
        # A user's draw does not depend on how many users are drawn.
        rng = derive_trial_rng(7, 0)
        small = gen_all_channels(small_cfg(k=8), rng)
        large = gen_all_channels(small_cfg(k=20), rng)
        np.testing.assert_array_equal(large[:8], small)

    def test_entry_moments(self):
        cfg = small_cfg(k=8, n=2, m=4)
        entries = np.concatenate(
            [gen_all_channels(cfg, derive_trial_rng(0, t)).ravel() for t in range(1600)]
        )
        assert entries.size >= 100_000
        power = np.abs(entries) ** 2
        assert abs(power.mean() - 1.0) < 0.01
        assert abs(entries.real.var() - 0.5) < 0.01
        assert abs(entries.imag.var() - 0.5) < 0.01

    def test_frobenius_mean(self):
        cfg = small_cfg()
        norms = [
            np.linalg.norm(gen_all_channels(cfg, derive_trial_rng(1, t))[0]) ** 2
            for t in range(4000)
        ]
        expected = cfg.n * cfg.m
        assert abs(np.mean(norms) - expected) / expected < 0.01


class TestCodebooks:
    def test_dft_mode_fixed_matrix(self):
        cfg = small_cfg(codebook_mode="dft")
        cb = gen_global_codebook(cfg, derive_trial_rng(0, 0))
        np.testing.assert_allclose(cb.matrix, dft_matrix(4), atol=1e-14)
        np.testing.assert_allclose(cb.matrix.conj().T @ cb.matrix, np.eye(4), atol=1e-10)

    def test_haar_mode_reproducible(self):
        cfg = small_cfg()
        c1 = gen_global_codebook(cfg, derive_trial_rng(0, 5)).matrix
        c2 = gen_global_codebook(cfg, derive_trial_rng(0, 5)).matrix
        np.testing.assert_array_equal(c1, c2)

    def test_haar_column_cross_correlation(self):
        cfg = small_cfg()
        cb = gen_global_codebook(cfg, derive_trial_rng(0, 1)).matrix
        gram = np.abs(cb.conj().T @ cb)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_local_codebook_single_codeword(self):
        cfg = small_cfg(bcl=0)
        cb = gen_local_codebook(cfg, derive_trial_rng(0, 0))
        assert len(cb) == 1

    def test_local_codeword_norms(self):
        cfg = small_cfg(bcl=6)
        cb = gen_local_codebook(cfg, derive_trial_rng(0, 2))
        np.testing.assert_allclose(np.linalg.norm(cb.vectors, axis=1), 1.0, atol=1e-12)

    def test_local_codeword_isotropy(self):
        cfg = small_cfg(bcl=8)
        draws = np.concatenate(
            [gen_local_codebook(cfg, derive_trial_rng(0, t)).vectors for t in range(40)]
        )
        first_coord = np.abs(draws[:, 0]) ** 2
        assert first_coord.size >= 10000
        assert abs(first_coord.mean() - 1 / cfg.m) < 0.01
