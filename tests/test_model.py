import hashlib

import numpy as np
import pytest

from coopfb import model, numerics
from coopfb.model import (
    ConfigError,
    GlobalCodebook,
    LocalCodebook,
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
            dict(bcl=63),  # 2**63 local codewords overflow int64 dimensions
        ],
    )
    def test_rejects_bad_configs(self, kw):
        with pytest.raises(ConfigError):
            small_cfg(**kw)

    @pytest.mark.parametrize("kw", [dict(seed=2.7), dict(trials=10.5), dict(k=16.0), dict(bcl=True)])
    def test_refuses_non_integers(self, kw):
        (name,) = kw
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            small_cfg(**kw)

    def test_numpy_integers_accepted(self):
        assert small_cfg(bcl=np.int64(8), k=np.int32(8)).qcl == 256

    def test_error_names_constraint(self):
        with pytest.raises(ConfigError, match="n\\+1 <= m"):
            small_cfg(n=4, m=4)

    def test_largest_bcl_accepted(self):
        assert small_cfg(bcl=62).qcl == 2**62


class TestGlobalCodebook:
    def test_accepts_haar_and_dft(self):
        GlobalCodebook(dft_matrix(4))
        GlobalCodebook(numerics.haar_unitary(4, [np.random.default_rng(0)])[0])

    @pytest.mark.parametrize(
        "matrix",
        [
            dft_matrix(4)[:, :3],  # not square
            2.0 * dft_matrix(4),  # orthogonal columns, not unit norm
            dft_matrix(4) + 1e-6,  # unit-norm-ish columns, not orthogonal
            np.ones((4, 4), dtype=complex) / 2.0,  # unit columns, all equal
        ],
    )
    def test_refuses_non_unitary(self, matrix):
        with pytest.raises(ValueError):
            GlobalCodebook(matrix)


def _spoiled(vectors, index, value):
    vectors = vectors.copy()
    vectors[index] = value
    return vectors


_DRAWN = gen_local_codebook(small_cfg(), [derive_trial_rng(0, t) for t in range(2)]).vectors  # (2, 16, 4)


class TestLocalCodebook:
    def test_accepts_drawn_codebooks(self):
        assert LocalCodebook(_DRAWN[0]).vectors.shape[-2] == LocalCodebook(_DRAWN).vectors.shape[-2] == 16

    @pytest.mark.parametrize(
        "vectors",
        [
            2.0 * _DRAWN[0],  # every row twice unit norm
            _spoiled(_DRAWN[0], 3, _DRAWN[0, 3] * (1.0 + 1e-8)),  # one row just off unit norm
            _spoiled(_DRAWN[0], 5, np.nan),  # a NaN row
            _spoiled(_DRAWN[0], (5, 1), np.inf),  # one infinite entry
            _spoiled(_DRAWN, (1, 7), 0.0),  # a zero row in the second codebook of a stack
        ],
    )
    def test_refuses_rows_off_the_unit_sphere(self, vectors):
        with pytest.raises(ValueError, match="unit-norm local codewords"):
            LocalCodebook(vectors)


class TestRandomStream:
    def test_same_label_same_output(self):
        a = derive_trial_rng(3, 5).child("x").generator().standard_normal(8)
        b = derive_trial_rng(3, 5).child("x").generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_labels_separate_streams(self):
        a = derive_trial_rng(3, 5).child("x").generator().standard_normal(8)
        b = derive_trial_rng(3, 5).child("y").generator().standard_normal(8)
        c = derive_trial_rng(3, 6).child("x").generator().standard_normal(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_cross_trial_correlation_is_small(self):
        n = 20000
        a = derive_trial_rng(0, 0).child("corr").generator().standard_normal(n)
        b = derive_trial_rng(0, 1).child("corr").generator().standard_normal(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4 / np.sqrt(n)

    def test_child_extends_path(self):
        s = derive_trial_rng(1, 2).child("p")
        assert s.child("q").path == (2, "p", "q")


def _crafted_digests():
    """16-byte digests whose ints have fewer than four 32-bit words (any
    word zero, all zeros included) or extreme words (all ones, the top bit
    alone), plus 5,000 sha256 digests."""
    word = [b"\x00" * 4, b"\x01\x00\x00\x00", b"\xff" * 4, b"\x00\x00\x00\x80"]
    crafted = [a + b + c + d for a in word for b in word for c in word for d in word]
    return crafted + [bytes(15) + b"\x01"] + [hashlib.sha256(i.to_bytes(4, "little")).digest() for i in range(5000)]


class TestStreamSeeding:
    """``RandomStream.generator`` builds PCG64's state itself; numpy's own
    seeding from the digest's int is the oracle."""

    def test_state_words_match_seed_sequence(self):
        for d in _crafted_digests():
            want = np.random.SeedSequence(int.from_bytes(d[:16], "little")).generate_state(4, np.uint64)
            got = model._state_words(d)
            assert got.dtype == np.uint64 and got.tolist() == want.tolist(), d.hex()

    @pytest.mark.parametrize(
        "stream",
        [
            model.RandomStream(0),
            derive_trial_rng(0, 0),
            derive_trial_rng(7, 123).child("local_codebook"),
            derive_trial_rng(2**40, 5).child("resample", 3),
            derive_trial_rng(11, 9).child("noise", 6),
            derive_trial_rng(-3, 2).child("resample", 1).child("channels"),
        ],
    )
    def test_generator_matches_pcg64_of_the_int(self, stream):
        tag = repr((int(stream.seed), stream.path)).encode("utf-8")
        oracle = np.random.Generator(np.random.PCG64(int.from_bytes(hashlib.sha256(tag).digest()[:16], "little")))
        gen = stream.generator()
        assert gen.bit_generator.state == oracle.bit_generator.state
        assert gen.standard_normal(1000).tobytes() == oracle.standard_normal(1000).tobytes()
        assert gen.uniform(0.0, 1.0, 1000).tobytes() == oracle.uniform(0.0, 1.0, 1000).tobytes()

    def test_state_words_refuse_other_requests(self):
        words = model._StateWords(model._state_words(bytes(16)))
        for n_words, dtype in [(4, np.uint32), (2, np.uint64), (8, np.uint32)]:
            with pytest.raises(ValueError, match="4 uint64 words"):
                words.generate_state(n_words, dtype)


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
        assert cb.vectors.shape[-2] == 1

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
