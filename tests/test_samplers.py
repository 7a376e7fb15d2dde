"""The blocked distribution samplers against an independent per-user oracle.

The oracle below draws each trial from the same ``(seed, trial, purpose)``
streams and runs it one trial at a time through ``reference`` (Householder
basis, projection, Gram solve per channel). The samplers take the stacked
stages of ``qbc`` and ``cooperation``, which share none of that arithmetic.
"""

from functools import partial

import numpy as np
import pytest

import reference
from coopfb import cooperation, montecarlo, numerics, qbc
from coopfb.model import (
    RandomStream,
    SystemConfig,
    complex_gaussian,
    derive_trial_rng,
    gen_global_codebook,
    gen_local_codebook,
)

# sin^2 values are formed as 1 - cos^2, so their absolute rounding is ~1e-16
# whatever their size; at n = m - 1 the global error is exactly zero.
RTOL, ATOL = 1e-10, 1e-14


def oracle_pair(cfg, trial):
    """One cooperation-pair draw at beam 0, per user: returns
    (sin2_local, sin2_global, eff_norm2, local_intf) and the attempt used."""
    base = derive_trial_rng(cfg.seed, trial)
    for attempt in range(montecarlo.MAX_RESAMPLE_ATTEMPTS):
        rng = base if attempt == 0 else base.child("resample", attempt)
        try:
            pair = complex_gaussian(rng.child("channels").generator(), (2, cfg.n, cfg.m))
            codebook = gen_global_codebook(cfg, rng)
            local_cb = gen_local_codebook(cfg, rng)
            q, tau, _, h_virt, sin2_local = reference.local(pair[1], local_cb.vectors)
            h_qu = np.vstack([pair[0], (tau * local_cb.vectors[q]).conj()])
            z, h_eff = reference.combine(h_qu, codebook.codeword(0))
            norm2 = float(np.vdot(h_eff, h_eff).real)
            cos2 = float(np.abs(np.vdot(h_eff, codebook.codeword(0))) ** 2 / norm2)
            local_intf = float(np.abs(z[cfg.n]) ** 2 * np.vdot(h_virt, h_virt).real * sin2_local)
            row = (sin2_local, min(max(1.0 - cos2, 0.0), 1.0), norm2, local_intf)
            return np.array(row), attempt
        except reference.Degenerate:
            continue
    raise AssertionError(f"oracle trial {trial} never drew a full-rank pair")


def oracle_local_error(cfg, trial):
    """Selected local quantization error of one fresh user, per user."""
    base = derive_trial_rng(cfg.seed, trial)
    for attempt in range(montecarlo.MAX_RESAMPLE_ATTEMPTS):
        rng = base if attempt == 0 else base.child("resample", attempt)
        try:
            h = complex_gaussian(rng.child("channels").generator(), (cfg.n, cfg.m))
            return reference.local(h, gen_local_codebook(cfg, rng).vectors)[4], attempt
        except reference.Degenerate:
            continue
    raise AssertionError(f"oracle trial {trial} never drew a full-rank channel")


def pair_chunk(cfg, lo, hi):
    """The pair sampler's rows at beam 0 over the trials ``[lo, hi)``, and
    the resample count."""
    kernel = partial(montecarlo._pair_block, cfg)
    return montecarlo._sampled(kernel, cfg.seed, montecarlo._block_trials(cfg), lo, hi)


def local_error_chunk(cfg, lo, hi):
    kernel = partial(montecarlo._local_error_block, cfg)
    return montecarlo._sampled(kernel, cfg.seed, montecarlo._block_trials(cfg), lo, hi)


def oracle_surrogate(cfg, trial, omega):
    """One stacked-norm surrogate sample from the trial's own stream."""
    gen = derive_trial_rng(cfg.seed, trial).child("surrogate").generator()
    hw = complex_gaussian(gen, (cfg.n + 1, cfg.m))
    return reference.surrogate_norm(hw, gen.uniform(0.0, 2.0 * np.pi, cfg.n + 1), omega)


def cfg_for(n, trials=300, seed=11):
    return SystemConfig(m=4, n=n, k=8, bcl=8, trials=trials, seed=seed)


def zero_draws_at(monkeypatch, trial, purpose="channels"):
    """Make the first ``purpose`` draws of ``trial`` all zeros (rank
    deficient); its resample streams and every other trial stay untouched."""
    original = RandomStream.generator

    class Zeros:
        def standard_normal(self, shape):
            return np.zeros(shape)

        def uniform(self, low, high, size):
            return np.zeros(size)

    def generator(self):
        if self.path == (trial, purpose):
            return Zeros()
        return original(self)

    monkeypatch.setattr(RandomStream, "generator", generator)


@pytest.mark.parametrize("n", [2, 3])
class TestAgainstOracle:
    def test_pair_chunk(self, n):
        cfg = cfg_for(n)
        rows, resamples = pair_chunk(cfg, 0, cfg.trials)
        assert rows.shape == (cfg.trials, 4)
        expected = [oracle_pair(cfg, t) for t in range(cfg.trials)]
        np.testing.assert_allclose(rows, [e[0] for e in expected], rtol=RTOL, atol=ATOL)
        assert resamples == sum(e[1] for e in expected)

    def test_local_error_chunk(self, n):
        cfg = cfg_for(n)
        errors, resamples = local_error_chunk(cfg, 0, cfg.trials)
        expected = [oracle_local_error(cfg, t) for t in range(cfg.trials)]
        np.testing.assert_allclose(errors, [e[0] for e in expected], rtol=RTOL, atol=ATOL)
        assert resamples == sum(e[1] for e in expected)


class TestBlockBoundaries:
    @pytest.mark.parametrize("bcl", [8, 12])
    def test_split_range_concatenates(self, bcl):
        cfg = SystemConfig(m=4, n=2, k=8, bcl=bcl, trials=200, seed=11)
        size = montecarlo._block_trials(cfg)
        assert size == (64 if bcl == 8 else 16)
        split = size + 7
        whole, _ = pair_chunk(cfg, 0, cfg.trials)
        head, _ = pair_chunk(cfg, 0, split)
        tail, _ = pair_chunk(cfg, split, cfg.trials)
        np.testing.assert_array_equal(whole, np.concatenate([head, tail]))
        errors, _ = local_error_chunk(cfg, 0, cfg.trials)
        parts = [local_error_chunk(cfg, lo, hi)[0] for lo, hi in ((0, split), (split, cfg.trials))]
        np.testing.assert_array_equal(errors, np.concatenate(parts))


class TestPairBlockReadsTheStage:
    """The pair sampler's global columns are the cos^2 and squared norm the
    QBC stage reports; the recomputation from ``h_eff`` they replace is the
    oracle, on the sampler's own draws."""

    @staticmethod
    def recomputed(cfg, rngs):
        pairs = complex_gaussian(montecarlo._generators(rngs, "channels"), (2, cfg.n, cfg.m))
        codewords = gen_global_codebook(cfg, rngs).codeword(0)
        local = cooperation.acquire_local_csi(pairs[:, 1], gen_local_codebook(cfg, rngs))
        combined = qbc.combine_for_codeword(cooperation.build_global_matrix(pairs[:, 0], local).h_qu, codewords)
        h_eff = combined.h_eff
        norm2 = np.sum(h_eff.real**2 + h_eff.imag**2, axis=1)
        cos2 = np.abs(np.sum(h_eff.conj() * codewords, axis=1)) ** 2 / norm2
        last_row = combined.combiner[:, cfg.n]
        hv_norm2 = np.sum(local.h_virt.real**2 + local.h_virt.imag**2, axis=1)
        local_intf = (last_row.real**2 + last_row.imag**2) * hv_norm2 * local.sin2_error
        return np.column_stack([local.sin2_error, np.clip(1.0 - cos2, 0.0, 1.0), norm2, local_intf])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_columns_match_the_recomputation_from_h_eff(self, n):
        cfg = cfg_for(n, trials=64)
        rngs = [derive_trial_rng(cfg.seed, t) for t in range(cfg.trials)]
        rows, want = montecarlo._pair_block(cfg, rngs), self.recomputed(cfg, rngs)
        assert rows.shape == want.shape == (cfg.trials, 4)
        np.testing.assert_allclose(rows[:, [0, 2, 3]], want[:, [0, 2, 3]], rtol=1e-12, atol=0)
        np.testing.assert_allclose(rows[:, 1], want[:, 1], rtol=1e-12, atol=1e-14)


class TestForcedResample:
    def test_pair_trial_resamples_like_the_oracle(self, monkeypatch):
        cfg = cfg_for(2, trials=40)
        clean, _ = pair_chunk(cfg, 0, cfg.trials)
        zero_draws_at(monkeypatch, 17)
        rows, resamples = pair_chunk(cfg, 0, cfg.trials)
        expected, attempt = oracle_pair(cfg, 17)
        assert attempt == 1 and resamples == 1
        np.testing.assert_allclose(rows[17], expected, rtol=RTOL, atol=ATOL)
        others = np.arange(cfg.trials) != 17
        np.testing.assert_array_equal(rows[others], clean[others])

    def test_local_error_trial_resamples_like_the_oracle(self, monkeypatch):
        cfg = cfg_for(3, trials=40)
        clean, _ = local_error_chunk(cfg, 0, cfg.trials)
        zero_draws_at(monkeypatch, 3)
        errors, resamples = local_error_chunk(cfg, 0, cfg.trials)
        expected, attempt = oracle_local_error(cfg, 3)
        assert attempt == 1 and resamples == 1
        np.testing.assert_allclose(errors[3], expected, rtol=RTOL, atol=ATOL)
        others = np.arange(cfg.trials) != 3
        np.testing.assert_array_equal(errors[others], clean[others])


class TestSurrogateBlock:
    def test_rank_deficient_draw_is_refused_for_a_resample(self):
        # omega = 1 zeroes the partner row of every stacked channel.
        cfg = cfg_for(2)
        with pytest.raises(numerics.RankDeficient):
            montecarlo._surrogate_block(cfg, 1.0, [derive_trial_rng(cfg.seed, t) for t in range(3)])

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_range_concatenates_and_matches_reference(self, n):
        cfg = cfg_for(n, trials=150)
        omega = 0.2
        kernel = partial(montecarlo._surrogate_block, cfg, omega)
        size = montecarlo._block_trials(cfg)
        split = size + 7
        whole, resamples = montecarlo._sampled(kernel, cfg.seed, size, 0, cfg.trials)
        parts = [montecarlo._sampled(kernel, cfg.seed, size, lo, hi)[0] for lo, hi in ((0, split), (split, cfg.trials))]
        np.testing.assert_array_equal(whole, np.concatenate(parts))
        assert resamples == 0
        expected = [oracle_surrogate(cfg, t, omega) for t in range(cfg.trials)]
        np.testing.assert_allclose(whole, expected, rtol=1e-12, atol=0)

    def test_fig9_counts_surrogate_resamples(self, monkeypatch):
        zero_draws_at(monkeypatch, 5, "surrogate")
        result = montecarlo.run_experiment("fig9", {"trials": 40, "seed": 3, "n_grid": [2]})
        assert result.resample_count == 1
