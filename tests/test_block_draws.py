"""Block draws against one draw per stream, bit for bit.

``complex_gaussian``, ``gen_global_codebook`` and ``gen_local_codebook``
take one generator or stream, or a sequence of them for a block. Slice
``i`` of a block must be exactly what stream ``i`` gives alone, both
through the same function and through the stream contract written out here
in plain numpy: a CN(0, 1) draw is ``standard_normal(shape + (2,))`` with
real/imag interleaved per element, and a Haar draw takes the whole real
Ginibre part before the imaginary part.
"""

import numpy as np
import pytest

from coopfb import model
from coopfb.model import (
    GlobalCodebook,
    SystemConfig,
    complex_gaussian,
    derive_trial_rng,
    dft_matrix,
    gen_global_codebook,
    gen_local_codebook,
)
from coopfb.numerics import haar_unitary


def plain_cn(gen, shape):
    parts = gen.standard_normal(tuple(shape) + (2,))
    return (parts[..., 0] + 1j * parts[..., 1]) / np.sqrt(2.0)


def plain_haar(gen, m):
    z = (gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def streams(seed, b):
    return [derive_trial_rng(seed, trial) for trial in range(b)]


@pytest.mark.parametrize("shape", [(), (3,), (2, 3, 4), (256, 4)])
def test_complex_gaussian_block_matches_one_call_per_generator(shape):
    gens = [np.random.default_rng(seed) for seed in range(7)]
    block = complex_gaussian(gens, shape)
    assert block.shape == (7,) + shape
    for seed, got in enumerate(block):
        same_bits(got, complex_gaussian(np.random.default_rng(seed), shape))
        same_bits(got, plain_cn(np.random.default_rng(seed), shape))


@pytest.mark.parametrize("mode", ["haar", "dft"])
@pytest.mark.parametrize("m", [3, 4, 6])
def test_global_codebook_block_matches_one_call_per_stream(mode, m):
    cfg = SystemConfig(m=m, n=2, k=2 * m, codebook_mode=mode, seed=3)
    rngs = streams(cfg.seed, 9)
    block = gen_global_codebook(cfg, rngs)
    assert block.matrix.shape == (9, m, m) and block.num_beams == m
    for rng, got in zip(rngs, block.matrix):
        same_bits(got, gen_global_codebook(cfg, rng).matrix)
        if mode == "haar":
            same_bits(got, plain_haar(rng.child("global_codebook").generator(), m))
        else:
            same_bits(got, dft_matrix(m))
    same_bits(block.codeword(2), block.matrix[:, :, 2])


def test_haar_stack_matches_one_call_per_generator():
    stack = haar_unitary(4, [np.random.default_rng(seed) for seed in range(5)])
    for seed, got in enumerate(stack):
        same_bits(got, haar_unitary(4, [np.random.default_rng(seed)])[0])
        same_bits(got, plain_haar(np.random.default_rng(seed), 4))


@pytest.mark.parametrize("bcl", [0, 3, 8, 10])
def test_local_codebook_block_matches_one_call_per_stream(bcl):
    # The block is normalised a few books per step, its own multiply by each
    # norm's reciprocal; the plain oracle divides. 19 books cross the steps
    # at bcl 8 (8 books per step) and 10 (2 per step) and end in a partial one.
    cfg = SystemConfig(m=4, n=2, k=8, bcl=bcl, seed=5)
    step = max(1, model._NORM_STEP_BYTES // (cfg.qcl * cfg.m * 16))
    assert (step < 19 and 19 % step) or bcl < 8
    rngs = streams(cfg.seed, 19)
    block = gen_local_codebook(cfg, rngs)
    assert block.vectors.shape == (19, cfg.qcl, cfg.m)
    for rng, got in zip(rngs, block.vectors):
        same_bits(got, gen_local_codebook(cfg, rng).vectors)
        plain = plain_cn(rng.child("local_codebook").generator(), (cfg.qcl, cfg.m))
        same_bits(got, plain / np.linalg.norm(plain, axis=1, keepdims=True))


def test_codebook_stack_with_one_non_unitary_slice_raises():
    cfg = SystemConfig(m=4, n=2, k=8, seed=1)
    stack = gen_global_codebook(cfg, streams(cfg.seed, 5)).matrix.copy()
    GlobalCodebook(stack)
    stack[3] = dft_matrix(4) + 1e-6
    with pytest.raises(ValueError, match="unitary"):
        GlobalCodebook(stack)
