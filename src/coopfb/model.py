"""System configuration, deterministic randomness, and channel/codebook generation.

The randomness contract: every random quantity is drawn from a stream
addressed by ``(seed, trial, purpose)``. Streams are derived by hashing the
label, never by sharing generator state, so results are bit-identical no
matter how trials are ordered or how many workers run them. A stream's
generator is ``PCG64`` seeded with the label's sha256 digest, as
``PCG64(int.from_bytes(digest[:16], "little"))`` seeds it, but with the
state words formed here and handed over through numpy's ``ISeedSequence``
interface (see :meth:`RandomStream.generator`). The draws also take a block
of streams, fill each stream's slice of one buffer in place, and use each
stream exactly as a call with that stream alone does. A complex draw is
scaled by a real factor as a product with its reciprocal, never divided by
it (see :mod:`numerics`).
"""

from __future__ import annotations

import hashlib
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import numerics

CODEBOOK_MODES = ("haar", "dft")
MODES = ("conventional", "cooperative", "adaptive")
MAX_BCL = 62  # the local codebook's 2**bcl rows fit numpy's int64 dimensions
UNITARY_TOL = 1e-10  # QBC's beam powers rest on a unitary global codebook
_NORM_STEP_BYTES = 128 * 1024  # largest temporary of the local codebooks' normalisation


# SeedSequence's output hash (O'Neill's seed_seq_fe), mod 2**32: output word
# i is pool[i % 4] ^ h_i, times h_(i+1), xor-shifted right by 16, where
# h_i = INIT_B * MULT_B**i.
_INIT_B, _MULT_B, _M32 = 0x8B51F9DD, 0x58F38DED, 0xFFFFFFFF
_HASH = [_INIT_B * _MULT_B**i & _M32 for i in range(9)]
_HASH_PAIRS = list(zip(_HASH, _HASH[1:]))


def _state_words(digest: bytes) -> np.ndarray:
    """``SeedSequence(int.from_bytes(digest[:16], "little")).generate_state(4,
    np.uint64)``: numpy mixes the int's four 32-bit words into its pool (a
    short int's missing words are hashed as zeros there, as zero words are
    here), and the output hash runs on Python ints."""
    pool = np.random.SeedSequence(np.frombuffer(digest, "<u4", 4)).pool.tolist()
    w = [(p ^ h) * h_next & _M32 for p, (h, h_next) in zip(pool + pool, _HASH_PAIRS)]
    w = [v ^ v >> 16 for v in w]
    return np.array([w[0] | w[1] << 32, w[2] | w[3] << 32, w[4] | w[5] << 32, w[6] | w[7] << 32], np.uint64)


class _StateWords(ISeedSequence):
    """PCG64's four uint64 seed words, given to ``np.random.PCG64`` as its
    seed sequence; it answers that request and no other."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words only, asked for {n_words} of {np.dtype(dtype)}")
        return self.words


class ConfigError(ValueError):
    """Invalid system configuration."""


@dataclass(frozen=True)
class RandomStream:
    """Label-addressed deterministic random stream.

    A stream is identified by ``(seed, path)``. :meth:`generator` always
    returns a freshly seeded numpy Generator derived from a hash of that
    identity, so draws are reproducible and independent of call order,
    worker count, and sibling streams.
    """

    seed: int
    path: tuple = ()

    def child(self, *labels) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(labels))

    def generator(self) -> np.random.Generator:
        """The stream's generator, bit for bit
        ``PCG64(int.from_bytes(sha256(tag)[:16], "little"))``, with the state
        words from :func:`_state_words` handed over as an ``ISeedSequence``.
        That skips numpy's conversion of the int and its generic
        ``generate_state``: about 15 -> 10.5 us a call (``timeit``, shared
        2-core host), three calls per fig6 trial."""
        tag = repr((int(self.seed), self.path)).encode("utf-8")
        words = _state_words(hashlib.sha256(tag).digest())
        return np.random.Generator(np.random.PCG64(_StateWords(words)))


def derive_trial_rng(seed: int, trial: int) -> RandomStream:
    """Independent, reproducible stream of ``(seed, trial)``; a purpose's
    substream is its ``.child(purpose)``."""
    return RandomStream(int(seed), (int(trial),))


def _generators(rngs, purpose: str) -> list:
    """Each stream's ``purpose`` child generator, for a block draw."""
    return [rng.child(purpose).generator() for rng in rngs]


def complex_gaussian(gen, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) draws: real/imag parts each have variance 1/2.

    Real/imag pairs are drawn per element, so a slice along the leading axis
    consumes the same stream positions no matter how large the full draw is.
    ``gen`` is one generator, or a sequence of them for a block
    ``(len(gen),) + shape`` whose slice ``i`` is exactly what ``gen[i]``
    alone gives. Each generator draws straight into its slice of the
    block's buffer (``standard_normal(out=...)``).
    """
    block = not hasattr(gen, "standard_normal")
    gens = gen if block else [gen]
    parts = np.empty((len(gens),) + tuple(shape) + (2,))
    for out, g in zip(parts, gens):
        g.standard_normal(out=out)
    parts *= 1.0 / np.sqrt(2.0)
    z = parts.view(np.complex128)[..., 0]
    return z if block else z[0]


def db_to_linear(rho_db) -> np.ndarray:
    """Linear SNRs ``10**(dB/10)`` of the grid ``rho_db``: the one conversion
    of an SNR in dB. One ConfigError names, as given, every value whose linear
    SNR is not positive and finite: a non-number (None, a bool, text), NaN,
    an int past the float range (abs() compares it exactly), or a dB figure
    whose linear value is 0 or overflows."""
    db = [
        v if isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max else math.nan
        for v in rho_db
    ]
    with np.errstate(over="ignore"):
        rho = 10.0 ** (np.array(db, dtype=float) / 10.0)
    refused = [v for v, r in zip(rho_db, rho) if not 0.0 < r < math.inf]  # NaN fails too
    if refused:
        raise ConfigError(f"need SNRs in dB whose linear value is positive and finite, got {refused}")
    return rho


def check_integer(name: str, value) -> None:
    """Refuse a count that is not an integer: numpy integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {name}={value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions, SNR, feedback budgets, and Monte Carlo bookkeeping.

    ``m`` transmit antennas (= beams = global codewords), ``n`` receive
    antennas per user, ``k`` users (even, at least ``2*m``), ``rho`` linear
    SNR, ``bcl`` cooperation-link bits, plus trial count and master seed.
    """

    m: int = 4
    n: int = 2
    k: int = 16
    rho: float = 10.0
    bcl: int = 8
    trials: int = 10000
    seed: int = 0
    codebook_mode: str = "haar"

    def __post_init__(self):
        for name in ("m", "n", "k", "bcl", "trials", "seed"):
            check_integer(name, getattr(self, name))
        if self.n < 1:
            raise ConfigError(f"need n >= 1, got n={self.n}")
        if self.n + 1 > self.m:
            raise ConfigError(
                f"global combining uses n+1 dimensions, so n+1 <= m is required; got n={self.n}, m={self.m}"
            )
        if self.k % 2:
            raise ConfigError(f"k must be even (users pair up two by two), got k={self.k}")
        if self.k < 2 * self.m:
            raise ConfigError(f"need k >= 2*m so every beam can find a user, got k={self.k}, m={self.m}")
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ConfigError(f"need a positive finite linear SNR, got rho={self.rho}")
        if not 0 <= self.bcl <= MAX_BCL:
            raise ConfigError(f"need 0 <= bcl <= {MAX_BCL} (2**bcl local codewords), got bcl={self.bcl}")
        if self.trials < 1:
            raise ConfigError(f"need trials >= 1, got trials={self.trials}")
        if self.codebook_mode not in CODEBOOK_MODES:
            raise ConfigError(f"codebook_mode must be one of {CODEBOOK_MODES}, got {self.codebook_mode!r}")

    @property
    def qcl(self) -> int:
        """Number of local codewords, 2**bcl."""
        return 2**self.bcl


@dataclass(frozen=True)
class GlobalCodebook:
    """Unitary beamforming codebook; codewords are the columns of ``matrix``,
    whose ``max |M^H M - I|`` may not exceed ``UNITARY_TOL``. A stack
    ``(b, m, m)`` holds one codebook per trial and is checked as a whole."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        square = m.ndim in (2, 3) and m.shape[-2] == m.shape[-1]
        if not (square and np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max() <= UNITARY_TOL):
            raise ValueError(f"need a square unitary global codebook, max |M^H M - I| <= {UNITARY_TOL}")

    @property
    def num_beams(self) -> int:
        return self.matrix.shape[-1]

    def codeword(self, beam: int) -> np.ndarray:
        return self.matrix[..., beam]


@dataclass(frozen=True)
class LocalCodebook:
    """RVQ codebook for the cooperation link; codewords are rows of ``vectors``,
    finite with ``|v^H v - 1| <= UNITARY_TOL`` (a stack ``(b, qcl, m)`` holds
    one codebook per trial)."""

    vectors: np.ndarray

    def __post_init__(self):
        # No block-sized temporary; a non-finite row has a non-finite norm.
        pairs = np.ascontiguousarray(self.vectors, dtype=np.complex128).view(np.float64)
        if not np.all(np.abs(np.einsum("...i,...i->...", pairs, pairs) - 1.0) <= UNITARY_TOL):
            raise ValueError(f"need finite unit-norm local codewords, max |v^H v - 1| <= {UNITARY_TOL}")


def gen_all_channels(cfg: SystemConfig, rng: RandomStream) -> np.ndarray:
    """All users' channels for one trial, shape ``(k, n, m)``.

    User ``u`` occupies block ``u`` of the ``"channels"`` substream, so the
    draw for a given user does not depend on how many users are generated.
    """
    gen = rng.child("channels").generator()
    return complex_gaussian(gen, (cfg.k, cfg.n, cfg.m))


def dft_matrix(m: int) -> np.ndarray:
    """Unitary DFT matrix, the deterministic codebook option."""
    idx = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / m) * (1.0 / np.sqrt(m))


def gen_global_codebook(cfg: SystemConfig, rng) -> GlobalCodebook:
    """Unitary global codebook: Haar-random by default, DFT when configured.

    ``rng`` is one stream, or a sequence of them for a stack ``(b, m, m)``
    drawn with one QR and checked once; slice ``i`` is exactly the
    codebook of ``rng[i]`` alone.
    """
    block = not isinstance(rng, RandomStream)
    streams = rng if block else [rng]
    if cfg.codebook_mode == "dft":
        matrix = np.repeat(dft_matrix(cfg.m)[None], len(streams), axis=0)
    else:
        matrix = numerics.haar_unitary(cfg.m, _generators(streams, "global_codebook"))
    return GlobalCodebook(matrix if block else matrix[0])


def gen_local_codebook(cfg: SystemConfig, rng) -> LocalCodebook:
    """RVQ codebook: ``qcl`` i.i.d. isotropic unit vectors of length ``m``.

    ``rng`` is one stream, or a sequence of them for a stack ``(b, qcl, m)``
    drawn into one buffer; slice ``i`` is exactly the codebook of ``rng[i]``.
    """
    block = not isinstance(rng, RandomStream)
    streams = rng if block else [rng]
    vecs = complex_gaussian(_generators(streams, "local_codebook"), (cfg.qcl, cfg.m))
    # np.linalg.norm's ops, a few books per step; each row's real/imag pairs times 1/norm.
    step, pairs = max(1, _NORM_STEP_BYTES // vecs[0].nbytes), vecs.view(np.float64)
    for i in range(0, len(vecs), step):
        x = vecs[i : i + step]
        pairs[i : i + step] *= 1.0 / np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1, keepdims=True))
    return LocalCodebook(vecs if block else vecs[0])
