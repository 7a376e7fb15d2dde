"""Quantization-based combining.

Given a channel matrix and a target codeword, the receive combiner is chosen
so that the effective channel ``H^H z`` aligns as well as possible with the
codeword: project the codeword onto the channel's row subspace, then invert
the Gram system to find the combiner that reproduces the projection.

The stages work on stacks of channels ``(k, n, m)``; the per-user functions
run one channel through them as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .model import GlobalCodebook


@dataclass(frozen=True)
class CombinedChannel:
    """Result of combining toward one target codeword.

    ``combiner`` is unit norm and ``h_eff = H^H combiner`` points along the
    projected codeword.
    """

    combiner: np.ndarray
    h_eff: np.ndarray


@dataclass(frozen=True)
class CsiReport:
    """One user's feedback: chosen beam index, its SINR, and the combiner used."""

    user: int
    beam: int
    cqi: float
    combiner: np.ndarray


def combine_for_codeword(h: np.ndarray, codeword) -> CombinedChannel:
    """QBC combiner and effective channel for a single target codeword.

    A stack of channels ``(k, n, m)`` takes one codeword per channel
    ``(k, m)`` and gives the combiners ``(k, n)`` and effective channels
    ``(k, m)`` of the stack.
    """
    if h.ndim == 2:
        return _combine_one(*_stack_of_one(h), codeword)
    gram, basis = _subspace(h)
    _, _, combiners, heff_cols = _qbc_stage(h, gram, basis, np.asarray(codeword)[:, :, None])
    return CombinedChannel(combiner=combiners[:, :, 0], h_eff=heff_cols[:, :, 0])


def _stack_of_one(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One channel ``(n, m)`` as a stack of one, with its Gram matrix and
    row-space basis; :func:`numerics.orthonormal_basis` checks the input."""
    basis = numerics.orthonormal_basis(h)
    h = np.asarray(h, dtype=np.complex128)[None]
    return h, numerics.gram_matrix(h), basis[None]


def _combine_one(h: np.ndarray, gram: np.ndarray, basis: np.ndarray, codeword) -> CombinedChannel:
    """The one-column stage on a stack of one channel; ``h_eff`` is exactly
    ``H^H combiner``."""
    _, _, combiners, _ = _qbc_stage(h, gram, basis, np.asarray(codeword)[None, :, None])
    z = combiners[0, :, 0]
    return CombinedChannel(combiner=z, h_eff=h[0].conj().T @ z)


def _subspace(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices and orthonormal row-space bases ``(k, m, rank)`` of
    stacked channels ``(k, rank, m)``, after the rank check."""
    gram = numerics.gram_matrix(h)
    numerics.check_full_rank(gram)
    return gram, numerics.mgs_columns(h.conj().transpose(0, 2, 1))


def _qbc_stage(h: np.ndarray, gram: np.ndarray, basis: np.ndarray, cb: np.ndarray):
    """Batched QBC of stacked channels against every column of ``cb``: one
    codebook ``(m, beams)`` for all channels, or one per channel ``(k, m, beams)``.

    Returns per-(user, beam): cos^2 of the projection, squared effective
    norm, unit combiners as columns, and effective channels as columns.
    """
    corr = np.matmul(basis.conj().transpose(0, 2, 1), cb)  # (k, rank, beams)
    cos2 = np.sum(corr.real**2 + corr.imag**2, axis=1)  # (k, beams)
    norms = np.sqrt(cos2)
    if np.any(norms <= numerics.PROJECTION_TOL):
        raise numerics.DegenerateProjection("codeword orthogonal to a channel subspace")
    projected = np.matmul(basis, corr) / norms[:, None, :]  # unit columns
    u = np.linalg.solve(gram, np.matmul(h, projected))  # (k, rank, beams)
    u_norm2 = np.sum(u.real**2 + u.imag**2, axis=1)
    combiners = u / np.sqrt(u_norm2)[:, None, :]
    heff_cols = projected / np.sqrt(u_norm2)[:, None, :]
    return cos2, 1.0 / u_norm2, combiners, heff_cols


def _beam_correlations(heff_cols: np.ndarray, cb: np.ndarray, served=None) -> tuple[np.ndarray, np.ndarray]:
    """Signal and interference powers for effective channels stacked as
    columns ``(k, m_dim, cols)`` against codebook columns ``cb``; column j
    is served by beam ``served[j]``, by default beam j."""
    corr = np.matmul(heff_cols.conj().transpose(0, 2, 1), cb)  # (k, cols, m)
    powers = corr.real**2 + corr.imag**2
    cols = np.arange(heff_cols.shape[-1])
    sig = powers[:, cols, cols if served is None else served]
    return sig, powers.sum(axis=-1) - sig


def sinr_for_beam(h_eff: np.ndarray, codebook: GlobalCodebook, beam: int, rho: float) -> float:
    """SINR of an effective channel served by beam ``beam``.

    All other beams of the unitary codebook transmit simultaneously, so the
    denominator carries the noise-normalised power ``m / rho`` plus every
    cross-beam leakage term.
    """
    m = codebook.num_beams
    powers = np.abs(codebook.matrix.conj().T @ h_eff) ** 2
    signal = powers[beam]
    return float(signal / (m / rho + (powers.sum() - signal)))


def select_csi(h: np.ndarray, codebook: GlobalCodebook, rho: float, user: int = 0) -> CsiReport:
    """Evaluate every beam and report the SINR-maximising one.

    Ties break toward the lowest beam index so regression runs are
    deterministic. A beam whose codeword is orthogonal to the channel
    subspace cannot be served at all and is skipped; at least one beam
    always has a nonzero projection. The reported CQI and combiner are
    those of :func:`combine_for_codeword` toward the chosen beam.
    """
    h1, gram, basis = _stack_of_one(h)
    cb = codebook.matrix
    corr = basis[0].conj().T @ cb
    served = np.flatnonzero(np.sqrt(np.sum(corr.real**2 + corr.imag**2, axis=0)) > numerics.PROJECTION_TOL)
    if served.size == 0:
        raise numerics.DegenerateProjection("no codeword projects onto the channel subspace")
    _, _, _, heff = _qbc_stage(h1, gram, basis, cb[:, served])
    sig, intf = _beam_correlations(heff, cb, served)
    beam = int(served[np.argmax(sig[0] / (codebook.num_beams / rho + intf[0]))])
    combined = _combine_one(h1, gram, basis, codebook.codeword(beam))
    cqi = sinr_for_beam(combined.h_eff, codebook, beam, rho)
    return CsiReport(user=user, beam=beam, cqi=cqi, combiner=combined.combiner)
