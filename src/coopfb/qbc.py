"""Quantization-based combining.

Given a channel matrix and a target codeword, the receive combiner is chosen
so that the effective channel ``H^H z`` aligns as well as possible with the
codeword: project the codeword onto the channel's row subspace, then invert
the Gram system to find the combiner that reproduces the projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .model import GlobalCodebook


@dataclass(frozen=True)
class CombinedChannel:
    """Result of combining toward one target codeword.

    ``combiner`` is unit norm, ``h_eff = H^H combiner`` points along the
    projected codeword, and ``beam`` records the target index when the
    caller selected the codeword out of a codebook.
    """

    combiner: np.ndarray
    h_eff: np.ndarray
    beam: int | None = None


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
        return _combine(h, numerics.orthonormal_basis(h), numerics.gram_matrix(h), codeword)
    gram, basis = _subspace(h)
    _, _, combiners, heff_cols = _qbc_stage(h, gram, basis, np.asarray(codeword)[:, :, None])
    return CombinedChannel(combiner=combiners[:, :, 0], h_eff=heff_cols[:, :, 0])


def _combine(h: np.ndarray, basis: np.ndarray, gram: np.ndarray, codeword) -> CombinedChannel:
    """QBC toward one codeword, reusing the channel's row-space basis and
    Gram matrix so callers that scan many codewords compute them once."""
    projected = numerics.subspace_project_unit(codeword, basis)
    u = numerics.gram_solve(h, projected, gram)
    z = u / np.linalg.norm(u)
    return CombinedChannel(combiner=z, h_eff=h.conj().T @ z)


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
    always has a nonzero projection.
    """
    basis = numerics.orthonormal_basis(h)
    gram = numerics.gram_matrix(h)
    best = None
    for beam in range(codebook.num_beams):
        try:
            combined = _combine(h, basis, gram, codebook.codeword(beam))
        except numerics.DegenerateProjection:
            continue
        gamma = sinr_for_beam(combined.h_eff, codebook, beam, rho)
        if best is None or gamma > best[0]:
            best = (gamma, beam, combined.combiner)
    if best is None:
        raise numerics.DegenerateProjection("no codeword projects onto the channel subspace")
    gamma, beam, combiner = best
    return CsiReport(user=user, beam=beam, cqi=gamma, combiner=combiner)
