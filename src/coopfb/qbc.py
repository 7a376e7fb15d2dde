"""Quantization-based combining.

Given a channel matrix and a target codeword, the receive combiner is chosen
so that the effective channel ``H^H z`` aligns as well as possible with the
codeword: project the codeword onto the channel's row subspace, then find
the combiner that reproduces the projection, by substitution on the
Householder R factor of ``H^H = QR`` (:func:`numerics.solve_triangular`),
with the row-space basis ``Q = H^H R^-1``, both from the one QR entry
:func:`numerics.mgs_columns`. The stage also gives cos^2 of the projection
and ``||H^H z||^2``, which :func:`combine_for_codeword` reports beside the
effective channel ``H^H z``, so no caller recomputes them from it.

One stage does this for channels ``(..., n, m)`` of any leading axes,
broadcast like ``matmul``: a rate block (trials, users), one channel, or
one channel toward all its served codewords (:func:`select_csi`). For a
unitary codebook the served beam carries cos^2 of ``||h_eff||^2`` and the
other beams the rest (Jindal, IEEE T-WC 2008). Projections and combiners
are normalised by real reciprocals, never divided (see :mod:`numerics`).
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
    projected codeword. ``cos2`` and ``eff_norm2`` are the stage's cos^2
    between a unit codeword and the channel subspace and ``||h_eff||^2``.
    """

    combiner: np.ndarray
    h_eff: np.ndarray
    cos2: np.ndarray
    eff_norm2: np.ndarray


@dataclass(frozen=True)
class CsiReport:
    """One user's feedback: chosen beam index, its SINR, and the combiner used."""

    user: int
    beam: int
    cqi: float
    combiner: np.ndarray


def combine_for_codeword(h: np.ndarray, codeword) -> CombinedChannel:
    """QBC combiner and effective channel for a single target codeword.

    Channels ``(..., n, m)`` take one codeword each ``(..., m)`` and give
    the combiners ``(..., n)``, effective channels ``(..., m)`` and the
    stage's cos^2 and squared effective norms ``(...)``.
    """
    if np.ndim(h) == 2:
        h = numerics.as_channel(h)
    cos2, eff_norm2, z = _qbc_stage(*_subspace(h), np.asarray(codeword)[..., None])
    return CombinedChannel(z[..., 0], np.matmul(h.conj().swapaxes(-1, -2), z)[..., 0], cos2[..., 0], eff_norm2[..., 0])


def _subspace(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal row-space bases ``Q`` ``(..., m, rank)`` of channels
    ``(..., rank, m)`` and the R factors ``(..., rank, rank)`` of ``H^H = QR``,
    from :func:`numerics.mgs_columns`, which applies the rank rule. A row
    stacked under channels whose factors are at hand is appended to them by
    :func:`numerics.append_column` instead, as the rate engine does."""
    return numerics.mgs_columns(h.conj().swapaxes(-1, -2))


def _qbc_stage(basis: np.ndarray, r: np.ndarray, cb: np.ndarray):
    """QBC of channels given as their bases ``(..., m, rank)`` and R factors
    (:func:`_subspace`) against every column of the codebooks ``cb``
    ``(..., m, beams)``, leading axes broadcast: one per trial ``(b, 1, m,
    beams)`` against a block of bases ``(b, k, m, rank)``, say.

    Returns per (channel, beam): cos^2 of the projection, squared effective
    norm, and the unit combiners as columns.
    """
    corr = np.matmul(basis.conj().swapaxes(-1, -2), cb)  # (..., rank, beams)
    cos2 = np.sum(corr.real**2 + corr.imag**2, axis=-2)  # (..., beams)
    norms = np.sqrt(cos2)
    if np.any(norms <= numerics.PROJECTION_TOL):
        raise numerics.DegenerateProjection("codeword orthogonal to a channel subspace")
    w = corr * (1.0 / norms)[..., None, :]  # unit projections, in the basis' coordinates
    u = numerics.solve_triangular(r, w)  # H^H u = Q w
    u_norm2 = np.sum(u.real**2 + u.imag**2, axis=-2)
    return cos2, 1.0 / u_norm2, u * (1.0 / np.sqrt(u_norm2))[..., None, :]


def _beam_powers(cos2: np.ndarray, eff_norm2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signal and interference powers of effective channels served by the
    unitary codebook's beam they were combined toward."""
    return cos2 * eff_norm2, np.clip(1.0 - cos2, 0.0, 1.0) * eff_norm2


def sinr_for_beam(h_eff: np.ndarray, codebook: GlobalCodebook, beam: int, rho: float) -> float:
    """SINR of an effective channel served by beam ``beam``.

    All other beams of the unitary codebook transmit simultaneously, so the
    denominator carries the noise-normalised power ``m / rho`` plus every
    cross-beam leakage term.
    """
    numerics.check_snr(rho)
    m = codebook.num_beams
    if not 0 <= beam < m:  # a negative index would read another beam
        raise ValueError(f"beam {beam} outside 0..{m - 1}")
    powers = np.abs(codebook.matrix.conj().T @ h_eff) ** 2
    signal = powers[beam]
    return float(signal / (m / rho + (powers.sum() - signal)))


def best_beam(sig: np.ndarray, intf: np.ndarray, noise) -> tuple[np.ndarray, np.ndarray]:
    """Each stack row's best beam over the last axis and its CQI
    ``sig / (noise + intf)``; ties go to the lowest beam."""
    cqi = sig / (noise + intf)
    # The row maximum is the CQI at the first argmax, NaN included. Taken beam by
    # beam: numpy reduces a short last axis row by row, 6x slower at 31 x 200 x 4.
    best = cqi[..., 0]
    for beam in range(1, cqi.shape[-1]):
        best = np.maximum(best, cqi[..., beam])
    return np.argmax(cqi, axis=-1), best


def select_csi(h: np.ndarray, codebook: GlobalCodebook, rho: float, user: int = 0) -> CsiReport:
    """Combine toward every beam once and report the one of largest
    :func:`sinr_for_beam`, the lowest on a tie, with its combiner. A beam
    whose codeword is orthogonal to the channel subspace cannot be served
    and is skipped; some beam always is, since the cos^2 over a unitary
    codebook add up to the rank.
    """
    h = numerics.as_channel(h)
    basis, r = _subspace(h)
    corr = basis.conj().T @ codebook.matrix
    served = np.flatnonzero(np.sqrt(np.sum(corr.real**2 + corr.imag**2, axis=0)) > numerics.PROJECTION_TOL)
    # Each served codeword is its own one-column problem (s, m, 1) against the one
    # basis and R, broadcast, which keeps the bits of combine_for_codeword; repeating
    # basis and R, or one matmul over several codeword columns, moves last bits.
    z = _qbc_stage(basis, r, codebook.matrix.T[served][:, :, None])[2]  # (s, n, 1)
    h_eff = np.matmul(h.conj().T, z)[:, :, 0]
    cqi = [sinr_for_beam(eff, codebook, beam, rho) for eff, beam in zip(h_eff, served)]
    best = int(np.argmax(cqi))
    return CsiReport(user=user, beam=int(served[best]), cqi=cqi[best], combiner=z[best, :, 0])
