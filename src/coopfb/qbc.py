"""Quantization-based combining.

Given a channel matrix and a target codeword, the receive combiner is chosen
so that the effective channel ``H^H z`` aligns as well as possible with the
codeword: project the codeword onto the channel's row subspace, then find
the combiner that reproduces the projection, by substitution on the
Householder R factor of ``H^H = QR`` (:func:`numerics.solve_triangular`),
with the row-space basis ``Q = H^H R^-1``. A caller that needs the
effective channel forms it as ``H^H z``.

One stage does this for stacks of channels ``(k, n, m)``; the per-user
functions run one channel through it as a stack of one, :func:`select_csi`
toward all its served codewords in one call. For a unitary codebook the
served beam carries cos^2 of ``||h_eff||^2`` and the other beams the rest
(Jindal, IEEE T-WC 2008).
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
    ``(k, m)`` of the stack; one channel is a stack of one.
    """
    one = h.ndim == 2
    if one:
        h, codeword = numerics.as_channel(h)[None], np.asarray(codeword)[None]
    z = _qbc_stage(*_subspace(h), np.asarray(codeword)[:, :, None])[2]
    combiner, h_eff = z[:, :, 0], np.matmul(h.conj().transpose(0, 2, 1), z)[:, :, 0]
    return CombinedChannel(combiner[0], h_eff[0]) if one else CombinedChannel(combiner, h_eff)


def _subspace(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal row-space bases ``Q`` ``(k, m, rank)`` of stacked channels
    ``(k, rank, m)`` and the R factors ``(k, rank, rank)`` of ``H^H = QR``,
    from :func:`numerics.mgs_columns`, which applies the rank rule. A row
    stacked under channels whose factors are at hand is appended to them by
    :func:`numerics.append_column` instead, as the rate engine does."""
    return numerics.mgs_columns(h.conj().transpose(0, 2, 1))


def _qbc_stage(basis: np.ndarray, r: np.ndarray, cb: np.ndarray):
    """Batched QBC of stacked channels, given as their bases and R factors
    (:func:`_subspace`), against every column of ``cb``: one codebook
    ``(m, beams)`` for all channels, or one per channel ``(k, m, beams)``.

    Returns per-(user, beam): cos^2 of the projection, squared effective
    norm, and the unit combiners as columns.
    """
    corr = np.matmul(basis.conj().transpose(0, 2, 1), cb)  # (k, rank, beams)
    cos2 = np.sum(corr.real**2 + corr.imag**2, axis=1)  # (k, beams)
    norms = np.sqrt(cos2)
    if np.any(norms <= numerics.PROJECTION_TOL):
        raise numerics.DegenerateProjection("codeword orthogonal to a channel subspace")
    w = corr / norms[:, None, :]  # unit projections, in the basis' coordinates
    u = numerics.solve_triangular(r, w)  # H^H u = Q w
    u_norm2 = np.sum(u.real**2 + u.imag**2, axis=1)
    return cos2, 1.0 / u_norm2, u / np.sqrt(u_norm2)[:, None, :]


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
    m = codebook.num_beams
    powers = np.abs(codebook.matrix.conj().T @ h_eff) ** 2
    signal = powers[beam]
    return float(signal / (m / rho + (powers.sum() - signal)))


def best_beam(sig: np.ndarray, intf: np.ndarray, noise) -> tuple[np.ndarray, np.ndarray]:
    """Each stack row's best beam over the last axis and its CQI
    ``sig / (noise + intf)``; ties go to the lowest beam."""
    cqi = sig / (noise + intf)
    beam = np.argmax(cqi, axis=-1)
    return beam, np.take_along_axis(cqi, beam[..., None], axis=-1)[..., 0]


def select_csi(h: np.ndarray, codebook: GlobalCodebook, rho: float, user: int = 0) -> CsiReport:
    """Combine toward every beam once and report the one of largest
    :func:`sinr_for_beam`, the lowest on a tie, with its combiner. A beam
    whose codeword is orthogonal to the channel subspace cannot be served
    and is skipped; some beam always is, since the cos^2 over a unitary
    codebook add up to the rank.
    """
    h = numerics.as_channel(h)
    basis, r = _subspace(h[None])
    corr = basis[0].conj().T @ codebook.matrix
    served = np.flatnonzero(np.sqrt(np.sum(corr.real**2 + corr.imag**2, axis=0)) > numerics.PROJECTION_TOL)
    # Each served codeword is its own one-column problem (s, m, 1) against the one
    # basis and R, broadcast, which keeps the bits of combine_for_codeword; repeating
    # basis and R, or one matmul over several codeword columns, moves last bits.
    z = _qbc_stage(basis, r, codebook.matrix.T[served][:, :, None])[2]  # (s, n, 1)
    h_eff = np.matmul(h.conj().T, z)[:, :, 0]
    cqi = [sinr_for_beam(eff, codebook, beam, rho) for eff, beam in zip(h_eff, served)]
    best = int(np.argmax(cqi))
    return CsiReport(user=user, beam=int(served[best]), cqi=cqi[best], combiner=z[best, :, 0])
