"""Quantization-based combining.

Given a channel matrix and a target codeword, the receive combiner is chosen
so that the effective channel ``H^H z`` aligns as well as possible with the
codeword: project the codeword onto the channel's row subspace, then find
the combiner that reproduces the projection, by solving on the Householder
R factor of ``H^H = QR``, with the row-space basis ``Q = H^H R^-1``.

One stage does this for stacks of channels ``(k, n, m)``; the per-user
functions run one channel through it as a stack of one. For a unitary
codebook the served beam carries cos^2 of ``||h_eff||^2`` and the other
beams the rest (Jindal, IEEE T-WC 2008).
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
    _, _, combiners, heff_cols = _qbc_stage(*_subspace(h), np.asarray(codeword)[:, :, None])
    return CombinedChannel(combiner=combiners[:, :, 0], h_eff=heff_cols[:, :, 0])


def _stack_of_one(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One channel ``(n, m)`` as a stack of one, with its row-space basis
    and R factor; :func:`numerics.as_channel` checks the input."""
    h = numerics.as_channel(h)[None]
    return (h, *_subspace(h))


def _combine_one(h: np.ndarray, basis: np.ndarray, r: np.ndarray, codeword) -> CombinedChannel:
    """The one-column stage on a stack of one channel; ``h_eff`` is exactly
    ``H^H combiner``."""
    _, _, combiners, _ = _qbc_stage(basis, r, np.asarray(codeword)[None, :, None])
    z = combiners[0, :, 0]
    return CombinedChannel(combiner=z, h_eff=h[0].conj().T @ z)


def _subspace(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal row-space bases ``Q`` ``(k, m, rank)`` of stacked channels
    ``(k, rank, m)`` and the R factors ``(k, rank, rank)`` of ``H^H = QR``,
    from :func:`numerics.mgs_columns`, which applies the rank rule."""
    return numerics.mgs_columns(h.conj().transpose(0, 2, 1))


def _qbc_stage(basis: np.ndarray, r: np.ndarray, cb: np.ndarray):
    """Batched QBC of stacked channels, given as their bases and R factors
    (:func:`_subspace`), against every column of ``cb``: one codebook
    ``(m, beams)`` for all channels, or one per channel ``(k, m, beams)``.

    Returns per-(user, beam): cos^2 of the projection, squared effective
    norm, unit combiners as columns, and effective channels as columns.
    """
    corr = np.matmul(basis.conj().transpose(0, 2, 1), cb)  # (k, rank, beams)
    cos2 = np.sum(corr.real**2 + corr.imag**2, axis=1)  # (k, beams)
    norms = np.sqrt(cos2)
    if np.any(norms <= numerics.PROJECTION_TOL):
        raise numerics.DegenerateProjection("codeword orthogonal to a channel subspace")
    w = corr / norms[:, None, :]  # unit projections, in the basis' coordinates
    u = np.linalg.solve(r, w)  # H^H u = Q w
    u_norm2 = np.sum(u.real**2 + u.imag**2, axis=1)
    combiners = u / np.sqrt(u_norm2)[:, None, :]
    heff_cols = np.matmul(basis, w) / np.sqrt(u_norm2)[:, None, :]
    return cos2, 1.0 / u_norm2, combiners, heff_cols


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
    """Evaluate every beam and report the SINR-maximising one.

    :func:`best_beam` picks the beam, so ties go to the lowest index. A
    beam whose codeword is orthogonal to the channel subspace cannot be
    served at all and is skipped; at least one beam always has a nonzero
    projection. The reported CQI and combiner are those of
    :func:`combine_for_codeword` toward the chosen beam.
    """
    h1, basis, r = _stack_of_one(h)
    cb = codebook.matrix
    corr = basis[0].conj().T @ cb
    served = np.flatnonzero(np.sqrt(np.sum(corr.real**2 + corr.imag**2, axis=0)) > numerics.PROJECTION_TOL)
    if served.size == 0:
        raise numerics.DegenerateProjection("no codeword projects onto the channel subspace")
    sig, intf = _beam_powers(*_qbc_stage(basis, r, cb[:, served])[:2])
    beam = int(served[best_beam(sig[0], intf[0], codebook.num_beams / rho)[0]])
    combined = _combine_one(h1, basis, r, codebook.codeword(beam))
    cqi = sinr_for_beam(combined.h_eff, codebook, beam, rho)
    return CsiReport(user=user, beam=beam, cqi=cqi, combiner=combined.combiner)
