"""Pairwise cooperation: local CSI acquisition, global channel construction,
global CSI acquisition, and main/assistant role assignment.

Users pair up as (0, 1), (2, 3), ...; inside a pair each user quantizes a
combined "virtual" channel against the cooperation-link RVQ codebook, hands
the quantized vector to its partner, and both then run quantization-based
combining on the (n+1)-row stacked matrix as if they owned the extra
antenna. Both quantizations are the one QBC stage of :mod:`qbc`: local
acquisition is its one-column case toward the chosen RVQ codeword, for one
channel or channels with any leading axes. :func:`build_global_matrix` is the one place a
partner's row is stacked: the per-user pipeline, engine and sampler call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics, qbc, scheduler
from .model import GlobalCodebook, LocalCodebook


@dataclass(frozen=True)
class LocalCsi:
    """Selected local direction/quality pair plus the unquantized originals.

    ``cqi`` is the real scalar tau = |v^H h_virt| = ||h_virt|| cos(phi); the
    quantized virtual vector shared over the cooperation link is
    ``cqi * cdi``. ``sin2_error`` is the direction quantization error of the
    selected codeword.
    """

    cdi: np.ndarray
    cqi: float
    combiner: np.ndarray
    h_virt: np.ndarray
    sin2_error: float

    def __getitem__(self, users) -> "LocalCsi":
        """The records of ``users`` out of a stacked record."""
        return LocalCsi(**{name: value[users] for name, value in vars(self).items()})

    @property
    def quantized_virtual(self) -> np.ndarray:
        return np.expand_dims(self.cqi, -1) * self.cdi

    @property
    def error_direction(self) -> np.ndarray:
        """Unit vectors e with h_virt = cqi*cdi + ||h_virt|| sin(phi) e, one
        per record of a stack, normed over the last axis.

        A zero vector where the quantization was exact (sin(phi) ~ 0).
        """
        residual = self.h_virt - self.quantized_virtual
        norm = np.linalg.norm(residual, axis=-1, keepdims=True)
        exact = norm <= numerics.PROJECTION_TOL * np.linalg.norm(self.h_virt, axis=-1, keepdims=True)
        return np.where(exact, 0.0, residual / np.where(exact, 1.0, norm))


@dataclass(frozen=True)
class GlobalChannel:
    """Stacked (n+1) x m channel matrices of one prospective main user, or of a stack of them.

    ``h_qu`` carries the partner's quantized virtual row (what the combiner
    is computed from); ``h_dl`` carries the partner's unquantized virtual
    row (what the downlink actually flows through). The first n rows agree.
    """

    h_qu: np.ndarray
    h_dl: np.ndarray


@dataclass(frozen=True)
class RoleAssignment:
    """Main user / assistant user split of one cooperation pair."""

    mu: int
    au: int
    mu_csi: qbc.CsiReport


def acquire_local_csi(h: np.ndarray, codebook: LocalCodebook) -> LocalCsi:
    """Quantize a user's channel against the cooperation-link codebook.

    For each codeword the best QBC alignment is the squared norm of its
    projection onto the channel subspace, so the selection scans projection
    norms and only the winning codeword gets its combiner materialised.

    Channels ``(..., n, m)``, ``g*u`` in order, take ``g`` codebooks
    ``(g, qcl, m)``, each for the next ``u`` channels (one for all as
    ``(qcl, m)``), and get a :class:`LocalCsi` of their leading axes, so
    one channel gets scalars. The pick bounds its own memory.
    """
    if np.ndim(h) == 2:
        h = numerics.as_channel(h)
    return _local_stage(h, *qbc._subspace(h), codebook.vectors.reshape(-1, *codebook.vectors.shape[-2:]))


def _local_choice(vectors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Each subspace's codeword of best QBC alignment, the first on a tie,
    by groups: ``g`` codebooks ``(g, qcl, m)``, each scanned by the next
    ``u`` subspaces of ``basis`` ``(g*u, m, n)``; gives the rows ``(g*u, m)``.

    The best alignment per codeword is the squared norm of its projection
    onto the channel subspace, so the argmax needs ``qcl*u*n`` complex
    correlations per group. They go into one buffer, in passes of at most
    2^14 (codeword, subspace) pairs or one codebook's words against one
    subspace: whole groups while one fits, else a group's subspaces split.
    That is 0.5 MiB at 4 groups of 16 users and 256 words (a 32-group pick
    in one pass peaked at 6.1 MiB, and 512 subspaces of one group 6.2 MiB).
    A pass runs products of a group's codewords with its basis columns,
    ``(m, u*n)`` or fewer, of at most 2^15 multiply-adds: OpenBLAS threads
    one of 2^16 or more, which more than doubled a 4-process fig7 run at
    k = 400.
    """
    (g, qcl, _), (m, n), u = vectors.shape, basis.shape[1:], len(basis) // len(vectors)
    # The conjugated correlations (g, qcl, u, n) as real pairs: conjugating the
    # small basis instead of the codebook leaves every square unchanged and copies
    # no codebook; the sum of squares needs no temporaries as large as them.
    columns = basis.conj().reshape(g, u, m, n).transpose(0, 2, 1, 3).reshape(g, m, u * n)
    step = max(1, (1 << 14) // (qcl * u))  # groups per pass
    width = min(u, max(1, (1 << 14) // qcl))  # subspaces per pass: all u unless one group is too large
    rows = max(1, (1 << 15) // (m * width * n))  # codewords per product
    buffer = np.empty((min(step, g), qcl, width * n), dtype=np.complex128)  # once: one per pass doubled a k=200 pick
    chosen = np.empty((g, u), dtype=np.intp)
    for lo in range(0, g, step):
        for s in range(0, u, width):
            part = columns[lo : lo + step, :, s * n : (s + width) * n]
            corr = buffer[: len(part), :, : part.shape[-1]]
            for q in range(0, qcl, rows):
                np.matmul(vectors[lo : lo + step, q : q + rows], part, out=corr[:, q : q + rows])
            pairs = corr.view(np.float64).reshape(len(corr), qcl, -1, 2 * n)
            chosen[lo : lo + step, s : s + width] = np.argmax(np.einsum("...i,...i->...", pairs, pairs), axis=1)
    return vectors[np.arange(g)[:, None], chosen].reshape(-1, m)


def _local_stage(h: np.ndarray, basis: np.ndarray, r: np.ndarray, vectors: np.ndarray) -> LocalCsi:
    """The one local acquisition of channels ``h`` ``(..., n, m)``, ``g*u``
    in order, also given as their bases and R factors, against ``g``
    codebooks ``(g, qcl, m)``, each for the next ``u``: :func:`_local_choice`
    on the flattened bases, then the one-column QBC stage toward the chosen
    codewords, whose ``H^H z`` is the virtual channel (a :class:`LocalCsi`)."""
    v = _local_choice(vectors, basis.reshape(-1, *basis.shape[-2:])).reshape(basis.shape[:-1])
    cos2, hv_norm2, z = qbc._qbc_stage(basis, r, v[..., None])
    h_virt = np.matmul(h.conj().swapaxes(-1, -2), z)[..., 0]
    cos2, z = cos2[..., 0], z[..., 0]
    tau = np.sqrt(cos2 * hv_norm2[..., 0])
    return LocalCsi(cdi=v, cqi=tau, combiner=z, h_virt=h_virt, sin2_error=np.clip(1.0 - cos2, 0.0, 1.0))


def build_global_matrix(h: np.ndarray, partner: LocalCsi) -> GlobalChannel:
    """Stack a user's own rows over the partner's virtual row. A stack of
    users ``(k, n, m)`` takes the stacked records of their partners."""
    h_qu = np.concatenate([h, partner.quantized_virtual.conj()[..., None, :]], axis=-2)
    h_dl = np.concatenate([h, partner.h_virt.conj()[..., None, :]], axis=-2)
    return GlobalChannel(h_qu=h_qu, h_dl=h_dl)


def acquire_global_csi(
    glob: GlobalChannel, codebook: GlobalCodebook, rho: float, user: int = 0
) -> tuple[qbc.CsiReport, np.ndarray]:
    """QBC over the stacked (n+1)-row matrix; returns the report and combiner.

    The reported CQI is computed from the quantized-row matrix ``h_qu`` --
    the only global channel the user can actually evaluate before downlink.
    """
    report = qbc.select_csi(glob.h_qu, codebook, rho, user=user)
    return report, report.combiner


def assign_roles(
    pair: tuple[int, int], csi_a: qbc.CsiReport, csi_b: qbc.CsiReport
) -> RoleAssignment:
    """:func:`scheduler.main_users` on the pair's own reports, as a stack of
    one: the larger global CQI wins, the lower index on a tie. Pairs are
    (even, even+1) in 0-based user numbering."""
    a, b = pair
    if b != a + 1 or a % 2 != 0:
        raise ValueError(f"users pair as (even, even+1); got ({a}, {b})")
    cqi = np.array([csi_a.cqi, csi_b.cqi])
    if (csi_a.user, csi_b.user) != (a, b) or not np.isfinite(cqi).all():
        raise ValueError(f"pair {pair} needs own finite CQIs; got {csi_a.user}: {csi_a.cqi}, {csi_b.user}: {csi_b.cqi}")
    mu = int(scheduler.main_users(cqi)[0])
    return RoleAssignment(mu=pair[mu], au=pair[1 - mu], mu_csi=(csi_a, csi_b)[mu])
