"""Pairwise cooperation: local CSI acquisition, global channel construction,
global CSI acquisition, and main/assistant role assignment.

Users pair up as (0, 1), (2, 3), ...; inside a pair each user quantizes a
combined "virtual" channel against the cooperation-link RVQ codebook, hands
the quantized vector to its partner, and both then run quantization-based
combining on the (n+1)-row stacked matrix as if they owned the extra
antenna.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics, qbc
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

    @property
    def quantized_virtual(self) -> np.ndarray:
        return np.expand_dims(self.cqi, -1) * self.cdi

    @property
    def error_direction(self) -> np.ndarray:
        """Unit vector e with h_virt = cqi*cdi + ||h_virt|| sin(phi) e.

        Zero vector when the quantization was exact (sin(phi) ~ 0). Defined
        for the result of a single channel, not a stack.
        """
        residual = self.h_virt - self.quantized_virtual
        norm = np.linalg.norm(residual)
        if norm <= numerics.PROJECTION_TOL:
            return np.zeros_like(self.h_virt)
        return residual / norm


@dataclass(frozen=True)
class GlobalChannel:
    """Stacked (n+1) x m channel matrices of one prospective main user.

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

    A stack of channels ``(k, n, m)`` takes one codebook for all of them
    (``vectors`` of shape ``(qcl, m)``) or one per channel ``(k, qcl, m)``,
    and gives a :class:`LocalCsi` whose fields are stacked along axis 0.
    """
    if h.ndim == 3:
        gram, basis = qbc._subspace(h)
        v = _local_choice(codebook.vectors, basis)
        tau, z, h_virt, _, sin2 = _local_stage(h, gram, basis, v)
        return LocalCsi(cdi=v, cqi=tau, combiner=z, h_virt=h_virt, sin2_error=sin2)
    basis = numerics.orthonormal_basis(h)
    cos2 = np.sum(np.abs(codebook.vectors.conj() @ basis) ** 2, axis=1)
    chosen = int(np.argmax(cos2))
    combined = qbc._combine(h, basis, numerics.gram_matrix(h), codebook.vectors[chosen])
    h_virt = combined.h_eff
    tau = float(np.abs(np.vdot(codebook.vectors[chosen], h_virt)))
    norm2 = float(np.vdot(h_virt, h_virt).real)
    sin2 = min(max(1.0 - tau * tau / norm2, 0.0), 1.0)
    return LocalCsi(
        cdi=codebook.vectors[chosen].copy(),
        cqi=tau,
        combiner=combined.combiner,
        h_virt=h_virt,
        sin2_error=sin2,
    )


def _local_choice(vectors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Codeword with the best QBC alignment to each subspace of ``basis``
    ``(k, m, n)``: rows ``(k, m)`` out of one codebook ``(qcl, m)`` or out
    of one codebook per subspace ``(k, qcl, m)``.

    The best alignment per codeword is the squared norm of its projection
    onto the channel subspace, so the argmax only needs one correlation pass.
    """
    # The correlations (k, qcl, n) as real pairs: their sum of squares
    # needs no temporaries as large as the correlations themselves.
    pairs = np.matmul(vectors.conj(), basis).view(np.float64)
    chosen = np.argmax(np.einsum("...i,...i->...", pairs, pairs), axis=-1)
    if vectors.ndim == 2:
        return vectors[chosen]
    return vectors[np.arange(chosen.size), chosen]


def _local_stage(h: np.ndarray, gram: np.ndarray, basis: np.ndarray, v: np.ndarray):
    """Batched local acquisition of stacked channels toward their chosen
    codewords ``v`` ``(k, m)``.

    Returns per user: the CQI tau, the unit combiner, the virtual channel,
    its squared norm and the direction quantization error sin^2.
    """
    w = np.matmul(basis.conj().transpose(0, 2, 1), v[:, :, None])
    proj = np.matmul(basis, w)[:, :, 0]
    pnorm = np.linalg.norm(proj, axis=1)
    if np.any(pnorm <= numerics.PROJECTION_TOL):
        raise numerics.DegenerateProjection("local codeword orthogonal to a channel")
    proj /= pnorm[:, None]
    u = np.linalg.solve(gram, np.matmul(h, proj[:, :, None]))  # (k, n, 1)
    z_local = (u / np.linalg.norm(u, axis=1, keepdims=True))[:, :, 0]
    h_virt = np.matmul(h.conj().transpose(0, 2, 1), z_local[:, :, None])[:, :, 0]
    tau = np.abs(np.sum(v.conj() * h_virt, axis=1))
    hv_norm2 = np.sum(h_virt.real**2 + h_virt.imag**2, axis=1)
    sin2_local = np.clip(1.0 - tau * tau / hv_norm2, 0.0, 1.0)
    return tau, z_local, h_virt, hv_norm2, sin2_local


def build_global_matrix(h: np.ndarray, partner: LocalCsi) -> GlobalChannel:
    """Stack a user's own rows over the partner's virtual row."""
    h_qu = np.vstack([h, partner.quantized_virtual.conj()])
    h_dl = np.vstack([h, partner.h_virt.conj()])
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
    """Pick the pair member with the larger global CQI as main user.

    Ties go to the lower index. Pairs are (even, even+1) in 0-based user
    numbering.
    """
    a, b = pair
    if b != a + 1 or a % 2 != 0:
        raise ValueError(f"users pair as (even, even+1); got ({a}, {b})")
    if csi_a.cqi >= csi_b.cqi:
        return RoleAssignment(mu=a, au=b, mu_csi=csi_a)
    return RoleAssignment(mu=b, au=a, mu_csi=csi_b)
