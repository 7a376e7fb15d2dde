"""Per-channel QBC and local acquisition in numpy alone, as an oracle.

One channel ``h`` ``(n, m)`` and one codeword at a time: the row-space
basis comes from Householder QR (``np.linalg.qr``) and the combiner from a
plain solve of the Gram system ``(H H^H) u = H p``. It imports nothing from
coopfb's kernel (``qbc``, ``cooperation``, ``numerics``), so the per-user
API and the samplers that share that kernel are checked against arithmetic
they do not share.
"""

import numpy as np

# Relative share of a row's norm that must survive orthogonalisation, and
# the smallest projection of a unit codeword that counts as nonzero.
TOL = 1e-12


class Degenerate(ValueError):
    """A rank-deficient channel, or a codeword orthogonal to its row space."""


def row_space_basis(h):
    """Orthonormal columns ``(m, n)`` spanning the conjugated rows of ``h``."""
    q, r = np.linalg.qr(h.conj().T)
    if np.any(~(np.abs(np.diag(r)) > TOL * np.linalg.norm(h, axis=1))):
        raise Degenerate("channel rows are numerically dependent")
    return q


def project_unit(c, basis):
    """Unit-norm projection of ``c`` onto the column span of ``basis``."""
    proj = basis @ (basis.conj().T @ c)
    norm = np.linalg.norm(proj)
    if not norm > TOL:
        raise Degenerate("codeword orthogonal to the channel's row space")
    return proj / norm


def combine(h, c):
    """QBC toward ``c``: the unit combiner ``z`` and ``h_eff = H^H z``."""
    proj = project_unit(c, row_space_basis(h))
    u = np.linalg.solve(h @ h.conj().T, h @ proj)
    z = u / np.linalg.norm(u)
    return z, h.conj().T @ z


def sinr(h_eff, cb, beam, rho):
    """SINR of ``h_eff`` served by column ``beam`` of the unitary ``cb``
    while every other column transmits too."""
    powers = np.abs(cb.conj().T @ h_eff) ** 2
    return float(powers[beam] / (cb.shape[1] / rho + powers.sum() - powers[beam]))


def select(h, cb, rho):
    """``(beam, cqi, combiner)`` of the SINR-maximising column of ``cb``.

    A column orthogonal to the row space is skipped; ties go to the lowest
    index.
    """
    best = None
    for beam in range(cb.shape[1]):
        try:
            z, h_eff = combine(h, cb[:, beam])
        except Degenerate:
            continue
        gamma = sinr(h_eff, cb, beam, rho)
        if best is None or gamma > best[1]:
            best = (beam, gamma, z)
    if best is None:
        raise Degenerate("no codeword projects onto the channel's row space")
    return best


def local(h, vectors):
    """Local acquisition against the rows of ``vectors`` ``(qcl, m)``:
    ``(index, tau, combiner, h_virt, sin2)`` of the codeword QBC aligns
    best, where alignment is the squared norm of the codeword's projection
    onto the row space."""
    basis = row_space_basis(h)
    cos2 = np.sum(np.abs(vectors.conj() @ basis) ** 2, axis=1)
    q = int(np.argmax(cos2))
    z, h_virt = combine(h, vectors[q])
    tau = float(np.abs(np.vdot(vectors[q], h_virt)))
    sin2 = min(max(1.0 - tau * tau / np.vdot(h_virt, h_virt).real, 0.0), 1.0)
    return q, tau, z, h_virt, sin2


def surrogate_norm(hw, psi, omega):
    """Stacked-norm surrogate of one draw: the last of the ``n + 1`` rows of
    ``hw`` ``(n + 1, m)`` scaled to the power the shared local CSI keeps,
    ``(1 - omega)(m - n + 1)/m``, and the unit-modulus direction with
    phases ``psi``; returns ``1 / (w^H (H H^H)^-1 w)``."""
    n, m = hw.shape[0] - 1, hw.shape[1]
    hw = hw.copy()
    hw[n] *= np.sqrt((1.0 - omega) * (m - n + 1.0) / m)
    w = np.exp(1j * psi) / np.sqrt(n + 1.0)
    return 1.0 / np.vdot(w, np.linalg.solve(hw @ hw.conj().T, w)).real
