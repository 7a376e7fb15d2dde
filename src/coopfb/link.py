"""Downlink symbol path and received-signal decomposition.

The symbol path exists to verify exact signal identities (the stacked
observation equals the direct evaluation through the downlink matrix, and
the four-term decomposition recombines to the received scalar). SINRs are
computed from the formula (``qbc.sinr_for_beam``), not from decoded symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cooperation import GlobalChannel, LocalCsi
from .model import GlobalCodebook, RandomStream, complex_gaussian
from .numerics import check_snr


@dataclass(frozen=True)
class DownlinkObservation:
    """Noise of one cooperating pair in a downlink slot, as its main user and assistant see it."""

    noise_mu: np.ndarray
    noise_au: complex

    @property
    def stacked_noise(self) -> np.ndarray:
        return np.append(self.noise_mu, self.noise_au)


@dataclass(frozen=True)
class DecompositionTerms:
    """Four-term split of the combined received scalar.

    ``desired`` multiplies the served beam's symbol; ``global_interference``
    and ``local_interference`` hold per-beam leakage coefficients (zero at
    the served beam); ``noise`` is the combined noise sample. ``recombined``
    is the weighted reassembly and must match the simulated scalar.
    """

    beam: int
    desired: complex
    global_interference: np.ndarray
    local_interference: np.ndarray
    noise: complex
    recombined: complex


def simulate_symbol_path(
    h_mu: np.ndarray,
    partner: LocalCsi,
    z_bar: np.ndarray,
    codebook: GlobalCodebook,
    symbols: np.ndarray,
    rho: float,
    rng: RandomStream,
) -> tuple[DownlinkObservation, complex]:
    """One downlink slot: transmit, combine at the assistant, stack, combine.

    The assistant's contribution is simulated through its unquantized
    virtual channel (its own combiner applied to its receive vector), which
    is the exact scalar it would forward over the sidelink.
    """
    check_snr(rho)
    n_rx = h_mu.shape[0]
    gen = rng.generator()
    noise_mu = complex_gaussian(gen, (n_rx,))
    noise_au_vec = complex_gaussian(gen, (partner.combiner.shape[0],))

    x = codebook.matrix @ symbols / math.sqrt(codebook.num_beams)
    y_mu = math.sqrt(rho) * (h_mu @ x) + noise_mu
    noise_au = complex(np.vdot(partner.combiner, noise_au_vec))
    y_au = complex(math.sqrt(rho) * np.vdot(partner.h_virt, x) + noise_au)
    combined = complex(np.vdot(z_bar, np.append(y_mu, y_au)))
    return DownlinkObservation(noise_mu=noise_mu, noise_au=noise_au), combined


def downlink_effective_channel(glob: GlobalChannel, z_bar: np.ndarray) -> np.ndarray:
    """Effective channel ``H_dl^H z`` the downlink flows through, for one user or a stack of them."""
    return np.matmul(np.swapaxes(glob.h_dl.conj(), -1, -2), z_bar)


def decompose_received(
    glob: GlobalChannel,
    z_bar: np.ndarray,
    codebook: GlobalCodebook,
    beam: int,
    symbols: np.ndarray,
    rho: float,
    stacked_noise: np.ndarray,
) -> DecompositionTerms:
    """Split the combined received scalar into desired / global / local / noise.

    The global part comes from quantizing the stacked effective channel
    against the served codeword; the local part is the leakage introduced by
    the partner's direction quantization (the difference between the
    downlink and quantized stacked matrices).
    """
    check_snr(rho)
    m = codebook.num_beams
    if not 0 <= beam < m:  # a negative index would read another beam
        raise ValueError(f"beam {beam} outside 0..{m - 1}")
    c = codebook.matrix
    h_qu = glob.h_qu.conj().T @ z_bar
    local_vec = downlink_effective_channel(glob, z_bar) - h_qu

    cm = c[:, beam]
    align = np.vdot(h_qu, cm)  # h_qu^H c_m, real-positive by construction
    residual = h_qu - np.vdot(cm, h_qu) * cm  # component orthogonal to c_m

    desired = complex(np.abs(align) + np.vdot(local_vec, cm))
    global_interference = residual.conj() @ c
    local_interference = local_vec.conj() @ c
    global_interference[beam] = 0.0
    local_interference[beam] = 0.0

    symbols = np.asarray(symbols, dtype=np.complex128)
    leak = global_interference + local_interference
    noise = np.vdot(z_bar, stacked_noise)
    recombined = complex(
        math.sqrt(rho / m) * (desired * symbols[beam] + np.sum(np.delete(leak * symbols, beam))) + noise
    )
    return DecompositionTerms(
        beam=beam,
        desired=desired,
        global_interference=global_interference,
        local_interference=local_interference,
        noise=complex(noise),
        recombined=recombined,
    )

