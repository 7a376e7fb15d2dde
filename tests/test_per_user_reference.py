"""The per-user API against ``reference``, which shares none of its kernel.

``select_csi``, ``combine_for_codeword`` and ``acquire_local_csi`` take one
channel through the stacked stages as a stack of one; ``reference`` does the
same arithmetic one codeword at a time with Householder QR and a plain Gram
solve.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import reference
from coopfb import cooperation, qbc
from coopfb.model import (
    SystemConfig,
    derive_trial_rng,
    gen_all_channels,
    gen_global_codebook,
    gen_local_codebook,
)

TOL = dict(rtol=1e-10, atol=1e-10)
KERNEL = {"coopfb.qbc", "coopfb.cooperation", "coopfb.numerics", "coopfb.scheduler", "coopfb.montecarlo"}


@pytest.mark.parametrize("codebook_mode", ["haar", "dft"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_per_user_api_matches_reference(n, codebook_mode):
    cfg = SystemConfig(m=4, n=n, k=8, rho=5.0, bcl=4, trials=1, seed=30 + n, codebook_mode=codebook_mode)
    for trial in range(25):
        rng = derive_trial_rng(cfg.seed, trial)
        h = gen_all_channels(cfg, rng)
        codebook = gen_global_codebook(cfg, rng)
        local_cb = gen_local_codebook(cfg, rng)
        cb = codebook.matrix
        for u in range(cfg.k):
            report = qbc.select_csi(h[u], codebook, cfg.rho, user=u)
            beam, cqi, z = reference.select(h[u], cb, cfg.rho)
            assert report.beam == beam
            np.testing.assert_allclose(report.cqi, cqi, **TOL)
            np.testing.assert_allclose(report.combiner, z, **TOL)

            for b in range(cfg.m):
                combined = qbc.combine_for_codeword(h[u], codebook.codeword(b))
                z, h_eff = reference.combine(h[u], cb[:, b])
                np.testing.assert_allclose(combined.combiner, z, **TOL)
                np.testing.assert_allclose(combined.h_eff, h_eff, **TOL)

            local = cooperation.acquire_local_csi(h[u], local_cb)
            q, tau, z, h_virt, sin2 = reference.local(h[u], local_cb.vectors)
            np.testing.assert_array_equal(local.cdi, local_cb.vectors[q])
            np.testing.assert_allclose(local.cqi, tau, **TOL)
            np.testing.assert_allclose(local.combiner, z, **TOL)
            np.testing.assert_allclose(local.h_virt, h_virt, **TOL)
            np.testing.assert_allclose(local.sin2_error, sin2, **TOL)


def test_reference_imports_nothing_of_the_kernel():
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert not imported & KERNEL, sorted(imported & KERNEL)
