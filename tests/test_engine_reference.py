"""The engine's workspace arrays against ``reference``, beam by beam.

The engine reads every beam power off the QBC identity (cos^2 and the
squared effective norm of one stage call); the oracle here combines toward
each codeword with ``reference.combine`` and sums ``|c_j^H h_eff|^2`` over
the codebook's columns explicitly, so the two share no arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import reference
from coopfb import montecarlo
from coopfb.model import (
    SystemConfig,
    derive_trial_rng,
    gen_all_channels,
    gen_global_codebook,
    gen_local_codebook,
)
from coopfb.numerics import DegenerateProjection, RankDeficient

TOL = dict(rtol=1e-9, atol=1e-12)


def powers(h_eff, cb, beam):
    """Signal and cross-beam power of ``h_eff`` served by column ``beam``."""
    p = np.abs(cb.conj().T @ h_eff) ** 2
    return p[beam], p.sum() - p[beam]


def reference_arrays(cfg, trial, resamples):
    """Every compared workspace array of one trial, user by user."""
    base = derive_trial_rng(cfg.seed, trial)
    rng = base if resamples == 0 else base.child("resample", resamples)
    h = gen_all_channels(cfg, rng)
    cb = gen_global_codebook(cfg, rng).matrix
    vectors = gen_local_codebook(cfg, rng).vectors
    k, m = cfg.k, cfg.m
    out = {name: np.zeros((k, m)) for name in ("sig", "intf", "sig_qu", "intf_qu", "sig_dl", "intf_dl")}
    local = [reference.local(h[u], vectors) for u in range(k)]
    for u in range(k):
        q, tau, _, h_virt, _ = local[u ^ 1]
        h_qu = np.vstack([h[u], (tau * vectors[q]).conj()])
        h_dl = np.vstack([h[u], h_virt.conj()])
        for b in range(m):
            _, h_eff = reference.combine(h[u], cb[:, b])
            out["sig"][u, b], out["intf"][u, b] = powers(h_eff, cb, b)
            z, h_eff = reference.combine(h_qu, cb[:, b])
            out["sig_qu"][u, b], out["intf_qu"][u, b] = powers(h_eff, cb, b)
            out["sig_dl"][u, b], out["intf_dl"][u, b] = powers(h_dl.conj().T @ z, cb, b)
    return out


def assert_matches_reference(ws, resamples):
    """Every workspace array of ``ws`` against :func:`reference_arrays`."""
    want = reference_arrays(ws.cfg, ws.trial, resamples)
    got = {"sig": ws.conv.sig, "intf": ws.conv.intf}
    got.update(sig_qu=ws.coop.sig, intf_qu=ws.coop.intf)
    got.update((name, getattr(ws.coop, name)) for name in want if name not in got)
    for name, value in want.items():
        np.testing.assert_allclose(got[name], value, err_msg=f"trial {ws.trial}: {name}", **TOL)


@pytest.mark.parametrize("codebook_mode", ["haar", "dft"])
@pytest.mark.parametrize("n", [2, 3])
def test_workspace_beam_powers_match_explicit_sums(n, codebook_mode):
    cfg = SystemConfig(m=4, n=n, k=8, rho=5.0, bcl=4, trials=1, seed=50 + n, codebook_mode=codebook_mode)
    for trial in range(6):
        ws = montecarlo.build_workspace(cfg, trial, coop=True, conv=True)
        assert_matches_reference(ws, ws.resamples)


@settings(max_examples=100, deadline=None)
@given(
    dims=st.integers(2, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
    bcl=st.sampled_from([1, 3, 6]),
    codebook_mode=st.sampled_from(["haar", "dft"]),
    trials=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_match_explicit_sums_over_configurations(dims, bcl, codebook_mode, trials, seed):
    # One block of several trials, each trial's codebook its own: a trial
    # served another's codebook or users fails here.
    m, n = dims
    cfg = SystemConfig(m=m, n=n, k=2 * m, rho=5.0, bcl=bcl, trials=trials, seed=seed, codebook_mode=codebook_mode)
    rngs = [derive_trial_rng(seed, trial) for trial in range(trials)]
    try:
        block = montecarlo._workspaces(cfg, rngs, coop=True, conv=True)
    except (RankDeficient, DegenerateProjection):
        reject()
    assert [ws.trial for ws in block] == list(range(trials))
    for ws in block:
        assert_matches_reference(ws, 0)
