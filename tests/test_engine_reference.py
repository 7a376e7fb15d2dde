"""The engine's workspace arrays against ``reference``, beam by beam, and
its sum-rates against the oracle's selection rules.

The engine reads every beam power off the QBC identity (cos^2 and the
squared effective norm of one stage call); the oracle here combines toward
each codeword with ``reference.combine`` and sums ``|c_j^H h_eff|^2`` over
the codebook's columns explicitly, so the two share no arithmetic. The
sum-rates are then scheduled from those powers by ``reference.first_max``,
``main_user`` and ``schedule``, which walk plain lists.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import reference
from coopfb import montecarlo
from coopfb.analysis import CONVENTIONAL, COOPERATIVE
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


# Relative gap under which two CQIs count as tied; breaking ties is
# test_selection_rules.py's job, so an example with one is rejected.
TIE_GAP = 1e-9


def near_tie(values):
    """Whether the two largest of ``values`` lie within ``TIE_GAP`` relative."""
    top = sorted(values, reverse=True)[:2]
    return len(top) == 2 and top[0] - top[1] <= TIE_GAP * top[0]


def reference_rates(cfg, trial, rho_lin, pipelines):
    """A :func:`montecarlo._rate_block` row of one trial from
    :func:`reference_arrays`: each pipeline's sum-rate at each SNR, then the
    beams left unassigned over them all; None where a decision is a near tie."""
    arrays = reference_arrays(cfg, trial, 0)
    k, m = cfg.k, cfg.m
    row, unassigned = [], 0
    for mode in pipelines:
        # Cooperative users report off the quantized-row matrix; the downlink
        # flows through the partner's unquantized row.
        reported = ("sig_qu", "intf_qu") if mode == COOPERATIVE else ("sig", "intf")
        delivered = ("sig_dl", "intf_dl") if mode == COOPERATIVE else reported
        for rho in rho_lin:
            noise = m / rho
            cqi = [list(arrays[reported[0]][u] / (noise + arrays[reported[1]][u])) for u in range(k)]
            if any(near_tie(c) for c in cqi):
                return None
            best = [reference.first_max(c) for c in cqi]
            reports = [(u, best[u], cqi[u][best[u]]) for u in range(k)]
            if mode == COOPERATIVE:
                pairs = [(reports[u], reports[u + 1]) for u in range(0, k, 2)]
                if any(near_tie([a[2], b[2]]) for a, b in pairs):
                    return None
                reports = [pair[reference.main_user(pair[0][2], pair[1][2])] for pair in pairs]
            if any(near_tie([c for _, b, c in reports if b == beam]) for beam in range(m)):
                return None
            served = reference.schedule(reports, m)
            sig, intf = (arrays[name] for name in delivered)
            rates = [np.log2(1.0 + sig[u, b] / (noise + intf[u, b])) for b, u in enumerate(served) if u is not None]
            row.append(sum(rates))
            unassigned += served.count(None)
    return row + [unassigned]


@settings(max_examples=60, deadline=None)
@given(
    dims=st.integers(2, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
    bcl=st.sampled_from([1, 3, 6]),
    codebook_mode=st.sampled_from(["haar", "dft"]),
    trials=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_sum_rates_match_reference_schedule_over_configurations(dims, bcl, codebook_mode, trials, seed):
    # The whole rate path of one block, both pipelines: the noise m / rho,
    # each user's best beam, the pair rule, the per-beam pick and the
    # delivered rates, against the oracle's rules on its own powers.
    m, n = dims
    cfg = SystemConfig(m=m, n=n, k=2 * m, rho=5.0, bcl=bcl, trials=trials, seed=seed, codebook_mode=codebook_mode)
    rngs = [derive_trial_rng(seed, trial) for trial in range(trials)]
    rho_lin = 10.0 ** (np.array([0.0, 10.0, 20.0]) / 10.0)
    pipelines = (COOPERATIVE, CONVENTIONAL)
    try:
        block = montecarlo._rate_block(cfg, rho_lin, pipelines, rngs)
        want = [reference_rates(cfg, trial, rho_lin, pipelines) for trial in range(trials)]
    except (RankDeficient, DegenerateProjection, reference.Degenerate):
        reject()
    if any(row is None for row in want):
        reject()
    for trial, (got, row) in enumerate(zip(block, want)):
        np.testing.assert_allclose(got[:-1], row[:-1], rtol=1e-9, err_msg=f"trial {trial}")
        assert got[-1] == row[-1], f"trial {trial}: unassigned beams"
