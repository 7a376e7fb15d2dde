import math

import numpy as np
import pytest

from coopfb import link, numerics, qbc
from coopfb.cooperation import (
    GlobalChannel,
    acquire_global_csi,
    acquire_local_csi,
    build_global_matrix,
)
from coopfb.model import (
    LocalCodebook,
    SystemConfig,
    derive_trial_rng,
    gen_all_channels,
    gen_global_codebook,
    gen_local_codebook,
)
from coopfb.qbc import CsiReport
from coopfb.scheduler import ScheduleResult

CFG = SystemConfig(m=4, n=2, k=8, rho=6.3, bcl=5, trials=1, seed=77)


def sum_rate_numerical(schedule: ScheduleResult, downlink_channels, codebook, rho: float) -> float:
    """Sum over assigned beams of log2(1 + SINR) through the per-user SINR;
    empty beams contribute zero. The engine's rates are checked against it."""
    total = 0.0
    for beam, user in enumerate(schedule.assignment):
        if user is not None:
            total += math.log2(1.0 + qbc.sinr_for_beam(downlink_channels[user], codebook, beam, rho))
    return total


def draw_pair(trial, cfg=CFG):
    """One cooperating pair: MU channel, AU local CSI, stacked matrices,
    global report for the selected beam."""
    rng = derive_trial_rng(cfg.seed, trial)
    h = gen_all_channels(cfg, rng)
    codebook = gen_global_codebook(cfg, rng)
    local_cb = gen_local_codebook(cfg, rng)
    local = acquire_local_csi(h[1], local_cb)
    glob = build_global_matrix(h[0], local)
    report, z_bar = acquire_global_csi(glob, codebook, cfg.rho)
    return h, codebook, local, glob, report, z_bar, rng


def symbols_for(rng, m):
    gen = rng.child("symbols").generator()
    return (gen.standard_normal((m, 2)) @ np.array([1, 1j])) / np.sqrt(2.0)


class TestSimulateSymbolPath:
    def test_matches_direct_downlink_evaluation(self):
        for trial in range(20):
            h, codebook, local, glob, report, z_bar, rng = draw_pair(trial)
            s = symbols_for(rng, CFG.m)
            obs, combined = link.simulate_symbol_path(
                h[0], local, z_bar, codebook, s, CFG.rho, rng.child("noise")
            )
            x = codebook.matrix @ s / math.sqrt(CFG.m)
            direct = np.vdot(
                z_bar, math.sqrt(CFG.rho) * glob.h_dl @ x + obs.stacked_noise
            )
            assert abs(combined - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_zero_symbols_leave_only_noise(self):
        h, codebook, local, glob, report, z_bar, rng = draw_pair(3)
        s = np.zeros(CFG.m, dtype=complex)
        obs, combined = link.simulate_symbol_path(
            h[0], local, z_bar, codebook, s, CFG.rho, rng.child("noise")
        )
        assert abs(combined - np.vdot(z_bar, obs.stacked_noise)) < 1e-14

    def test_aligned_noiseless_reduction(self):
        # n+1 = m with an exact partner: the effective channel is parallel to
        # the served codeword, so a unit symbol returns sqrt(rho/m)*norm.
        cfg = SystemConfig(m=4, n=3, k=8, rho=9.0, bcl=2, trials=1, seed=5)
        rng = derive_trial_rng(cfg.seed, 0)
        h = gen_all_channels(cfg, rng)
        codebook = gen_global_codebook(cfg, rng)
        inside = h[1].conj().T @ np.array([0.2, -0.7j, 0.4])
        inside /= np.linalg.norm(inside)
        local = acquire_local_csi(h[1], LocalCodebook(inside[None, :]))
        glob = build_global_matrix(h[0], local)
        report, z_bar = acquire_global_csi(glob, codebook, cfg.rho)
        s = np.zeros(cfg.m, dtype=complex)
        s[report.beam] = 1.0

        class _SilentStream:
            def generator(self):
                return _SilentGen()

        class _SilentGen:
            def standard_normal(self, size=None, out=None):
                if out is None:
                    return np.zeros(size)
                out[...] = 0.0

        obs, combined = link.simulate_symbol_path(
            h[0], local, z_bar, codebook, s, cfg.rho, _SilentStream()
        )
        h_eff = link.downlink_effective_channel(glob, z_bar)
        expected = math.sqrt(cfg.rho / cfg.m) * np.linalg.norm(h_eff)
        assert abs(abs(combined) - expected) < 1e-10


class TestSnrRefused:
    @pytest.mark.parametrize("rho", [-1.0, 0.0, math.nan, math.inf])
    def test_not_positive_and_finite(self, rho):
        h, codebook, local, glob, report, z_bar, rng = draw_pair(0)
        s = symbols_for(rng, CFG.m)
        with pytest.raises(ValueError, match="positive finite SNR"):
            link.simulate_symbol_path(h[0], local, z_bar, codebook, s, rho, rng.child("noise"))
        noise = np.zeros(CFG.n + 1, complex)
        with pytest.raises(ValueError, match="positive finite SNR"):
            link.decompose_received(glob, z_bar, codebook, report.beam, s, rho, noise)
        with pytest.raises(ValueError, match="positive finite SNR"):
            acquire_global_csi(glob, codebook, rho)


class TestBeamRefused:
    @pytest.mark.parametrize("beam", [-1, CFG.m])
    def test_outside_the_codebook(self, beam):
        h, codebook, local, glob, report, z_bar, rng = draw_pair(0)
        s, noise = symbols_for(rng, CFG.m), np.zeros(CFG.n + 1, complex)
        with pytest.raises(ValueError, match=f"beam {beam} outside 0..{CFG.m - 1}"):
            link.decompose_received(glob, z_bar, codebook, beam, s, 1.0, noise)


class TestDownlinkEffectiveChannel:
    def test_exact_partner_gives_equal_channels(self):
        h, codebook, local, glob, report, z_bar, rng = draw_pair(4)
        exact = build_global_matrix(h[0], acquire_local_csi(h[1], LocalCodebook(
            (h[1].conj().T @ np.array([0.5, 0.5]))[None, :]
            / np.linalg.norm(h[1].conj().T @ np.array([0.5, 0.5]))
        )))
        z = np.array([0.5, 0.5, 0.5 + 0.5j], dtype=complex)
        z /= np.linalg.norm(z)
        np.testing.assert_allclose(
            link.downlink_effective_channel(exact, z),
            exact.h_qu.conj().T @ z,
            atol=1e-9,
        )

    def test_zero_last_combiner_entry_drops_partner_error(self):
        h, codebook, local, glob, report, z_bar, rng = draw_pair(5)
        z = np.array([0.6, 0.8j, 0.0], dtype=complex)
        np.testing.assert_allclose(
            link.downlink_effective_channel(glob, z),
            glob.h_qu.conj().T @ z,
            atol=1e-12,
        )

    def test_two_sided_error_identity(self):
        # H_dl^H z - H_qu^H z = ([z]_{n+1} ||h_virt|| sin(phi)) e_local.
        for trial in range(20):
            h, codebook, local, glob, report, z_bar, rng = draw_pair(trial)
            h_eff = link.downlink_effective_channel(glob, z_bar)
            h_eff_qu = glob.h_qu.conj().T @ z_bar
            scale = (
                z_bar[CFG.n]
                * np.linalg.norm(local.h_virt)
                * math.sqrt(local.sin2_error)
            )
            expected = scale * local.error_direction
            assert np.linalg.norm((h_eff - h_eff_qu) - expected) < 1e-10


    def test_stack_equals_each_users_call(self):
        rng = derive_trial_rng(CFG.seed, 3)
        h = gen_all_channels(CFG, rng)[:6]
        local = acquire_local_csi(h, gen_local_codebook(CFG, rng))
        glob = build_global_matrix(h, local[np.arange(6) ^ 1])
        gen = rng.child("combiners").generator()
        z = gen.standard_normal((6, CFG.n + 1, CFG.m)) + 1j * gen.standard_normal((6, CFG.n + 1, CFG.m))
        stacked = link.downlink_effective_channel(glob, z)
        assert stacked.shape == (6, CFG.m, CFG.m)
        for u in range(6):
            alone = link.downlink_effective_channel(GlobalChannel(glob.h_qu[u], glob.h_dl[u]), z[u])
            np.testing.assert_array_equal(stacked[u], alone)


class TestDecomposeReceived:
    def test_recombination_matches_simulation(self):
        for trial in range(30):
            h, codebook, local, glob, report, z_bar, rng = draw_pair(trial)
            s = symbols_for(rng, CFG.m)
            obs, combined = link.simulate_symbol_path(
                h[0], local, z_bar, codebook, s, CFG.rho, rng.child("noise")
            )
            terms = link.decompose_received(
                glob, z_bar, codebook, report.beam, s, CFG.rho, obs.stacked_noise
            )
            assert abs(terms.recombined - combined) <= 1e-10 * max(1.0, abs(combined))

    def test_orthogonality_sums(self):
        # The unit global error direction spreads unit power over the other
        # beams; the unit local error spreads unit power over all beams.
        for trial in range(30):
            h, codebook, local, glob, report, z_bar, rng = draw_pair(trial)
            h_eff_qu = glob.h_qu.conj().T @ z_bar
            cm = codebook.codeword(report.beam)
            residual = h_eff_qu - np.vdot(cm, h_eff_qu) * cm
            sin_norm = np.linalg.norm(residual)
            if sin_norm > 1e-8:
                unit_err = residual / sin_norm
                spread = sum(
                    np.abs(np.vdot(unit_err, codebook.codeword(b))) ** 2
                    for b in range(CFG.m)
                    if b != report.beam
                )
                assert abs(spread - 1.0) < 1e-10
            e_local = local.error_direction
            if np.linalg.norm(e_local) > 0:
                spread_all = sum(
                    np.abs(np.vdot(e_local, codebook.codeword(b))) ** 2
                    for b in range(CFG.m)
                )
                assert abs(spread_all - 1.0) < 1e-10

    def test_interference_free_when_both_quantizations_exact(self):
        cfg = SystemConfig(m=4, n=3, k=8, rho=5.0, bcl=1, trials=1, seed=9)
        rng = derive_trial_rng(cfg.seed, 0)
        h = gen_all_channels(cfg, rng)
        codebook = gen_global_codebook(cfg, rng)
        inside = h[1].conj().T @ np.array([0.2, 0.3, -0.6j])
        inside /= np.linalg.norm(inside)
        local = acquire_local_csi(h[1], LocalCodebook(inside[None, :]))
        glob = build_global_matrix(h[0], local)
        report, z_bar = acquire_global_csi(glob, codebook, cfg.rho)
        s = symbols_for(rng, cfg.m)
        noise = np.zeros(cfg.n + 1, dtype=complex)
        terms = link.decompose_received(glob, z_bar, codebook, report.beam, s, cfg.rho, noise)
        assert np.max(np.abs(terms.global_interference)) < 1e-9
        assert np.max(np.abs(terms.local_interference)) < 1e-9
        assert abs(terms.noise) == 0.0

    def test_global_term_magnitude_structure(self):
        h, codebook, local, glob, report, z_bar, rng = draw_pair(8)
        s = symbols_for(rng, CFG.m)
        noise = np.zeros(CFG.n + 1, dtype=complex)
        terms = link.decompose_received(glob, z_bar, codebook, report.beam, s, CFG.rho, noise)
        h_eff_qu = glob.h_qu.conj().T @ z_bar
        norm2 = np.vdot(h_eff_qu, h_eff_qu).real
        cm = codebook.codeword(report.beam)
        cos2 = np.abs(np.vdot(h_eff_qu, cm)) ** 2 / norm2
        sin2 = 1.0 - cos2
        residual = h_eff_qu - np.vdot(cm, h_eff_qu) * cm
        unit_err = residual / np.linalg.norm(residual)
        for beam in range(CFG.m):
            if beam == report.beam:
                continue
            expected = norm2 * sin2 * np.abs(np.vdot(unit_err, codebook.codeword(beam))) ** 2
            assert abs(np.abs(terms.global_interference[beam]) ** 2 - expected) < 1e-10


class TestNumericalSinr:
    def test_conventional_identity_with_reported_cqi(self):
        cfg = SystemConfig(m=4, n=2, k=8, rho=3.7, bcl=2, trials=1, seed=21)
        rng = derive_trial_rng(cfg.seed, 0)
        h = gen_all_channels(cfg, rng)
        codebook = gen_global_codebook(cfg, rng)
        for user in range(cfg.k):
            report = qbc.select_csi(h[user], codebook, cfg.rho, user=user)
            combined = qbc.combine_for_codeword(h[user], codebook.codeword(report.beam))
            gamma = qbc.sinr_for_beam(combined.h_eff, codebook, report.beam, cfg.rho)
            assert gamma == report.cqi

    def test_served_codeword_unit_sinr(self):
        _, codebook, *_ = draw_pair(2)
        gamma = qbc.sinr_for_beam(codebook.codeword(1), codebook, 1, rho=4.0)
        assert abs(gamma - 1.0) < 1e-10


class TestSumRate:
    def test_empty_schedule_rate_zero(self):
        schedule = ScheduleResult(assignment=(None, None, None, None))
        _, codebook, *_ = draw_pair(1)
        assert sum_rate_numerical(schedule, {}, codebook, 5.0) == 0.0

    def test_single_unit_sinr_beam(self):
        _, codebook, *_ = draw_pair(1)
        schedule = ScheduleResult(assignment=(None, 7, None, None))
        channels = {7: codebook.codeword(1)}
        rate = sum_rate_numerical(schedule, channels, codebook, rho=4.0)
        assert abs(rate - 1.0) < 1e-10

    def test_matches_independent_resummation(self):
        h, codebook, local, glob, report, z_bar, rng = draw_pair(6)
        channels = {0: link.downlink_effective_channel(glob, z_bar)}
        schedule = ScheduleResult(assignment=(None, None, None, None)[: report.beam] + (0,) + (None,) * (3 - report.beam))
        rate = sum_rate_numerical(schedule, channels, codebook, CFG.rho)
        expected = math.log2(1.0 + qbc.sinr_for_beam(channels[0], codebook, report.beam, CFG.rho))
        assert abs(rate - expected) < 1e-12
