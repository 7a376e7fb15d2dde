import math
from functools import partial

import numpy as np
import pytest
from scipy import stats

from coopfb import analysis, cooperation, link, montecarlo, numerics, qbc, scheduler
from coopfb.model import (
    ConfigError,
    SystemConfig,
    derive_trial_rng,
    gen_all_channels,
    gen_global_codebook,
    gen_local_codebook,
)
from coopfb.montecarlo import (
    EmptyInput,
    build_workspace,
    empirical_cdf,
    evaluate_mode,
    ks_distance,
    run_experiment,
)
from test_link import sum_rate_numerical
from test_samplers import zero_draws_at


def small_cfg(**kw):
    base = dict(m=4, n=2, k=8, rho=5.0, bcl=4, trials=16, seed=3)
    base.update(kw)
    return SystemConfig(**base)


def refuse_trials(monkeypatch):
    """Fail the test if any trial is simulated from here on."""

    def refuse(*_, **__):
        raise AssertionError("simulated a refused run")

    monkeypatch.setattr(montecarlo, "_simulate", refuse)


class TestEmpiricalCdf:
    def test_constant_samples_step(self):
        cdf = empirical_cdf([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(cdf, [0.0, 1.0, 1.0])

    def test_monotone_on_grid(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(size=500)
        grid = np.linspace(0, 5, 50)
        cdf = empirical_cdf(samples, grid)
        assert np.all(np.diff(cdf) >= 0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=200)
        grid = rng.normal(size=20)
        cdf = empirical_cdf(samples, grid)
        for x, value in zip(grid, cdf):
            assert value == np.mean(samples <= x)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            empirical_cdf([], [0.0])


class TestKsDistance:
    def test_model_samples_within_critical_value(self):
        rng = np.random.default_rng(2)
        n = 10000
        samples = rng.gamma(shape=2.0, scale=0.9, size=n)
        cdf = lambda x: stats.gamma.cdf(x, a=2.0, scale=0.9)
        assert ks_distance(samples, cdf) < 1.63 / math.sqrt(n)

    def test_self_cdf_is_zero(self):
        samples = np.array([0.5, 1.5, 2.5, 3.5])
        assert ks_distance(samples, lambda x: empirical_cdf(samples, x)) == 0.0

    def test_degenerate_model(self):
        samples = np.array([1.0, 2.0, 3.0])
        assert ks_distance(samples, lambda x: np.ones_like(np.asarray(x, dtype=float))) == 1.0

    def test_region_restriction(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(size=2000)
        cdf = lambda x: 1.0 - np.exp(-np.asarray(x, dtype=float))
        full = ks_distance(samples, cdf)
        upper = ks_distance(samples, cdf, region=0.5)
        assert upper <= full + 1e-15

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ks_distance([], lambda x: x)

    def test_region_without_samples_is_none(self):
        cdf = lambda x: 1.0 - np.exp(-np.asarray(x, dtype=float))
        assert ks_distance([0.1, 0.2], cdf, region=0.5) is None

    @staticmethod
    def two_call_distances(samples, cdf, regions):
        """The statistics from one cdf call on the sorted samples and another
        on their left neighbours: the oracle for the single call."""
        s = np.sort(np.asarray(samples, dtype=float))
        n = s.size
        right = np.asarray(cdf(s), dtype=float)
        left = np.asarray(cdf(np.nextafter(s, -np.inf)), dtype=float)
        gaps = np.maximum(np.abs(np.arange(1, n + 1) / n - right), np.abs(np.arange(n) / n - left))
        picked = [gaps if region is None else gaps[right >= region] for region in regions]
        return [float(g.max()) if g.size else None for g in picked]

    @pytest.mark.parametrize("case", ["exact_law", "tied_steps"])
    def test_one_cdf_call_gives_the_two_call_statistics(self, case):
        rng = np.random.default_rng(11)
        if case == "exact_law":
            # fig6's defaults at 10 dB; samples on both sides of E_k's switch at lam = 2.
            m, n, rho = 4, 2, 10.0
            pars = analysis.derive_params(m, n, 2**8, rho)
            scale = rho / (m * pars.alpha) * pars.varrho_sq
            samples = scale * rng.exponential(2.0, size=400)
            model = partial(analysis.sinr_cdf_exact, m=m, n=n, rho=rho, alpha=pars.alpha, varrho_sq=pars.varrho_sq)
        else:
            samples = rng.integers(0, 6, size=60).astype(float)
            ties = rng.integers(0, 6, size=40).astype(float)
            model = lambda x: empirical_cdf(ties, x)
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return model(x)

        regions = [None, 0.5, 0.99]
        got = montecarlo.ks_distances(samples, counted, regions)
        assert calls == [2 * len(samples)]
        assert got == self.two_call_distances(samples, model, regions)


class TestEngineAgainstModules:
    """The batched workspace must reproduce the per-user module pipeline."""

    # Each pipeline is also checked at 0 dB (rho = 1), where the cooperative
    # and conventional Monte Carlo sum-rates of criterion 9 cross.
    def test_cooperative_pipeline_agreement(self):
        cfg = small_cfg(k=12, bcl=3, rho=7.0, seed=9)
        for trial in range(4):
            ws = build_workspace(cfg, trial, coop=True, conv=True)
            rng = derive_trial_rng(cfg.seed, trial)
            h = gen_all_channels(cfg, rng)
            codebook = gen_global_codebook(cfg, rng)
            local_cb = gen_local_codebook(cfg, rng)

            locals_ = [cooperation.acquire_local_csi(h[u], local_cb) for u in range(cfg.k)]
            for rho in (cfg.rho, 1.0):
                reports = []
                globs = []
                for u in range(cfg.k):
                    glob = cooperation.build_global_matrix(h[u], locals_[u ^ 1])
                    report, z_bar = cooperation.acquire_global_csi(glob, codebook, rho, user=u)
                    globs.append(glob)
                    reports.append(report)
                    cqi_engine = ws.coop.sig[u] / (cfg.m / rho + ws.coop.intf[u])
                    assert int(np.argmax(cqi_engine)) == report.beam
                    assert abs(cqi_engine[report.beam] - report.cqi) <= 1e-10 * max(1.0, report.cqi)

                mu_reports = [
                    cooperation.assign_roles((a, a + 1), reports[a], reports[a + 1]).mu_csi
                    for a in range(0, cfg.k, 2)
                ]
                sched = scheduler.schedule_users(mu_reports, cfg.m, mode="cooperative")
                ev = evaluate_mode(ws, "cooperative", np.array([rho]))
                engine_sched = tuple(int(u) if u >= 0 else None for u in ev.users[0])
                assert engine_sched == sched.assignment

                downlink = {
                    r.user: link.downlink_effective_channel(globs[r.user], r.combiner)
                    for r in mu_reports
                }
                rate = sum_rate_numerical(sched, downlink, codebook, rho)
                assert abs(rate - ev.sum_rate[0]) <= 1e-10 * max(1.0, rate)

    def test_conventional_pipeline_agreement(self):
        cfg = small_cfg(k=10, rho=4.0, seed=13)
        for trial in range(4):
            ws = build_workspace(cfg, trial, coop=False, conv=True)
            rng = derive_trial_rng(cfg.seed, trial)
            h = gen_all_channels(cfg, rng)
            codebook = gen_global_codebook(cfg, rng)
            for rho in (cfg.rho, 1.0):
                reports = [qbc.select_csi(h[u], codebook, rho, user=u) for u in range(cfg.k)]
                sched = scheduler.schedule_users(reports, cfg.m)
                ev = evaluate_mode(ws, "conventional", np.array([rho]))
                assert tuple(int(u) if u >= 0 else None for u in ev.users[0]) == sched.assignment

                downlink = {r.user: h[r.user].conj().T @ r.combiner for r in reports}
                rate = sum_rate_numerical(sched, downlink, codebook, rho)
                assert abs(rate - ev.sum_rate[0]) <= 1e-10 * max(1.0, rate)


def assert_same_workspace(got, want):
    """Every field of two workspaces equal, arrays bit for bit."""
    assert (got.trial, got.resamples) == (want.trial, want.resamples)
    for stage in ("conv", "coop"):
        a, b = getattr(got, stage), getattr(want, stage)
        assert (a is None) == (b is None), stage
        for name, value in (vars(b) if b is not None else {}).items():
            assert np.array_equal(getattr(a, name), value), (stage, name)


def rate_chunk(cfg, rho_lin, lo, hi):
    """Per-trial cooperative and conventional sum-rates over the trials
    ``[lo, hi)``, the resample count and the unassigned-beam count, read
    off the rate kernel's rows."""
    kernel = partial(montecarlo._rate_block, cfg, rho_lin, ("cooperative", "conventional"))
    rows, resamples = montecarlo._sampled(kernel, cfg.seed, montecarlo._block_trials(cfg, cfg.k), lo, hi)
    r = rho_lin.size
    return rows[:, :r], rows[:, r : 2 * r], resamples, int(rows[:, -1].sum())


class TestBlockedEngine:
    """The rate engine builds the workspaces of a block of trials in one
    pass; each trial must come out exactly as it does built alone."""

    @pytest.mark.parametrize("k, size", [(8, 64), (16, 32), (100, 5), (200, 2), (400, 1)])
    def test_block_size_counts_users(self, k, size):
        assert montecarlo._block_trials(small_cfg(k=k), k) == size

    @pytest.mark.parametrize("coop, conv", [(True, True), (True, False), (False, True)])
    def test_block_workspaces_equal_single_trials(self, coop, conv):
        cfg = small_cfg(k=16, bcl=6, seed=21)
        trials = range(3, 3 + montecarlo._block_trials(cfg, cfg.k))
        block = montecarlo._workspaces(cfg, [derive_trial_rng(cfg.seed, t) for t in trials], coop, conv)
        assert [ws.trial for ws in block] == list(trials)
        for ws in block:
            assert_same_workspace(ws, build_workspace(cfg, ws.trial, coop=coop, conv=conv))

    def test_split_range_concatenates(self):
        cfg = small_cfg(k=16, bcl=6, seed=22)
        rho_lin = np.array([0.5, 5.0, 50.0])
        n_trials = 50
        split = montecarlo._block_trials(cfg, cfg.k) + 5
        whole = rate_chunk(cfg, rho_lin, 0, n_trials)
        head = rate_chunk(cfg, rho_lin, 0, split)
        tail = rate_chunk(cfg, rho_lin, split, n_trials)
        for i in (0, 1):
            np.testing.assert_array_equal(whole[i], np.concatenate([head[i], tail[i]]))
        assert whole[2:] == (head[2] + tail[2], head[3] + tail[3])
        for i, mode in ((0, "cooperative"), (1, "conventional")):
            alone = [
                evaluate_mode(build_workspace(cfg, t, conv=True), mode, rho_lin).sum_rate
                for t in range(n_trials)
            ]
            np.testing.assert_array_equal(whole[i], alone)

    def test_degenerate_trial_inside_a_block_resamples_alone(self, monkeypatch):
        cfg = small_cfg(k=16, bcl=6, seed=23)
        rho_lin = np.array([1.0, 10.0])
        size = montecarlo._block_trials(cfg, cfg.k)
        n_trials, bad = 2 * size + 4, size + 3
        clean = rate_chunk(cfg, rho_lin, 0, n_trials)
        assert clean[2] == 0
        zero_draws_at(monkeypatch, bad)
        coop, conv, resamples, _ = rate_chunk(cfg, rho_lin, 0, n_trials)
        assert resamples == 1
        ws = build_workspace(cfg, bad, coop=True, conv=True)
        redraw = derive_trial_rng(cfg.seed, bad).child("resample", 1)
        assert_same_workspace(ws, montecarlo._workspaces(cfg, [redraw], True, True)[0])
        assert (ws.trial, ws.resamples) == (bad, 1)
        np.testing.assert_array_equal(coop[bad], evaluate_mode(ws, "cooperative", rho_lin).sum_rate)
        np.testing.assert_array_equal(conv[bad], evaluate_mode(ws, "conventional", rho_lin).sum_rate)
        assert not np.array_equal(coop[bad], clean[0][bad])
        others = np.arange(n_trials) != bad
        np.testing.assert_array_equal(coop[others], clean[0][others])
        np.testing.assert_array_equal(conv[others], clean[1][others])


class TestStackedFactors:
    """The partner-stacked matrix is factored by appending the partner's row
    to the factors of the user's own rows."""

    def test_rate_block_runs_one_qr(self, monkeypatch):
        cfg = small_cfg(k=16, bcl=6, seed=25)
        calls = []
        mgs_columns = numerics.mgs_columns

        def counted(a):
            calls.append(a.shape)
            return mgs_columns(a)

        monkeypatch.setattr(numerics, "mgs_columns", counted)
        rngs = [derive_trial_rng(cfg.seed, t) for t in range(montecarlo._block_trials(cfg, cfg.k))]
        montecarlo._rate_block(cfg, np.array([1.0, 10.0]), ("cooperative", "conventional"), rngs)
        assert calls == [(len(rngs), cfg.k, cfg.m, cfg.n)]

    def test_partner_row_in_the_users_span_resamples(self, monkeypatch):
        cfg = small_cfg(k=16, bcl=6, seed=24)
        rho_lin = np.array([1.0, 10.0])
        n_trials, bad = montecarlo._block_trials(cfg, cfg.k) + 4, 3
        clean = rate_chunk(cfg, rho_lin, 0, n_trials)
        assert clean[2] == 0
        channels = gen_all_channels(cfg, derive_trial_rng(cfg.seed, bad))
        local_stage = cooperation._local_stage

        def in_span(h, basis, r, vectors):
            # In the bad trial's first draw, user 1 shares a row in user 0's span.
            local = local_stage(h, basis, r, vectors)
            for i, trial in enumerate(h):
                if np.array_equal(trial, channels):
                    own = trial[0, 0].conj()
                    local.cdi[i, 1] = own / np.linalg.norm(own)
            return local

        monkeypatch.setattr(cooperation, "_local_stage", in_span)
        with pytest.raises(numerics.RankDeficient):
            montecarlo._workspaces(cfg, [derive_trial_rng(cfg.seed, bad)], True, False)
        coop, conv, resamples, _ = rate_chunk(cfg, rho_lin, 0, n_trials)
        assert resamples == 1
        redraw = derive_trial_rng(cfg.seed, bad).child("resample", 1)
        row = montecarlo._rate_block(cfg, rho_lin, ("cooperative", "conventional"), [redraw])[0]
        np.testing.assert_array_equal(np.concatenate([coop[bad], conv[bad]]), row[:-1])
        others = np.arange(n_trials) != bad
        np.testing.assert_array_equal(coop[others], clean[0][others])
        np.testing.assert_array_equal(conv[others], clean[1][others])


class TestWorkerCount:
    def test_capped_at_cpus_and_trials(self):
        assert montecarlo._worker_count(1000, 10**6, 2) == 2
        assert montecarlo._worker_count(8, 3, 16) == 3
        assert montecarlo._worker_count(4, 100, None) == 1
        assert montecarlo._worker_count(2, 100, 8) == 2

    @pytest.mark.parametrize("workers", [0, -1])
    def test_below_one_rejected(self, monkeypatch, workers):
        # Every command refuses it before any trial, analyze too, which simulates none.
        refuse_trials(monkeypatch)
        for experiment in montecarlo.SPECS:
            with pytest.raises(ConfigError, match=f"need workers >= 1, got workers={workers}"):
                run_experiment(experiment, workers=workers)


class TestWorkspaceEvaluate:
    def test_rho_grid_matches_scalar_calls(self):
        cfg = small_cfg(k=16)
        ws = build_workspace(cfg, 0, coop=True, conv=True)
        rhos = np.array([0.5, 5.0, 50.0])
        batch = evaluate_mode(ws, "cooperative", rhos)
        for i, rho in enumerate(rhos):
            single = evaluate_mode(ws, "cooperative", np.array([rho]))
            np.testing.assert_array_equal(batch.users[i], single.users[0])
            np.testing.assert_array_equal(batch.gamma_num[i], single.gamma_num[0])
            assert batch.sum_rate[i] == single.sum_rate[0]

    def test_cooperative_schedules_only_main_users(self):
        cfg = small_cfg(k=16)
        for t in range(5):
            ev = evaluate_mode(build_workspace(cfg, t), "cooperative", np.array([cfg.rho, 1.0]))
            for row in ev.users:
                users = [int(u) for u in row if u >= 0]
                assert len(set(users)) == len(users)
                assert len({u // 2 for u in users}) == len(users)

    def test_conventional_reported_equals_numerical(self):
        cfg = small_cfg(k=16)
        for t in range(5):
            ev = evaluate_mode(build_workspace(cfg, t, coop=False, conv=True), "conventional", np.array([cfg.rho]))
            served = ev.users >= 0
            assert served.any()
            np.testing.assert_array_equal(ev.reported[served], ev.gamma_num[served])

    def test_sum_rate_identity(self):
        cfg = small_cfg(k=16)
        ws = build_workspace(cfg, 1, conv=True)
        for mode in ("conventional", "cooperative"):
            ev = evaluate_mode(ws, mode, np.array([0.5, cfg.rho, 50.0]))
            for gammas, rate in zip(ev.gamma_num, ev.sum_rate):
                assert abs(rate - sum(math.log2(1 + g) for g in gammas)) < 1e-12

    def test_selection_depends_on_snr(self):
        # The reported beam choice trades alignment against effective norm,
        # so schedules may legitimately differ across SNR.
        cfg = small_cfg(k=32, seed=17)
        ws = build_workspace(cfg, 1, coop=True)
        ev = evaluate_mode(ws, "cooperative", np.array([0.01, 1000.0]))
        assert ev.sum_rate[1] > ev.sum_rate[0]

    @pytest.mark.parametrize("built, mode", [(dict(coop=False, conv=True), "cooperative"), (dict(), "conventional")])
    def test_refuses_a_pipeline_the_workspace_lacks(self, built, mode):
        ws = build_workspace(small_cfg(), 0, **built)
        with pytest.raises(ValueError, match=f"without the {mode} stage"):
            evaluate_mode(ws, mode, np.array([1.0]))

    def test_refuses_an_unknown_mode(self):
        ws = build_workspace(small_cfg(), 0, coop=True, conv=True)
        with pytest.raises(ValueError, match="unknown mode 'adaptive'"):
            evaluate_mode(ws, "adaptive", np.array([1.0]))


class TestExperimentDeterminism:
    def test_worker_count_invariance(self):
        overrides = dict(trials=12, k=16, rho_db=[0.0, 10.0])
        res1 = run_experiment("fig8", dict(overrides), workers=1)
        res2 = run_experiment("fig8", dict(overrides), workers=3)
        assert res1.rows == res2.rows
        assert res1.aggregates == res2.aggregates
        # Every other simulating command: two workers split the trials into
        # chunks whose edges are not multiples of the block size.
        sampled = {
            "fig3": dict(trials=150, bcl_grid=[2, 6]),
            "fig5": dict(trials=150),
            "fig6": dict(trials=150, rho_db=[10.0]),
            "fig7": dict(trials=12, k_grid=[50], rho_db=[0.0, 10.0]),
            "fig9": dict(trials=150),
            "sweep": dict(trials=40, modes=["cooperative", "conventional"], rho_db=[0.0, 10.0]),
        }
        for experiment, params in sampled.items():
            one = run_experiment(experiment, dict(params), workers=1)
            two = run_experiment(experiment, dict(params), workers=2)
            assert one.rows == two.rows, experiment
            assert one.aggregates == two.aggregates, experiment
            assert one.resample_count == two.resample_count, experiment

    def test_seed_changes_results(self):
        res1 = run_experiment("fig5", dict(trials=40), workers=1)
        res2 = run_experiment("fig5", dict(trials=40, seed=5), workers=1)
        assert res1.rows != res2.rows

    def test_rerun_identical(self):
        res1 = run_experiment("fig3", dict(trials=25, bcl_grid=[2, 4]))
        res2 = run_experiment("fig3", dict(trials=25, bcl_grid=[2, 4]))
        assert res1.rows == res2.rows


class TestExperimentShapes:
    def test_fig3_columns_and_formulas(self):
        res = run_experiment("fig3", dict(trials=50, bcl_grid=[2, 3]))
        assert res.columns == ["bcl", "mc_mean", "closed_form", "reference_formula"]
        for bcl, mc, closed, ref in res.rows:
            assert closed == analysis.expected_local_error(4, 2, 2**bcl)
            assert ref == analysis.reference_local_error(4, 2, 2**bcl)
            assert 0 < mc < 1

    def test_fig5_median_ordering(self):
        res = run_experiment("fig5", dict(trials=600))
        ag = res.aggregates
        assert ag["median_local_interference"] < ag["median_global_interference"]
        assert ag["median_local_error"] < ag["median_global_error"]

    def test_fig6_has_three_curves(self):
        res = run_experiment("fig6", dict(trials=300, rho_db=[10.0]))
        assert res.columns[:2] == ["rho_db", "sinr"]
        cdfs = np.array([(r[2], r[3], r[4]) for r in res.rows])
        assert np.all(cdfs >= 0) and np.all(cdfs <= 1)

    def test_fig7_gap_shrinks_with_users(self):
        res = run_experiment(
            "fig7",
            dict(trials=400, configs=[(3, 4)], k_grid=[16, 128], rho_db=[10.0]),
        )
        gaps = res.aggregates["mean_rel_gap"]
        assert gaps["n3_bcl4_k128"] < gaps["n3_bcl4_k16"]

    def test_fig8_columns(self):
        res = run_experiment("fig8", dict(trials=30, k=16, rho_db=[0.0, 20.0]))
        assert res.columns == [
            "rho_db",
            "rate_conv",
            "rate_coop",
            "rate_adaptive",
            "rate_analytic_conv",
            "rate_analytic_coop",
        ]
        for row in res.rows:
            assert row[3] in (row[1], row[2])  # adaptive picks one of the two

    def test_fig9_cdf_columns(self):
        res = run_experiment("fig9", dict(trials=200, n_grid=[3]))
        assert res.columns == ["n", "norm_sq", "cdf_direct", "cdf_surrogate", "cdf_model"]
        assert set(res.aggregates) >= {
            "ks_direct_vs_model",
            "ks_surrogate_vs_model",
            "ks_surrogate_vs_direct",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig4")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig3", dict(bogus=1))

    def test_fractional_grid_value_refused_before_any_trial(self, monkeypatch):
        refuse_trials(monkeypatch)
        with pytest.raises(ConfigError, match="bcl must be an integer"):
            run_experiment("fig3", {"bcl_grid": [2.7]})

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"rho_db": 10.0}, "rho_db"),
            ({"modes": "cooperative"}, "modes"),
            ({"k": [16]}, "k"),
            ({"rho_db": None}, "rho_db"),
        ],
    )
    def test_grid_and_scalar_shapes_refused(self, monkeypatch, overrides, name):
        refuse_trials(monkeypatch)
        with pytest.raises(ValueError, match=f"'{name}'"):
            run_experiment("sweep", overrides)

    @pytest.mark.parametrize(
        "experiment, key",
        [
            (name, key)
            for name, spec in montecarlo.SPECS.items()
            for key, value in spec.params.items()
            if isinstance(value, list)  # a grid parameter, modes included
        ],
    )
    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_grid_refused(self, monkeypatch, experiment, key, empty):
        refuse_trials(monkeypatch)
        with pytest.raises(ValueError, match=f"{experiment} takes a non-empty list for '{key}'"):
            run_experiment(experiment, {key: empty})

    def test_none_override_refused(self, monkeypatch):
        refuse_trials(monkeypatch)
        with pytest.raises(ConfigError, match="k must be an integer, got k=None"):
            run_experiment("sweep", {"k": None, "trials": 2})

    @pytest.mark.parametrize(
        "rho_db, refused",
        [
            ([10**400], f"[{10**400}]"),
            ([math.nan], "[nan]"),
            (["abc"], "['abc']"),
            ([None], "[None]"),
            ([True], "[True]"),
            ([0.0, 4000.0, -4000.0], "[4000.0, -4000.0]"),
        ],
        ids=["int-beyond-float", "nan", "text", "none", "bool", "zero-and-infinite"],
    )
    def test_snr_grid_refused_alike_before_any_trial(self, monkeypatch, rho_db, refused):
        # Every command that reads rho_db converts it in one call of
        # db_to_linear, which names each value it refuses as given.
        refuse_trials(monkeypatch)
        for experiment in ("fig6", "fig7", "fig8", "sweep", "analyze"):
            with pytest.raises(ConfigError) as refusal:
                run_experiment(experiment, {"rho_db": rho_db})
            assert str(refusal.value) == f"need SNRs in dB whose linear value is positive and finite, got {refused}"

    @pytest.mark.parametrize("beam", [0, -1, 4, True, 1.0])
    @pytest.mark.parametrize("experiment", ["fig5", "fig6", "fig9"])
    def test_beam_outside_the_codebook_refused(self, monkeypatch, experiment, beam):
        # The pair sampler always evaluates beam 0, so no beam is an override.
        refuse_trials(monkeypatch)
        with pytest.raises(ValueError, match=r"does not accept override\(s\) \['beam'\]"):
            run_experiment(experiment, {"m": 4, "beam": beam})

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("workers", [2.5, True])
    def test_non_integer_workers_refused(self, monkeypatch, workers, cpus):
        # The worker cap reads the CPU count, so refuse trials below it.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(montecarlo, "_sampled", lambda *_: pytest.fail("simulated a refused run"))
        with pytest.raises(ConfigError, match="workers must be an integer, got workers="):
            run_experiment("sweep", {"trials": 2}, workers=workers)

    def test_run_sweep_is_the_sweep_command(self, monkeypatch):
        fields = dict(m=4, n=2, k=16, bcl=6, trials=12, seed=4, codebook_mode="dft")
        modes, rho_db = ["cooperative", "conventional"], [0.0, 10.0]
        swept = montecarlo.run_sweep(SystemConfig(rho=3.0, **fields), modes, rho_db)
        run = run_experiment("sweep", dict(fields, modes=modes, rho_db=rho_db))
        for name in ("experiment", "config", "columns", "rows", "aggregates", "resample_count", "seed"):
            assert getattr(swept, name) == getattr(run, name), name
        assert swept.config.keys() == montecarlo.SPECS["sweep"].params.keys()
        # It refuses what the spec refuses, before any trial.
        refuse_trials(monkeypatch)
        for given, name in [(("cooperative", rho_db), "modes"), ((modes, 10.0), "rho_db")]:
            with pytest.raises(ValueError, match=f"'{name}'"):
                montecarlo.run_sweep(SystemConfig(**fields), *given)


class TestScheduledSinrEstimate:
    def test_per_step_estimates_track_simulation(self):
        # Selection-ordered scheduled CQIs vs the order-statistics estimates.
        # The top-rank estimate sits ~15% below the empirical mean (inverting
        # the cdf at 1 - 1/count approximates a quantile, not the mean of the
        # maximum); in the rate domain every rank lands within 10%.
        cfg = SystemConfig(m=4, n=3, k=400, rho=10.0, bcl=4, trials=800, seed=0)

        def ranked(rngs):  # each trial's reported CQIs, largest first, off one block's workspaces
            workspaces = montecarlo._workspaces(cfg, rngs, coop=True, conv=False)
            evs = [evaluate_mode(ws, "cooperative", np.array([cfg.rho])) for ws in workspaces]
            return np.array([ev.reported[0][np.argsort(-ev.reported[0])] for ev in evs])

        # Blocks of 4 trials (1,600 users) read about 12% faster than one trial at a time, and 16 no faster.
        means = montecarlo._sampled(ranked, cfg.seed, 4, 0, cfg.trials)[0].mean(axis=0)
        pars = analysis.derive_params(cfg.m, cfg.n, cfg.qcl, cfg.rho)
        for step in range(1, cfg.m + 1):
            est = analysis.estimate_scheduled_sinr(
                step, cfg.k, cfg.m, cfg.n, cfg.rho, pars.alpha, pars.varrho_sq, "cooperative"
            )
            rate_gap = abs(math.log2(1 + est) - math.log2(1 + means[step - 1]))
            assert rate_gap / math.log2(1 + means[step - 1]) < 0.10
            if step >= 2:
                assert abs(est - means[step - 1]) / means[step - 1] < 0.10


class TestResampling:
    def test_resample_counter_starts_clean(self):
        ws = build_workspace(small_cfg(), 0, coop=True, conv=True)
        assert ws.resamples == 0

    def test_default_trial_count(self):
        assert montecarlo.SPECS["fig8"].params["trials"] == 10000
