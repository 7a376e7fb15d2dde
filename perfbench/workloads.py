"""The four workloads: what one timed call does and how many trials it holds.

Three drive ``coopfb.cli.run`` exactly as the command line does; the fourth,
``per_user_link``, drives criterion 1's per-user pipeline through the public
functions of ``cooperation``, ``scheduler`` and ``link``. Every call of one
run uses the run's seed, so all calls of a run do the same work and write
the same bytes.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Criterion 1's configuration, with the seed taken from the benchmark.
PER_USER = dict(m=4, n=2, k=8, rho=10.0, bcl=8)


class CallFailed(RuntimeError):
    """The program reported an error for one timed call."""


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int  # Monte Carlo trials in one timed call
    warmup_trials: int  # trials in the set-up call
    workers: int  # worker processes of the untraced run; traced runs use one
    argv: tuple = ()  # coopfb command line, without seed/trials/workers/out-dir
    run: Callable | None = field(default=None, compare=False)

    def call(self, seed: int, trials: int, out_dir: Path, workers: int):
        """One entry call; returns what the output checks read."""
        if self.run is not None:
            return self.run(seed, trials)
        from coopfb import cli

        argv = list(self.argv) + [
            "--seed", str(seed), "--trials", str(trials),
            "--workers", str(workers), "--out-dir", str(out_dir),
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run(argv)
        if code != 0:
            raise CallFailed(f"coopfb {' '.join(argv)} exited {code}: {sink.getvalue().strip()}")
        return out_dir


@dataclass(frozen=True)
class PerUserTrial:
    """What one criterion-1 trial produced, for the output checks."""

    local_combiners: list
    reports: list  # every user's global CSI report
    mu_reports: list  # main users' reports, pair by pair
    assignment: tuple
    decompositions: list  # (beam, recombined, simulated) per served beam


def per_user_config(seed: int):
    from coopfb.model import SystemConfig

    return SystemConfig(trials=1, seed=seed, **PER_USER)


def run_per_user(seed: int, trials: int) -> list[PerUserTrial]:
    """Criterion 1's per-user cooperative pipeline over ``trials`` trials."""
    import numpy as np
    from coopfb import cooperation, link, model, scheduler

    cfg = per_user_config(seed)
    out = []
    for trial in range(trials):
        rng = model.derive_trial_rng(cfg.seed, trial)
        channels = model.gen_all_channels(cfg, rng)
        codebook = model.gen_global_codebook(cfg, rng)
        local_cb = model.gen_local_codebook(cfg, rng)
        locals_ = [cooperation.acquire_local_csi(channels[u], local_cb) for u in range(cfg.k)]
        globs, reports = [], []
        for u in range(cfg.k):
            glob = cooperation.build_global_matrix(channels[u], locals_[u ^ 1])
            rep, _ = cooperation.acquire_global_csi(glob, codebook, cfg.rho, user=u)
            globs.append(glob)
            reports.append(rep)
        mu_reports = [
            cooperation.assign_roles((a, a + 1), reports[a], reports[a + 1]).mu_csi
            for a in range(0, cfg.k, 2)
        ]
        schedule = scheduler.schedule_users(mu_reports, cfg.m, mode="cooperative")
        symbols = (rng.child("symbols").generator().standard_normal((cfg.m, 2)) @ np.array([1, 1j])) / np.sqrt(2)
        decompositions = []
        for beam, user in enumerate(schedule.assignment):
            if user is None:
                continue
            combiner = reports[user].combiner
            obs, combined = link.simulate_symbol_path(
                channels[user], locals_[user ^ 1], combiner, codebook, symbols,
                cfg.rho, rng.child("noise", user),
            )
            terms = link.decompose_received(
                globs[user], combiner, codebook, beam, symbols, cfg.rho, obs.stacked_noise
            )
            decompositions.append((beam, terms.recombined, combined))
        out.append(
            PerUserTrial(
                local_combiners=[loc.combiner for loc in locals_],
                reports=reports,
                mu_reports=mu_reports,
                assignment=schedule.assignment,
                decompositions=decompositions,
            )
        )
    return out


WORKLOADS = {
    w.name: w
    for w in (
        # fig8 at its defaults (m=4, n=3, bcl=6, k=200, -5..25 dB, Haar):
        # the batched engine at a population where arithmetic outweighs the
        # fixed per-trial cost, and the only workload with worker processes.
        Workload("rate_fig8", trials=200, warmup_trials=1, workers=2, argv=("fig8",)),
        # sweep at its own defaults (k=16, m=4, n=2, bcl=8): the same engine
        # dominated by fixed per-trial cost. adaptive is left out because it
        # fails at 20 dB after simulating every trial.
        Workload(
            "sweep_small_k", trials=200, warmup_trials=1, workers=1,
            argv=("sweep", "--mode", "cooperative", "--mode", "conventional", "--rho-db", "0..20..5"),
        ),
        # fig6 at its defaults (m=4, n=2, bcl=8, beam 0, 0/10/20 dB): the
        # per-trial pair sampler plus the exact-law cdf. Its upper-tail KS
        # needs a sample above the model median, so set-up uses 50 trials.
        Workload("pairs_fig6", trials=500, warmup_trials=50, workers=1, argv=("fig6",)),
        # Criterion 1's pipeline, driven from here: the only path through
        # qbc.select_csi, scheduler and link.
        Workload("per_user_link", trials=40, warmup_trials=1, workers=1, run=run_per_user),
    )
}
