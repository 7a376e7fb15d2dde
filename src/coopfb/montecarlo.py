"""Trial orchestration, empirical statistics, and the experiments with the
spec of each command (:data:`SPECS`).

Every experiment runs its trials through one Monte Carlo map,
:func:`_simulate`. A block kernel takes one stream per trial and returns
one row per trial: fig3's local error, the fig5/fig6/fig9 pair draws,
fig9's surrogate norm, or the sum-rates of fig7, fig8 and sweep. The map
runs it over the trial range in blocks on the worker processes, and redoes
a block with a degenerate draw trial by trial on resample streams (counted,
never silently). The kernels are vectorised across the users of a block
through the one stacked QBC stage of ``qbc`` (Householder QR, then a
solve on the R factor), which ``cooperation`` also runs for local
acquisition. Every random quantity is keyed by (seed, trial, purpose), so
results are bit-identical for any worker count and block boundary.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import analysis, cooperation, numerics, qbc, scheduler
from .model import (
    MODES,
    ConfigError,
    RandomStream,
    SystemConfig,
    _generators,
    complex_gaussian,
    db_to_linear,
    derive_trial_rng,
    gen_global_codebook,
    gen_local_codebook,
)

MAX_RESAMPLE_ATTEMPTS = 16

_DEGENERATE = (numerics.RankDeficient, numerics.DegenerateProjection)


class EmptyInput(ValueError):
    """An empirical statistic was asked for on an empty sample set."""


# ---------------------------------------------------------------------------
# Empirical statistics
# ---------------------------------------------------------------------------


def empirical_cdf(samples: Sequence[float], grid) -> np.ndarray:
    """Right-continuous empirical cdf evaluated on ``grid``."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise EmptyInput("empirical_cdf needs at least one sample")
    return np.searchsorted(s, np.asarray(grid, dtype=float), side="right") / s.size


def ks_distance(samples: Sequence[float], cdf: Callable, region: Optional[float] = None) -> Optional[float]:
    """Sup distance between the empirical cdf of ``samples`` and ``cdf``.

    Evaluated at the sample points (both sides of each empirical jump).
    ``region`` restricts the sup to where the model cdf is at least that
    probability, which is how upper-tail agreement is scored; None when no
    sample falls in the region.
    """
    return ks_distances(samples, cdf, [region])[0]


def ks_distances(samples: Sequence[float], cdf: Callable, regions: Sequence[Optional[float]]) -> list:
    """:func:`ks_distance` for each of ``regions``, evaluating ``cdf`` once
    for all of them."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise EmptyInput("ks_distance needs at least one sample")
    # Evaluating the model's left limits keeps the statistic exact when the
    # model itself is a step function (e.g. another empirical cdf).
    model_right = np.asarray(cdf(s), dtype=float)
    model_left = np.asarray(cdf(np.nextafter(s, -np.inf)), dtype=float)
    below = np.arange(0, n) / n
    above = np.arange(1, n + 1) / n
    gaps = np.maximum(np.abs(above - model_right), np.abs(below - model_left))
    distances = []
    for region in regions:
        in_region = gaps if region is None else gaps[model_right >= region]
        distances.append(float(in_region.max()) if in_region.size else None)
    return distances


# ---------------------------------------------------------------------------
# Batched trial engine
# ---------------------------------------------------------------------------


@dataclass
class _ConvArrays:
    """Per-(user, beam) signal and interference powers ``(k, m)`` of the
    conventional pipeline, at unit SNR."""

    sig: np.ndarray
    intf: np.ndarray


@dataclass
class _CoopArrays:
    """Per-(user, beam) powers ``(k, m)`` of the cooperative pipeline: what
    the quantized stacked channel reports (``*_qu``) and what the downlink
    delivers (``*_dl``); and per user, the local sin^2 error and squared
    virtual-channel norm."""

    sig_qu: np.ndarray
    intf_qu: np.ndarray
    sig_dl: np.ndarray
    intf_dl: np.ndarray
    sin2_local: np.ndarray
    hvirt_norm2: np.ndarray


@dataclass
class TrialWorkspace:
    """One trial's SNR-independent beam powers for every user, which
    :func:`evaluate_mode` turns into schedules and rates at each SNR."""

    cfg: SystemConfig
    trial: int
    resamples: int
    conv: Optional[_ConvArrays]
    coop: Optional[_CoopArrays]


def build_workspace(
    cfg: SystemConfig, trial: int, *, coop: bool = True, conv: bool = False
) -> TrialWorkspace:
    """Draw one trial and precompute every SNR-independent quantity.

    Redraws the whole trial (counted) if any channel or stacked matrix is
    numerically rank deficient, which for Gaussian draws is a measure-zero
    event.
    """
    (ws,), _ = _resampled(lambda rng: _workspaces(cfg, [rng], coop, conv), cfg.seed, trial)
    return ws


def _resampled(draw: Callable, seed: int, trial: int):
    """``(draw(rng), attempt)`` for the trial's first stream that gives
    full-rank, non-degenerate draws: the trial stream, then its
    ``("resample", attempt)`` children."""
    base = derive_trial_rng(seed, trial)
    for attempt in range(MAX_RESAMPLE_ATTEMPTS):
        rng = base if attempt == 0 else base.child("resample", attempt)
        try:
            return draw(rng), attempt
        except _DEGENERATE:
            continue
    raise numerics.RankDeficient(
        f"trial {trial} failed to produce full-rank draws after {MAX_RESAMPLE_ATTEMPTS} attempts"
    )


def _origin(rng: RandomStream) -> tuple[int, int]:
    """Trial and resample attempt a stream of :func:`_resampled` belongs to."""
    trial, *redraw = rng.path
    return trial, redraw[1] if redraw else 0


def _per_trial(arrays, b: int, k: int) -> list:
    """Views of block-stacked arrays (``b`` trials of ``k`` users along
    axis 0), one trial at a time."""
    if arrays is None:
        return [None] * b
    fields = vars(arrays).items()
    return [type(arrays)(**{name: value[i * k : (i + 1) * k] for name, value in fields}) for i in range(b)]


def _workspaces(
    cfg: SystemConfig, rngs: Sequence[RandomStream], coop: bool, conv: bool
) -> list[TrialWorkspace]:
    """One :class:`TrialWorkspace` per stream, with the users of all the
    streams' trials stacked ``(b*k, ...)`` through the batched stages."""
    k, n, m, b = cfg.k, cfg.n, cfg.m, len(rngs)
    h = complex_gaussian(_generators(rngs, "channels"), (k, n, m)).reshape(b * k, n, m)
    cb = np.repeat(gen_global_codebook(cfg, rngs).matrix, k, axis=0)  # each trial's, per user

    basis, r = qbc._subspace(h)

    conv_arrays = None
    if conv:
        conv_arrays = _ConvArrays(*qbc._beam_powers(*qbc._qbc_stage(basis, r, cb)[:2]))

    coop_arrays = None
    if coop:
        # The users of a trial pick their codewords against that trial's
        # local codebook, one trial at a time, to bound peak memory: picking
        # for a whole block at once (b*k*qcl*n correlations) took
        # sweep_small_k's peak RSS from 42.0 to 52.3 MiB. For the same reason
        # the codebooks are drawn in groups of the samplers' row bound.
        choices, step = [], _block_trials(cfg)
        for lo in range(0, b, step):
            group = gen_local_codebook(cfg, rngs[lo : lo + step]).vectors
            for i, vectors in enumerate(group, start=lo):
                choices.append(cooperation._local_choice(vectors, basis[i * k : (i + 1) * k]))
        v = np.concatenate(choices)  # (b*k, m)
        tau, _, h_virt, hv_norm2, sin2_local = cooperation._local_stage(basis, r, v)

        # Global acquisition over the partner-stacked (n+1)-row matrices;
        # k is even, so u ^ 1 stays inside u's trial.
        partner = np.arange(len(h)) ^ 1
        h_qu = np.concatenate([h, (tau[:, None] * v).conj()[partner][:, None, :]], axis=1)  # (b*k, n+1, m)
        h_dl = np.concatenate([h, h_virt.conj()[partner][:, None, :]], axis=1)
        cos2_g, eff_norm2, combiners, _ = qbc._qbc_stage(*qbc._subspace(h_qu), cb)
        sig_qu, intf_qu = qbc._beam_powers(cos2_g, eff_norm2)
        # Not combined toward the codebook: correlate the served beam; the
        # unitary codebook's other beams carry the rest of the norm.
        heff_dl = np.matmul(h_dl.conj().transpose(0, 2, 1), combiners)  # (b*k, m, beams)
        corr_dl = np.sum(cb.conj() * heff_dl, axis=1)
        sig_dl = corr_dl.real**2 + corr_dl.imag**2
        intf_dl = np.maximum(np.sum(heff_dl.real**2 + heff_dl.imag**2, axis=1) - sig_dl, 0.0)
        coop_arrays = _CoopArrays(sig_qu, intf_qu, sig_dl, intf_dl, sin2_local, hv_norm2)

    return [
        TrialWorkspace(cfg, *_origin(rng), conv_part, coop_part)
        for rng, conv_part, coop_part in zip(rngs, _per_trial(conv_arrays, b, k), _per_trial(coop_arrays, b, k))
    ]


@dataclass
class _ModeEval:
    """Per-SNR outcome of one trial under one mode (axis 0 indexes SNR)."""

    users: np.ndarray  # (r, m) scheduled user per beam, -1 when unassigned
    reported: np.ndarray  # (r, m) reported CQI of the scheduled user
    gamma_num: np.ndarray  # (r, m) numerical downlink SINR
    sum_rate: np.ndarray  # (r,)
    unassigned: np.ndarray  # (r,) count of beams with no reporter


def evaluate_mode(ws: TrialWorkspace, mode: str, rho_lin: np.ndarray) -> _ModeEval:
    """Selection, role assignment, scheduling, and rates at each SNR."""
    cfg = ws.cfg
    m = cfg.m
    rho_lin = np.atleast_1d(np.asarray(rho_lin, dtype=float))
    noise = m / rho_lin  # (r,)

    if mode == analysis.COOPERATIVE:
        if ws.coop is None:
            raise ValueError("workspace was built without the cooperative stage")
        sel_sig, sel_intf = ws.coop.sig_qu, ws.coop.intf_qu
        dl_sig, dl_intf = ws.coop.sig_dl, ws.coop.intf_dl
    elif mode == analysis.CONVENTIONAL:
        if ws.conv is None:
            raise ValueError("workspace was built without the conventional stage")
        sel_sig, sel_intf = ws.conv.sig, ws.conv.intf
        dl_sig, dl_intf = ws.conv.sig, ws.conv.intf
    else:
        raise ValueError(f"unknown mode {mode!r}")

    beam, cqi = qbc.best_beam(sel_sig[None], sel_intf[None], noise[:, None, None])  # (r, k)
    reporters = np.broadcast_to(np.arange(cfg.k), beam.shape)
    if mode == analysis.COOPERATIVE:
        reporters = scheduler.main_users(cqi)  # (r, k/2)
        beam, cqi = (np.take_along_axis(a, reporters, axis=1) for a in (beam, cqi))
    pick = scheduler.per_beam(beam, cqi, m)  # (r, m) reporter index, -1 when unassigned
    has = pick >= 0
    users = np.where(has, np.take_along_axis(reporters, pick, axis=1), -1)
    reported = np.where(has, np.take_along_axis(cqi, pick, axis=1), np.nan)
    served = np.arange(m)
    gamma_num = np.where(has, dl_sig[users, served] / (noise[:, None] + dl_intf[users, served]), 0.0)
    return _ModeEval(
        users=users,
        reported=reported,
        gamma_num=gamma_num,
        sum_rate=np.log2(1.0 + gamma_num).sum(axis=1),
        unassigned=(users < 0).sum(axis=1),
    )


# ---------------------------------------------------------------------------
# The Monte Carlo map: block kernels over the trial range
# ---------------------------------------------------------------------------

# Trials stacked into one pass of a block kernel. The samplers bound a
# block by its local-codebook rows (trials x codewords): 64 trials up to
# 1,024-word codebooks, fewer beyond. The rate engine bounds it by users
# (trials x k): 16 trials at k = 16, one trial from k = 129 on.
_BLOCK = 64
_BLOCK_ROWS = 64 * 1024
_BLOCK_USERS = 256


def _block_trials(cfg: SystemConfig) -> int:
    return max(1, min(_BLOCK, _BLOCK_ROWS // cfg.qcl))


def _rate_block_trials(cfg: SystemConfig) -> int:
    return max(1, min(_BLOCK, _BLOCK_USERS // cfg.k))


def _worker_count(workers: int, n_trials: int, cpus: Optional[int]) -> int:
    """Processes to run: the requested count, capped at the CPU count and
    at the trial count (which caps the chunk count)."""
    if workers < 1:
        raise ConfigError(f"need workers >= 1, got workers={workers}")
    return min(workers, cpus or 1, n_trials)


def _parallel_chunks(fn, n_trials: int, workers: int) -> list:
    """Run ``fn(lo, hi)`` over a partition of the trial range.

    Results come back in chunk order; per-trial outputs depend only on the
    trial index, so the assembled output is identical for any worker count.
    """
    workers = _worker_count(workers, n_trials, os.cpu_count())
    if workers == 1:
        return [fn(0, n_trials)]
    chunks = min(workers * 4, n_trials)
    bounds = np.linspace(0, n_trials, chunks + 1).astype(int)
    spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in spans]
        return [f.result() for f in futures]


def _sampled(kernel: Callable, seed: int, size: int, lo: int, hi: int):
    """Rows of ``kernel(rngs)`` (one per stream) stacked over the trials
    ``[lo, hi)`` in blocks of ``size`` trials, and the resample count.

    A block that hits a degenerate draw is redone trial by trial on each
    trial's resample streams, so no trial's row or resample count depends
    on where the block boundaries fall.
    """
    parts, resamples = [], 0
    for start in range(lo, hi, size):
        trials = range(start, min(start + size, hi))
        try:
            parts.append(kernel([derive_trial_rng(seed, t) for t in trials]))
        except _DEGENERATE:
            for trial in trials:
                rows, attempt = _resampled(lambda rng: kernel([rng]), seed, trial)
                parts.append(rows)
                resamples += attempt
    return np.concatenate(parts), resamples


def _simulate(kernel: Callable, cfg: SystemConfig, size: int, workers: int):
    """Rows of ``kernel`` over every trial of ``cfg`` in trial order, run in
    blocks of ``size`` trials on ``workers`` processes, and the resample
    count. Every experiment's trials go through here."""
    chunks = _parallel_chunks(partial(_sampled, kernel, cfg.seed, size), cfg.trials, workers)
    return np.concatenate([rows for rows, _ in chunks]), sum(attempts for _, attempts in chunks)


def _pair_block(cfg: SystemConfig, beam: int, rngs: Sequence[RandomStream]) -> np.ndarray:
    """Cooperation-pair draws evaluated at a fixed beam, one row per stream:
    sin^2 local error, sin^2 global error, squared effective norm, local
    interference power.

    No role swap and no scheduling: this samples the per-candidate
    distributions the closed-form chain models (user 0 stacks user 1's
    shared local CSI).
    """
    pairs = complex_gaussian(_generators(rngs, "channels"), (2, cfg.n, cfg.m))
    codewords = gen_global_codebook(cfg, rngs).codeword(beam)
    local = cooperation.acquire_local_csi(pairs[:, 1], gen_local_codebook(cfg, rngs))
    h_qu = np.concatenate([pairs[:, 0], local.quantized_virtual.conj()[:, None, :]], axis=1)
    combined = qbc.combine_for_codeword(h_qu, codewords)
    h_eff = combined.h_eff
    norm2 = np.sum(h_eff.real**2 + h_eff.imag**2, axis=1)
    cos2 = np.abs(np.sum(h_eff.conj() * codewords, axis=1)) ** 2 / norm2
    last_row = combined.combiner[:, cfg.n]
    hv_norm2 = np.sum(local.h_virt.real**2 + local.h_virt.imag**2, axis=1)
    local_intf = (last_row.real**2 + last_row.imag**2) * hv_norm2 * local.sin2_error
    return np.column_stack([local.sin2_error, np.clip(1.0 - cos2, 0.0, 1.0), norm2, local_intf])


def _local_error_block(cfg: SystemConfig, rngs: Sequence[RandomStream]) -> np.ndarray:
    """Selected local quantization error of a single fresh user per stream."""
    h = complex_gaussian(_generators(rngs, "channels"), (cfg.n, cfg.m))
    return cooperation.acquire_local_csi(h, gen_local_codebook(cfg, rngs)).sin2_error


def _surrogate_block(cfg: SystemConfig, omega: float, rngs: Sequence[RandomStream]) -> np.ndarray:
    """Stacked-norm surrogate, one sample per stream's ``"surrogate"``
    child: a covariance-modelled channel plus a unit-modulus combining
    direction (quadratic-form sampling)."""
    n, m = cfg.n, cfg.m
    gens = _generators(rngs, "surrogate")
    hw = complex_gaussian(gens, (n + 1, m))  # each generator's normals before its uniforms
    phases = np.stack([gen.uniform(0.0, 2.0 * np.pi, n + 1) for gen in gens])
    w = np.exp(1j * phases)[:, :, None] / math.sqrt(n + 1.0)
    hw[:, n] *= math.sqrt((1.0 - omega) * (m - n + 1.0) / m)
    solved = np.linalg.solve(hw @ hw.conj().transpose(0, 2, 1), w)
    return 1.0 / (w.conj().transpose(0, 2, 1) @ solved)[:, 0, 0].real


def _rate_block(cfg: SystemConfig, rho_lin: np.ndarray, pipelines: Sequence[str], rngs: Sequence[RandomStream]):
    """One row per stream: the sum-rate at every SNR of each of
    ``pipelines`` in turn, then the trial's unassigned beams over them."""
    coop, conv = (mode in pipelines for mode in (analysis.COOPERATIVE, analysis.CONVENTIONAL))
    rows = []
    for ws in _workspaces(cfg, rngs, coop, conv):
        evals = [evaluate_mode(ws, mode, rho_lin) for mode in pipelines]
        rows.append(np.concatenate([ev.sum_rate for ev in evals] + [[sum(ev.unassigned.sum() for ev in evals)]]))
    return np.array(rows)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """Table plus aggregates for one experiment run; reproducible per seed."""

    experiment: str
    config: dict
    columns: list
    rows: list
    aggregates: dict
    seed: Optional[int]
    resample_count: int


_CDF_PROBS = np.arange(1, 200) / 200.0  # quantile grid for cdf-style figures


@dataclass(frozen=True)
class Spec:
    """One command: its runner, the parameters the runner reads with their
    defaults (a list default marks a grid), and the flags, by argparse dest,
    that set a parameter of another name. A tuple of flags sets one grid
    point of its parameter together."""

    runner: Callable
    params: dict
    remaps: dict = dataclasses.field(default_factory=dict)
    writes: bool = True  # writes output files; otherwise its table is printed


def run_experiment(experiment: str, overrides: Optional[dict] = None, workers: int = 1) -> ExperimentResult:
    """Run one command of :data:`SPECS` with ``overrides`` of its parameters."""
    if experiment not in SPECS:
        raise ValueError(f"unknown experiment {experiment!r}; expected one of {tuple(SPECS)}")
    spec = SPECS[experiment]
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    unknown = sorted(overrides.keys() - spec.params.keys())
    if unknown:
        raise ValueError(f"{experiment} does not accept override(s) {unknown}")
    return spec.runner(copy.deepcopy({**spec.params, **overrides}), workers)


def _system(params: dict, **fields) -> SystemConfig:
    """The run's :class:`SystemConfig` from ``params`` and ``fields``. A run
    that reads no user count gets the smallest its ``m`` allows, which only
    the validation looks at."""
    known = {f.name: params[f.name] for f in dataclasses.fields(SystemConfig) if f.name in params}
    return SystemConfig(**{"k": 2 * params["m"], **known, **fields})


def _run_fig3(params: dict, workers: int) -> ExperimentResult:
    """Mean selected local quantization error vs cooperation-link bits."""
    rows = []
    aggregates = {"rel_err_closed_form": {}, "rel_err_reference": {}}
    resamples = 0
    for bcl in params["bcl_grid"]:
        cfg = _system(params, bcl=int(bcl))
        errors, attempts = _simulate(partial(_local_error_block, cfg), cfg, _block_trials(cfg), workers)
        resamples += attempts
        mc_mean = float(errors.mean())
        closed = analysis.expected_local_error(cfg.m, cfg.n, cfg.qcl)
        reference = analysis.reference_local_error(cfg.m, cfg.n, cfg.qcl)
        rows.append((int(bcl), mc_mean, closed, reference))
        aggregates["rel_err_closed_form"][str(bcl)] = abs(mc_mean - closed) / mc_mean
        aggregates["rel_err_reference"][str(bcl)] = abs(mc_mean - reference) / mc_mean
    columns = ["bcl", "mc_mean", "closed_form", "reference_formula"]
    return ExperimentResult("fig3", params, columns, rows, aggregates, params["seed"], resamples)


def _run_fig5(params: dict, workers: int) -> ExperimentResult:
    """Cdfs of local/global quantization errors and interference powers."""
    cfg = _system(params)
    data, resamples = _simulate(partial(_pair_block, cfg, params["beam"]), cfg, _block_trials(cfg), workers)
    sin2_local, sin2_global, norm2, local_intf = data.T
    global_intf = norm2 * sin2_global
    rows = []
    series = [
        ("local_error", sin2_local),
        ("global_error", sin2_global),
        ("local_interference", local_intf),
        ("global_interference", global_intf),
    ]
    for name, samples in series:
        quantiles = np.quantile(samples, _CDF_PROBS)
        rows.extend((name, float(p), float(q)) for p, q in zip(_CDF_PROBS, quantiles))
    aggregates = {
        "median_local_error": float(np.median(sin2_local)),
        "median_global_error": float(np.median(sin2_global)),
        "median_local_interference": float(np.median(local_intf)),
        "median_global_interference": float(np.median(global_intf)),
    }
    aggregates["local_interference_dominated"] = bool(
        aggregates["median_local_interference"] < aggregates["median_global_interference"]
    )
    columns = ["variable", "probability", "quantile"]
    return ExperimentResult("fig5", params, columns, rows, aggregates, params["seed"], resamples)


def _run_fig6(params: dict, workers: int) -> ExperimentResult:
    """Empirical SINR cdfs (exact lower bound and approximation) vs the model.

    ``cdf_model`` and the ``ks_full``/``ks_upper_tail`` keys score the
    exact-law cdf; the small-error form keeps its own column and
    ``*_small_error`` keys. An upper-tail key is None at an SNR where no
    sample reaches model cdf 0.5.
    """
    cfg = _system(params)
    rhos = [db_to_linear(rho_db) for rho_db in params["rho_db"]]
    data, resamples = _simulate(partial(_pair_block, cfg, params["beam"]), cfg, _block_trials(cfg), workers)
    sin2_local, sin2_global, norm2, local_intf = data.T
    cos2_global = 1.0 - sin2_global
    rows = []
    aggregates = {
        "ks_full": {},
        "ks_upper_tail": {},
        "ks_full_small_error": {},
        "ks_upper_tail_small_error": {},
    }
    for rho_db, rho in zip(params["rho_db"], rhos):
        pars = analysis.derive_params(cfg.m, cfg.n, cfg.qcl, rho)
        c_exact = rho / cfg.m
        c_approx = rho / (cfg.m * pars.alpha)
        sinr_exact = (c_exact * norm2 * cos2_global) / (
            1.0 + c_exact * norm2 * sin2_global + c_exact * local_intf
        )
        sinr_approx = (c_approx * norm2 * cos2_global) / (1.0 + c_approx * norm2 * sin2_global)
        model = lambda x, _p=pars, _r=rho: analysis.sinr_cdf_exact(
            x, cfg.m, cfg.n, _r, _p.alpha, _p.varrho_sq
        )
        small_error = lambda x, _p=pars, _r=rho: analysis.sinr_cdf(
            x, cfg.m, cfg.n, _r, _p.alpha, _p.varrho_sq
        )
        grid = np.quantile(sinr_approx, _CDF_PROBS)
        cdf_exact = empirical_cdf(sinr_exact, grid)
        cdf_approx = empirical_cdf(sinr_approx, grid)
        rows.extend(
            (float(rho_db), float(x), float(a), float(b), float(c), float(d))
            for x, a, b, c, d in zip(grid, cdf_exact, cdf_approx, model(grid), small_error(grid))
        )
        key = f"{rho_db:g}"
        for suffix, cdf in (("", model), ("_small_error", small_error)):
            full, upper = ks_distances(sinr_approx, cdf, [None, 0.5])
            aggregates["ks_full" + suffix][key] = full
            aggregates["ks_upper_tail" + suffix][key] = upper
    columns = ["rho_db", "sinr", "cdf_exact_bound", "cdf_approx", "cdf_model", "cdf_model_small_error"]
    return ExperimentResult("fig6", params, columns, rows, aggregates, params["seed"], resamples)


def _mode_rates(cfg: SystemConfig, modes: Sequence[str], rho_lin: np.ndarray, workers: int):
    """Mean sum-rate per SNR of each of ``modes``, the switching rule's
    decisions (None unless ``adaptive`` is asked for), the resample count and
    the unassigned-beam count.

    Only the pipelines the modes need are simulated. ``adaptive`` takes at
    each SNR the rate of the mode the closed-form rule picks; the rule is
    consulted before any trial runs, so an operating point where both
    estimates are out of regime fails with InvalidRegime without simulating.
    """
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    adaptive = "adaptive" in modes
    decisions = [analysis.mode_switch(cfg.k, cfg.m, cfg.n, rho, cfg.bcl) for rho in rho_lin] if adaptive else None
    pipelines = [mode for mode in (analysis.COOPERATIVE, analysis.CONVENTIONAL) if adaptive or mode in modes]
    kernel = partial(_rate_block, cfg, rho_lin, pipelines)
    rows, resamples = _simulate(kernel, cfg, _rate_block_trials(cfg), workers)
    r = rho_lin.size
    means = {mode: rows[:, i * r : (i + 1) * r].mean(axis=0) for i, mode in enumerate(pipelines)}
    if adaptive:
        picks_coop = [d.mode == analysis.COOPERATIVE for d in decisions]
        means["adaptive"] = np.where(picks_coop, means[analysis.COOPERATIVE], means[analysis.CONVENTIONAL])
    return means, decisions, resamples, int(rows[:, -1].sum())


def _run_fig7(params: dict, workers: int) -> ExperimentResult:
    """Cooperative sum-rate: Monte Carlo vs closed-form estimate over K and SNR."""
    rho_db = np.asarray(params["rho_db"], dtype=float)
    rho_lin = db_to_linear(rho_db)
    rows = []
    aggregates = {"mean_rel_gap": {}, "max_rel_gap": {}}
    resamples = unassigned = 0
    cfgs = [
        _system(params, n=int(n_rx), bcl=int(bcl), k=int(k_users))
        for n_rx, bcl in params["configs"]
        for k_users in params["k_grid"]
    ]
    # Every point's closed form before any trial runs, so an out-of-regime
    # point fails without simulating.
    estimates = [
        np.array([analysis.estimate_sum_rate(c.k, c.m, c.n, rho, c.bcl, analysis.COOPERATIVE) for rho in rho_lin])
        for c in cfgs
    ]
    for cfg, estimate in zip(cfgs, estimates):
        means, _, point_resamples, point_unassigned = _mode_rates(cfg, [analysis.COOPERATIVE], rho_lin, workers)
        rates = means[analysis.COOPERATIVE]
        resamples += point_resamples
        unassigned += point_unassigned
        rel_gap = np.abs(rates - estimate) / rates
        key = f"n{cfg.n}_bcl{cfg.bcl}_k{cfg.k}"
        aggregates["mean_rel_gap"][key] = float(rel_gap.mean())
        aggregates["max_rel_gap"][key] = float(rel_gap.max())
        rows.extend(
            (cfg.n, cfg.bcl, cfg.k, float(db), float(mc), float(est))
            for db, mc, est in zip(rho_db, rates, estimate)
        )
    aggregates["unassigned_beams"] = unassigned
    columns = ["n", "bcl", "k", "rho_db", "rate_num", "rate_estimate"]
    return ExperimentResult("fig7", params, columns, rows, aggregates, params["seed"], resamples)


def _crossing_db(rho_db: np.ndarray, delta: np.ndarray) -> Optional[float]:
    """First sign change of ``delta`` along the dB axis, linearly interpolated."""
    for i in range(len(rho_db) - 1):
        d0, d1 = delta[i], delta[i + 1]
        if math.isnan(d0) or math.isnan(d1):
            continue
        if d0 == 0.0:
            return float(rho_db[i])
        if (d0 < 0.0 <= d1) or (d0 > 0.0 >= d1):
            return float(rho_db[i] - d0 * (rho_db[i + 1] - rho_db[i]) / (d1 - d0))
    return None


def _run_fig8(params: dict, workers: int) -> ExperimentResult:
    """Sum-rates of conventional, cooperative, and adaptive modes vs SNR."""
    rho_db = np.asarray(params["rho_db"], dtype=float)
    means, decisions, resamples, unassigned = _mode_rates(_system(params), MODES, db_to_linear(rho_db), workers)
    coop, conv = means[analysis.COOPERATIVE], means[analysis.CONVENTIONAL]
    est_coop = np.array([d.rate_cooperative for d in decisions])
    est_conv = np.array([d.rate_conventional for d in decisions])
    rows = [
        (float(db), float(cv), float(cp), float(ad), float(ec), float(eo))
        for db, cv, cp, ad, ec, eo in zip(rho_db, conv, coop, means["adaptive"], est_conv, est_coop)
    ]
    aggregates = {
        "mc_crossing_db": _crossing_db(rho_db, coop - conv),
        "analytic_crossing_db": _crossing_db(rho_db, est_coop - est_conv),
        "decisions": {f"{db:g}": d.mode for db, d in zip(rho_db, decisions)},
        "unassigned_beams": unassigned,
    }
    columns = ["rho_db", "rate_conv", "rate_coop", "rate_adaptive", "rate_analytic_conv", "rate_analytic_coop"]
    return ExperimentResult("fig8", params, columns, rows, aggregates, params["seed"], resamples)


def _run_fig9(params: dict, workers: int) -> ExperimentResult:
    """Squared stacked-effective-norm distribution vs surrogate and model."""
    rows = []
    aggregates = {"ks_direct_vs_model": {}, "ks_surrogate_vs_model": {}, "ks_surrogate_vs_direct": {}}
    resamples = 0
    for n_rx in params["n_grid"]:
        cfg = _system(params, n=int(n_rx))
        size = _block_trials(cfg)
        pairs, attempts = _simulate(partial(_pair_block, cfg, params["beam"]), cfg, size, workers)
        direct = pairs[:, 2]
        resamples += attempts
        omega = analysis.expected_local_error(cfg.m, cfg.n, cfg.qcl)
        varrho_sq = analysis.effective_norm_params(cfg.m, cfg.n, omega)
        surrogate, _ = _simulate(partial(_surrogate_block, cfg, omega), cfg, size, workers)
        model = lambda u, _v=varrho_sq, _n=int(n_rx): analysis.effective_norm_cdf(
            u, cfg.m, _n, _v
        )
        grid = np.quantile(direct, _CDF_PROBS)
        cdf_direct = empirical_cdf(direct, grid)
        cdf_surrogate = empirical_cdf(surrogate, grid)
        cdf_model = model(grid)
        rows.extend(
            (int(n_rx), float(x), float(a), float(b), float(c))
            for x, a, b, c in zip(grid, cdf_direct, cdf_surrogate, cdf_model)
        )
        key = str(n_rx)
        aggregates["ks_direct_vs_model"][key] = ks_distance(direct, model)
        aggregates["ks_surrogate_vs_model"][key] = ks_distance(surrogate, model)
        aggregates["ks_surrogate_vs_direct"][key] = ks_distance(
            surrogate, lambda x, _d=direct: empirical_cdf(_d, x)
        )
    columns = ["n", "norm_sq", "cdf_direct", "cdf_surrogate", "cdf_model"]
    return ExperimentResult("fig9", params, columns, rows, aggregates, params["seed"], resamples)


def run_sweep(
    cfg: SystemConfig, modes: Sequence[str], rho_db: Sequence[float], workers: int = 1
) -> ExperimentResult:
    """Mean sum-rate of the requested modes over an SNR grid."""
    rho_db = np.asarray(rho_db, dtype=float)
    means, _, resamples, unassigned = _mode_rates(cfg, modes, db_to_linear(rho_db), workers)
    rows = [(float(db), mode, float(r)) for mode in modes for db, r in zip(rho_db, means[mode])]
    config = dict(
        m=cfg.m, n=cfg.n, k=cfg.k, bcl=cfg.bcl, trials=cfg.trials, seed=cfg.seed,
        codebook_mode=cfg.codebook_mode, rho_db=[float(d) for d in rho_db], modes=list(modes),
    )
    aggregates = {"unassigned_beams": unassigned}
    return ExperimentResult("sweep", config, ["rho_db", "mode", "sum_rate"], rows, aggregates, cfg.seed, resamples)


def _run_sweep(params: dict, workers: int) -> ExperimentResult:
    """Mean sum-rate over an SNR grid for chosen modes."""
    return run_sweep(_system(params), params["modes"], params["rho_db"], workers)


def _run_analyze(params: dict, workers: int) -> ExperimentResult:
    """Closed-form mode advice without simulation."""
    rows = []
    for cfg in [_system(params, k=k_users) for k_users in params["k_grid"]]:
        for db in params["rho_db"]:
            d = analysis.mode_switch(cfg.k, cfg.m, cfg.n, db_to_linear(db), cfg.bcl)
            rows.append((cfg.k, db, d.rate_cooperative, d.rate_conventional, d.delta_rate, d.mode))
    columns = ["k", "rho_db", "rate_coop", "rate_conv", "delta", "decision"]
    return ExperimentResult("analyze", params, columns, rows, {}, None, 0)


_RHO_GRID = [float(d) for d in range(-5, 26)]
_DRAWS = dict(m=4, trials=10000, seed=0)
_GLOBAL = dict(_DRAWS, codebook_mode="haar")  # for the runs that draw a global codebook

# Every command: what its runner reads and which flags set it.
SPECS = {
    "fig3": Spec(_run_fig3, dict(_DRAWS, n=2, bcl_grid=list(range(2, 11))), {"bcl": "bcl_grid"}),
    "fig5": Spec(_run_fig5, dict(_GLOBAL, n=2, bcl=8, beam=0)),
    "fig6": Spec(_run_fig6, dict(_GLOBAL, n=2, bcl=8, beam=0, rho_db=[0.0, 10.0, 20.0])),
    "fig7": Spec(
        _run_fig7,
        dict(_GLOBAL, configs=[(3, 4), (2, 8)], k_grid=[50, 100, 200, 400], rho_db=_RHO_GRID),
        {("n", "bcl"): "configs"},
    ),
    "fig8": Spec(_run_fig8, dict(_GLOBAL, n=3, bcl=6, k=200, rho_db=_RHO_GRID)),
    "fig9": Spec(_run_fig9, dict(_GLOBAL, n_grid=[2, 3], bcl=8, beam=0), {"n": "n_grid"}),
    "sweep": Spec(
        _run_sweep, dict(_GLOBAL, n=2, k=16, bcl=8, rho_db=[10.0], trials=1000, modes=[analysis.COOPERATIVE])
    ),
    "analyze": Spec(_run_analyze, dict(m=4, n=2, bcl=8, k_grid=[200], rho_db=_RHO_GRID), {"k": "k_grid"}, writes=False),
}
