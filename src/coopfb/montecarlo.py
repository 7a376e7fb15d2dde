"""Trial orchestration, empirical statistics, and the experiments with the
spec of each command (:data:`SPECS`). Every run, from the library or the
command line, enters through :func:`run_experiment`, which checks its
parameters against the spec and builds its :class:`ExperimentResult`.

Every experiment runs its trials through one Monte Carlo map,
:func:`_simulate`. A block kernel takes one stream per trial and returns
one row per trial: fig3's local error, the fig5/fig6/fig9 pair draws,
fig9's surrogate norm, or the sum-rates of fig7, fig8 and sweep. The map
runs it over the trial range in blocks on the worker processes, and redoes
a block with a degenerate draw trial by trial on resample streams (counted,
never silently). The kernels are vectorised across the users of a block
through the one QBC stage of ``qbc`` (Householder QR, then substitution on
the R factor), which takes any leading axes, so a rate block stays
(trials, users); ``cooperation`` runs it for local acquisition, and
partner rows are stacked by
``cooperation.build_global_matrix``, as in the per-user pipeline, and the
rate engine factors each stacked matrix by appending the partner's row to
the user's own factors (``numerics.append_column``). Every
random quantity is keyed by (seed, trial, purpose), so results are
bit-identical for any worker count and block boundary.
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

from . import analysis, cooperation, link, numerics, qbc, scheduler
from .model import (
    MODES,
    ConfigError,
    RandomStream,
    SystemConfig,
    _generators,
    check_integer,
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
    """:func:`ks_distance` for each of ``regions``, from one call of ``cdf``
    on the sorted samples and their left neighbours together.

    ``cdf`` must be pointwise, each value depending on its own argument
    alone, as the closed-form cdfs and :func:`empirical_cdf` are; then the
    one call gives the bits of two."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise EmptyInput("ks_distance needs at least one sample")
    # Evaluating the model's left limits keeps the statistic exact when the
    # model itself is a step function (e.g. another empirical cdf).
    model = np.asarray(cdf(np.concatenate([s, np.nextafter(s, -np.inf)])), dtype=float)
    model_right, model_left = model[:n], model[n:]
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
    """Per-(user, beam) signal and interference powers ``(k, m)`` a user
    reports its CQI from, at unit SNR: its QBC-combined channel toward each
    beam. The conventional downlink delivers these powers too."""

    sig: np.ndarray
    intf: np.ndarray

    def __getitem__(self, users) -> "_ConvArrays":
        """The powers of ``users`` out of stacked arrays, of the same type."""
        return type(self)(**{name: value[users] for name, value in vars(self).items()})


@dataclass
class _CoopArrays(_ConvArrays):
    """The cooperative pipeline's report, from the quantized stacked
    channel, plus the powers the downlink delivers (``*_dl``) through the
    partner's unquantized row."""

    sig_dl: np.ndarray
    intf_dl: np.ndarray


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


def _workspaces(
    cfg: SystemConfig, rngs: Sequence[RandomStream], coop: bool, conv: bool
) -> list[TrialWorkspace]:
    """One :class:`TrialWorkspace` per stream, the block kept ``(trials,
    users, ...)`` through the stages, each trial's codebook broadcast.

    Each user's own rows go through one QR: its basis and R serve the
    conventional stage, the local pick and, with the stacked matrix's
    partner row appended as one column, the global stage."""
    k = cfg.k
    h = complex_gaussian(_generators(rngs, "channels"), (k, cfg.n, cfg.m))  # (b, k, n, m)
    cb = gen_global_codebook(cfg, rngs).matrix[:, None]  # (b, 1, m, beams)

    basis, r = qbc._subspace(h)

    conv_arrays = None
    if conv:
        conv_arrays = _ConvArrays(*qbc._beam_powers(*qbc._qbc_stage(basis, r, cb)[:2]))

    coop_arrays = None
    if coop:
        local = cooperation._local_stage(h, basis, r, gen_local_codebook(cfg, rngs).vectors)

        # Global acquisition over the partner-stacked (n+1)-row matrices
        # (b, k, n+1, m); k is even, so user u pairs with u ^ 1.
        partner = local[:, np.arange(k) ^ 1]
        glob = cooperation.build_global_matrix(h, partner)
        stacked = numerics.append_column(basis, r, glob.h_qu[..., -1, :].conj())
        cos2_g, eff_norm2, combiners = qbc._qbc_stage(*stacked, cb)
        # Not combined toward the codebook: correlate the served beam; the
        # unitary codebook's other beams carry the rest of the norm.
        heff_dl = link.downlink_effective_channel(glob, combiners)  # (b, k, m, beams)
        corr_dl = np.sum(cb.conj() * heff_dl, axis=-2)
        sig_dl = corr_dl.real**2 + corr_dl.imag**2
        intf_dl = np.maximum(np.sum(heff_dl.real**2 + heff_dl.imag**2, axis=-2) - sig_dl, 0.0)
        coop_arrays = _CoopArrays(*qbc._beam_powers(cos2_g, eff_norm2), sig_dl, intf_dl)

    parts = (conv_arrays, coop_arrays)
    return [
        TrialWorkspace(cfg, *_origin(rng), *(None if part is None else part[i] for part in parts))
        for i, rng in enumerate(rngs)
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
    """Selection, role assignment, scheduling, and rates at each SNR of
    ``rho_lin``, the 1-D output of :func:`db_to_linear`, not checked again."""
    m = ws.cfg.m
    noise = m / rho_lin  # (r,)

    records = {analysis.COOPERATIVE: ws.coop, analysis.CONVENTIONAL: ws.conv}
    if mode not in records:
        raise ValueError(f"unknown mode {mode!r}")
    arrays = records[mode]
    if arrays is None:
        raise ValueError(f"workspace was built without the {mode} stage")

    beam, cqi = qbc.best_beam(arrays.sig[None], arrays.intf[None], noise[:, None, None])  # (r, k)
    rows = np.arange(len(noise))[:, None]  # plain indexing gathers faster than take_along_axis
    reporters = None  # conventional users report for themselves
    dl_sig, dl_intf = arrays.sig, arrays.intf  # what the downlink delivers
    if mode == analysis.COOPERATIVE:
        reporters = scheduler.main_users(cqi)  # (r, k/2)
        beam, cqi = beam[rows, reporters], cqi[rows, reporters]
        dl_sig, dl_intf = arrays.sig_dl, arrays.intf_dl
    pick = scheduler.per_beam(beam, cqi, m)  # (r, m) reporter index, -1 when unassigned
    has = pick >= 0
    users = pick if reporters is None else np.where(has, reporters[rows, pick], -1)
    reported = np.where(has, cqi[rows, pick], np.nan)
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

# Trials stacked into one pass of a block kernel. Every kernel bounds a
# block by its local-codebook rows (trials x codewords): 64 trials up to
# 1,024-word codebooks, fewer beyond. The rate engine also bounds it by
# users (trials x k): 32 trials at k = 16, two at k = 200 and one from
# k = 257 on. Against 256 users, 512 raise the peak RSS of a k = 16 sweep
# by about 1.0 MiB (2.5%) and 1,024 by 3.3 MiB (8%).
_BLOCK = 64
_BLOCK_ROWS = 64 * 1024
_BLOCK_USERS = 512


def _block_trials(cfg: SystemConfig, users: int = 1) -> int:
    """Trials per block of a kernel stacking ``users`` users per trial (the rate engine's k)."""
    return max(1, min(_BLOCK, _BLOCK_ROWS // cfg.qcl, _BLOCK_USERS // users))


def _worker_count(workers: int, n_trials: int, cpus: Optional[int]) -> int:
    """Processes to run: the requested count, capped at the CPU count and
    at the trial count (which caps the chunk count)."""
    return min(workers, cpus or 1, n_trials)


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


def _simulate(kernel: Callable, cfg: SystemConfig, workers: int, users: int = 1):
    """Rows of ``kernel`` over every trial of ``cfg`` in trial order, and the
    resample count. Every experiment's trials go through here, in blocks of
    :func:`_block_trials` for ``users`` users per trial; past one worker,
    chunks of the trial range run on a fork pool. A trial's row depends only
    on its index, so the output is identical for any worker count."""
    fn = partial(_sampled, kernel, cfg.seed, _block_trials(cfg, users))
    workers = _worker_count(workers, cfg.trials, os.cpu_count())
    if workers == 1:
        return fn(0, cfg.trials)
    bounds = np.linspace(0, cfg.trials, min(workers * 4, cfg.trials) + 1).astype(int)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [pool.submit(fn, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        chunks = [f.result() for f in futures]
    return np.concatenate([rows for rows, _ in chunks]), sum(attempts for _, attempts in chunks)


def _pair_block(cfg: SystemConfig, rngs: Sequence[RandomStream]) -> np.ndarray:
    """Cooperation-pair draws evaluated at beam 0, which has every beam's law
    (channels are isotropic), one row per stream: sin^2 local error, sin^2
    global error, squared effective norm, local interference power.

    No role swap and no scheduling: this samples the per-candidate
    distributions the closed-form chain models (user 0 stacks user 1's
    shared local CSI).
    """
    pairs = complex_gaussian(_generators(rngs, "channels"), (2, cfg.n, cfg.m))
    codewords = gen_global_codebook(cfg, rngs).codeword(0)
    local = cooperation.acquire_local_csi(pairs[:, 1], gen_local_codebook(cfg, rngs))
    combined = qbc.combine_for_codeword(cooperation.build_global_matrix(pairs[:, 0], local).h_qu, codewords)
    last_row = combined.combiner[:, cfg.n]
    hv_norm2 = np.sum(local.h_virt.real**2 + local.h_virt.imag**2, axis=1)
    local_intf = (last_row.real**2 + last_row.imag**2) * hv_norm2 * local.sin2_error
    return np.column_stack([local.sin2_error, np.clip(1.0 - combined.cos2, 0.0, 1.0), combined.eff_norm2, local_intf])


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
    # w^H (H H^H)^-1 w = ||R^-H w||^2, since H H^H = R^H R for H^H = QR.
    r = qbc._subspace(hw)[1]
    x = numerics.solve_triangular(r.conj().transpose(0, 2, 1), w, lower=True)[:, :, 0]
    return 1.0 / np.sum(x.real**2 + x.imag**2, axis=1)


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
    """Table plus aggregates for one experiment run; reproducible per seed.
    Built by :func:`run_experiment` alone."""

    experiment: str
    config: dict
    columns: list
    rows: list
    aggregates: dict
    resample_count: int

    @property
    def seed(self) -> Optional[int]:
        return self.config.get("seed")


_CDF_PROBS = np.arange(1, 200) / 200.0  # quantile grid for cdf-style figures


@dataclass(frozen=True)
class Spec:
    """One command: its runner, the parameters the runner reads with their
    defaults (a list default marks a grid), and the flags, by argparse dest,
    that set a parameter of another name. A tuple of flags sets one grid
    point of its parameter together.

    ``runner(params, workers)`` returns the run's columns, rows, aggregates
    and resample count."""

    runner: Callable
    params: dict
    remaps: dict = dataclasses.field(default_factory=dict)
    writes: bool = True  # writes output files; otherwise its table is printed


def run_experiment(experiment: str, overrides: Optional[dict] = None, workers: int = 1) -> ExperimentResult:
    """Run one command of :data:`SPECS` with ``overrides`` of its parameters.

    A grid parameter takes a non-empty list or tuple and any other
    parameter one value; :class:`SystemConfig` checks the values themselves.
    """
    check_integer("workers", workers)
    if workers < 1:
        raise ConfigError(f"need workers >= 1, got workers={workers}")
    if experiment not in SPECS:
        raise ValueError(f"unknown experiment {experiment!r}; expected one of {tuple(SPECS)}")
    spec = SPECS[experiment]
    overrides = overrides or {}
    unknown = sorted(overrides.keys() - spec.params.keys())
    if unknown:
        raise ValueError(f"{experiment} does not accept override(s) {unknown}")
    for key, value in overrides.items():
        grid = isinstance(spec.params[key], list)
        if grid != isinstance(value, (list, tuple)) or (grid and not value):
            shape = "a non-empty list" if grid else "a single value"
            raise ValueError(f"{experiment} takes {shape} for {key!r}, got {value!r}")
    params = copy.deepcopy({**spec.params, **overrides})
    return ExperimentResult(experiment, params, *spec.runner(params, workers))


def _system(params: dict, **fields) -> SystemConfig:
    """The run's :class:`SystemConfig` from ``params`` and ``fields``. A run
    that reads no user count gets the smallest its ``m`` allows, which only
    the validation looks at."""
    known = {f.name: params[f.name] for f in dataclasses.fields(SystemConfig) if f.name in params}
    return SystemConfig(**{"k": 2 * params["m"], **known, **fields})


def _run_fig3(params: dict, workers: int):
    """Mean selected local quantization error vs cooperation-link bits."""
    rows = []
    aggregates = {"rel_err_closed_form": {}, "rel_err_reference": {}}
    resamples = 0
    for cfg in [_system(params, bcl=bcl) for bcl in params["bcl_grid"]]:
        errors, attempts = _simulate(partial(_local_error_block, cfg), cfg, workers)
        resamples += attempts
        mc_mean = float(errors.mean())
        closed = analysis.expected_local_error(cfg.m, cfg.n, cfg.qcl)
        reference = analysis.reference_local_error(cfg.m, cfg.n, cfg.qcl)
        rows.append((cfg.bcl, mc_mean, closed, reference))
        aggregates["rel_err_closed_form"][str(cfg.bcl)] = abs(mc_mean - closed) / mc_mean
        aggregates["rel_err_reference"][str(cfg.bcl)] = abs(mc_mean - reference) / mc_mean
    return ["bcl", "mc_mean", "closed_form", "reference_formula"], rows, aggregates, resamples


def _run_fig5(params: dict, workers: int):
    """Cdfs of local/global quantization errors and interference powers."""
    cfg = _system(params)
    data, resamples = _simulate(partial(_pair_block, cfg), cfg, workers)
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
    return ["variable", "probability", "quantile"], rows, aggregates, resamples


def _run_fig6(params: dict, workers: int):
    """Empirical SINR cdfs (exact lower bound and approximation) vs the model.

    ``cdf_model`` and the ``ks_full``/``ks_upper_tail`` keys score the
    exact-law cdf; the small-error form keeps its own column and
    ``*_small_error`` keys. An upper-tail key is None at an SNR where no
    sample reaches model cdf 0.5.
    """
    cfg = _system(params)
    rhos = db_to_linear(params["rho_db"])
    data, resamples = _simulate(partial(_pair_block, cfg), cfg, workers)
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
    return columns, rows, aggregates, resamples


def _mode_rates(cfg: SystemConfig, modes: Sequence[str], rho_lin: np.ndarray, workers: int):
    """Mean sum-rate per SNR of each of ``modes``, the switching rule's
    decisions (None unless ``adaptive`` is asked for), the resample count and
    the unassigned-beam count.

    Only the pipelines the modes need are simulated. ``adaptive`` takes at
    each SNR the rate of the mode the closed-form rule picks; the rule is
    consulted before any trial runs, so an operating point where both
    estimates are out of regime fails with InvalidRegime without simulating.
    """
    for i, mode in enumerate(modes):
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        if mode in modes[:i]:
            raise ConfigError(f"mode {mode!r} is given more than once")
    adaptive = "adaptive" in modes
    decisions = [analysis.mode_switch(cfg.k, cfg.m, cfg.n, rho, cfg.bcl) for rho in rho_lin] if adaptive else None
    pipelines = [mode for mode in (analysis.COOPERATIVE, analysis.CONVENTIONAL) if adaptive or mode in modes]
    kernel = partial(_rate_block, cfg, rho_lin, pipelines)
    rows, resamples = _simulate(kernel, cfg, workers, users=cfg.k)
    r = rho_lin.size
    means = {mode: rows[:, i * r : (i + 1) * r].mean(axis=0) for i, mode in enumerate(pipelines)}
    if adaptive:
        picks_coop = [d.mode == analysis.COOPERATIVE for d in decisions]
        means["adaptive"] = np.where(picks_coop, means[analysis.COOPERATIVE], means[analysis.CONVENTIONAL])
    return means, decisions, resamples, int(rows[:, -1].sum())


def _run_fig7(params: dict, workers: int):
    """Cooperative sum-rate: Monte Carlo vs closed-form estimate over K and SNR."""
    rho_lin = db_to_linear(params["rho_db"])
    rows = []
    aggregates = {"mean_rel_gap": {}, "max_rel_gap": {}}
    resamples = unassigned = 0
    cfgs = [
        _system(params, n=n_rx, bcl=bcl, k=k_users)
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
            for db, mc, est in zip(params["rho_db"], rates, estimate)
        )
    aggregates["unassigned_beams"] = unassigned
    return ["n", "bcl", "k", "rho_db", "rate_num", "rate_estimate"], rows, aggregates, resamples


def _crossing_db(rho_db: Sequence[float], delta: np.ndarray) -> Optional[float]:
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


def _run_fig8(params: dict, workers: int):
    """Sum-rates of conventional, cooperative, and adaptive modes vs SNR."""
    rho_db = params["rho_db"]
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
    return columns, rows, aggregates, resamples


def _run_fig9(params: dict, workers: int):
    """Squared stacked-effective-norm distribution vs surrogate and model."""
    rows = []
    aggregates = {"ks_direct_vs_model": {}, "ks_surrogate_vs_model": {}, "ks_surrogate_vs_direct": {}}
    resamples = 0
    for cfg in [_system(params, n=n_rx) for n_rx in params["n_grid"]]:
        pairs, pair_attempts = _simulate(partial(_pair_block, cfg), cfg, workers)
        direct = pairs[:, 2]
        omega = analysis.expected_local_error(cfg.m, cfg.n, cfg.qcl)
        varrho_sq = analysis.effective_norm_params(cfg.m, cfg.n, omega)
        surrogate, surrogate_attempts = _simulate(partial(_surrogate_block, cfg, omega), cfg, workers)
        resamples += pair_attempts + surrogate_attempts
        model = lambda u, _c=cfg, _v=varrho_sq: analysis.effective_norm_cdf(u, _c.m, _c.n, _v)
        grid = np.quantile(direct, _CDF_PROBS)
        cdf_direct = empirical_cdf(direct, grid)
        cdf_surrogate = empirical_cdf(surrogate, grid)
        cdf_model = model(grid)
        rows.extend(
            (cfg.n, float(x), float(a), float(b), float(c))
            for x, a, b, c in zip(grid, cdf_direct, cdf_surrogate, cdf_model)
        )
        key = str(cfg.n)
        aggregates["ks_direct_vs_model"][key] = ks_distance(direct, model)
        aggregates["ks_surrogate_vs_model"][key] = ks_distance(surrogate, model)
        aggregates["ks_surrogate_vs_direct"][key] = ks_distance(
            surrogate, lambda x, _d=direct: empirical_cdf(_d, x)
        )
    return ["n", "norm_sq", "cdf_direct", "cdf_surrogate", "cdf_model"], rows, aggregates, resamples


def run_sweep(
    cfg: SystemConfig, modes: Sequence[str], rho_db: Sequence[float], workers: int = 1
) -> ExperimentResult:
    """The sweep command on the fields of ``cfg`` that its spec declares, so
    ``cfg.rho`` is not read. Unexported; kept while perfbench's spans name it."""
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name in SPECS["sweep"].params}
    return run_experiment("sweep", {**fields, "modes": modes, "rho_db": rho_db}, workers)


def _run_sweep(params: dict, workers: int):
    """Mean sum-rate over an SNR grid for chosen modes."""
    modes, rho_db = params["modes"], params["rho_db"]
    means, _, resamples, unassigned = _mode_rates(_system(params), modes, db_to_linear(rho_db), workers)
    rows = [(float(db), mode, float(r)) for mode in modes for db, r in zip(rho_db, means[mode])]
    return ["rho_db", "mode", "sum_rate"], rows, {"unassigned_beams": unassigned}, resamples


def _run_analyze(params: dict, workers: int):
    """Closed-form mode advice without simulation."""
    rows = []
    rhos = db_to_linear(params["rho_db"])
    for cfg in [_system(params, k=k_users) for k_users in params["k_grid"]]:
        for db, rho in zip(params["rho_db"], rhos):
            d = analysis.mode_switch(cfg.k, cfg.m, cfg.n, rho, cfg.bcl)
            rows.append((cfg.k, db, d.rate_cooperative, d.rate_conventional, d.delta_rate, d.mode))
    return ["k", "rho_db", "rate_coop", "rate_conv", "delta", "decision"], rows, {}, 0


_RHO_GRID = [float(d) for d in range(-5, 26)]
_DRAWS = dict(m=4, trials=10000, seed=0)
_GLOBAL = dict(_DRAWS, codebook_mode="haar")  # for the runs that draw a global codebook

# Every command: what its runner reads and which flags set it.
SPECS = {
    "fig3": Spec(_run_fig3, dict(_DRAWS, n=2, bcl_grid=list(range(2, 11))), {"bcl": "bcl_grid"}),
    "fig5": Spec(_run_fig5, dict(_GLOBAL, n=2, bcl=8)),
    "fig6": Spec(_run_fig6, dict(_GLOBAL, n=2, bcl=8, rho_db=[0.0, 10.0, 20.0])),
    "fig7": Spec(
        _run_fig7,
        dict(_GLOBAL, configs=[(3, 4), (2, 8)], k_grid=[50, 100, 200, 400], rho_db=_RHO_GRID),
        {("n", "bcl"): "configs"},
    ),
    "fig8": Spec(_run_fig8, dict(_GLOBAL, n=3, bcl=6, k=200, rho_db=_RHO_GRID)),
    "fig9": Spec(_run_fig9, dict(_GLOBAL, n_grid=[2, 3], bcl=8), {"n": "n_grid"}),
    "sweep": Spec(
        _run_sweep, dict(_GLOBAL, n=2, k=16, bcl=8, rho_db=[10.0], trials=1000, modes=[analysis.COOPERATIVE])
    ),
    "analyze": Spec(_run_analyze, dict(m=4, n=2, bcl=8, k_grid=[200], rho_db=_RHO_GRID), {"k": "k_grid"}, writes=False),
}
