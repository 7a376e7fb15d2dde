"""Trial orchestration, empirical statistics, and the experiments with the
spec of each command (:data:`SPECS`).

The pipeline is vectorised across the users of a block of trials, in the
rate engine and in the distribution samplers, through the one stacked QBC
stage of ``qbc`` (modified Gram-Schmidt, then a solve on the R factor; the
same sequence as the single-channel path), which ``cooperation`` also runs
for local acquisition.
Every random quantity is keyed by (seed, trial, purpose), so results are
bit-identical for any worker count, and trials resample their draws when a
channel comes out numerically rank deficient (counted, never silently).
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

from . import analysis, cooperation, numerics, qbc
from .model import (
    MODES,
    ConfigError,
    GlobalCodebook,
    LocalCodebook,
    RandomStream,
    SystemConfig,
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
    sig: np.ndarray
    intf: np.ndarray
    sin2_global: np.ndarray
    eff_norm2: np.ndarray


@dataclass
class _CoopArrays:
    sig_qu: np.ndarray
    intf_qu: np.ndarray
    sig_dl: np.ndarray
    intf_dl: np.ndarray
    sin2_global: np.ndarray
    eff_norm2: np.ndarray
    sin2_local: np.ndarray
    hvirt_norm2: np.ndarray
    local_intf: np.ndarray


@dataclass
class TrialWorkspace:
    """SNR-independent per-trial quantities for every user."""

    cfg: SystemConfig
    trial: int
    resamples: int
    codebook: GlobalCodebook
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
    k, n, m = cfg.k, cfg.n, cfg.m
    h = np.concatenate([complex_gaussian(rng.child("channels").generator(), (k, n, m)) for rng in rngs])
    codebooks = [gen_global_codebook(cfg, rng) for rng in rngs]
    cb = np.repeat(np.stack([c.matrix for c in codebooks]), k, axis=0)  # each trial's, per user

    basis, r = qbc._subspace(h)

    conv_arrays = None
    if conv:
        cos2, eff_norm2, _, _ = qbc._qbc_stage(basis, r, cb)
        sig, intf, sin2 = qbc._beam_powers(cos2, eff_norm2)
        conv_arrays = _ConvArrays(sig=sig, intf=intf, sin2_global=sin2, eff_norm2=eff_norm2)

    coop_arrays = None
    if coop:
        # The users of a trial quantize against that trial's local codebook,
        # one trial at a time: all at once would take b*k*qcl*n correlations.
        v = np.concatenate(
            [
                cooperation._local_choice(gen_local_codebook(cfg, rng).vectors, basis[i * k : (i + 1) * k])
                for i, rng in enumerate(rngs)
            ]
        )  # (b*k, m)
        tau, _, h_virt, hv_norm2, sin2_local = cooperation._local_stage(basis, r, v)

        # Global acquisition over the partner-stacked (n+1)-row matrices;
        # k is even, so u ^ 1 stays inside u's trial.
        partner = np.arange(len(h)) ^ 1
        h_qu = np.concatenate([h, (tau[:, None] * v).conj()[partner][:, None, :]], axis=1)  # (b*k, n+1, m)
        h_dl = np.concatenate([h, h_virt.conj()[partner][:, None, :]], axis=1)
        cos2_g, eff_norm2, combiners, _ = qbc._qbc_stage(*qbc._subspace(h_qu), cb)
        sig_qu, intf_qu, sin2_g = qbc._beam_powers(cos2_g, eff_norm2)
        # Not combined toward the codebook: correlate the served beam; the
        # unitary codebook's other beams carry the rest of the norm.
        heff_dl = np.matmul(h_dl.conj().transpose(0, 2, 1), combiners)  # (b*k, m, beams)
        corr_dl = np.sum(cb.conj() * heff_dl, axis=1)
        sig_dl = corr_dl.real**2 + corr_dl.imag**2
        intf_dl = np.maximum(np.sum(heff_dl.real**2 + heff_dl.imag**2, axis=1) - sig_dl, 0.0)
        last_row_power = combiners[:, n, :].real ** 2 + combiners[:, n, :].imag ** 2
        coop_arrays = _CoopArrays(
            sig_qu=sig_qu,
            intf_qu=intf_qu,
            sig_dl=sig_dl,
            intf_dl=intf_dl,
            sin2_global=sin2_g,
            eff_norm2=eff_norm2,
            sin2_local=sin2_local,
            hvirt_norm2=hv_norm2,
            local_intf=last_row_power * (hv_norm2 * sin2_local)[partner][:, None],
        )

    b = len(rngs)
    return [
        TrialWorkspace(cfg, *_origin(rng), codebook, conv_part, coop_part)
        for rng, codebook, conv_part, coop_part in zip(
            rngs, codebooks, _per_trial(conv_arrays, b, k), _per_trial(coop_arrays, b, k)
        )
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

    cqi = sel_sig[None, :, :] / (noise[:, None, None] + sel_intf[None, :, :])  # (r, k, m)
    beam = np.argmax(cqi, axis=2)  # (r, k); ties resolve to the lowest beam
    cqi_sel = np.take_along_axis(cqi, beam[:, :, None], axis=2)[:, :, 0]

    if mode == analysis.COOPERATIVE:
        evens = np.arange(0, cfg.k, 2)
        odds = evens + 1
        # Larger global CQI wins the main-user role; ties to the lower index.
        reporters = np.where(cqi_sel[:, evens] >= cqi_sel[:, odds], evens, odds)  # (r, k/2)
        rep_beam = np.take_along_axis(beam, reporters, axis=1)
        rep_cqi = np.take_along_axis(cqi_sel, reporters, axis=1)
    else:
        reporters = np.broadcast_to(np.arange(cfg.k), beam.shape)
        rep_beam = beam
        rep_cqi = cqi_sel

    r_axis = np.arange(rho_lin.size)
    users = np.full((rho_lin.size, m), -1, dtype=np.int64)
    reported = np.full((rho_lin.size, m), np.nan)
    gamma_num = np.zeros((rho_lin.size, m))
    for target in range(m):
        mask = rep_beam == target
        has = mask.any(axis=1)
        masked = np.where(mask, rep_cqi, -np.inf)
        pick = np.argmax(masked, axis=1)  # first max -> lowest user index
        chosen = reporters[r_axis, pick]
        users[:, target] = np.where(has, chosen, -1)
        reported[:, target] = np.where(has, masked[r_axis, pick], np.nan)
        gamma = dl_sig[chosen, target] / (noise + dl_intf[chosen, target])
        gamma_num[:, target] = np.where(has, gamma, 0.0)
    return _ModeEval(
        users=users,
        reported=reported,
        gamma_num=gamma_num,
        sum_rate=np.log2(1.0 + gamma_num).sum(axis=1),
        unassigned=(users < 0).sum(axis=1),
    )


# ---------------------------------------------------------------------------
# Trial records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """Everything observable from one trial at one SNR."""

    trial: int
    requested_mode: str
    mode: str  # pipeline actually executed (adaptive resolves to one of the two)
    rho: float
    scheduled: tuple[Optional[int], ...]
    reported_cqi: tuple[Optional[float], ...]
    numerical_sinr: tuple[Optional[float], ...]
    sum_rate: float
    local_error: tuple[Optional[float], ...]
    global_error: tuple[Optional[float], ...]
    global_interference: tuple[Optional[float], ...]
    local_interference: tuple[Optional[float], ...]
    effective_norm2: tuple[Optional[float], ...]
    resamples: int


def run_trial(cfg: SystemConfig, mode: str, trial: int) -> TrialRecord:
    """One full trial: draws, acquisition, scheduling, and numerical rates.

    ``adaptive`` consults the closed-form switching rule first and then runs
    the chosen pipeline.
    """
    requested = mode
    if mode == "adaptive":
        mode = analysis.mode_switch(cfg.k, cfg.m, cfg.n, cfg.rho, cfg.bcl).mode
    if mode not in (analysis.COOPERATIVE, analysis.CONVENTIONAL):
        raise ValueError(f"unknown mode {requested!r}")

    is_coop = mode == analysis.COOPERATIVE
    ws = build_workspace(cfg, trial, coop=is_coop, conv=not is_coop)
    ev = evaluate_mode(ws, mode, np.array([cfg.rho]))

    scheduled, rep, gnum = [], [], []
    local_err, global_err, global_int, local_int, eff_n2 = [], [], [], [], []
    for target in range(cfg.m):
        user = int(ev.users[0, target])
        if user < 0:
            scheduled.append(None)
            for acc in (rep, gnum, local_err, global_err, global_int, local_int, eff_n2):
                acc.append(None)
            continue
        scheduled.append(user)
        rep.append(float(ev.reported[0, target]))
        gnum.append(float(ev.gamma_num[0, target]))
        if is_coop:
            arrays = ws.coop
            partner = user ^ 1
            local_err.append(float(arrays.sin2_local[partner]))
            local_int.append(float(arrays.local_intf[user, target]))
        else:
            arrays = ws.conv
            local_err.append(None)
            local_int.append(None)
        global_err.append(float(arrays.sin2_global[user, target]))
        global_int.append(float(arrays.eff_norm2[user, target] * arrays.sin2_global[user, target]))
        eff_n2.append(float(arrays.eff_norm2[user, target]))

    return TrialRecord(
        trial=trial,
        requested_mode=requested,
        mode=mode,
        rho=cfg.rho,
        scheduled=tuple(scheduled),
        reported_cqi=tuple(rep),
        numerical_sinr=tuple(gnum),
        sum_rate=float(ev.sum_rate[0]),
        local_error=tuple(local_err),
        global_error=tuple(global_err),
        global_interference=tuple(global_int),
        local_interference=tuple(local_int),
        effective_norm2=tuple(eff_n2),
        resamples=ws.resamples,
    )


# ---------------------------------------------------------------------------
# Blocks of trials: the rate engine and the distribution samplers
# ---------------------------------------------------------------------------

# Trials stacked into one pass of the batched kernel. The samplers bound a
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


def _blocked(kernel: Callable, seed: int, lo: int, hi: int, size: int):
    """Yield ``(kernel(rngs), resamples)`` over the trials ``[lo, hi)`` in
    blocks of ``size`` trials, one stream per trial.

    A block that hits a degenerate draw is redone trial by trial on each
    trial's resample streams, one yield per trial, so no trial's output or
    resample count depends on where the block boundaries fall.
    """
    for start in range(lo, hi, size):
        trials = range(start, min(start + size, hi))
        try:
            out = kernel([derive_trial_rng(seed, t) for t in trials])
        except _DEGENERATE:
            for trial in trials:
                yield _resampled(lambda rng: kernel([rng]), seed, trial)
        else:
            yield out, 0


def _sampled(kernel: Callable, cfg: SystemConfig, lo: int, hi: int):
    """Rows of ``kernel`` (one per stream) stacked over the trials
    ``[lo, hi)`` in blocks of :func:`_block_trials`, and the resample count."""
    parts = list(_blocked(kernel, cfg.seed, lo, hi, _block_trials(cfg)))
    return np.concatenate([rows for rows, _ in parts]), sum(attempts for _, attempts in parts)


def _local_codebooks(cfg: SystemConfig, rngs: Sequence[RandomStream]) -> LocalCodebook:
    """Each stream's own RVQ codebook, stacked ``(b, qcl, m)``."""
    return LocalCodebook(np.stack([gen_local_codebook(cfg, rng).vectors for rng in rngs]))


def _pair_block(cfg: SystemConfig, beam: int, rngs: Sequence[RandomStream]) -> np.ndarray:
    """Cooperation-pair draws evaluated at a fixed beam, one row per stream:
    sin^2 local error, sin^2 global error, squared effective norm, local
    interference power.

    No role swap and no scheduling: this samples the per-candidate
    distributions the closed-form chain models (user 0 stacks user 1's
    shared local CSI).
    """
    pairs = np.stack([complex_gaussian(rng.child("channels").generator(), (2, cfg.n, cfg.m)) for rng in rngs])
    codewords = np.stack([gen_global_codebook(cfg, rng).codeword(beam) for rng in rngs])
    local = cooperation.acquire_local_csi(pairs[:, 1], _local_codebooks(cfg, rngs))
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
    h = np.stack([complex_gaussian(rng.child("channels").generator(), (cfg.n, cfg.m)) for rng in rngs])
    return cooperation.acquire_local_csi(h, _local_codebooks(cfg, rngs)).sin2_error


def _surrogate_norm_sample(cfg: SystemConfig, trial: int, omega: float) -> float:
    """Stacked-norm surrogate: covariance-modelled channel plus a
    unit-modulus combining direction (quadratic-form sampling)."""
    gen = derive_trial_rng(cfg.seed, trial, "surrogate").generator()
    n, m = cfg.n, cfg.m
    hw = complex_gaussian(gen, (n + 1, m))
    hw[n] *= math.sqrt((1.0 - omega) * (m - n + 1.0) / m)
    psi = gen.uniform(0.0, 2.0 * np.pi, n + 1)
    w = np.exp(1j * psi) / math.sqrt(n + 1.0)
    solved = np.linalg.solve(hw @ hw.conj().T, w)
    return float(1.0 / np.vdot(w, solved).real)


# ---------------------------------------------------------------------------
# Parallel map over trial chunks
# ---------------------------------------------------------------------------


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


def _pair_chunk(cfg: SystemConfig, beam: int, lo: int, hi: int):
    """Pair samples of trials ``[lo, hi)`` as rows ``(hi - lo, 4)`` (see
    :func:`_pair_block`) plus the resample count."""
    return _sampled(partial(_pair_block, cfg, beam), cfg, lo, hi)


def _local_error_chunk(cfg: SystemConfig, lo: int, hi: int):
    return _sampled(partial(_local_error_block, cfg), cfg, lo, hi)


def _surrogate_chunk(cfg: SystemConfig, omega: float, lo: int, hi: int):
    return np.array([_surrogate_norm_sample(cfg, t, omega) for t in range(lo, hi)])


def _rate_chunk(cfg: SystemConfig, rho_lin: np.ndarray, want_coop: bool, want_conv: bool, lo: int, hi: int):
    """Per-trial sum-rates ``(hi - lo, r)`` of the cooperative and the
    conventional mode (None when not wanted), the resample count and the
    unassigned-beam count over the trials ``[lo, hi)``."""
    wanted = {analysis.COOPERATIVE: want_coop, analysis.CONVENTIONAL: want_conv}
    rates = {mode: np.empty((hi - lo, rho_lin.size)) for mode, want in wanted.items() if want}
    resamples = unassigned = 0
    kernel = partial(_workspaces, cfg, coop=want_coop, conv=want_conv)
    for workspaces, attempts in _blocked(kernel, cfg.seed, lo, hi, _rate_block_trials(cfg)):
        resamples += attempts
        for ws in workspaces:
            for mode, trial_rates in rates.items():
                ev = evaluate_mode(ws, mode, rho_lin)
                trial_rates[ws.trial - lo] = ev.sum_rate
                unassigned += int(ev.unassigned.sum())
    return rates.get(analysis.COOPERATIVE), rates.get(analysis.CONVENTIONAL), resamples, unassigned


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
        chunks = _parallel_chunks(partial(_local_error_chunk, cfg), cfg.trials, workers)
        samples = np.concatenate([c[0] for c in chunks])
        resamples += sum(c[1] for c in chunks)
        mc_mean = float(samples.mean())
        closed = analysis.expected_local_error(cfg.m, cfg.n, cfg.qcl)
        reference = analysis.reference_local_error(cfg.m, cfg.n, cfg.qcl)
        rows.append((int(bcl), mc_mean, closed, reference))
        aggregates["rel_err_closed_form"][str(bcl)] = abs(mc_mean - closed) / mc_mean
        aggregates["rel_err_reference"][str(bcl)] = abs(mc_mean - reference) / mc_mean
    columns = ["bcl", "mc_mean", "closed_form", "reference_formula"]
    return ExperimentResult("fig3", params, columns, rows, aggregates, params["seed"], resamples)


def _collect_pair_samples(params: dict, workers: int) -> tuple[SystemConfig, np.ndarray, int]:
    cfg = _system(params)
    chunks = _parallel_chunks(partial(_pair_chunk, cfg, params["beam"]), cfg.trials, workers)
    data = np.concatenate([c[0] for c in chunks], axis=0)  # columns: sin2_local, sin2_global, u2, li
    return cfg, data, sum(c[1] for c in chunks)


def _run_fig5(params: dict, workers: int) -> ExperimentResult:
    """Cdfs of local/global quantization errors and interference powers."""
    cfg, data, resamples = _collect_pair_samples(params, workers)
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
    cfg, data, resamples = _collect_pair_samples(params, workers)
    sin2_local, sin2_global, norm2, local_intf = data.T
    cos2_global = 1.0 - sin2_global
    rows = []
    aggregates = {
        "ks_full": {},
        "ks_upper_tail": {},
        "ks_full_small_error": {},
        "ks_upper_tail_small_error": {},
    }
    for rho_db in params["rho_db"]:
        rho = db_to_linear(rho_db)
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
    pipelines = (analysis.COOPERATIVE, analysis.CONVENTIONAL)  # in _rate_chunk's order
    wanted = [adaptive or mode in modes for mode in pipelines]
    chunks = _parallel_chunks(partial(_rate_chunk, cfg, rho_lin, *wanted), cfg.trials, workers)
    means = {
        mode: np.concatenate([c[i] for c in chunks], axis=0).mean(axis=0)
        for i, mode in enumerate(pipelines)
        if wanted[i]
    }
    if adaptive:
        picks_coop = [d.mode == analysis.COOPERATIVE for d in decisions]
        means["adaptive"] = np.where(picks_coop, means[analysis.COOPERATIVE], means[analysis.CONVENTIONAL])
    return means, decisions, sum(c[2] for c in chunks), sum(c[3] for c in chunks)


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
        chunks = _parallel_chunks(partial(_pair_chunk, cfg, params["beam"]), cfg.trials, workers)
        direct = np.concatenate([c[0] for c in chunks], axis=0)[:, 2]
        resamples += sum(c[1] for c in chunks)
        omega = analysis.expected_local_error(cfg.m, cfg.n, cfg.qcl)
        varrho_sq = analysis.effective_norm_params(cfg.m, cfg.n, omega)
        surrogate_chunks = _parallel_chunks(
            partial(_surrogate_chunk, cfg, omega), cfg.trials, workers
        )
        surrogate = np.concatenate(surrogate_chunks)
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
    for k_users in params["k_grid"]:
        for db in params["rho_db"]:
            d = analysis.mode_switch(k_users, params["m"], params["n"], db_to_linear(db), params["bcl"])
            rows.append((k_users, db, d.rate_cooperative, d.rate_conventional, d.delta_rate, d.mode))
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
