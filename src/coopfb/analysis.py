"""Closed-form statistics: local quantization error, effective-norm model,
SINR distribution, extreme-value throughput estimates, and mode switching.

Beam positions ``m`` in this module are 1-based to match the selection-step
counting (the m-th scheduled beam); everything array-facing elsewhere in the
package is 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, binomial, expn, gammainc, gammaincc, in_domain, ln_beta

COOPERATIVE = "cooperative"
CONVENTIONAL = "conventional"


class InvalidRegime(ValueError):
    """The asymptotic throughput estimate is outside its validity region
    (too few users for the requested SNR)."""


def _check_dims(m: int, n: int, qcl: int = 1, **scales: float) -> None:
    if not (1 <= n < m):
        raise DomainError(f"need 1 <= n < m, got n={n}, m={m}")
    if qcl < 1:
        raise DomainError(f"need qcl >= 1, got {qcl}")
    for name, value in scales.items():  # SNR, alpha, varrho^2
        if not (value > 0.0 and math.isfinite(value)):
            raise DomainError(f"need a positive finite {name}, got {value}")


def error_support_edge(m: int, n: int) -> float:
    """Upper edge of the small-error cdf support: binom(m-1, n-1)^(-1/(m-n))."""
    _check_dims(m, n)
    return binomial(m - 1, n - 1) ** (-1.0 / (m - n))


def expected_local_error(m: int, n: int, qcl: int) -> float:
    """Expected direction quantization error of the selected local codeword.

    ``qcl * binom(m-1, n-1)^(-1/(m-n)) * B(qcl, (m-n+1)/(m-n))``, evaluated
    in the log domain so large codebooks stay finite and accurate.
    """
    _check_dims(m, n, qcl)
    ratio = (m - n + 1.0) / (m - n)
    log_delta = -math.log(binomial(m - 1, n - 1)) / (m - n)
    return math.exp(math.log(qcl) + log_delta + ln_beta(float(qcl), ratio))


def reference_local_error(m: int, n: int, qcl: int) -> float:
    """Comparison formula ``[qcl * binom(m-1, n-1)]^(-1/(m-n))`` from the
    earlier antenna-combining literature."""
    _check_dims(m, n, qcl)
    return (qcl * binomial(m - 1, n - 1)) ** (-1.0 / (m - n))


def local_error_cdf(s, m: int, n: int):
    """Small-error cdf of a single-codeword quantization error.

    ``binom(m-1, n-1) * s^(m-n)`` below the support edge, 1 above it,
    clamped to [0, 1], as an ndarray (0-d for a scalar).
    """
    edge = error_support_edge(m, n)  # checks m and n
    s_arr = in_domain(s, "quantization error values", 1.0)
    raw = binomial(m - 1, n - 1) * s_arr ** (m - n)
    return np.where(s_arr > edge, 1.0, np.clip(raw, 0.0, 1.0))


def effective_norm_params(m: int, n: int, omega: float) -> float:
    """Scale parameter of the stacked effective-norm model.

    Inverse of ``[n + m / ((1 - omega)(m - n + 1))] / (n + 1)``; shrinks to
    zero as the partner's quantization error approaches one.
    """
    _check_dims(m, n)
    if not 0.0 <= omega < 1.0:
        raise DomainError(f"need 0 <= omega < 1, got {omega}")
    inv = (n + m / ((1.0 - omega) * (m - n + 1.0))) / (n + 1.0)
    return 1.0 / inv


def effective_norm_pdf(u, m: int, n: int, varrho_sq: float):
    """Gamma(m-n, varrho_sq) density of the stacked effective norm, as an ndarray."""
    _check_dims(m, n, varrho_sq=varrho_sq)
    u_arr = in_domain(u, "norm-square values")
    with np.errstate(over="ignore"):  # an exponent past the float range decays to 0 as well
        decay = np.exp(-u_arr / varrho_sq)
    shape = m - n
    u_live = np.where(decay > 0.0, u_arr, 0.0)  # where the decay underflows, the density reads 0
    return np.asarray(u_live ** (shape - 1) * decay / (varrho_sq**shape * math.gamma(shape)))


def effective_norm_cdf(u, m: int, n: int, varrho_sq: float):
    """Cdf of :func:`effective_norm_pdf` (regularized lower gamma), as an ndarray."""
    _check_dims(m, n, varrho_sq=varrho_sq)
    u_arr = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):  # a point past the float range reads 1, as inf does
        return gammainc(m - n, np.maximum(u_arr, 0.0) / varrho_sq)


def sinr_cdf(x, m: int, n: int, rho: float, alpha: float, varrho_sq: float):
    """Small-error, upper-tail form of the approximated per-beam SINR cdf,
    clamped to [0, 1], as an ndarray (0-d for a scalar).

    ``1 - binom(m-1, n) exp(-m alpha x / (rho varrho_sq)) / (x+1)^(m-n-1)``.
    It keeps only the leading term ``binom(m-1, n) s^(m-n-1)`` of the
    direction-error law, so it is accurate in the upper tail that the
    extreme-value chain inverts but misses the body of the distribution
    (see :func:`sinr_cdf_exact`). The raw expression can go negative near
    x = 0; clamping keeps it a valid cdf there.
    """
    _check_dims(m, n, rho=rho, alpha=alpha, varrho_sq=varrho_sq)
    x_arr = in_domain(x, "SINR values")
    with np.errstate(over="ignore"):  # an exponent past the float range decays to 0 as well
        decay = np.exp(-m * alpha * x_arr / (rho * varrho_sq))
    x_live = np.where(decay > 0.0, x_arr, 0.0)  # where the decay underflows, the cdf reads 1
    raw = 1.0 - binomial(m - 1, n) * decay / (x_live + 1.0) ** (m - n - 1)
    return np.asarray(np.clip(raw, 0.0, 1.0))


def sinr_cdf_exact(x, m: int, n: int, rho: float, alpha: float, varrho_sq: float):
    """Cdf of the approximated per-beam SINR under the exact direction-error
    law, clamped to [0, 1], as an ndarray (0-d for a scalar).

    The SINR is ``c U (1 - S) / (1 + c U S)`` with ``c = rho / (m alpha)``,
    ``U ~ Gamma(m-n, varrho_sq)`` the effective norm (as in
    :func:`effective_norm_cdf`) and ``S`` the squared sine between a fixed
    codeword and the isotropic (n+1)-dimensional stacked subspace, which is
    exactly ``Beta(m-n-1, n+1)`` (and identically zero when n + 1 = m).
    Conditioning on S gives

        F(x) = P(S >= 1/(1+x)) + E[1{S < 1/(1+x)} G(x / (c (1 - S (1+x))))]

    with G the Gamma cdf. The substitution ``w = 1 / (1 - S (1+x))`` turns
    ``1 - F`` into a finite sum of generalised exponential integrals
    ``E_k(lam) = int_1^inf exp(-lam w) w^(-k) dw`` at ``lam = x / (c varrho_sq)``.
    Unlike :func:`sinr_cdf`, it holds over the whole distribution.
    """
    _check_dims(m, n, rho=rho, alpha=alpha, varrho_sq=varrho_sq)
    x_arr = in_domain(x, "SINR values")
    c = rho / (m * alpha)
    with np.errstate(over="ignore"):  # a point past the float range reads 1, as inf does
        u, lam = x_arr / c, x_arr / (c * varrho_sq)
    if n == m - 1:
        return effective_norm_cdf(u, m, n, varrho_sq)
    # S ~ Beta(a, b); U has Gamma shape a + 1.
    a, b = m - n - 1, n + 1
    # Where exp(-lam) underflows, so does every term of 1 - F, and F reads 1.
    live = (x_arr > 0.0) & (np.exp(-lam) > 0.0)
    out = np.where(x_arr > 0.0, 1.0, 0.0)
    xp, lam = x_arr[live], lam[live]
    t = 1.0 / (1.0 + xp)
    tau = xp / (1.0 + xp)
    # With s = t (w-1)/w the Beta density and ds = t dw / w^2 give
    #   1 - F = t^a / B(a, b) * sum_{i,r,j} (-1)^i C(a-1, i) C(b-1, r)
    #           tau^r t^(b-1-r) lam^j / j! * E_{n+2+i-r-j}(lam).
    tail = np.zeros_like(xp)
    # Orders k >= 1 reach at most n + 1 + a = m; evaluate them in one pass.
    e_k = expn(np.arange(1, m + 1), lam)
    for i in range(a):
        for r in range(b):
            for j in range(a + 1):
                k = n + 2 + i - r - j
                if k >= 1:
                    lam_e = lam**j * e_k[k - 1]
                else:
                    # E_k(lam) = Gamma(1-k, lam) / lam^(1-k); here j + k - 1 >= 1,
                    # so the power of lam stays nonnegative as x -> 0.
                    lam_e = (
                        lam ** (j + k - 1)
                        * gammaincc(1 - k, lam)
                        * math.factorial(-k)
                    )
                coef = (-1) ** i * binomial(a - 1, i) * binomial(b - 1, r) / math.factorial(j)
                tail += coef * tau**r * t ** (b - 1 - r) * lam_e
    inv_beta = a * binomial(m - 1, a)  # 1 / B(a, b) for integer arguments
    out[live] = np.clip(1.0 - inv_beta * t**a * tail, 0.0, 1.0)
    return out


@dataclass(frozen=True)
class AnalysisParams:
    """Derived constants feeding the closed-form SINR/sum-rate chain."""

    omega: float
    nu: float
    alpha: float
    varrho_sq: float


def derive_params(m: int, n: int, qcl: int, rho: float) -> AnalysisParams:
    """Chain omega -> nu -> alpha -> varrho^2 for a cooperative configuration."""
    _check_dims(m, n, rho=rho)
    omega = expected_local_error(m, n, qcl)
    nu = (m - n + 1.0) * omega / (n + 1.0)
    return AnalysisParams(
        omega=omega,
        nu=nu,
        alpha=1.0 + rho * nu / m,
        varrho_sq=effective_norm_params(m, n, omega),
    )


# Partner rows per scheduled user. A cooperative pair leaves the candidate
# pool together, and the partner's row adds a receive dimension; conventional
# feedback is the same chain without a partner.
_PAIRED = {COOPERATIVE: 1, CONVENTIONAL: 0}


def cqi_candidates(k: int, m: int, step: int, mode: str) -> int:
    """Number of CQI candidates at the ``step``-th (1-based) selection.

    Each selection retires the scheduled beam and the scheduled user with
    its partner, if any: a pair under cooperation, one user otherwise.
    """
    if not 1 <= step <= m:
        raise DomainError(f"selection step must lie in 1..{m}, got {step}")
    if mode not in _PAIRED:
        raise DomainError(f"mode must be cooperative or conventional, got {mode!r}")
    count = (k - (1 + _PAIRED[mode]) * (step - 1)) * (m - (step - 1))
    if count <= 0:
        raise DomainError(f"no candidates left at step {step} with k={k}, m={m}")
    return count


def estimate_scheduled_sinr(
    step: int,
    k: int,
    m: int,
    n: int,
    rho: float,
    alpha: float,
    varrho_sq: float,
    mode: str,
) -> float:
    """Extreme-value estimate of the ``step``-th scheduled user's SINR.

    Largest-order-statistic inversion of the per-beam SINR cdf over the
    candidate pool; natural logarithms throughout. One chain serves both
    modes at SNR scale ``rho varrho_sq / (m alpha)``, with ``alpha`` and
    ``varrho_sq`` as given: a cooperative user receives on ``n + 1`` rows
    (its partner's adds one), a conventional user on ``n``. Raises
    :class:`InvalidRegime` when the nested logarithm's argument drops to one
    or below (too few users for the asymptotic expansion at this SNR), and
    :class:`DomainError` for a scale (rho, alpha, varrho^2) that is not positive and finite.
    """
    _check_dims(m, n, rho=rho, alpha=alpha, varrho_sq=varrho_sq)
    count = cqi_candidates(k, m, step, mode)
    rows = n + _PAIRED[mode]
    scale = rho * varrho_sq / (m * alpha)
    exponent = m - rows
    lead = math.log(binomial(m - 1, rows - 1) * count) - exponent * math.log(scale)
    inner = lead + 1.0 / scale
    if inner <= 1.0:
        raise InvalidRegime(
            f"{mode} estimate out of regime at step {step}: "
            f"inner log argument {inner:.3g} <= 1 (k={k}, rho={rho:.4g})"
        )
    return max(scale * (lead - exponent * math.log(inner)), 0.0)


def estimate_sum_rate(k: int, m: int, n: int, rho: float, bcl: int, mode: str) -> float:
    """Closed-form sum-rate estimate, summing all ``m`` scheduled beams."""
    alpha = varrho_sq = 1.0
    if mode == COOPERATIVE:
        params = derive_params(m, n, 2**bcl, rho)
        alpha, varrho_sq = params.alpha, params.varrho_sq
    total = 0.0
    for step in range(1, m + 1):
        gamma = estimate_scheduled_sinr(step, k, m, n, rho, alpha, varrho_sq, mode)
        total += math.log2(1.0 + gamma)
    return total


@dataclass(frozen=True)
class ModeDecision:
    """Outcome of the cooperation switching rule at one operating point."""

    mode: str
    delta_rate: float
    rate_cooperative: float
    rate_conventional: float


def mode_switch(k: int, m: int, n: int, rho: float, bcl: int) -> ModeDecision:
    """Activate cooperation iff its estimated sum-rate strictly exceeds the
    conventional estimate.

    One loop estimates both modes. When exactly one side's estimate is out
    of its asymptotic regime, the other side wins and the out-of-regime rate
    reads NaN: a conventional estimate that blows up at high SNR means the
    baseline is interference limited there, and vice versa. Only when both
    sides are out of regime is :class:`InvalidRegime` raised.
    """
    rates, errors = {}, []
    for mode in (COOPERATIVE, CONVENTIONAL):
        try:
            rates[mode] = estimate_sum_rate(k, m, n, rho, bcl, mode)
        except InvalidRegime as exc:
            errors.append(exc)
    if len(errors) == 2:
        raise InvalidRegime(f"both estimates out of regime: {errors[0]}; {errors[1]}")
    # A side out of regime counts as -inf, so it loses outright (delta = +-inf).
    delta = rates.get(COOPERATIVE, -math.inf) - rates.get(CONVENTIONAL, -math.inf)
    coop, conv = (rates.get(mode, math.nan) for mode in (COOPERATIVE, CONVENTIONAL))
    return ModeDecision(COOPERATIVE if delta > 0.0 else CONVENTIONAL, delta, coop, conv)
