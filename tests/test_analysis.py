import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from coopfb import analysis
from coopfb.analysis import (
    CONVENTIONAL,
    COOPERATIVE,
    AnalysisParams,
    InvalidRegime,
    cqi_candidates,
    derive_params,
    effective_norm_cdf,
    effective_norm_params,
    effective_norm_pdf,
    error_support_edge,
    estimate_scheduled_sinr,
    estimate_sum_rate,
    expected_local_error,
    local_error_cdf,
    mode_switch,
    reference_local_error,
    sinr_cdf,
    sinr_cdf_exact,
)
from coopfb.numerics import DomainError, binomial


class TestExpectedLocalError:
    def test_hand_evaluated_single_codeword(self):
        # m=4, n=2, one codeword: 3^(-1/2) * B(1, 1.5) = 2/(3*sqrt(3)).
        value = expected_local_error(4, 2, 1)
        assert abs(value - 2.0 / (3.0 * math.sqrt(3.0))) < 1e-12

    def test_large_codebook_small_error(self):
        # At 8 bits the expected selected error sits at ~3.2e-2 and is within
        # half a percent of the asymptotic order-statistics value
        # Gamma(1.5) * (3 qcl)^(-1/2).
        value = expected_local_error(4, 2, 2**8)
        assert 0.0 < value < 0.04
        asymptotic = math.gamma(1.5) * (3 * 2**8) ** -0.5
        assert abs(value - asymptotic) / asymptotic < 0.005

    def test_monotone_in_codebook_size(self):
        values = [expected_local_error(4, 2, 2**b) for b in range(0, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_stays_in_unit_interval(self):
        for n in (1, 2, 3):
            for b in (0, 4, 16):
                assert 0.0 < expected_local_error(4, n, 2**b) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_local_error(4, 4, 2)
        with pytest.raises(DomainError):
            expected_local_error(4, 2, 0)

    def test_against_mpmath_for_every_codebook_size(self):
        # Up to qcl = 1024, ln B is a difference of lgamma values up to about
        # 6,000, which carries up to 1.3e-12 (at m - n = 4); beyond, it is
        # Stirling's series, good to about 1e-14.
        with mpmath.workdps(50):
            for m in range(2, 9):
                for n in range(1, m):
                    delta = mpmath.binomial(m - 1, n - 1) ** (-mpmath.mpf(1) / (m - n))
                    for bcl in range(63):
                        qcl = 2**bcl
                        exact = qcl * delta * mpmath.beta(qcl, mpmath.mpf(m - n + 1) / (m - n))
                        rtol = 1.5e-12 if qcl <= 1024 else 1e-12
                        assert abs(expected_local_error(m, n, qcl) - exact) <= rtol * exact, (m, n, bcl)

    def test_matches_direct_beta_expression_moderate_sizes(self):
        # Log-domain evaluation equals the naive product where it is finite.
        from scipy import special

        for qcl in (1, 2, 16, 64):
            direct = (
                qcl
                * binomial(3, 1) ** (-0.5)
                * special.beta(qcl, 1.5)
            )
            assert abs(expected_local_error(4, 2, qcl) - direct) < 1e-12


class TestLocalErrorCdf:
    def test_endpoints(self):
        assert local_error_cdf(0.0, 4, 2) == 0.0
        assert local_error_cdf(1.0, 4, 2) == 1.0

    def test_continuity_at_support_edge(self):
        edge = error_support_edge(4, 2)
        assert abs(local_error_cdf(edge, 4, 2) - 1.0) < 1e-12

    def test_hand_value(self):
        assert abs(local_error_cdf(0.25, 4, 2) - 3 * 0.25**2) < 1e-12

    def test_matches_empirical_single_codeword_error(self):
        # Small-error region of the cdf against Monte Carlo of the actual
        # quantization error of one isotropic codeword.
        from coopfb.numerics import mgs_columns

        rng = np.random.default_rng(6)
        draws = 200_000
        h = (rng.standard_normal((draws, 4, 2)) + 1j * rng.standard_normal((draws, 4, 2))) / np.sqrt(2)
        basis = mgs_columns(h)[0]
        c = (rng.standard_normal((draws, 4)) + 1j * rng.standard_normal((draws, 4))) / np.sqrt(2)
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        cos2 = np.sum(
            np.abs(np.matmul(basis.conj().transpose(0, 2, 1), c[:, :, None])[:, :, 0]) ** 2, axis=1
        )
        err = 1.0 - cos2
        # The power-law form is a small-s approximation; its defect vs the
        # exact error distribution is O(s^3), so test deep in the tail.
        for s in (0.02, 0.05, 0.1):
            empirical = (err <= s).mean()
            assert abs(empirical - local_error_cdf(s, 4, 2)) < 0.005

    def test_domain(self):
        with pytest.raises(DomainError):
            local_error_cdf(-0.1, 4, 2)
        with pytest.raises(DomainError):
            local_error_cdf(1.5, 4, 2)

    def test_edge_identity(self):
        for m, n in ((4, 2), (4, 3), (6, 2)):
            edge = error_support_edge(m, n)
            assert abs(edge * binomial(m - 1, n - 1) ** (1.0 / (m - n)) - 1.0) < 1e-12


class TestEffectiveNormModel:
    def test_hand_value(self):
        # m=4, n=3, omega -> 0: inverse scale (3 + 4/2)/4 = 1.25.
        assert abs(effective_norm_params(4, 3, 0.0) - 0.8) < 1e-12

    def test_degenerate_partner_limit(self):
        assert effective_norm_params(4, 2, 1.0 - 1e-12) < 1e-9

    def test_pdf_normalizes(self):
        for m, n in ((4, 2), (4, 3)):
            v2 = effective_norm_params(m, n, 0.05)
            total, _ = integrate.quad(lambda u: effective_norm_pdf(u, m, n, v2), 0, np.inf)
            assert abs(total - 1.0) < 1e-6

    def test_shape_one_is_exponential(self):
        v2 = 0.8
        u = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(
            effective_norm_pdf(u, 4, 3, v2), np.exp(-u / v2) / v2, atol=1e-12
        )

    def test_moments_by_quadrature(self):
        m, n = 4, 2
        v2 = effective_norm_params(m, n, 0.03)
        mean, _ = integrate.quad(lambda u: u * effective_norm_pdf(u, m, n, v2), 0, np.inf)
        second, _ = integrate.quad(lambda u: u * u * effective_norm_pdf(u, m, n, v2), 0, np.inf)
        assert abs(mean - (m - n) * v2) < 1e-6
        assert abs((second - mean**2) - (m - n) * v2**2) < 1e-6

    def test_cdf_matches_pdf_quadrature(self):
        m, n, v2 = 4, 2, 0.9
        for u in (0.3, 1.0, 2.5):
            total, _ = integrate.quad(lambda t: effective_norm_pdf(t, m, n, v2), 0, u)
            assert abs(total - effective_norm_cdf(u, m, n, v2)) < 1e-8


class TestSinrCdf:
    def test_full_rank_case_is_exponential(self):
        # n = m-1: the combinatorial factor is 1 and the power term vanishes.
        rho, alpha, v2 = 5.0, 1.1, 0.8
        x = np.linspace(0.0, 10.0, 30)
        expected = 1.0 - np.exp(-4 * alpha * x / (rho * v2))
        np.testing.assert_allclose(sinr_cdf(x, 4, 3, rho, alpha, v2), expected, atol=1e-12)
        assert sinr_cdf(0.0, 4, 3, rho, alpha, v2) == 0.0

    def test_clamped_at_origin(self):
        # Raw value at x=0 is 1 - binom(3,2) = -2 for n=2; clamps to zero.
        assert sinr_cdf(0.0, 4, 2, 10.0, 1.0, 0.9) == 0.0

    def test_nondecreasing_and_limits(self):
        x = np.linspace(0.0, 200.0, 4001)
        values = sinr_cdf(x, 4, 2, 10.0, 1.05, 0.88)
        assert np.all(np.diff(values) >= -1e-15)
        assert values[-1] > 0.999999

    def test_domain(self):
        with pytest.raises(DomainError):
            sinr_cdf(-1.0, 4, 2, 10.0, 1.0, 0.9)


def exact_law_oracle(x, m, n, rho, alpha, varrho_sq):
    """Conditional-expectation definition of the exact-law cdf, integrated
    over the Beta(m-n-1, n+1) density at 30 digits."""
    with mpmath.workdps(30):
        c = mpmath.mpf(rho) / (m * mpmath.mpf(alpha))
        a, b = m - n - 1, n + 1
        x = mpmath.mpf(x)
        edge = 1 / (1 + x)

        def integrand(s):
            room = 1 - s * (1 + x)
            if room <= 0:
                return mpmath.mpf(1)
            gamma_cdf = mpmath.gammainc(m - n, 0, x / (c * room * varrho_sq), regularized=True)
            return s ** (a - 1) * (1 - s) ** (b - 1) * gamma_cdf

        above = mpmath.betainc(a, b, edge, 1, regularized=True)
        return float(above + mpmath.quad(integrand, [0, edge]) / mpmath.beta(a, b))


class TestSinrCdfExact:
    @pytest.mark.parametrize("m,n", [(4, 1), (4, 2), (5, 2), (6, 2), (6, 4), (8, 3)])
    def test_matches_arbitrary_precision_oracle(self, m, n):
        rho, alpha, v2 = 5.0, 1.3, 0.7
        x = np.array([1e-6, 0.01, 0.3, 1.0, 2.5, 7.0, 30.0])
        got = sinr_cdf_exact(x, m, n, rho, alpha, v2)
        want = [exact_law_oracle(xi, m, n, rho, alpha, v2) for xi in x]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_full_rank_stack_reduces_to_exponential(self, m):
        # n = m-1: the stacked subspace is the whole space, S = 0.
        rho, alpha, v2 = 5.0, 1.1, 0.8
        x = np.linspace(0.0, 10.0, 30)
        expected = 1.0 - np.exp(-m * alpha * x / (rho * v2))
        got = sinr_cdf_exact(x, m, m - 1, rho, alpha, v2)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, sinr_cdf(x, m, m - 1, rho, alpha, v2), atol=1e-12)

    @pytest.mark.parametrize("m,n", [(4, 2), (6, 2), (8, 3)])
    def test_cdf_shape(self, m, n):
        x = np.concatenate([[0.0], np.logspace(-8, 4, 2000)])
        values = sinr_cdf_exact(x, m, n, 10.0, 1.05, 0.88)
        assert values[0] == 0.0
        assert sinr_cdf_exact(0.0, m, n, 10.0, 1.05, 0.88) == 0.0
        assert np.all(np.diff(values) >= -1e-13)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert values[-1] > 1.0 - 1e-12
        assert sinr_cdf_exact(np.inf, m, n, 10.0, 1.05, 0.88) == 1.0

    def test_matches_sampled_law(self):
        # Independent draws of S ~ Beta(m-n-1, n+1) and U ~ Gamma(m-n, v2).
        m, n, rho, alpha, v2 = 4, 2, 10.0, 1.2, 0.9
        rng = np.random.default_rng(61)
        draws = 20000
        s = rng.beta(m - n - 1, n + 1, draws)
        u = rng.gamma(m - n, v2, draws)
        c = rho / (m * alpha)
        sinr = c * u * (1 - s) / (1 + c * u * s)
        ks = stats.kstest(sinr, lambda x: sinr_cdf_exact(x, m, n, rho, alpha, v2)).statistic
        assert ks < 1.63 / math.sqrt(draws)  # 1% critical value

    def test_domain(self):
        with pytest.raises(DomainError):
            sinr_cdf_exact(-1.0, 4, 2, 10.0, 1.0, 0.9)
        with pytest.raises(DomainError):
            sinr_cdf_exact(1.0, 4, 4, 10.0, 1.0, 0.9)


@pytest.mark.parametrize(
    "func, args, value",
    [
        (local_error_cdf, (0.1, 4, 2), 0.030000000000000006),
        (effective_norm_pdf, (0.7, 4, 2, 0.8), 0.4559428340233685),
        (effective_norm_cdf, (0.7, 4, 2, 0.8), 0.21838371310279667),
        (sinr_cdf, (2.5, 4, 2, 10.0, 1.3, 0.8), 0.8312185641106908),
        (sinr_cdf_exact, (2.5, 4, 2, 10.0, 1.3, 0.8), 0.8536508992498336),
        (sinr_cdf_exact, (2.5, 4, 3, 10.0, 1.3, 0.8), 0.8030883247958063),
    ],
    ids=["local_error_cdf", "effective_norm_pdf", "effective_norm_cdf", "sinr_cdf", "sinr_cdf_exact", "sinr_cdf_exact_n3"],
)
def test_scalar_gives_zero_dim_array(func, args, value):
    # Like the numerics they wrap, the distribution functions return an
    # ndarray for any input; a Python float gives a 0-d one, and the values
    # are those the functions returned as floats before.
    out = func(*args)
    assert type(out) is np.ndarray and out.shape == ()
    assert float(out) == value


_SCALES = {"rho": 10.0, "alpha": 1.3, "varrho_sq": 0.8}
# Each closed-form call and the scales it checks; estimate_scheduled_sinr's
# rho has its own test in TestEstimateScheduledSinr.
_SCALED = {
    "derive_params": (lambda s: derive_params(4, 2, 256, s["rho"]), ["rho"]),
    "effective_norm_pdf": (lambda s: effective_norm_pdf(1.0, 4, 2, s["varrho_sq"]), ["varrho_sq"]),
    "effective_norm_cdf": (lambda s: effective_norm_cdf(1.0, 4, 2, s["varrho_sq"]), ["varrho_sq"]),
    "sinr_cdf": (lambda s: sinr_cdf(1.0, 4, 2, **s), list(_SCALES)),
    "sinr_cdf_exact": (lambda s: sinr_cdf_exact(1.0, 4, 2, **s), list(_SCALES)),
    "estimate_cooperative": (lambda s: estimate_scheduled_sinr(1, 200, 4, 2, **s, mode=COOPERATIVE), ["alpha", "varrho_sq"]),
    "estimate_conventional": (lambda s: estimate_scheduled_sinr(1, 200, 4, 2, **s, mode=CONVENTIONAL), ["alpha", "varrho_sq"]),
}


@pytest.mark.parametrize("value", [-10.0, -0.9, 0.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "call, name", [pytest.param(call, name, id=f"{label}-{name}") for label, (call, names) in _SCALED.items() for name in names]
)
def test_scale_not_positive_finite_refused(call, name, value):
    # Refused by name, not answered with a number or refused by a special
    # function the caller never called.
    with pytest.raises(DomainError, match=f"need a positive finite {name}, got"):
        call({**_SCALES, name: value})


class TestDeriveParams:
    def test_chain_values(self):
        p = derive_params(4, 2, 16, 10.0)
        assert abs(p.omega - expected_local_error(4, 2, 16)) < 1e-15
        assert abs(p.nu - 3 * p.omega / 3) < 1e-15
        assert abs(p.alpha - (1 + 10.0 * p.nu / 4)) < 1e-15
        assert abs(p.varrho_sq - effective_norm_params(4, 2, p.omega)) < 1e-15
        assert p.alpha >= 1.0


class TestCqiCandidates:
    def test_first_step_counts_everyone(self):
        assert cqi_candidates(50, 4, 1, COOPERATIVE) == 200
        assert cqi_candidates(50, 4, 1, CONVENTIONAL) == 200

    def test_hand_value(self):
        assert cqi_candidates(50, 4, 3, COOPERATIVE) == 46 * 2

    def test_conventional_retires_one_user(self):
        assert cqi_candidates(50, 4, 2, CONVENTIONAL) == 49 * 3

    def test_domain(self):
        with pytest.raises(DomainError):
            cqi_candidates(50, 4, 5, COOPERATIVE)
        with pytest.raises(DomainError):
            cqi_candidates(4, 4, 4, COOPERATIVE)
        with pytest.raises(DomainError):
            cqi_candidates(50, 4, 1, "other")


class TestEstimateScheduledSinr:
    def test_full_stack_reduces_to_pool_log(self):
        # m=4, n=3 cooperative: the power-term exponent vanishes, leaving
        # scale * log(candidate count).
        k, rho = 200, 10.0
        p = derive_params(4, 3, 16, rho)
        scale = rho * p.varrho_sq / (4 * p.alpha)
        for step in range(1, 5):
            count = cqi_candidates(k, 4, step, COOPERATIVE)
            expected = scale * math.log(count)
            got = estimate_scheduled_sinr(step, k, 4, 3, rho, p.alpha, p.varrho_sq, COOPERATIVE)
            assert abs(got - expected) < 1e-12

    def test_monotone_in_users(self):
        p = derive_params(4, 2, 16, 10.0)
        values = [
            estimate_scheduled_sinr(1, k, 4, 2, 10.0, p.alpha, p.varrho_sq, COOPERATIVE)
            for k in (50, 100, 200, 400, 800)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_conventional_out_of_regime_at_high_snr(self):
        # k=200, n=2: (rho/m)^2 outgrows the candidate pool near 20 dB.
        with pytest.raises(InvalidRegime):
            estimate_scheduled_sinr(4, 200, 4, 2, 316.0, 1.0, 1.0, CONVENTIONAL)

    def test_conventional_structural_cross_check(self):
        # The conventional formula is the alpha=1 specialization of the
        # cooperative chain structure with n-antenna exponents; evaluate it
        # independently from that structural description.
        k, rho, m, n = 400, 10.0, 4, 3
        for step in range(1, 5):
            count = cqi_candidates(k, m, step, CONVENTIONAL)
            scale = rho / m
            exponent = m - n
            combos = binomial(m - 1, n - 1)
            lead = math.log(combos * count / scale**exponent)
            expected = scale * (lead - exponent * math.log(lead + 1.0 / scale))
            got = estimate_scheduled_sinr(step, k, m, n, rho, 1.0, 1.0, CONVENTIONAL)
            assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_conventional_applies_explicit_alpha_and_varrho(self):
        # k=200, m=4, n=2 at step 1: 800 candidates, exponent m - n = 2,
        # binom(3, 1) = 3 combinations, scale rho varrho_sq / (m alpha).
        scale = 10.0 * 0.5 / (4 * 2.0)
        lead = math.log(3 * 800) - 2 * math.log(scale)
        expected = scale * (lead - 2 * math.log(lead + 1.0 / scale))
        got = estimate_scheduled_sinr(1, 200, 4, 2, 10.0, 2.0, 0.5, CONVENTIONAL)
        assert abs(got - expected) <= 1e-12 * expected
        assert abs(got - 2.5340) < 1e-4

    @pytest.mark.parametrize("m, n", [(4, 1), (4, 2), (6, 3)])
    def test_cooperation_is_conventional_with_a_partner_row(self, m, n):
        # At the first selection both pools hold every user, so a cooperative
        # user on n antennas is a conventional user on n + 1.
        for alpha, varrho_sq in ((1.0, 1.0), (1.7, 0.6)):
            coop = estimate_scheduled_sinr(1, 300, m, n, 10.0, alpha, varrho_sq, COOPERATIVE)
            conv = estimate_scheduled_sinr(1, 300, m, n + 1, 10.0, alpha, varrho_sq, CONVENTIONAL)
            assert coop == conv

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, math.nan])
    def test_rho_not_positive_finite_refused(self, rho):
        for mode in (COOPERATIVE, CONVENTIONAL):
            with pytest.raises(DomainError, match="need a positive finite rho"):
                estimate_scheduled_sinr(1, 200, 4, 2, rho, 1.0, 1.0, mode)


class TestEstimateSumRate:
    def test_uses_all_beams(self):
        k, m, n, rho, bcl = 200, 4, 3, 10.0, 6
        p = derive_params(m, n, 2**bcl, rho)
        total = sum(
            math.log2(1 + estimate_scheduled_sinr(s, k, m, n, rho, p.alpha, p.varrho_sq, COOPERATIVE))
            for s in range(1, m + 1)
        )
        assert abs(estimate_sum_rate(k, m, n, rho, bcl, COOPERATIVE) - total) < 1e-12

    def test_invalid_regime_propagates(self):
        with pytest.raises(InvalidRegime):
            estimate_sum_rate(200, 4, 2, 316.0, 4, CONVENTIONAL)

    def test_unknown_mode_refused(self):
        with pytest.raises(DomainError, match="mode must be cooperative or conventional, got 'other'"):
            estimate_sum_rate(200, 4, 2, 10.0, 4, "other")

    @pytest.mark.parametrize("rho", [math.inf, 0.0, math.nan])
    def test_rho_not_positive_finite_refused(self, rho):
        # At n = m - 1 and rho = inf the cooperative chain would read NaN.
        for mode in (COOPERATIVE, CONVENTIONAL):
            with pytest.raises(DomainError, match=f"need a positive finite rho, got {rho}"):
                estimate_sum_rate(200, 4, 3, rho, 6, mode)


class TestModeSwitch:
    def test_zero_delta_is_conventional(self, monkeypatch):
        monkeypatch.setattr(analysis, "estimate_sum_rate", lambda *a, **k: 5.0)
        decision = mode_switch(100, 4, 2, 1.0, 4)
        assert decision.mode == CONVENTIONAL
        assert decision.delta_rate == 0.0

    def test_decision_flips_along_snr_axis(self):
        # m=4, n=3, bcl=6, k=200: conventional at low SNR, cooperative at
        # high SNR, with exactly one flip on a fine grid.
        decisions = []
        for db in np.arange(-5.0, 25.5, 0.5):
            decisions.append(mode_switch(200, 4, 3, 10 ** (db / 10), 6).mode)
        flips = sum(1 for a, b in zip(decisions, decisions[1:]) if a != b)
        assert decisions[0] == CONVENTIONAL
        assert decisions[-1] == COOPERATIVE
        assert flips == 1

    def test_always_cooperative_config(self):
        # m=4, n=2, bcl=4, k=200 triggers cooperation over the whole
        # nonnegative-dB range (high-SNR points via regime dominance).
        for db in range(0, 26):
            decision = mode_switch(200, 4, 2, 10 ** (db / 10), 4)
            assert decision.mode == COOPERATIVE

    def test_one_sided_regime_failure_prefers_valid_side(self):
        decision = mode_switch(200, 4, 2, 316.0, 4)
        assert decision.mode == COOPERATIVE
        assert decision.delta_rate == math.inf
        assert math.isnan(decision.rate_conventional)

    def test_both_sides_out_of_regime_raise_cooperative_first(self):
        # k=16, n=2, bcl=8 at 20 dB: too few users for either estimate.
        pattern = r"^both estimates out of regime: cooperative estimate .*; conventional estimate "
        with pytest.raises(InvalidRegime, match=pattern):
            mode_switch(16, 4, 2, 100.0, 8)

    def test_infinite_rho_refused(self):
        # A refusal is no regime failure: neither side wins by default.
        with pytest.raises(DomainError, match="need a positive finite rho, got inf"):
            mode_switch(200, 4, 3, math.inf, 6)

    def test_delta_matches_difference(self):
        decision = mode_switch(400, 4, 3, 10.0, 6)
        assert abs(
            decision.delta_rate - (decision.rate_cooperative - decision.rate_conventional)
        ) < 1e-12


class TestReferenceFormula:
    def test_value(self):
        assert abs(reference_local_error(4, 2, 2**6) - (64 * 3) ** -0.5) < 1e-15

    def test_closed_form_beats_reference_at_moderate_bits(self):
        # The selected-error expectation is closer to the asymptotic
        # order-statistics value than the inverse-power reference.
        for b in (6, 8, 10):
            qcl = 2**b
            prop = expected_local_error(4, 2, qcl)
            ref = reference_local_error(4, 2, qcl)
            asymptotic = math.gamma(1.5) * (3 * qcl) ** -0.5
            assert abs(prop - asymptotic) < abs(ref - asymptotic)
