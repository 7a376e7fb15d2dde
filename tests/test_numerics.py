import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfb import numerics
from coopfb.numerics import (
    DomainError,
    RankDeficient,
    binomial,
    gram_solve,
    haar_unitary,
    orthonormal_basis,
)

RNG = np.random.default_rng(1234)


def beta_function(a, b):
    """B(a, b) as the exponential of ``ln_beta``, the form the analysis uses."""
    return math.exp(numerics.ln_beta(a, b))


def random_channel(n, m, rng=RNG):
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


class TestOrthonormalBasis:
    def test_standard_basis_rows(self):
        h = np.zeros((2, 4), dtype=complex)
        h[0, 0] = 1.0
        h[1, 1] = 1.0
        q = orthonormal_basis(h)
        np.testing.assert_allclose(np.abs(q[:, 0]), [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(q[:, 1]), [0, 1, 0, 0], atol=1e-12)

    def test_single_row_normalization(self):
        h = np.zeros((1, 4), dtype=complex)
        h[0, 0] = 2.0
        q = orthonormal_basis(h)
        np.testing.assert_allclose(q[:, 0], [1, 0, 0, 0], atol=1e-12)

    def test_orthonormal_and_spans_rows(self):
        # Oracle: least-squares residual of each conjugated row against span(Q) is 0.
        for _ in range(20):
            h = random_channel(2, 4)
            q = orthonormal_basis(h)
            np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-10)
            for row in h:
                target = row.conj()
                coeff, *_ = np.linalg.lstsq(q, target, rcond=None)
                assert np.linalg.norm(q @ coeff - target) < 1e-10

    def test_rank_deficient_rows(self):
        h = random_channel(1, 4)
        with pytest.raises(RankDeficient):
            orthonormal_basis(np.vstack([h, h]))

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError):
            orthonormal_basis(random_channel(5, 4))

    def test_rejects_nonfinite(self):
        h = random_channel(2, 4)
        h[0, 0] = np.nan
        with pytest.raises(ValueError):
            orthonormal_basis(h)


def rank_inputs(h):
    """``check_full_rank``'s argument for the rows of ``h``: the R factor of
    ``H^H = QR`` by Householder QR."""
    return np.linalg.qr(h.conj().T, mode="r")


class TestScaleRelativeRank:
    def test_scaled_channels_pass_the_rank_checks(self):
        h = random_channel(3, 4, np.random.default_rng(0))
        v = random_channel(1, 4, np.random.default_rng(1))[0]
        for scale in (1e-3, 1e3):
            numerics.check_full_rank(rank_inputs(scale * h))
            np.testing.assert_allclose(orthonormal_basis(scale * h), orthonormal_basis(h), atol=1e-12)
            np.testing.assert_allclose(gram_solve(scale * h, v) * scale, gram_solve(h, v), rtol=1e-10)

    def test_parallel_rows_rejected_at_any_scale(self):
        h = random_channel(1, 4)
        for scale in (1e-6, 1.0, 1e6):
            with pytest.raises(RankDeficient):
                numerics.check_full_rank(rank_inputs(scale * np.vstack([h, 2 * h])))
            with pytest.raises(RankDeficient):
                numerics.mgs_columns(scale * np.vstack([h, 2 * h]).conj().T)

    def test_zero_row_rejected(self):
        h = np.vstack([random_channel(1, 4), np.zeros((1, 4))])
        with pytest.raises(RankDeficient):
            numerics.check_full_rank(rank_inputs(h))
        with pytest.raises(RankDeficient):
            numerics.mgs_columns(h.conj().T)


class TestGramSolve:
    def test_identity_gram(self):
        h = np.hstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        v = np.array([1.0, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(gram_solve(h, v), [1.0, 0.0], atol=1e-12)

    def test_single_row_closed_form(self):
        # With one row, (H H^H) u = H v reduces to u = (row . v)/||row||^2.
        h = random_channel(1, 4)
        v = random_channel(1, 4)[0]
        u = gram_solve(h, v)
        expected = (h[0] @ v) / np.linalg.norm(h[0]) ** 2
        np.testing.assert_allclose(u, [expected], atol=1e-12)

    def test_residual_oracle(self):
        for _ in range(20):
            h = random_channel(3, 5)
            v = random_channel(1, 5)[0]
            u = gram_solve(h, v)
            gram = h @ h.conj().T
            rhs = h @ v
            assert np.linalg.norm(gram @ u - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_rank_deficient(self):
        h = random_channel(1, 4)
        with pytest.raises(RankDeficient):
            gram_solve(np.vstack([h, h]), random_channel(1, 4)[0])


class TestSpecialFunctions:
    def test_beta_identity(self):
        assert abs(beta_function(1.0, 1.5) - 1 / 1.5) < 1e-12

    def test_beta_small_integers(self):
        assert abs(beta_function(2, 3) - 1 / 12) < 1e-14

    def test_beta_large_first_argument(self):
        value = beta_function(256, 1.5)
        expected = float(mpmath.beta(256, 1.5))
        assert 0 < value < 1
        assert abs(value - expected) <= 1e-10 * expected

    def test_beta_huge_argument_stays_finite(self):
        value = beta_function(2.0**16, 1.5)
        assert math.isfinite(value) and value > 0

    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5, 2.0, 3.0, 7.25])
    def test_beta_against_mpmath_up_to_lopsided(self, b):
        # B(2**62, 1.5) is 8.9e-29; lgamma(a) - lgamma(a + b) cancels there.
        with mpmath.workdps(50):
            for e in range(63):
                expected = mpmath.beta(2**e, b)
                assert abs(beta_function(2.0**e, b) - expected) <= 1e-12 * expected, e

    def test_beta_domain(self):
        with pytest.raises(DomainError):
            beta_function(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_function(1.0, -2.0)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_beta_symmetric_as_computed(self, a, b):
        assert beta_function(a, b) == beta_function(b, a)

    def test_binomial_values(self):
        assert binomial(3, 1) == 3
        assert binomial(3, 2) == 3

    def test_binomial_pascal_oracle(self):
        rows = [[1]]
        for n in range(1, 21):
            prev = rows[-1]
            rows.append(
                [1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1]
            )
        for n in range(21):
            for k in range(n + 1):
                assert binomial(n, k) == rows[n][k]

    def test_binomial_domain(self):
        with pytest.raises(DomainError):
            binomial(3, 4)
        with pytest.raises(DomainError):
            binomial(-1, 0)


class TestIncompleteGammaAndExpn:
    """In-package special functions against mpmath, over the arguments the
    fig6 exact-law cdf and the fig9 norm model evaluate."""

    # Below x = 2, E_k comes from E_1 by the upward recurrence, whose
    # cancellation peaks as x nears 2; each grid also holds 2 and the next
    # double, the switch to the continued fraction.
    SWITCH_BAND = np.concatenate([np.linspace(1.5, 2.0, 51), [np.nextafter(2.0, 3.0)]])

    @staticmethod
    def assert_relative(value, expected, tol=1e-13):
        expected = float(expected)
        assert abs(value - expected) <= tol * abs(expected), (value, expected)

    @classmethod
    def assert_ratio(cls, value, expected, tol):
        """Relative, unless the ratio is a subnormal double: then the value
        must not be a normal one."""
        if 0.0 < expected < np.finfo(float).tiny:
            assert value < np.finfo(float).tiny, (value, expected)
        else:
            cls.assert_relative(value, expected, tol)

    @pytest.mark.parametrize(
        "view, oracle, x",
        [
            (
                numerics.gammainc,
                lambda a, x: mpmath.gammainc(a, 0, x, regularized=True),
                np.concatenate([[0.0], np.logspace(-10, np.log10(200.0), 121)]),
            ),
            # exp(-x) underflows past x = 745; Q, at least exp(-x) x^(a-1) / (a-1)!,
            # stays a normal double up to x = 708-736 at these shapes.
            (
                numerics.gammaincc,
                lambda a, x: mpmath.gammainc(a, x, mpmath.inf, regularized=True),
                np.concatenate(
                    [[0.0], np.logspace(-10, np.log10(500.0), 121), np.arange(510.0, 800.0, 10.0), [1000.0, 2000.0]]
                ),
            ),
        ],
        ids=["P", "Q"],
    )
    def test_gamma_ratio_against_mpmath(self, view, oracle, x):
        with mpmath.workdps(40):
            for a in range(1, 7):
                for xi, value in zip(x, view(a, x)):
                    # Past x = 500 the lead exp((a - 1) ln x - x) rounds by about eps x.
                    tol = 1e-13 if xi <= 500.0 else np.finfo(float).eps * xi
                    self.assert_ratio(value, float(oracle(a, mpmath.mpf(xi))), tol)

    def test_expn_against_mpmath(self):
        x = np.concatenate([np.logspace(-8, np.log10(500.0), 161), self.SWITCH_BAND])
        orders = np.arange(1, 8)
        together = numerics.expn(orders, x)
        assert together.shape == (orders.size, x.size)
        for k, row in zip(orders, together):
            alone = numerics.expn(int(k), x)
            for xi, a, b in zip(x, row, alone):
                expected = mpmath.expint(int(k), mpmath.mpf(xi))
                self.assert_relative(a, expected)
                self.assert_relative(b, expected)

    def test_high_orders_against_mpmath(self):
        # sinr_cdf_exact evaluates E_k for k = 1..m and effective_norm_cdf
        # P(m - n, .), so larger antenna counts reach higher orders; m is
        # unbounded, and this covers m up to 33. mpmath's own expint loses
        # digits at large k and x in double precision, hence the extra digits.
        x = np.concatenate([np.logspace(-8, np.log10(500.0), 41), self.SWITCH_BAND])
        orders = np.arange(8, 33)
        with mpmath.workdps(40):
            for k, row in zip(orders, numerics.expn(orders, x)):
                for xi, value in zip(x, row):
                    self.assert_relative(value, mpmath.expint(int(k), mpmath.mpf(xi)))
            for a in range(7, 33):
                # The lower series carries exp(a ln x - x), whose rounding
                # grows with a |ln x|.
                for xi, value in zip(x, numerics.gammainc(a, x)):
                    self.assert_relative(
                        value, mpmath.gammainc(a, 0, mpmath.mpf(xi), regularized=True), tol=2e-13
                    )
                for xi, value in zip(x, numerics.gammaincc(a, x)):
                    self.assert_relative(value, mpmath.gammainc(a, mpmath.mpf(xi), mpmath.inf, regularized=True))

    @pytest.mark.parametrize("a", [100, 800, 5000])
    def test_large_shapes_against_mpmath(self, a):
        # Both sides of the switch at x = a + 1, and past x = 745, where
        # exp(-x) underflows. Each side's lead carries exp(a ln x - x) or
        # exp((a - 1) ln x - x), whose rounding grows with a |ln x|.
        x = np.concatenate(
            [a * np.array([0.8, 0.95, 1.0, 1.05, 1.2, 2.0]), [np.nextafter(a + 1.0, 0.0), a + 1.0, a + 2.0, 750.0]]
        )
        with mpmath.workdps(40):
            for xi, p, q in zip(x, numerics.gammainc(a, x), numerics.gammaincc(a, x)):
                tol = max(2e-13, 2.0 * np.finfo(float).eps * a * math.log(xi))
                self.assert_relative(p, mpmath.gammainc(a, 0, mpmath.mpf(xi), regularized=True), tol=tol)
                self.assert_ratio(q, float(mpmath.gammainc(a, mpmath.mpf(xi), mpmath.inf, regularized=True)), tol)

    @pytest.mark.parametrize("orders", [list(range(1, 9)), list(range(1, 33)), [5, 2], [3], [8]])
    def test_expn_is_pointwise(self, orders):
        # Points on both sides of the switch at x = 2, the batch's smallest
        # x > 2 just above it: each value alone equals its value in the batch.
        rng = np.random.default_rng(sum(orders))
        x = np.concatenate(
            [rng.uniform(1e-3, 2.0, 60), [2.0, np.nextafter(2.0, 3.0)], rng.uniform(2.0, 60.0, 60)]
        )
        batch = numerics.expn(orders, x)
        alone = np.stack([numerics.expn(orders, xi) for xi in x], axis=-1)
        np.testing.assert_array_equal(alone, batch)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_gammainc_is_pointwise(self, a):
        # Points on both sides of the switch at x = a + 1, and just below it,
        # through both views.
        rng = np.random.default_rng(a)
        x = np.concatenate(
            [[0.0], rng.uniform(0.0, a + 1.0, 60), [np.nextafter(a + 1.0, 0.0), a + 1.0], rng.uniform(a + 1.0, 4.0 * a + 20.0, 60)]
        )
        for view in (numerics.gammainc, numerics.gammaincc):
            batch = view(a, x)
            alone = np.array([view(a, xi) for xi in x])
            np.testing.assert_array_equal(alone, batch)

    def test_limits(self):
        assert numerics.gammainc(2, np.inf) == 1.0
        assert numerics.gammaincc(2, np.inf) == 0.0
        assert numerics.gammainc(3, 1e6) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            numerics.gammainc(0, 1.0)
        with pytest.raises(DomainError):
            numerics.gammainc(1.5, 1.0)
        with pytest.raises(DomainError):
            numerics.gammainc(2, -1.0)
        with pytest.raises(DomainError):
            numerics.gammaincc(0, 1.0)
        with pytest.raises(DomainError):
            numerics.gammaincc(2, -1.0)
        with pytest.raises(DomainError):
            numerics.gammaincc(3, -2.0)
        with pytest.raises(DomainError):
            numerics.expn(0, 1.0)
        with pytest.raises(DomainError):
            numerics.expn(2, 0.0)


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, [np.random.default_rng(0)])[0]
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitary(self):
        u = haar_unitary(4, [np.random.default_rng(3)])[0]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), np.ones(4), atol=1e-10)

    def test_deterministic_for_fixed_state(self):
        u1 = haar_unitary(4, [np.random.default_rng(7)])[0]
        u2 = haar_unitary(4, [np.random.default_rng(7)])[0]
        np.testing.assert_array_equal(u1, u2)

    def test_entry_isotropy(self):
        # E|U_11|^2 = 1/M; |U_11|^2 is Beta(1, M-1) so var = (M-1)/(M^2 (M+1)).
        m, draws = 4, 10000
        rng = np.random.default_rng(11)
        samples = np.array([abs(haar_unitary(m, [rng])[0][0, 0]) ** 2 for _ in range(draws)])
        sigma = math.sqrt((m - 1) / (m**2 * (m + 1)) / draws)
        assert abs(samples.mean() - 1 / m) < 3 * sigma


class TestMgsColumns:
    def test_matches_single_matrix_on_stack(self):
        rng = np.random.default_rng(5)
        stack = (rng.standard_normal((6, 4, 2)) + 1j * rng.standard_normal((6, 4, 2))) / np.sqrt(2)
        batched = numerics.mgs_columns(stack)[0]
        for i in range(stack.shape[0]):
            single = numerics.mgs_columns(stack[i])[0]
            np.testing.assert_array_equal(batched[i], single)

    @staticmethod
    def gram_error(q):
        """Spectral norm of ``Q^H Q - I``, slice by slice."""
        eye = np.eye(q.shape[-1])
        return np.linalg.norm(q.conj().swapaxes(-1, -2) @ q - eye, ord=2, axis=(-2, -1))

    def test_equal_rows_give_bit_equal_rows_of_q(self):
        # Each row of Q = a R^-1 is solved from its own row of a. Householder's
        # Q gives the two entries here different last bits, which would break
        # an exact tie between beams.
        q, _ = numerics.mgs_columns(np.array([[1.0, 1.0, 0.0, 0.0]], dtype=complex).T)
        assert q[0, 0] == q[1, 0]
        rng = np.random.default_rng(8)
        stack = (rng.standard_normal((6, 4, 2)) + 1j * rng.standard_normal((6, 4, 2))) / np.sqrt(2)
        stack[:, 2] = stack[:, 0]
        q, _ = numerics.mgs_columns(stack)
        np.testing.assert_array_equal(q[:, 2], q[:, 0])
        for one in stack:
            q, _ = numerics.mgs_columns(one)
            np.testing.assert_array_equal(q[2], q[0])

    def test_factors_gaussian_stacks(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            a = (rng.standard_normal((500, 4, n)) + 1j * rng.standard_normal((500, 4, n))) / np.sqrt(2)
            q, r = numerics.mgs_columns(a)
            assert q.shape == a.shape and r.shape == (500, n, n)
            np.testing.assert_array_equal(np.triu(r), r)
            np.testing.assert_allclose(q @ r, a, rtol=0, atol=1e-12)
            assert self.gram_error(q).max() <= 1e-12

    def test_orthonormal_near_the_rank_threshold(self):
        # Two rows at relative angle 1e-5 (rank ratio 1e-10, above RANK_TOL):
        # solving Q from R loses orthogonality as the rows close up.
        rng = np.random.default_rng(10)
        for _ in range(50):
            h0, d = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
            d -= (h0.conj() @ d) / (h0.conj() @ h0) * h0
            d *= 1e-5 * np.linalg.norm(h0) / np.linalg.norm(d)
            q, _ = numerics.mgs_columns(np.vstack([h0, h0 + d]).conj().T)
            assert self.gram_error(q) <= 1e-9

    def test_r_is_householders_and_a_dependent_slice_fails_the_stack(self):
        rng = np.random.default_rng(11)
        a = (rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))) / np.sqrt(2)
        np.testing.assert_array_equal(numerics.mgs_columns(a)[1], np.linalg.qr(a, mode="r"))
        a[2, :, 1] = 3 * a[2, :, 0]
        with pytest.raises(RankDeficient):
            numerics.mgs_columns(a)


class TestAppendColumn:
    """The factors of ``[a | x]`` from those of ``a``, against
    :func:`numerics.mgs_columns` of the whole stack as the oracle."""

    @staticmethod
    def stack(rng, size, n, m=4):
        a = (rng.standard_normal((size, m, n)) + 1j * rng.standard_normal((size, m, n))) / np.sqrt(2)
        x = (rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m))) / np.sqrt(2)
        return a, x

    @staticmethod
    def appended(a, x):
        q, r = numerics.mgs_columns(a)
        return numerics.append_column(q, r, x)

    @staticmethod
    def near_span(rng, a, angle):
        """A column per slice at relative ``angle`` to the span of ``a``."""
        q = np.linalg.qr(a)[0]
        x = TestAppendColumn.stack(rng, len(a), 1, a.shape[1])[1]
        inside = (q @ (q.conj().swapaxes(-1, -2) @ x[..., None]))[..., 0]
        outside = x - inside
        norm = partial(np.linalg.norm, axis=-1, keepdims=True)
        return inside + outside * (angle * norm(inside) / norm(outside))

    @staticmethod
    def projection(q):
        return q @ q.conj().swapaxes(-1, -2)

    def test_factors_the_stack(self):
        # The partner rows at relative angle 1e-5 need the second pass: one
        # Gram-Schmidt pass leaves Q' about 1e-11 from orthonormal.
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            a, x = self.stack(rng, 200, n)
            for col in (x, self.near_span(rng, a, 1e-5)):
                q, r = self.appended(a, col)
                assert q.shape == (200, 4, n + 1) and r.shape == (200, n + 1, n + 1)
                np.testing.assert_array_equal(np.triu(r), r)
                np.testing.assert_allclose(q @ r, np.concatenate([a, col[..., None]], axis=-1), rtol=0, atol=1e-12)
                assert TestMgsColumns.gram_error(q).max() <= 1e-12

    def test_projections_match_the_oracle(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            a, x = self.stack(rng, 200, n)
            q = self.appended(a, x)[0]
            oracle = numerics.mgs_columns(np.concatenate([a, x[..., None]], axis=-1))[0]
            np.testing.assert_allclose(self.projection(q), self.projection(oracle), rtol=0, atol=1e-12)

    def test_equal_rows_give_bit_equal_rows_of_q(self):
        rng = np.random.default_rng(14)
        a, x = self.stack(rng, 37, 2)
        a[:, 3], x[:, 3] = a[:, 0], x[:, 0]
        q = self.appended(a, x)[0]
        np.testing.assert_array_equal(q[:, 3], q[:, 0])
        for i in (0, 17, 36):
            np.testing.assert_array_equal(self.appended(a[i : i + 1], x[i : i + 1])[0][0], q[i])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_rank_rule_at_any_scale(self, n, scale):
        rng = np.random.default_rng(15)
        a, x = self.stack(rng, 20, n)
        q, r = self.appended(scale * a, scale * x)
        np.testing.assert_allclose(q, self.appended(a, x)[0], rtol=0, atol=1e-12)
        in_span = x.copy()
        in_span[7] = a[7] @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        with pytest.raises(RankDeficient):
            self.appended(scale * a, scale * in_span)

    @pytest.mark.parametrize("lead", [(1,), (7,), (3, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_new_column_matches_the_division_form(self, lead, n, scale):
        rng = np.random.default_rng(16 + n)
        a, x = (scale * part.reshape(lead + part.shape[1:]) for part in self.stack(rng, math.prod(lead), n))
        q, r = numerics.mgs_columns(a)
        q_new, r_new = numerics.append_column(q, r, x)
        c = np.einsum("...in,...i->...n", q.conj(), x)
        res = x - np.einsum("...in,...n->...i", q, c)
        res -= np.einsum("...in,...n->...i", q, np.einsum("...in,...i->...n", q.conj(), res))
        rho = np.sqrt(np.sum(res.real**2 + res.imag**2, axis=-1))
        assert q_new[..., -1].tobytes() == (res / rho[..., None]).tobytes()
        assert q_new[..., :-1].tobytes() == q.tobytes() and r_new[..., n, n].tobytes() == rho.astype(complex).tobytes()


class TestRealDiagonal:
    """R's diagonal is complex in type and real in value: its imaginary
    parts are exactly +0.0, LAPACK's Householder beta from
    :func:`numerics.mgs_columns` and the residual norm rho from
    :func:`numerics.append_column`. A solve that divides by the diagonal's
    real part alone would rest on this."""

    @staticmethod
    def assert_real_diagonal(r):
        imag = np.diagonal(r, axis1=-2, axis2=-1).imag
        assert not imag.any() and not np.signbit(imag).any()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_on_one_channel_and_on_stacks(self, n):
        rng = np.random.default_rng(30 + n)
        a, x = TestAppendColumn.stack(rng, 500, n)
        for one_or_stack in (np.s_[0], np.s_[:]):
            q, r = numerics.mgs_columns(a[one_or_stack])
            self.assert_real_diagonal(r)
            self.assert_real_diagonal(numerics.append_column(q, r, x[one_or_stack])[1])


class TestRankThreshold:
    """The rank rule on both sides of ``RANK_TOL``, two rows at rank ratio
    ``det(H H^H) / prod ||h_i||^2`` of 1e-11 and 1e-13, the ratio checked by
    numpy's determinant at unit scale, through both factorisations at any
    scale."""

    @staticmethod
    def rows(ratio):
        rng = np.random.default_rng(40)
        h0, d = random_channel(2, 4, rng)
        d -= (h0.conj() @ d) / (h0.conj() @ h0) * h0
        d *= np.sqrt(ratio / (1.0 - ratio)) * np.linalg.norm(h0) / np.linalg.norm(d)
        h = np.vstack([h0, h0 + d])
        oracle = np.linalg.det(h @ h.conj().T).real / np.prod(np.linalg.norm(h, axis=1) ** 2)
        assert oracle == pytest.approx(ratio, rel=0.05)
        return h

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("ratio, accepted", [(1e-11, True), (1e-13, False)])
    def test_accepts_above_and_refuses_below(self, ratio, accepted, scale):
        a = scale * self.rows(ratio).conj().T
        q, r = numerics.mgs_columns(a[:, :1])
        for factor in (lambda: numerics.mgs_columns(a), lambda: numerics.append_column(q, r, a[:, 1])):
            if accepted:
                factor()
            else:
                with pytest.raises(RankDeficient):
                    factor()


class TestRealScaling:
    """numpy divides a complex array by a real one as by ``d + 0j``, with
    Smith's algorithm: ``rat = 0`` and ``scl = 1/d``, so the quotient is the
    product with the reciprocal, bit for bit, for any component but an
    exact -0.0. coopfb's draws and QBC stage rely on that identity to scale
    by reciprocals with the bits of a division; a numpy whose complex
    division changes fails here by name."""

    @pytest.mark.parametrize("size", [1, 3, 7, 8, 9, 17, 64, 1001])
    @pytest.mark.parametrize("exponent", [-100, 0, 100])
    def test_complex_over_real_is_the_product_with_the_reciprocal(self, size, exponent):
        rng = np.random.default_rng(1000 * size + exponent + 100)
        x = (rng.standard_normal((size, 2)) * 10.0 ** rng.integers(-150, 150, (size, 2))).view(complex)[:, 0]
        d = rng.uniform(0.5, 2.0, size) * 10.0**exponent * rng.choice([-1.0, 1.0], size)
        want = (x / d).tobytes()
        assert (x * (1.0 / d)).tobytes() == want
        assert (x.view(np.float64).reshape(size, 2) * (1.0 / d)[:, None]).tobytes() == want
        inplace = x.copy()
        inplace *= 1.0 / d
        assert inplace.tobytes() == want
        assert (x / d[0]).tobytes() == (x * (1.0 / d[0])).tobytes()
        assert (x[:, None] / d).tobytes() == (x[:, None] * (1.0 / d)).tobytes()  # broadcast, odd tails


class TestSolveTriangular:
    """Substitution against ``np.linalg.solve`` as the oracle."""

    @staticmethod
    def triangular_stack(rng, size, n, lower):
        t = (rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))) / np.sqrt(2)
        t = np.tril(t) if lower else np.triu(t)
        t[:, np.arange(n), np.arange(n)] += 2.0  # well away from singular
        return t

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("p", [1, 4])
    def test_matches_linalg_solve(self, n, lower, p):
        rng = np.random.default_rng(100 * n + 10 * lower + p)
        t = self.triangular_stack(rng, 50, n, lower)
        b = (rng.standard_normal((50, n, p)) + 1j * rng.standard_normal((50, n, p))) / np.sqrt(2)
        x = numerics.solve_triangular(t, b, lower=lower)
        assert x.shape == b.shape
        np.testing.assert_allclose(x, np.linalg.solve(t, b), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("lower", [False, True])
    def test_reads_only_its_triangle(self, lower):
        rng = np.random.default_rng(21)
        t = self.triangular_stack(rng, 8, 4, lower)
        b = rng.standard_normal((8, 4, 2)) + 0j
        filled = t + (np.triu(np.ones((4, 4)), 1) if lower else np.tril(np.ones((4, 4)), -1))
        np.testing.assert_array_equal(
            numerics.solve_triangular(filled, b, lower=lower), numerics.solve_triangular(t, b, lower=lower)
        )

    @pytest.mark.parametrize("lower", [False, True])
    def test_slices_and_columns_solve_alone(self, lower):
        rng = np.random.default_rng(22)
        t = self.triangular_stack(rng, 12, 4, lower)
        b = (rng.standard_normal((12, 4, 3)) + 1j * rng.standard_normal((12, 4, 3))) / np.sqrt(2)
        b[:, :, 2] = b[:, :, 0]
        x = numerics.solve_triangular(t, b, lower=lower)
        np.testing.assert_array_equal(x[:, :, 2], x[:, :, 0])
        for i in range(len(t)):
            np.testing.assert_array_equal(x[i], numerics.solve_triangular(t[i], b[i], lower=lower))
            np.testing.assert_array_equal(x[i, :, 1:2], numerics.solve_triangular(t[i], b[i, :, 1:2], lower=lower))

    def test_leaves_its_input_alone(self):
        t = np.array([[2.0, 1.0], [0.0, 4.0]], dtype=complex)
        b = np.array([[1.0], [2.0]], dtype=complex)
        np.testing.assert_array_equal(numerics.solve_triangular(t, b), [[0.25], [0.5]])
        np.testing.assert_array_equal(b, [[1.0], [2.0]])
