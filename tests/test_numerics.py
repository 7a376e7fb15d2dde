import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfb import numerics
from coopfb.numerics import (
    DomainError,
    RankDeficient,
    beta_function,
    binomial,
    gram_solve,
    haar_unitary,
    orthonormal_basis,
)

RNG = np.random.default_rng(1234)


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
    """``check_full_rank``'s arguments for the rows of ``h``: the squared R
    diagonal of ``H^H = QR`` by Householder QR, and the squared row norms."""
    r = np.linalg.qr(h.conj().T, mode="r")
    return np.abs(np.diag(r)) ** 2, np.sum(np.abs(h) ** 2, axis=1)


class TestScaleRelativeRank:
    def test_scaled_channels_pass_the_rank_checks(self):
        h = random_channel(3, 4, np.random.default_rng(0))
        v = random_channel(1, 4, np.random.default_rng(1))[0]
        for scale in (1e-3, 1e3):
            numerics.check_full_rank(*rank_inputs(scale * h))
            np.testing.assert_allclose(orthonormal_basis(scale * h), orthonormal_basis(h), atol=1e-12)
            np.testing.assert_allclose(gram_solve(scale * h, v) * scale, gram_solve(h, v), rtol=1e-10)

    def test_parallel_rows_rejected_at_any_scale(self):
        h = random_channel(1, 4)
        for scale in (1e-6, 1.0, 1e6):
            with pytest.raises(RankDeficient):
                numerics.check_full_rank(*rank_inputs(scale * np.vstack([h, 2 * h])))
            with pytest.raises(RankDeficient):
                numerics.mgs_columns(scale * np.vstack([h, 2 * h]).conj().T)

    def test_zero_row_rejected(self):
        h = np.vstack([random_channel(1, 4), np.zeros((1, 4))])
        with pytest.raises(RankDeficient):
            numerics.check_full_rank(*rank_inputs(h))
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

    @staticmethod
    def assert_relative(value, expected, tol=1e-13):
        expected = float(expected)
        assert abs(value - expected) <= tol * abs(expected), (value, expected)

    def test_gammainc_against_mpmath(self):
        x = np.concatenate([[0.0], np.logspace(-10, np.log10(200.0), 121)])
        for a in range(1, 7):
            values = numerics.gammainc(a, x)
            assert values[0] == 0.0
            for xi, value in zip(x[1:], values[1:]):
                self.assert_relative(value, mpmath.gammainc(a, 0, mpmath.mpf(xi), regularized=True))

    def test_gammaincc_against_mpmath(self):
        x = np.logspace(-10, np.log10(500.0), 121)
        for a in range(1, 7):
            for xi, value in zip(x, numerics.gammaincc(a, x)):
                self.assert_relative(value, mpmath.gammainc(a, mpmath.mpf(xi), mpmath.inf, regularized=True))

    def test_expn_against_mpmath(self):
        x = np.logspace(-8, np.log10(500.0), 161)
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
        x = np.logspace(-8, np.log10(500.0), 41)
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
            numerics.expn(0, 1.0)
        with pytest.raises(DomainError):
            numerics.expn(2, 0.0)


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, np.random.default_rng(0))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitary(self):
        u = haar_unitary(4, np.random.default_rng(3))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), np.ones(4), atol=1e-10)

    def test_deterministic_for_fixed_state(self):
        u1 = haar_unitary(4, np.random.default_rng(7))
        u2 = haar_unitary(4, np.random.default_rng(7))
        np.testing.assert_array_equal(u1, u2)

    def test_entry_isotropy(self):
        # E|U_11|^2 = 1/M; |U_11|^2 is Beta(1, M-1) so var = (M-1)/(M^2 (M+1)).
        m, draws = 4, 10000
        rng = np.random.default_rng(11)
        samples = np.array([abs(haar_unitary(m, rng)[0, 0]) ** 2 for _ in range(draws)])
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
