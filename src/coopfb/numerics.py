"""Small dense complex linear algebra and real special functions.

Matrices and vectors are plain numpy arrays (complex128). Everything here
operates on tiny dimensions (a handful of antennas), so the routines favour
numerical transparency over asymptotic speed. The one QR,
:func:`mgs_columns`, accepts stacked inputs ``(..., m, n)`` and applies the
one rank rule, :func:`check_full_rank`, to its Householder R factor;
``as_channel`` checks one channel where the per-user API takes it in.
"""

from __future__ import annotations

import math

import numpy as np

# Relative rank tolerance on prod |R_ii|^2 / prod ||h_i||^2 for H^H = QR,
# which is det(G) / prod(G_ii) for the Gram matrix G = H H^H and unchanged
# when the channel is scaled. Gaussian channels are almost surely full rank;
# hitting this triggers resampling upstream.
RANK_TOL = 1e-12
# Minimum norm of a subspace projection before it counts as degenerate.
PROJECTION_TOL = 1e-12


class RankDeficient(ValueError):
    """A channel matrix (or its Gram matrix) is numerically rank deficient."""


class DegenerateProjection(ValueError):
    """A codeword is numerically orthogonal to the target subspace."""


class DomainError(ValueError):
    """A special-function argument lies outside the supported domain."""


def as_channel(h) -> np.ndarray:
    """One finite channel matrix ``(n, m)``, n <= m, as complex128."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={h.ndim}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    if h.shape[0] > h.shape[1]:
        raise ValueError(f"need row count <= column count, got {h.shape[0]}x{h.shape[1]}")
    return h


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def mgs_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, R)`` with ``a = QR`` for a stack ``(..., m, n)``, n <= m: Q has
    orthonormal columns spanning those of ``a``, slice by slice, and R is
    upper triangular.

    R is Householder's, and :func:`check_full_rank` refuses a stack that
    fails the rank rule on its diagonal before anything is divided by it.
    Q is solved as ``a R^-1``, one row of ``a`` at a time, so equal rows of
    ``a`` give bit-equal rows of Q; Householder's own Q does not, and would
    break exact ties between beams. The name is the one the benchmark's
    tracer wraps.
    """
    a = np.asarray(a, dtype=np.complex128)
    r = np.linalg.qr(a, mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    check_full_rank(diag.real**2 + diag.imag**2, np.sum(a.real**2 + a.imag**2, axis=-2))
    q = np.linalg.solve(r.swapaxes(-1, -2), a.swapaxes(-1, -2))  # Q^T = R^-T a^T
    return q.swapaxes(-1, -2), r


def gram_matrix(h: np.ndarray) -> np.ndarray:
    """H H^H for a stack of row-major channel matrices ``(..., n, m)``."""
    return h @ np.conj(np.swapaxes(h, -1, -2))


def check_full_rank(r_diag2: np.ndarray, row_norm2: np.ndarray) -> None:
    """Raise :class:`RankDeficient` unless every slice of the stacks
    ``(..., n)`` of squared R diagonals of ``H^H = QR`` and squared row
    norms of ``H`` has ``prod |R_ii|^2 / prod ||h_i||^2`` above ``RANK_TOL``.

    The ratio is ``det(G) / prod(G_ii)`` for ``G = H H^H``: in [0, 1] and
    independent of the scale of the rows.
    """
    ratio_ok = np.prod(r_diag2, axis=-1) > RANK_TOL * np.prod(row_norm2, axis=-1)
    # Negated strict test, so a zero row (0 > 0) and NaN fail too.
    if not ratio_ok.all():
        raise RankDeficient("channel rows numerically dependent")


def orthonormal_basis(h) -> np.ndarray:
    """Orthonormal basis of the subspace spanned by the conjugated rows of ``h``.

    Returns an ``m x n`` matrix with orthonormal columns whose span equals the
    column span of ``h^H`` (the receive subspace a combiner can steer within).
    Raises :class:`RankDeficient` when the rows fail :func:`check_full_rank`.
    """
    return mgs_columns(as_channel(h).conj().T)[0]


def gram_solve(h, v) -> np.ndarray:
    """Solve ``(H H^H) u = H v`` for the unnormalised combiner ``u`` of one
    channel, after the rank rule."""
    h = as_channel(h)
    mgs_columns(h.conj().T)
    return np.linalg.solve(gram_matrix(h), h @ _as_vector(v))


def ln_beta(a: float, b: float) -> float:
    """ln B(a, b), symmetric in its arguments as computed.

    Up to a larger argument of 1024 (a 10-bit codebook) it is the lgamma
    difference, good to about 1e-12. Past it, lgamma(a) - lgamma(a + b)
    cancels ever more digits, so there that difference is Stirling's series
    with log1p, good to about 1e-14 as far as ``a = 2**62``.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"ln_beta requires positive arguments, got ({a}, {b})")
    a, b = max(a, b), min(a, b)
    if a <= 1024.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    c = a + b
    return math.lgamma(b) - b * math.log(a) - (c - 0.5) * math.log1p(b / a) + b + (1.0 / a - 1.0 / c) / 12.0


def beta_function(a: float, b: float) -> float:
    """Beta function B(a, b), as the exponential of :func:`ln_beta`."""
    return math.exp(ln_beta(a, b))


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k)."""
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"binomial requires 0 <= k <= n, got ({n}, {k})")
    return math.comb(n, k)


_EPS = np.finfo(float).eps
_EULER = 0.5772156649015329
_MAX_TERMS = 500


def gammaincc(a: int, x) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x) for an integer shape a >= 1.

    For integer shapes Q(a, x) = exp(-x) * sum_{j<a} x^j / j!, a finite sum
    of positive terms, so it is accurate wherever it is not rounded to 1.
    """
    if int(a) != a or a < 1:
        raise DomainError(f"gammaincc needs an integer shape >= 1, got {a}")
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        term = np.exp(-x)
        total = term.copy()
        for j in range(1, int(a)):
            term = term * x / j
            total += term
    return np.where(np.isposinf(x), 0.0, total)


def gammainc(a: int, x) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) for an integer shape a >= 1.

    Below x = a + 1 the series P = exp(-x) x^a / a! * sum_i x^i / ((a+1)...(a+i))
    avoids the cancellation of 1 - Q; above it, 1 - Q is exact to rounding.
    """
    if int(a) != a or a < 1:
        raise DomainError(f"gammainc needs an integer shape >= 1, got {a}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("gammainc needs x >= 0")
    low = x < a + 1.0
    xs = np.where(low, x, 0.0)
    term = np.ones_like(xs)
    series = np.ones_like(xs)
    for i in range(1, _MAX_TERMS):
        term = term * xs / (a + i)
        series += term
        if np.all(term <= _EPS * series):
            break
    lead = np.exp(a * np.log(np.where(xs > 0.0, xs, 1.0)) - xs - math.lgamma(a + 1.0))
    lower = np.where(xs > 0.0, lead * series, 0.0)
    return np.where(low, lower, 1.0 - gammaincc(a, np.where(low, a + 1.0, x)))


def expn(k, x) -> np.ndarray:
    """Generalised exponential integral E_k(x) = int_1^inf exp(-x t) t^(-k) dt
    for x > 0 and integer orders k >= 1.

    ``k`` is one order or a 1-D sequence of them; the result has shape
    ``shape(k) + shape(x)``, so one call evaluates several orders. Power
    series for x <= 2 and the continued fraction for x > 2 (the two
    classical expansions of E_k). The series' alternating terms cost at
    most a factor e^(2x) of rounding, and the fraction needs fewer levels
    the larger x is, so the switch sits at 2 rather than the usual 1.
    """
    orders = np.atleast_1d(np.asarray(k))
    if orders.ndim != 1 or np.any(orders < 1) or np.any(orders != np.floor(orders)):
        raise DomainError(f"expn needs integer orders >= 1, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0.0)):
        raise DomainError("expn needs x > 0")
    flat = x.ravel()
    kcol = orders.astype(float)[:, None]
    kmax = int(orders.max())
    out = np.empty((orders.size, flat.size))

    small = flat <= 2.0
    if small.any():
        xs = flat[small]
        log_x = np.log(xs)
        # psi(k) = -gamma + H_(k-1), the coefficient of the log term.
        psi = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, kmax))])[orders - 1] - _EULER
        total = np.where(kcol > 1, 1.0 / np.maximum(kcol - 1, 1), -log_x - _EULER)
        # E_k(x) > exp(-x) / (x + k), so terms below this are negligible.
        floor = _EPS * math.exp(-2.0) / (2.0 + kmax)
        fact = np.ones_like(xs)
        for i in range(1, _MAX_TERMS):
            fact *= -xs / i
            denom = i - kcol + 1.0
            log_row = denom == 0.0
            total -= np.where(log_row, 0.0, 1.0 / np.where(log_row, 1.0, denom)) * fact
            for r in np.flatnonzero(log_row[:, 0]):
                total[r] += fact * (psi[r] - log_x)
            if i >= kmax - 1 and np.abs(fact).max() <= floor:
                break
        out[:, small] = total

    if not small.all():
        xl = flat[~small]
        # E_k(x) = exp(-x) / (x + k - 1*k / (x + k + 2 - 2*(k+1) / (x + k + 4 - ...))),
        # evaluated bottom-up. Its convergence is slowest at small x and
        # large k; this depth reaches full double precision for x > 1
        # (the tests check orders up to 32 against mpmath).
        depth = int(math.ceil(100.0 / xl.min())) + 20 + kmax
        denom = xl + kcol + 2.0 * (depth + 1)
        tail = np.zeros_like(denom)
        for i in range(depth, 0, -1):
            denom -= 2.0
            np.add(denom, tail, out=tail)
            np.divide(-i * (kcol - 1.0 + i), tail, out=tail)
        out[:, ~small] = np.exp(-xl) / (denom - 2.0 + tail)
    return out.reshape(np.shape(k) + x.shape)


def haar_unitary(m: int, rng) -> np.ndarray:
    """Haar-distributed ``m x m`` unitary matrix.

    QR of a complex Ginibre draw with the R-diagonal phase correction, which
    makes the distribution exactly rotation invariant. ``rng`` is one
    generator, or a sequence of them for a stack ``(b, m, m)`` taken through
    one QR; each generator draws its real part before its imaginary part,
    so slice ``i`` is exactly what ``rng[i]`` alone gives.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    block = not hasattr(rng, "standard_normal")
    gens = rng if block else [rng]
    parts = np.empty((2, len(gens), m, m))
    for i, gen in enumerate(gens):
        parts[0, i] = gen.standard_normal((m, m))
        parts[1, i] = gen.standard_normal((m, m))
    q, r = np.linalg.qr((parts[0] + 1j * parts[1]) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[:, None, :]
    return q if block else q[0]
