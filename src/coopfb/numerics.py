"""Small dense complex linear algebra and real special functions.

Matrices and vectors are plain numpy arrays (complex128). Everything here
operates on tiny dimensions (a handful of antennas), so the routines favour
numerical transparency over asymptotic speed. The one QR entry,
:func:`mgs_columns`, accepts stacked inputs ``(..., m, n)``, applies the
one rank rule, :func:`check_full_rank`, to its Householder R factor and
solves the basis Q on it; :func:`append_column` extends both factors by one
column under the same rule, and every solve on R is a substitution over the
whole stack, :func:`solve_triangular`.
``as_channel`` and ``check_snr`` check one channel and one SNR where the
per-user API takes them in.

A complex array is scaled by a real factor ``d`` as ``x * (1.0 / d)``, never
``x / d``: numpy divides by ``d + 0j`` with Smith's algorithm, which gives
the same bits (but on a -0.0 component) at several times the cost. R's
diagonal is complex in type but real in value; a solve on it still divides.

The special functions are pointwise: :func:`expn` and :func:`gammainc` run
each series and fraction to a length fixed by the orders alone, never by
the batch's data, so a point's value is the same alone as in any batch.
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


def check_snr(rho) -> None:
    """Refuse a linear SNR that is not positive and finite (NaN included),
    by plain float comparisons, which cost little on every per-user call."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"need a positive finite SNR, got rho={rho}")


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
    upper triangular with a real diagonal.

    R is Householder's, and :func:`check_full_rank` accepts it before
    anything is divided by its diagonal. Q is solved as ``a R^-1`` by
    :func:`solve_triangular`, one row of ``a`` at a time, so equal rows of
    ``a`` give bit-equal rows of Q; Householder's own Q does not, and would
    break exact ties between beams. The name is the one perfbench wraps.
    """
    a = np.asarray(a, dtype=np.complex128)
    r = np.linalg.qr(a, mode="r")
    check_full_rank(r)
    q = solve_triangular(r.swapaxes(-1, -2), a.swapaxes(-1, -2), lower=True)  # Q^T = R^-T a^T
    return q.swapaxes(-1, -2), r


def append_column(q: np.ndarray, r: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q', R')`` with ``[a | x] = Q'R'`` for a stack ``a = QR``: Q
    ``(..., m, n)`` with orthonormal columns, R ``(..., n, n)`` and the new
    columns ``x`` ``(..., m)``.

    Classical Gram-Schmidt with one reorthogonalisation pass, which keeps Q'
    orthonormal to rounding however close ``x`` lies to the span of ``a``
    (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976). R' takes the
    residual's norm ``rho``, real, as its new diagonal entry, and
    :func:`check_full_rank` accepts R' before ``rho`` divides the residual.
    Each entry of the new column is a sum of products over its own row of
    Q, in the same order for every row and without BLAS, so equal rows of
    ``[a | x]`` give bit-equal rows of Q', as in :func:`mgs_columns`.
    """
    qh = q.conj()
    c = np.einsum("...in,...i->...n", qh, x)  # Q^H x
    res = x - np.einsum("...in,...n->...i", q, c)
    c2 = np.einsum("...in,...i->...n", qh, res)
    res -= np.einsum("...in,...n->...i", q, c2)
    n, rho = r.shape[-1], np.sqrt(np.sum(res.real**2 + res.imag**2, axis=-1))
    r_new = np.zeros(r.shape[:-2] + (n + 1, n + 1), dtype=np.complex128)
    r_new[..., :n, :n], r_new[..., :n, n], r_new[..., n, n] = r, c + c2, rho
    check_full_rank(r_new)
    return np.concatenate([q, (res * (1.0 / rho)[..., None])[..., None]], axis=-1), r_new


def solve_triangular(t: np.ndarray, b: np.ndarray, lower: bool = False) -> np.ndarray:
    """``T^-1 B`` for a stack of triangular matrices ``t`` ``(..., n, n)``
    and of right-hand columns ``b`` ``(..., n, p)``, leading axes broadcast.

    One update per column of ``T``, elementwise over the stack and the
    right-hand columns, so each column of each slice is solved on its own:
    for tiny matrices this beats one LAPACK call per matrix. Only the
    triangle named by ``lower`` is read; its diagonal must be nonzero.
    """
    n = t.shape[-1]
    x = np.array(b, dtype=np.complex128)
    for j in range(n) if lower else range(n - 1, -1, -1):
        xj = x[..., j : j + 1, :]
        xj /= t[..., j : j + 1, j : j + 1]
        if lower and j + 1 < n:
            x[..., j + 1 :, :] -= t[..., j + 1 :, j : j + 1] * xj
        elif not lower and j:
            x[..., :j, :] -= t[..., :j, j : j + 1] * xj
    return x


def gram_matrix(h: np.ndarray) -> np.ndarray:
    """H H^H for a stack of row-major channel matrices ``(..., n, m)``."""
    return h @ np.conj(np.swapaxes(h, -1, -2))


def check_full_rank(r: np.ndarray) -> None:
    """Raise :class:`RankDeficient` unless every slice of the stack
    ``(..., n, n)`` of R factors of ``H^H = QR``, zero below the diagonal,
    has ``prod |R_jj|^2 / prod ||R_:j||^2`` above ``RANK_TOL``.

    R's column norms are those of ``H^H``, so the ratio is ``det(G) /
    prod(G_ii)`` for ``G = H H^H``, in [0, 1]; as a product of per-column
    ratios it stays in range at any scale of the rows.
    """
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    # einsum sums each column in one pass; a sum over the short middle axis runs row by row.
    col_norm2 = np.einsum("...ij,...ij->...j", r, r.conj()).real
    with np.errstate(invalid="ignore"):  # a zero column's 0/0 is NaN, which the negated strict test fails
        ratio_ok = np.prod((diag.real**2 + diag.imag**2) / col_norm2, axis=-1) > RANK_TOL
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
    r = mgs_columns(h.conj().T)[1]  # H H^H = R^H R
    y = solve_triangular(r.conj().T, (h @ _as_vector(v))[:, None], lower=True)
    return solve_triangular(r, y)[:, 0]


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
    The series runs, for every x, the terms it needs at x = a + 1, where its
    terms fall slowest, so each value depends on its own argument alone.
    """
    if int(a) != a or a < 1:
        raise DomainError(f"gammainc needs an integer shape >= 1, got {a}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("gammainc needs x >= 0")
    terms, top, top_sum = _MAX_TERMS - 1, 1.0, 1.0
    for i in range(1, _MAX_TERMS):
        top = top * (a + 1.0) / (a + i)
        top_sum += top
        if top <= _EPS * top_sum:
            terms = i
            break
    low = x < a + 1.0
    xs = np.where(low, x, 0.0)
    term = np.ones_like(xs)
    series = np.ones_like(xs)
    for i in range(1, terms + 1):
        term = term * xs / (a + i)
        series += term
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
    the larger x is, so the switch sits at 2 rather than the usual 1. Both
    run the length x = 2 needs for the largest order at every x, so each
    value depends on its own argument and the orders alone.
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
        # E_k(x) > exp(-x) / (x + k), so terms below this are negligible;
        # |x^i / i!| reaches it last at x = 2.
        floor = _EPS * math.exp(-2.0) / (2.0 + kmax)
        terms, top = _MAX_TERMS - 1, 1.0
        for i in range(1, _MAX_TERMS):
            top *= 2.0 / i
            if i >= kmax - 1 and top <= floor:
                terms = i
                break
        # Term i of order k carries 1 / (i - k + 1), but for i = k - 1, the
        # row's log term.
        denom = np.arange(1, terms + 1)[:, None, None] - kcol + 1.0
        log_row = denom == 0.0
        coefs = np.where(log_row, 0.0, 1.0 / np.where(log_row, 1.0, denom))
        log_rows = {}
        for row, order in enumerate(orders.tolist()):
            log_rows.setdefault(order - 1, []).append(row)
        neg_x = -xs
        fact = np.ones_like(xs)
        for i in range(1, terms + 1):
            fact *= neg_x / i
            total -= coefs[i - 1] * fact
            if i in log_rows:
                rows = log_rows[i]
                total[rows] += fact * (psi[rows, None] - log_x)
        out[:, small] = total

    if not small.all():
        xl = flat[~small]
        # E_k(x) = exp(-x) / (x + k - 1*k / (x + k + 2 - 2*(k+1) / (x + k + 4 - ...))),
        # evaluated bottom-up. Its convergence is slowest at small x and
        # large k: ceil(100 / x) + 20 + k levels reach full double precision
        # for x > 1 (the tests check orders up to 32 against mpmath), and
        # every x > 2 runs the 70 + kmax that x = 2 needs.
        levels = np.arange(70.0 + kmax, 0.0, -1.0)[:, None, None]
        numerators = -levels * (kcol - 1.0 + levels)
        denom = xl + kcol + 2.0 * (levels.size + 1)
        tail = np.zeros_like(denom)
        for numerator in numerators:
            denom -= 2.0
            np.add(denom, tail, out=tail)
            np.divide(numerator, tail, out=tail)
        out[:, ~small] = np.exp(-xl) / (denom - 2.0 + tail)
    return out.reshape(np.shape(k) + x.shape)


def haar_unitary(m: int, gens) -> np.ndarray:
    """Stack ``(len(gens), m, m)`` of Haar-distributed unitary matrices, one
    per generator of the sequence ``gens``.

    QR of a complex Ginibre draw with the R-diagonal phase correction, which
    makes the distribution exactly rotation invariant. The stack is taken
    through one QR; each generator draws its real part before its imaginary
    part, so slice ``i`` is exactly what ``[gens[i]]`` alone gives.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    parts = np.empty((2, len(gens), m, m))
    for i, gen in enumerate(gens):
        parts[0, i] = gen.standard_normal((m, m))
        parts[1, i] = gen.standard_normal((m, m))
    parts *= 1.0 / np.sqrt(2.0)
    q, r = np.linalg.qr(parts[0] + 1j * parts[1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag * (1.0 / np.abs(diag)))[:, None, :]
    return q
