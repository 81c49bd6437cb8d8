"""Symmetric and Toeplitz matrix kernel, in numpy alone.

Builds the dense Toeplitz covariance matrix and the columns of its banded
and circulant variants used by the asymptotic-equivalence arguments, and
exposes the checked Cholesky factor and the values-only symmetric-definite
(pencil) eigensolve.  The pencil (M, B) is solved through the lower
Cholesky factors M = Lm Lm^T and B = Lb Lb^T: its eigenvalues are those of
X X^T with X = Lb^-1 Lm.  `pencil_eigvals` takes the factors its caller
has already checked, so B is factored once.

A symmetric Toeplitz matrix is also handled through its lags alone, in O(n)
memory: the Levinson-Durbin recursion gives its log-determinant and its
predictor, the Gohberg-Semencul formula turns the predictor into the
diagonal sums of the inverse, and its weak and strong norms come from a sum
over lags and from a short Lanczos loop (no ARPACK) on an FFT
matrix-vector product.  The leading n x n block of the matrix of N lags is
the matrix of the first n, so one recursion at the largest n serves a
whole list of n: `levinson`'s `orders` hands back each one's predictor.
"""

from __future__ import annotations

import numpy as np
# numpy loads its fft and random modules on first use; importing them with
# the package keeps that cost out of the first computation.
import numpy.fft
import numpy.random
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import (
    InvalidDimensionError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)

# The one positive-definiteness rule: the least pivot of the triangular
# factorization (Cholesky's L_kk^2, Levinson's E_k) must exceed PD_RTOL times
# the largest diagonal entry.  As lambda_min <= every pivot and every diagonal
# entry <= lambda_max, it rejects no matrix that lambda_min > PD_RTOL *
# lambda_max accepts.
PD_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
# `strong_norm_toeplitz` raises past this many Lanczos steps; shift-inverted,
# it converges in under ten.
_LANCZOS_STEPS = 64


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return 0.5 * (M + M^T), enforcing exact symmetry."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def _check_square_finite(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalFailureError("matrix has non-finite entries")
    return m


def _symmetric_toeplitz(col: np.ndarray) -> np.ndarray:
    """The matrix with entry (i, j) = col[|i - j|]: row i of the result is
    the window of (col[n-1], ..., col[1], col[0], ..., col[n-1]) at n-1-i."""
    n = col.size
    return sliding_window_view(np.concatenate((col[:0:-1], col)), n)[::-1].copy()


def toeplitz_from_cov(cov, n: int) -> np.ndarray:
    """Toeplitz covariance matrix with entry (i, j) = K[|i - j|]."""
    if n < 1:
        raise InvalidDimensionError(f"n must be >= 1, got {n}")
    return _symmetric_toeplitz(cov.k(np.arange(n)))


def banded_column(cov, n: int) -> np.ndarray:
    """First column of the banded matrix: lags at or beyond floor(n/2)+1 zeroed."""
    if n < 3:
        raise InvalidDimensionError(f"n must be >= 3, got {n}")
    n_hat = n // 2 + 1
    col = cov.k(np.arange(n))
    col[n_hat:] = 0.0
    return col


def circulant_column(cov, n: int) -> np.ndarray:
    """First column of the symmetric circulant completion: K[min(j, n - j)].

    Lags 0..floor(n/2) are kept and wrapped back down; this reproduces the
    even-n and odd-n templates (for even n the lag floor(n/2) appears once,
    for odd n twice).
    """
    if n < 3:
        raise InvalidDimensionError(f"n must be >= 3, got {n}")
    j = np.arange(n)
    return cov.k(np.minimum(j, n - j))


def _check_pencil(m: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m, b = _check_square_finite(m), _check_square_finite(b)
    if m.shape != b.shape:
        raise InvalidDimensionError(f"pencil shapes differ: {m.shape} vs {b.shape}")
    return m, b


def _pencil_matrix(factor_m: np.ndarray, factor_b: np.ndarray) -> np.ndarray:
    """X X^T with X = Lb^-1 Lm, which is Lb^-1 M Lb^-T: its eigenvalues are
    those of the pencil (M, B), and its eigenvectors U give the pencil's
    B-orthonormal ones as Lb^-T U."""
    factor_m, factor_b = _check_pencil(factor_m, factor_b)
    x = np.linalg.solve(factor_b, factor_m)
    return x @ x.T


def pencil_eigvals(factor_m: np.ndarray, factor_b: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the symmetric-definite pencil (M, B), from
    the lower Cholesky factors Lm and Lb of M = Lm Lm^T and B = Lb Lb^T."""
    try:
        return np.linalg.eigvalsh(_pencil_matrix(factor_m, factor_b))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigen-decomposition failed: {exc}") from exc


def _check_pivots(least: float, diagonal: float, what: str) -> None:
    """Raise unless the least pivot exceeds PD_RTOL * the largest diagonal entry."""
    if not least > PD_RTOL * diagonal:
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite: least pivot {least:.3e}, "
            f"largest diagonal entry {diagonal:.3e}"
        )


def cholesky(m: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor L (M = L L^T) of a symmetric positive-definite
    matrix; its pivots L_kk^2 must pass the positive-definiteness rule."""
    m = _check_square_finite(m)
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite: {exc}") from exc
    _check_pivots((np.diagonal(factor) ** 2).min(), m.diagonal().max(), what)
    return factor


def levinson(lags, orders=None) -> tuple[np.ndarray | list[np.ndarray], np.ndarray]:
    """Levinson-Durbin recursion for the symmetric Toeplitz matrix T of `lags`.

    Returns the monic order-(n-1) predictor a (T a = E_{n-1} e_1, so
    T^-1 e_1 = a / E_{n-1}) and the prediction-error variances E_0..E_{n-1};
    log det T = sum(log E_k).  O(n^2) time, O(n) memory.  T is positive
    definite iff every reflection coefficient has modulus below 1; the E_k
    are T's Cholesky pivots, so they must also pass the PD_RTOL rule.

    The leading m x m block of T is T_m, the matrix of lags[:m], so the
    recursion passes through T_m's predictor and errors bit for bit.  With
    `orders`, ascending leading orders m <= n, one run serves them all: it
    returns the list of T_m's predictors, taken as the loop reaches each m,
    and the errors up to the largest m, of which T_m's are the first m.
    Each T_m is checked as it is reached, so a failure names what a run on
    T_m alone would.  A white T (K[m] = 0 for m >= 1) skips the loop, whose
    result there is known.
    """
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 1 or lags.size == 0:
        raise InvalidDimensionError(f"expected a non-empty lag vector, got shape {lags.shape}")
    if not np.all(np.isfinite(lags)):
        raise NumericalFailureError("lags have non-finite entries")
    n = lags.size
    wanted = [n] if orders is None else list(orders)
    if not wanted or any(not 1 <= m <= n for m in wanted) or wanted != sorted(set(wanted)):
        raise InvalidDimensionError(f"orders must ascend within 1..{n}, got {orders}")
    # E_0 = K[0] is the first pivot; check it before the recursion divides by it.
    _check_pivots(lags[0], lags[0], "Toeplitz matrix")
    a = np.zeros(n)
    a[0] = 1.0
    if not np.any(lags[1:]):
        # T = K[0] I: every reflection coefficient would be -0.0, leaving
        # each predictor e_1 and each error K[0], bit for bit.
        predictors = [a[:m].copy() for m in wanted]
        return (predictors[0] if orders is None else predictors), np.full(wanted[-1], lags[0])
    reversed_lags = lags[::-1].copy()
    error = float(lags[0])
    errors = [error]
    step = np.empty(n)  # reused, so a step allocates no arrays
    predictors = []
    for k in range(1, n + 1):
        # a[:k] and errors are T_k's predictor and errors here.
        if k == wanted[len(predictors)]:
            _check_pivots(min(errors), lags[0], "Toeplitz matrix")
            predictors.append(a[:k].copy())
            if len(predictors) == len(wanted):
                break
        refl = -float(a[:k].dot(reversed_lags[n - 1 - k : n - 1])) / error
        if not abs(refl) < 1.0:
            raise NotPositiveDefiniteError(
                f"Toeplitz matrix is not positive definite: reflection coefficient "
                f"{refl:.3e} at order {k}"
            )
        head = a[1 : k + 1]
        np.add(head, np.multiply(a[k - 1 :: -1], refl, out=step[:k]), out=head)
        error *= (1.0 - refl) * (1.0 + refl)
        errors.append(error)
    return (predictors[0] if orders is None else predictors), np.array(errors)


def _semencul_columns(a: np.ndarray) -> np.ndarray:
    """First columns of A and B (rows 0 and 1) in the Gohberg-Semencul formula
    T^-1 = (A A^T - B B^T) / E_{n-1}: a and (0, a_{n-1}, ..., a_1)."""
    a = np.asarray(a, dtype=float)
    return np.stack((a, np.concatenate(([0.0], a[:0:-1]))))


def inverse_diagonal_sums(a: np.ndarray, error: float) -> np.ndarray:
    """Diagonal sums s_d = sum_i (T^-1)_{i, i+d}, d = 0..n-1, from `levinson`'s
    predictor a and last error variance.

    For a lower-triangular Toeplitz L(u), the d-th diagonal sum of L(u) L(u)^T
    is (n - d) c_d - c'_d, with c_d = sum_m u_m u_{m+d} and
    c'_d = sum_m m u_m u_{m+d}; s_d is that for A minus that for B, over
    E_{n-1}.  The correlations are taken by FFT on 2n points.
    """
    cols = _semencul_columns(a)
    n = cols.shape[1]
    lag = np.arange(n)
    size = 2 * n
    plain, moment = np.fft.rfft(cols, size), np.fft.rfft(lag * cols, size)

    def a_minus_b(products):
        return np.fft.irfft(products[0] - products[1], size)[:n]

    corr, moment_corr = a_minus_b(plain.conj() * plain), a_minus_b(moment.conj() * plain)
    return ((n - lag) * corr - moment_corr) / error


def weak_norm_toeplitz(lags) -> float:
    """Weak norm sqrt((1/n) sum |t_kj|^2) of the symmetric Toeplitz matrix of
    `lags`, from the lags: n |T|_weak^2 = n K[0]^2 + sum_{d>=1} 2 (n - d) K[d]^2."""
    lags = np.asarray(lags, dtype=float)
    n = lags.size
    weights = 2.0 * (n - np.arange(n))
    weights[0] = n
    return float(np.sqrt(np.dot(weights, lags * lags) / n))


def strong_norm_toeplitz(lags) -> float:
    """Strong norm (largest eigenvalue) of a positive-definite symmetric
    Toeplitz matrix T, from its lags in O(n^2) time and O(n) memory.

    T is the leading block of the 2n-point circulant with first column
    (lags, 0, reversed lags[1:]), so by interlacing that circulant's largest
    FFT eigenvalue sigma bounds lambda_max.  Lanczos then runs on
    (sigma I - T)^-1, applied by FFT through `levinson` and Gohberg-Semencul;
    its top eigenvalue 1/(sigma - lambda_max) stands well apart from the
    rest, where T's own top eigenvalues crowd together as n grows.
    """
    lags = np.asarray(lags, dtype=float)
    n = lags.size
    sigma = float(np.fft.rfft(np.concatenate((lags, [0.0], lags[:0:-1]))).real.max())
    shifted = -lags
    shifted[0] += sigma
    try:
        a, errors = levinson(shifted)
    except NotPositiveDefiniteError:
        # sigma I - T is singular to working precision, since its least
        # eigenvalue sigma - lambda_max is at most E_{n-1}.
        return sigma
    size = 2 * n
    spectra = np.fft.rfft(_semencul_columns(a), size)

    def matvec(x):
        # (A A^T - B B^T) x / E: the transposes are correlations.
        half = np.fft.irfft(spectra.conj() * np.fft.rfft(x.ravel(), size), size)[:, :n]
        full = spectra * np.fft.rfft(half, size)
        return np.fft.irfft(full[0] - full[1], size)[:n] / errors[-1]

    # A fixed start keeps the output reproducible; a random-valued one,
    # unlike all ones, is not orthogonal to the skew-symmetric eigenvectors,
    # one of which may be the top one.
    return sigma - 1.0 / _lanczos_top(matvec, np.random.default_rng(0).standard_normal(n))


def _lanczos_top(matvec, start: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric positive-definite operator, by
    Lanczos from `start` with full reorthogonalisation.

    Stops once the top Ritz value stops growing, theta_k - theta_{k-1} <=
    2 eps theta_k, or once the Krylov space is invariant; raises past
    _LANCZOS_STEPS steps.
    """
    n = start.size
    steps = min(_LANCZOS_STEPS, n)
    basis = np.empty((steps, n))
    basis[0] = start / np.linalg.norm(start)
    diag, offdiag = [], []
    theta = 0.0
    for k in range(steps):
        w = matvec(basis[k])
        # Classical Gram-Schmidt against the whole basis, twice; the first
        # pass's last coefficient is the new diagonal entry.
        coef = basis[: k + 1] @ w
        w -= coef @ basis[: k + 1]
        w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        diag.append(float(coef[k]))
        previous, theta = theta, _top_ritz_value(diag, offdiag)
        norm = float(np.linalg.norm(w))
        if theta - previous <= 2.0 * _EPS * theta or norm <= _EPS * theta or k + 1 == n:
            return theta
        if k + 1 < steps:
            offdiag.append(norm)
            basis[k + 1] = w / norm
    raise NumericalFailureError(f"Lanczos did not converge in {steps} steps")


def _top_ritz_value(diag: list[float], offdiag: list[float]) -> float:
    """Largest eigenvalue of the symmetric tridiagonal matrix J with these
    diagonal and off-diagonal entries.

    Newton's method on det(x I - J) from the Gershgorin bound, above every
    root, where the iterates fall monotonically to the largest one.  The
    Newton step det / det' is 1 / sum(d_i' / d_i) over the pivots d_i of the
    LDL^T factorization of x I - J, d_i = x - a_i - b_{i-1}^2 / d_{i-1}; the
    iteration stops when a step no longer lowers x or a pivot is not
    positive.
    """
    radius = np.concatenate(([0.0], offdiag, [0.0]))  # the b_i are norms, >= 0
    x = float(np.max(np.asarray(diag) + radius[:-1] + radius[1:]))
    while True:
        pivot, slope, ratio = 1.0, 0.0, 0.0
        for i, a in enumerate(diag):
            coupling = offdiag[i - 1] ** 2 / pivot if i else 0.0
            slope = 1.0 + coupling * slope / pivot
            pivot = x - a - coupling
            if not pivot > 0.0:
                # Above the largest root every pivot is positive (Sylvester's
                # law of inertia), so x is that root to rounding.
                return x
            ratio += slope / pivot
        step = x - 1.0 / ratio
        if not step < x:
            return x
        x = step
