"""Symmetric and Toeplitz matrix kernel.

Builds the three dense covariance-matrix variants used by the
asymptotic-equivalence arguments (full Toeplitz, banded, circulant), exposes
symmetric and symmetric-definite (pencil) eigensolves with the
positive-definiteness rule, and implements the weak and strong matrix norms.

A symmetric Toeplitz matrix is also handled through its lags alone, in O(n)
memory: the Levinson-Durbin recursion gives its log-determinant and its
predictor, the Gohberg-Semencul formula turns the predictor into the
diagonal sums of the inverse, and its weak and strong norms come from a sum
over lags and from Lanczos on an FFT matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .exceptions import (
    InvalidDimensionError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)

# Reject as non-PD when lambda_min <= PD_RTOL * lambda_max.
PD_RTOL = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order and the eigenvector basis.

    The basis is orthogonal for one matrix and B-orthonormal for a pencil
    (M, B): V^T B V = I and V^T M V = diag(eigenvalues).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray  # columns are eigenvectors


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


def toeplitz_from_cov(cov, n: int) -> np.ndarray:
    """Toeplitz covariance matrix with entry (i, j) = K[|i - j|]."""
    if n < 1:
        raise InvalidDimensionError(f"n must be >= 1, got {n}")
    col = cov.k(np.arange(n))
    return scipy.linalg.toeplitz(col)


def banded_column(cov, n: int) -> np.ndarray:
    """First column of the banded matrix: lags at or beyond floor(n/2)+1 zeroed."""
    if n < 3:
        raise InvalidDimensionError(f"n must be >= 3, got {n}")
    n_hat = n // 2 + 1
    col = cov.k(np.arange(n))
    col[n_hat:] = 0.0
    return col


def banded_from_cov(cov, n: int) -> np.ndarray:
    """Toeplitz matrix with lags at or beyond floor(n/2)+1 zeroed."""
    return scipy.linalg.toeplitz(banded_column(cov, n))


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


def circulant_from_cov(cov, n: int) -> np.ndarray:
    """Symmetric circulant completion of the banded covariance matrix."""
    # The column is palindromic, so the result is symmetric as well.
    return scipy.linalg.circulant(circulant_column(cov, n))


def _check_pencil(m: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m, b = _check_square_finite(m), _check_square_finite(b)
    if m.shape != b.shape:
        raise InvalidDimensionError(f"pencil shapes differ: {m.shape} vs {b.shape}")
    return m, b


def eig_sym(m: np.ndarray, b: np.ndarray | None = None) -> EigenDecomposition:
    """Eigen-decomposition of a symmetric matrix, eigenvalues ascending.

    With `b` (positive definite) it solves the pencil M v = lambda B v."""
    try:
        if b is None:
            w, v = np.linalg.eigh(_check_square_finite(m))
        else:
            w, v = scipy.linalg.eigh(*_check_pencil(m, b))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigen-decomposition failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=w, basis=v)


def eigvals_sym(m: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues (ascending) of a symmetric matrix or of the pencil (M, B)."""
    try:
        if b is None:
            return np.linalg.eigvalsh(_check_square_finite(m))
        return scipy.linalg.eigh(*_check_pencil(m, b), eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigen-decomposition failed: {exc}") from exc


def check_pd(w: np.ndarray, what: str) -> None:
    """Raise unless ascending eigenvalues w pass w_min > PD_RTOL * w_max."""
    if w[0] <= PD_RTOL * max(w[-1], 0.0):
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite: lambda_min={w[0]:.3e}, "
            f"lambda_max={w[-1]:.3e}"
        )


def weak_norm(m: np.ndarray) -> float:
    """Dimension-normalized Frobenius norm: sqrt((1/n) sum |a_kj|^2)."""
    m = _check_square_finite(m)
    n = m.shape[0]
    return float(np.linalg.norm(m, "fro") / np.sqrt(n))


def strong_norm(m: np.ndarray) -> float:
    """l2 operator norm (largest singular value; max |eigenvalue| if symmetric)."""
    return float(np.linalg.norm(_check_square_finite(m), 2))


def levinson(lags) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin recursion for the symmetric Toeplitz matrix T of `lags`.

    Returns the monic order-(n-1) predictor a (T a = E_{n-1} e_1, so
    T^-1 e_1 = a / E_{n-1}) and the prediction-error variances E_0..E_{n-1};
    log det T = sum(log E_k).  O(n^2) time, O(n) memory.  T is positive
    definite iff every reflection coefficient has modulus below 1; the
    recursion also rejects E_{n-1} <= PD_RTOL * K[0], and since
    lambda_min <= E_{n-1} and K[0] <= lambda_max it never rejects a matrix
    that `check_pd` accepts.
    """
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 1 or lags.size == 0:
        raise InvalidDimensionError(f"expected a non-empty lag vector, got shape {lags.shape}")
    if not np.all(np.isfinite(lags)):
        raise NumericalFailureError("lags have non-finite entries")
    n = lags.size
    if not lags[0] > 0.0:
        raise NotPositiveDefiniteError(
            f"Toeplitz matrix is not positive definite: K[0]={lags[0]:.3e}"
        )
    reversed_lags = lags[::-1].copy()
    a = np.zeros(n)
    a[0] = 1.0
    errors = np.empty(n)
    errors[0] = lags[0]
    step = np.empty(n)  # reused, so the loop allocates no arrays
    for k in range(1, n):
        refl = -np.dot(a[:k], reversed_lags[n - 1 - k : n - 1]) / errors[k - 1]
        if not abs(refl) < 1.0:
            raise NotPositiveDefiniteError(
                f"Toeplitz matrix is not positive definite: reflection coefficient "
                f"{refl:.3e} at order {k}"
            )
        a[1 : k + 1] += np.multiply(a[k - 1 :: -1], refl, out=step[:k])
        errors[k] = errors[k - 1] * ((1.0 - refl) * (1.0 + refl))
    if not errors[-1] > PD_RTOL * lags[0]:
        raise NotPositiveDefiniteError(
            f"Toeplitz matrix is not positive definite: E_{n - 1}={errors[-1]:.3e}, "
            f"K[0]={lags[0]:.3e}"
        )
    return a, errors


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
    """`weak_norm` of the symmetric Toeplitz matrix of `lags`, from the lags:
    n |T|_weak^2 = n K[0]^2 + sum_{d>=1} 2 (n - d) K[d]^2."""
    lags = np.asarray(lags, dtype=float)
    n = lags.size
    weights = 2.0 * (n - np.arange(n))
    weights[0] = n
    return float(np.sqrt(np.dot(weights, lags * lags) / n))


def strong_norm_toeplitz(lags) -> float:
    """`strong_norm` (largest eigenvalue) of a positive-definite symmetric
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

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    # A fixed start keeps the output reproducible (ARPACK's default start is
    # random); a random-valued one, unlike all ones, is not orthogonal to the
    # skew-symmetric eigenvectors, one of which may be the top one.
    start = np.random.default_rng(0).standard_normal(n)
    try:
        top = scipy.sparse.linalg.eigsh(
            op, k=1, which="LA", tol=0, v0=start, return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise NumericalFailureError(f"Lanczos failed: {exc}") from exc
    return sigma - 1.0 / float(top[0])
