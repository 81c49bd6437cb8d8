"""Dense symmetric matrix kernel.

Builds the three covariance-matrix variants used by the asymptotic-equivalence
arguments (full Toeplitz, banded, circulant), exposes symmetric and
symmetric-definite (pencil) eigensolves with the positive-definiteness rule,
and implements the weak and strong matrix norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def banded_from_cov(cov, n: int) -> np.ndarray:
    """Toeplitz matrix with lags at or beyond floor(n/2)+1 zeroed."""
    if n < 3:
        raise InvalidDimensionError(f"n must be >= 3, got {n}")
    n_hat = n // 2 + 1
    col = cov.k(np.arange(n))
    col[n_hat:] = 0.0
    return scipy.linalg.toeplitz(col)


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
