"""Oracles the tests compare the library against; no study runs them.

The reference draws (`standard_normal_chunks`, stated from their
definition alone), Monte Carlo helpers on `streams.quadratic_draws`, and
dense-matrix versions of what the library computes from lags or kappas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from steinlab import detect, gaussian, numlin, qform, spectral, streams, sublinear
from steinlab.exceptions import InvalidDimensionError, NumericalFailureError

# `clt_psi_check` passes when its Kolmogorov-Smirnov distance is below this.
CLT_KS_BOUND = 0.02


def standard_normal_chunks(seed: int, count: int, dim: int) -> Iterator[np.ndarray]:
    """Yield (dim, size) blocks of iid standard normals, one column per sample.

    Chunk c holds samples c CHUNK_SIZE onwards: the leading `size` columns of
    `chunk_rng(seed, c).standard_normal((dim, CHUNK_SIZE))`, made contiguous,
    where `size` is CHUNK_SIZE but for a last, partial chunk.
    """
    for index, start in enumerate(range(0, count, streams.CHUNK_SIZE)):
        size = min(streams.CHUNK_SIZE, count - start)
        block = streams.chunk_rng(seed, index).standard_normal((dim, streams.CHUNK_SIZE))
        yield np.ascontiguousarray(block[:, :size])


def sample_llr(
    pair: gaussian.HypothesisPair, count: int, seed: int, under: str = "p"
) -> np.ndarray:
    """LLR values of `count` draws from p or q, in whitened coordinates:
    `gaussian.llr_form` on the draws of `streams.quadratic_draws`.  A draw
    from q is z, not sqrt(kappa) z, so its form has coefficients c / kappa."""
    form = gaussian.llr_form(pair)
    if under == "q":
        form = qform.QuadraticForm(form.coef / pair.kappas, form.offset)
    return np.concatenate(streams.quadratic_draws(seed, count, [form], lambda v: v[0]))


def np_calibrate(
    pair: gaussian.HypothesisPair, tau: float, count: int, seed: int
) -> detect.NpThreshold:
    """Threshold detector at the empirical tau-quantile of the LLR under p.

    The LLR is continuous, so the quantile rule needs no randomization and
    the achieved type-I error concentrates below tau.  The Monte Carlo
    counterpart of `detect.np_threshold_exact`.  Below 10/count fewer than
    ten draws lie under the quantile, and below 1/count it would be the
    sample minimum, at another level; such a tau is rejected.
    """
    if not 0.0 < tau < 0.5:
        raise ValueError(f"tau must lie in (0, 1/2), got {tau}")
    if count < 10_000:
        raise ValueError(f"count must be >= 10000, got {count}")
    if tau < 10.0 / count:
        raise ValueError(f"tau must be >= 10/count = {10.0 / count:g}, got {tau}")
    llrs = sample_llr(pair, count, seed, under="p")
    threshold = float(np.quantile(llrs, tau, method="lower"))
    return detect.NpThreshold(threshold)


@dataclass(frozen=True)
class CltCheck:
    ks_distance: float
    mean: float
    variance: float
    passed: bool


def clt_psi_check(pair: gaussian.HypothesisPair, count: int, seed: int) -> CltCheck:
    """Simulate the normalized LLR fluctuation and compare it to Phi.

    Each replicate is (LLR - D) sqrt(2) / B_n under p, i.e. sum_k (kappa_k - 1)
    / (sqrt(2) B_n) * (Y_k^2 - 1) with iid standard normal Y; its law should
    be near standard normal for large n.  Returns the Kolmogorov-Smirnov
    sup-gap of the empirical CDF against Phi, which passes below CLT_KS_BOUND.
    """
    if count < 10_000:
        raise ValueError(f"count must be >= 10000, got {count}")
    llrs = sample_llr(pair, count, seed, "p")
    values = np.sort((llrs - pair.kl) * (math.sqrt(2.0) / gaussian.llr_form(pair).scale))
    cdf = 0.5 * np.fromiter(map(math.erfc, -values / math.sqrt(2.0)), float, count)
    i = np.arange(1, count + 1)
    ks = float(np.max(np.maximum(i / count - cdf, cdf - (i - 1) / count)))
    mean = float(np.mean(values))
    variance = float(np.var(values))
    return CltCheck(ks_distance=ks, mean=mean, variance=variance, passed=ks < CLT_KS_BOUND)


def kl_gaussian(cov_p: np.ndarray, cov_q: np.ndarray) -> float:
    """Relative entropy D(N(0, cov_p) || N(0, cov_q)) in nats.

    Closed form 0.5 tr(cov_q^-1 cov_p) - 0.5 log(det cov_p / det cov_q) - n/2,
    evaluated through the kappas (eigenvalues of the pencil (cov_p, cov_q))
    so it is exactly the diagonal-form value 0.5 sum(kappa - log kappa - 1).
    Both covariances must pass the positive-definiteness checks of `whiten`.
    """
    return gaussian.whiten(cov_p, cov_q).kl


def log_det(cov: np.ndarray) -> float:
    """log det of a symmetric positive-definite covariance, from its factor."""
    factor = numlin.cholesky(numlin.symmetrize(cov), "covariance")
    return 2.0 * float(np.sum(np.log(np.diagonal(factor))))


def surprisal_form(cov: np.ndarray) -> qform.QuadraticForm:
    """-log p of p = N(0, cov) as a form in z ~ N(0, I), the dense
    counterpart of `gaussian.surprisal_forms`: its mean is the entropy."""
    n = cov.shape[0]
    return qform.QuadraticForm(np.full(n, 0.5), 0.5 * (n * gaussian.LOG_2PI + log_det(cov)))


def diagonal_pair(kappas) -> gaussian.HypothesisPair:
    """Pair with p = N(0, diag(kappas)) and q = N(0, I), already whitened."""
    kappas = np.asarray(kappas, dtype=float)
    return gaussian.whiten(np.diag(kappas), np.eye(kappas.size))


def whitener(cov_p: np.ndarray, cov_q: np.ndarray) -> np.ndarray:
    """V^T, for the generalized eigenbasis V = Lq^-T U of the pencil
    (cov_p, cov_q): V^T cov_q V = I and V^T cov_p V = diag(kappas),
    rows in the descending kappa order of `gaussian.whiten`."""
    return eig_sym(numlin.symmetrize(cov_p), numlin.symmetrize(cov_q)).basis[:, ::-1].T


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order and the eigenvector basis.

    The basis is orthogonal for one matrix and B-orthonormal for a pencil
    (M, B): V^T B V = I and V^T M V = diag(eigenvalues).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray  # columns are eigenvectors


def eig_sym(m: np.ndarray, b: np.ndarray | None = None) -> EigenDecomposition:
    """Eigen-decomposition of a symmetric matrix, eigenvalues ascending.

    With `b` it solves the pencil M v = lambda B v; M and B must both pass
    `numlin.cholesky`, and the pencil is reduced through their factors."""
    try:
        if b is None:
            w, v = np.linalg.eigh(numlin._check_square_finite(m))
        else:
            factor_b = numlin.cholesky(b, "B")
            w, u = np.linalg.eigh(numlin._pencil_matrix(numlin.cholesky(m, "M"), factor_b))
            v = np.linalg.solve(factor_b.T, u)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigen-decomposition failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=w, basis=v)


def banded_from_cov(cov, n: int) -> np.ndarray:
    """Toeplitz matrix with lags at or beyond floor(n/2)+1 zeroed."""
    return numlin._symmetric_toeplitz(numlin.banded_column(cov, n))


def circulant_from_cov(cov, n: int) -> np.ndarray:
    """Symmetric circulant completion of the banded covariance matrix."""
    # The column is palindromic, c[n - j] = c[j], so entry (i, j) of the
    # circulant, c[(i - j) mod n], is c[|i - j|].
    return numlin._symmetric_toeplitz(numlin.circulant_column(cov, n))


def weak_norm(m: np.ndarray) -> float:
    """Dimension-normalized Frobenius norm: sqrt((1/n) sum |a_kj|^2)."""
    m = numlin._check_square_finite(m)
    n = m.shape[0]
    return float(np.linalg.norm(m, "fro") / np.sqrt(n))


def strong_norm(m: np.ndarray) -> float:
    """l2 operator norm (largest singular value; max |eigenvalue| if symmetric)."""
    return float(np.linalg.norm(numlin._check_square_finite(m), 2))


def spectrum_partial(cov: spectral.CovarianceSequence, n: int, f) -> np.ndarray | float:
    """Truncated spectrum with the +-floor(n/2) circulant window.

    For even n the window is m in [-n/2 + 1, n/2] (the extreme lag enters
    once), for odd n it is symmetric; in both cases the result is the real
    cosine sum, equal to the circulant eigenvalue at f = k/n.
    """
    if n < 3:
        raise InvalidDimensionError(f"n must be >= 3, got {n}")
    f = np.asarray(f, dtype=float)
    half = n // 2
    out = np.full(f.shape, cov.k(0), dtype=float)
    if n % 2 == 0:
        paired = np.arange(1, half)
        single = half
    else:
        paired = np.arange(1, half + 1)
        single = None
    if paired.size:
        out = out + 2.0 * np.cos(2.0 * np.pi * np.multiply.outer(f, paired)) @ np.asarray(
            cov.k(paired)
        )
    if single is not None:
        out = out + cov.k(single) * np.cos(2.0 * np.pi * f * single)
    if out.ndim == 0:
        return float(out)
    return out


def circulant_eigs(cov: spectral.CovarianceSequence, n: int) -> np.ndarray:
    """Eigenvalues of the circulant construction: S^[n] at f = k/n.

    A circulant matrix's eigenvalues are the DFT of its first column."""
    return np.fft.fft(numlin.circulant_column(cov, n)).real


def eig_functional_avg(func: Callable, eigs) -> float:
    """(1/n) sum of func over an eigenvalue sequence."""
    eigs = np.asarray(eigs, dtype=float)
    return float(np.mean(np.asarray(func(eigs), dtype=float)))


def _check_point(n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise InvalidDimensionError(f"expected a vector of length {n}, got {x.shape}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("point lies outside the unit cube")
    return x


def inner_radius(n: int) -> float:
    """Sup-norm radius n^(-1/n) of the sublinear example's high-density region."""
    sublinear._check_n(n)
    return n ** (-1.0 / n)


def sub_q_density(n: int, x) -> float:
    """q-density: n - sqrt(n) inside the small ball, sqrt(n)/(n-1) outside."""
    sublinear._check_n(n)
    x = _check_point(n, x)
    if np.max(np.abs(x)) <= inner_radius(n):
        return n - math.sqrt(n)
    return math.sqrt(n) / (n - 1.0)


def sub_llr(n: int, x) -> float:
    """Two-valued log-likelihood ratio ln(p/q) in nats."""
    return -math.log(sub_q_density(n, x))
