"""Zero-mean Gaussian models, whitening and exact relative entropy.

A `GaussianModel` holds the log-determinant and differential entropy of its
covariance, from one values-only eigensolve.  `whiten` reduces a pair of
covariances to the equivalent diagonal-vs-identity test and records the
diagonal entries (kappas, the eigenvalues of the pencil); there the
log-likelihood ratio is an affine weighted sum of chi-square variables,
whose weights `llr_form` gives and which `llr_chunks` samples for all the
detection code, through `streams.quadratic_chunks`: no density is
evaluated and no draw is kept as a vector.  The whitening map itself is
solved for only when it is read.  `kl_toeplitz` gives the same relative
entropy for two stationary covariances straight from their lags, without
an n x n matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numlin, streams
from .exceptions import InvalidDimensionError

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GaussianModel:
    """n-dimensional zero-mean Gaussian law (nats)."""

    cov: np.ndarray = field(repr=False)
    log_det: float
    entropy: float

    @property
    def n(self) -> int:
        return self.cov.shape[0]


def model_from_cov(cov: np.ndarray) -> GaussianModel:
    """Build a model from a symmetric positive-definite covariance."""
    cov = numlin.symmetrize(cov)
    w = numlin.eigvals_sym(cov)
    numlin.check_pd(w, "covariance")
    log_det = float(np.sum(np.log(w)))
    entropy = 0.5 * (cov.shape[0] * (LOG_2PI + 1.0) + log_det)
    return GaussianModel(cov=cov, log_det=log_det, entropy=entropy)


def _kl_from_kappas(kappas: np.ndarray) -> float:
    return float(0.5 * np.sum(kappas - np.log(kappas) - 1.0))


def kl_gaussian(cov_p: np.ndarray, cov_q: np.ndarray) -> float:
    """Relative entropy D(N(0, cov_p) || N(0, cov_q)) in nats.

    Closed form 0.5 tr(Lp Lq^-1) - 0.5 log(det Lp / det Lq) - n/2, evaluated
    through the kappas (eigenvalues of the pencil (Lp, Lq)) so it is exactly
    the diagonal-form value 0.5 sum(kappa - log kappa - 1).  Both
    covariances must pass the positive-definiteness checks of `whiten`.
    """
    return whiten(cov_p, cov_q).kl


def kl_toeplitz(cov_p, cov_q, n: int) -> float:
    """`kl_gaussian` of the n x n Toeplitz matrices of two covariance
    sequences, in O(n^2) time and O(n) memory.

    0.5 (tr(Tq^-1 Tp) - log det Tp + log det Tq - n), with both log
    determinants from `numlin.levinson` and the trace as
    sum_d w_d K_p[d] s_d over the diagonal sums s_d of Tq^-1 (w_0 = 1,
    w_d = 2 for d > 0), from `numlin.inverse_diagonal_sums`.
    """
    if n < 1:
        raise InvalidDimensionError(f"n must be >= 1, got {n}")
    lags_p = cov_p.k(np.arange(n))
    _, errors_p = numlin.levinson(lags_p)
    predictor_q, errors_q = numlin.levinson(cov_q.k(np.arange(n)))
    sums = numlin.inverse_diagonal_sums(predictor_q, errors_q[-1])
    weights = np.full(n, 2.0)
    weights[0] = 1.0
    trace = np.dot(weights * lags_p, sums)
    return float(0.5 * (trace - np.sum(np.log(errors_p)) + np.sum(np.log(errors_q)) - n))


@dataclass(frozen=True)
class HypothesisPair:
    """A (p, q) Gaussian pair with its whitened diagonal form.

    In whitened coordinates p has covariance diag(kappas) and q the
    identity; `kl` is the exact finite-n relative entropy in nats.  The
    `whitener` is built on first use.
    """

    cov_p: np.ndarray = field(repr=False)
    cov_q: np.ndarray = field(repr=False)
    kappas: np.ndarray  # descending
    kl: float

    @functools.cached_property
    def whitener(self) -> np.ndarray:
        """V^T, for the generalized eigenbasis V of the pencil (Lp, Lq):
        V^T Lq V = I and V^T Lp V = diag(kappas), rows in kappa order."""
        return numlin.eig_sym(self.cov_p, self.cov_q).basis[:, ::-1].T

    @property
    def n(self) -> int:
        return self.kappas.shape[0]

    @property
    def b_n(self) -> float:
        """CLT scale of the log-likelihood ratio: sqrt(sum (kappa-1)^2)."""
        return float(np.sqrt(np.sum((self.kappas - 1.0) ** 2)))


def whiten(cov_p: np.ndarray, cov_q: np.ndarray) -> HypothesisPair:
    """Reduce (cov_p, cov_q) to the diagonal-vs-identity equivalent test.

    The kappas are the eigenvalues of the pencil (Lp, Lq), from one
    values-only solve, returned descending, ties adjacent.  Both
    covariances first pass `numlin.check_pd`, whose near-singular rule the
    pencil solve alone would miss.
    """
    cov_p = numlin.symmetrize(cov_p)
    cov_q = numlin.symmetrize(cov_q)
    numlin.check_pd(numlin.eigvals_sym(cov_q), "q covariance")
    numlin.check_pd(numlin.eigvals_sym(cov_p), "p covariance")
    kappas = numlin.eigvals_sym(cov_p, cov_q)[::-1].copy()
    return HypothesisPair(cov_p=cov_p, cov_q=cov_q, kappas=kappas, kl=_kl_from_kappas(kappas))


def diagonal_pair(kappas) -> HypothesisPair:
    """Pair with p = N(0, diag(kappas)) and q = N(0, I), already whitened."""
    kappas = np.asarray(kappas, dtype=float)
    return whiten(np.diag(kappas), np.eye(kappas.size))


def llr_form(pair: HypothesisPair, under: str) -> tuple[np.ndarray, float]:
    """(coef, offset) with LLR = offset + sum_j coef[j] z_j^2, z ~ N(0, I),
    for draws from p or q."""
    # Whitened draws are sqrt(kappa) z under p and z under q (z ~ N(0, I)),
    # so LLR = sum c z^2 - 0.5 sum log kappa, c = 0.5 (kappa - 1) [/ kappa].
    if under not in ("p", "q"):
        raise ValueError(f"under must be 'p' or 'q', got {under!r}")
    coef = 0.5 * (pair.kappas - 1.0)
    if under == "q":
        coef = coef / pair.kappas
    return coef, -0.5 * float(np.sum(np.log(pair.kappas)))


def llr_chunks(pair: HypothesisPair, count: int, seed: int, under: str):
    """Yield the LLR values of `count` whitened draws from p or q, by chunk."""
    coef, offset = llr_form(pair, under)
    for quad in streams.quadratic_chunks(seed, count, coef):
        yield quad + offset
