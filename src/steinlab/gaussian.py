"""Zero-mean Gaussian models, whitening and exact relative entropy.

A `GaussianModel` holds the dimension, log-determinant and differential
entropy of its covariance, from one checked Cholesky factor of a dense
covariance (`model_from_cov`) or from the Levinson recursion of a
stationary one (`model_toeplitz`: O(n^2) time, no LAPACK call).  `whiten`
checks both covariances by their factors Lp and Lq and reduces the pair
through them to the equivalent diagonal-vs-identity test, with diagonal
entries the kappas: the pencil's eigenvalues, from one values-only solve
of X X^T with X = Lq^-1 Lp, so q is factored once (`whiten_toeplitz` for
two covariance sequences at one n).  There the log-likelihood ratio is a
`qform.QuadraticForm`, an affine weighted sum of chi-square variables
(`llr_form`), as is -log p of a model (`surprisal_form`);
`streams.quadratic_draws` samples such forms for every Monte Carlo study:
no density is evaluated and no draw is kept as a vector.  A pair whose
kappas are 1 up to rounding has no LLR: `llr_form` rejects it by
`HypothesisPair.require_distinct`, the one degenerate-pair rule.
The whitening map itself, U^T Lq^-1 for the eigenvectors U of X X^T, is
solved for only when it is read.
`kl_toeplitz` gives the same relative entropy for two stationary
covariances straight from their lags.  Both Toeplitz functions take an
ascending list of n and run one recursion per covariance, at the largest
n: every smaller n reads its errors and predictor off that run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numlin, qform
from .exceptions import DegeneratePairError, InvalidDimensionError

LOG_2PI = float(np.log(2.0 * np.pi))
# `HypothesisPair.require_distinct` rejects a b_n up to this many rounding units.
DEGENERATE_ROUNDING = 64.0


@dataclass(frozen=True)
class GaussianModel:
    """n-dimensional zero-mean Gaussian law (nats)."""

    n: int
    log_det: float
    entropy: float

    @classmethod
    def from_log_det(cls, n: int, log_det: float) -> "GaussianModel":
        """The model of dimension n whose covariance has this log-determinant:
        its entropy is 0.5 (n (ln 2 pi + 1) + log det)."""
        return cls(n=n, log_det=log_det, entropy=0.5 * (n * (LOG_2PI + 1.0) + log_det))


def model_from_cov(cov: np.ndarray) -> GaussianModel:
    """Build a model from a symmetric positive-definite covariance."""
    factor = numlin.cholesky(numlin.symmetrize(cov), "covariance")
    log_det = 2.0 * float(np.sum(np.log(np.diagonal(factor))))
    return GaussianModel.from_log_det(factor.shape[0], log_det)


def _leading_lags(cov, ns) -> np.ndarray:
    """The lags K[0..N-1] of the last (largest) n of `ns`, every n checked."""
    for n in ns:
        if n < 1:
            raise InvalidDimensionError(f"n must be >= 1, got {n}")
    return cov.k(np.arange(ns[-1]))


def model_toeplitz(cov, ns) -> list[GaussianModel]:
    """`model_from_cov` of the n x n Toeplitz matrix of a covariance
    sequence, for each n of the ascending `ns`, from its lags: log det T_n =
    sum(log E_k) over the first n prediction errors of one
    `numlin.levinson` run at the largest n, which apply the same
    positive-definiteness rule as the Cholesky pivots."""
    _, errors = numlin.levinson(_leading_lags(cov, ns), ns)
    return [GaussianModel.from_log_det(n, float(np.sum(np.log(errors[:n])))) for n in ns]


def _kl_from_kappas(kappas: np.ndarray) -> float:
    return float(0.5 * np.sum(kappas - np.log(kappas) - 1.0))


def kl_gaussian(cov_p: np.ndarray, cov_q: np.ndarray) -> float:
    """Relative entropy D(N(0, cov_p) || N(0, cov_q)) in nats.

    Closed form 0.5 tr(cov_q^-1 cov_p) - 0.5 log(det cov_p / det cov_q) - n/2,
    evaluated through the kappas (eigenvalues of the pencil (cov_p, cov_q))
    so it is exactly the diagonal-form value 0.5 sum(kappa - log kappa - 1).
    Both covariances must pass the positive-definiteness checks of `whiten`.
    """
    return whiten(cov_p, cov_q).kl


def kl_toeplitz(cov_p, cov_q, ns) -> list[float]:
    """`kl_gaussian` of the n x n Toeplitz matrices of two covariance
    sequences, for each n of the ascending `ns`, in O(N^2) time and O(N)
    memory at the largest n, N.

    0.5 (tr(Tq^-1 Tp) - log det Tp + log det Tq - n), with both log
    determinants from `numlin.levinson` and the trace as
    sum_d w_d K_p[d] s_d over the diagonal sums s_d of Tq^-1 (w_0 = 1,
    w_d = 2 for d > 0), from `numlin.inverse_diagonal_sums`.  One recursion
    of each sequence at N gives every n its errors and q's predictor.
    """
    lags_p = _leading_lags(cov_p, ns)
    _, errors_p = numlin.levinson(lags_p, ns)
    predictors_q, errors_q = numlin.levinson(_leading_lags(cov_q, ns), ns)
    weights = np.full(lags_p.size, 2.0)
    weights[0] = 1.0
    kls = []
    for n, predictor_q in zip(ns, predictors_q):
        sums = numlin.inverse_diagonal_sums(predictor_q, errors_q[n - 1])
        trace = np.dot(weights[:n] * lags_p[:n], sums)
        log_det_p, log_det_q = np.sum(np.log(errors_p[:n])), np.sum(np.log(errors_q[:n]))
        kls.append(float(0.5 * (trace - log_det_p + log_det_q - n)))
    return kls


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
        """V^T, for the generalized eigenbasis V = Lq^-T U of the pencil
        (cov_p, cov_q): V^T cov_q V = I and V^T cov_p V = diag(kappas),
        rows in kappa order."""
        return numlin.eig_sym(self.cov_p, self.cov_q).basis[:, ::-1].T

    @property
    def b_n(self) -> float:
        """CLT scale of the log-likelihood ratio: sqrt(sum (kappa-1)^2)."""
        return float(np.sqrt(np.sum((self.kappas - 1.0) ** 2)))

    def require_distinct(self) -> "HypothesisPair":
        """The pair, or `DegeneratePairError` if p and q agree up to
        rounding: b_n <= `DEGENERATE_ROUNDING` eps sqrt(n) max kappa.
        Whitening a stationary pair against itself left at most 6.25 such
        units for n <= 1024 in every case tried."""
        n = self.kappas.size
        rounding = np.finfo(float).eps * np.sqrt(n) * np.max(self.kappas)
        if self.b_n <= DEGENERATE_ROUNDING * rounding:
            raise DegeneratePairError("hypotheses are identical (all kappas are 1 up to rounding)")
        return self


def whiten(cov_p: np.ndarray, cov_q: np.ndarray) -> HypothesisPair:
    """Reduce (cov_p, cov_q) to the diagonal-vs-identity equivalent test.

    The kappas are the eigenvalues of the pencil (cov_p, cov_q), returned
    descending, ties adjacent: one values-only solve through the factors
    Lp and Lq of `numlin.cholesky`, which also applies the near-singular
    rule that the pencil solve alone would miss.
    """
    cov_p = numlin.symmetrize(cov_p)
    cov_q = numlin.symmetrize(cov_q)
    factor_q = numlin.cholesky(cov_q, "q covariance")
    factor_p = numlin.cholesky(cov_p, "p covariance")
    kappas = numlin.pencil_eigvals(factor_p, factor_q)[::-1].copy()
    return HypothesisPair(cov_p=cov_p, cov_q=cov_q, kappas=kappas, kl=_kl_from_kappas(kappas))


def whiten_toeplitz(cov_p, cov_q, n: int) -> HypothesisPair:
    """`whiten` of the n x n Toeplitz matrices of two covariance sequences."""
    return whiten(numlin.toeplitz_from_cov(cov_p, n), numlin.toeplitz_from_cov(cov_q, n))


def diagonal_pair(kappas) -> HypothesisPair:
    """Pair with p = N(0, diag(kappas)) and q = N(0, I), already whitened."""
    kappas = np.asarray(kappas, dtype=float)
    return whiten(np.diag(kappas), np.eye(kappas.size))


def llr_form(pair: HypothesisPair, under: str) -> qform.QuadraticForm:
    """The LLR as a form in z ~ N(0, I), for draws from p or q;
    `DegeneratePairError` for a pair that fails `require_distinct`."""
    # Whitened draws are sqrt(kappa) z under p and z under q (z ~ N(0, I)),
    # so LLR = sum c z^2 - 0.5 sum log kappa, c = 0.5 (kappa - 1) [/ kappa].
    if under not in ("p", "q"):
        raise ValueError(f"under must be 'p' or 'q', got {under!r}")
    pair.require_distinct()
    coef = 0.5 * (pair.kappas - 1.0)
    if under == "q":
        coef = coef / pair.kappas
    return qform.QuadraticForm(coef, -0.5 * float(np.sum(np.log(pair.kappas))))


def surprisal_form(model: GaussianModel) -> qform.QuadraticForm:
    """-log p as a form in z ~ N(0, I): a draw from p is L z (L L^T =
    Lambda), and -log p(L z) = 0.5 (n ln 2 pi + log det Lambda) + 0.5 |z|^2."""
    return qform.QuadraticForm(np.full(model.n, 0.5), 0.5 * (model.n * LOG_2PI + model.log_det))
