"""Zero-mean Gaussian laws, whitening and exact relative entropy.

`surprisal_forms` gives -log p of a stationary covariance's Toeplitz law
from its Levinson recursion (O(n^2) time, no LAPACK call).  `whiten`
checks two dense covariances by their factors Lp and Lq and reduces the
pair through them to the equivalent diagonal-vs-identity test: a
`HypothesisPair` is its diagonal entries, the kappas, and its exact
relative entropy.  The kappas are the pencil's eigenvalues, from one
values-only solve of X X^T with X = Lq^-1 Lp, so q is factored once
(`whiten_toeplitz` for two covariance sequences at one n).  There the
log-likelihood ratio under p is a `qform.QuadraticForm`, an affine
weighted sum of chi-square variables (`llr_form`), as is -log p;
`streams.quadratic_draws` samples such forms for every Monte Carlo study:
no density is evaluated and no draw is kept as a vector.  A pair whose
kappas are 1 up to rounding has no LLR: `llr_form` rejects it by the
form's CLT scale B_n, the one degenerate-pair rule.  `kl_toeplitz` gives
the same relative entropy for two stationary covariances straight from
their lags.  `surprisal_forms` and `kl_toeplitz` take an ascending list of
n and run one recursion per covariance, at the largest n: every smaller n
reads its errors and predictor off that run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin, qform
from .exceptions import DegeneratePairError, InvalidDimensionError

LOG_2PI = float(np.log(2.0 * np.pi))
# `llr_form` rejects a B_n up to this many rounding units.
DEGENERATE_ROUNDING = 64.0


def _leading_lags(cov, ns) -> np.ndarray:
    """The lags K[0..N-1] of the last (largest) n of `ns`, every n checked."""
    for n in ns:
        if n < 1:
            raise InvalidDimensionError(f"n must be >= 1, got {n}")
    return cov.k(np.arange(ns[-1]))


def surprisal_forms(cov, ns) -> list[qform.QuadraticForm]:
    """-log p as a form in z ~ N(0, I), for p the n x n Toeplitz law of a
    covariance sequence, for each n of the ascending `ns`: a draw from p is
    L z (L L^T = T_n), and -log p(L z) = 0.5 (n ln 2 pi + log det T_n) +
    0.5 |z|^2, its mean the entropy.  log det T_n = sum(log E_k) over the
    first n prediction errors of one `numlin.levinson` run at the largest
    n, which apply the same positive-definiteness rule as the Cholesky
    pivots."""
    _, errors = numlin.levinson(_leading_lags(cov, ns), ns)
    forms = []
    for n in ns:
        log_det = float(np.sum(np.log(errors[:n])))
        forms.append(qform.QuadraticForm(np.full(n, 0.5), 0.5 * (n * LOG_2PI + log_det)))
    return forms


def _kl_from_kappas(kappas: np.ndarray) -> float:
    return float(0.5 * np.sum(kappas - np.log(kappas) - 1.0))


def kl_toeplitz(cov_p, cov_q, ns) -> list[float]:
    """Relative entropy D(N(0, Tp) || N(0, Tq)) in nats of the n x n
    Toeplitz matrices of two covariance sequences, for each n of the
    ascending `ns`, in O(N^2) time and O(N) memory at the largest n, N.

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
    """A (p, q) Gaussian pair as its whitened diagonal form.

    In whitened coordinates p has covariance diag(kappas) and q the
    identity; `kl` is the exact finite-n relative entropy in nats.
    """

    kappas: np.ndarray  # descending
    kl: float


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
    return HypothesisPair(kappas=kappas, kl=_kl_from_kappas(kappas))


def whiten_toeplitz(cov_p, cov_q, n: int) -> HypothesisPair:
    """`whiten` of the n x n Toeplitz matrices of two covariance sequences."""
    return whiten(numlin.toeplitz_from_cov(cov_p, n), numlin.toeplitz_from_cov(cov_q, n))


def llr_form(pair: HypothesisPair) -> qform.QuadraticForm:
    """The LLR under p as a form in z ~ N(0, I), or `DegeneratePairError`
    if p and q agree up to rounding: its scale B_n <= `DEGENERATE_ROUNDING`
    eps sqrt(n) max kappa.  Whitening a stationary pair against itself left
    at most 6.25 such units for n <= 1024 in every case tried."""
    # Whitened draws from p are sqrt(kappa) z (z ~ N(0, I)), so
    # LLR = sum c z^2 - 0.5 sum log kappa with c = 0.5 (kappa - 1).
    kappas = pair.kappas
    form = qform.QuadraticForm(0.5 * (kappas - 1.0), -0.5 * float(np.sum(np.log(kappas))))
    rounding = np.finfo(float).eps * np.sqrt(kappas.size) * np.max(kappas)
    if form.scale <= DEGENERATE_ROUNDING * rounding:
        raise DegeneratePairError("hypotheses are identical (all kappas are 1 up to rounding)")
    return form
