"""Detectors, error-rate estimation, and error-exponent extraction.

The minimal type-II error beta_tau is approximated by the likelihood-ratio
detector whose type-I error is exactly tau; the typical-set detector
realizes the analytic upper-bound construction.  Type-II errors are
estimated by exact change of measure (sampling under p with weights
e^{-LLR}), which stays accurate down to e^{-200} through log-domain
accumulation.

Everything runs in whitened coordinates: both error probabilities and the
LLR law are invariant under the whitening bijection, so under p the LLR is
offset + sum_j c_j z_j^2 with c = (kappas - 1)/2 and z standard normal.
The threshold for a type-I error of tau is a root of that law
(`np_threshold_exact`, from `qform`), with no draws; every sampled LLR
value comes from `streams.quadratic_draws`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gaussian, numlin, qform, spectral, streams, typicality
from .exceptions import DegeneratePairError, VacuousBoundError

NEG_INF = float("-inf")
# `gcsl_experiment` draws its evaluation samples from the sub-stream of
# this key of its seed.
EVALUATION_STREAM = 1


@dataclass(frozen=True)
class DetectorSpec:
    """Decision region for p: LLR above a threshold, or LLR near the KL.

    kind "np_threshold": decide p when llr(x) > threshold.
    kind "typical_set": decide p when |llr(x) - kl| <= gamma.
    """

    kind: str
    threshold: float = math.nan  # np_threshold
    gamma: float = math.nan  # typical_set

    @classmethod
    def np_threshold(cls, threshold: float) -> "DetectorSpec":
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
        return cls(kind="np_threshold", threshold=threshold)

    @classmethod
    def typical_set(cls, gamma: float) -> "DetectorSpec":
        if gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        return cls(kind="typical_set", gamma=gamma)

    def accepts_p(self, llr_values: np.ndarray, kl: float) -> np.ndarray:
        """Boolean mask: which LLR values fall in the p-decision region."""
        if self.kind == "np_threshold":
            return llr_values > self.threshold
        return np.abs(llr_values - kl) <= self.gamma


@dataclass(frozen=True)
class ErrorEstimates:
    """Monte Carlo error-rate estimates for one detector at one n."""

    alpha_hat: float
    beta_hat: float
    beta_log: float  # -ln beta_hat, nats
    stderr_alpha: float
    stderr_beta_log: float
    ess: float  # IS effective sample size (sum w)^2 / sum w^2
    underflow: bool = False


def _require_pair(pair: gaussian.HypothesisPair) -> None:
    if pair.b_n == 0.0:
        raise DegeneratePairError("hypotheses are identical; no exponent to estimate")


def sample_llr(
    pair: gaussian.HypothesisPair, count: int, seed: int, under: str = "p"
) -> np.ndarray:
    """LLR values of `count` draws from p or q, in whitened coordinates."""
    return streams.quadratic_values(seed, count, *gaussian.llr_form(pair, under))


def np_calibrate(
    pair: gaussian.HypothesisPair, tau: float, count: int, seed: int
) -> DetectorSpec:
    """Threshold detector at the empirical tau-quantile of the LLR under p.

    The LLR is continuous, so the quantile rule needs no randomization and
    the achieved type-I error concentrates below tau.  The Monte Carlo
    counterpart of `np_threshold_exact`.
    """
    if not 0.0 < tau < 0.5:
        raise ValueError(f"tau must lie in (0, 1/2), got {tau}")
    if count < 10_000:
        raise ValueError(f"count must be >= 10000, got {count}")
    _require_pair(pair)
    llrs = sample_llr(pair, count, seed, under="p")
    threshold = float(np.quantile(llrs, tau, method="lower"))
    return DetectorSpec.np_threshold(threshold)


def np_threshold_exact(pair: gaussian.HypothesisPair, tau: float) -> DetectorSpec:
    """Threshold detector whose type-I error is tau, with no sampling.

    Under p the LLR is offset + Q (`gaussian.llr_form`), so the type-I
    error at threshold t is alpha(t) = P(Q <= t - offset) (`qform`).
    `qform.bracketed_newton` solves alpha(t) = tau from the normal quantile
    kl + sd Phi^-1(tau), sd = b_n / sqrt 2, moving by sd while the bracket
    is open.  It stops only at |alpha(t) - tau| <= 1e-12, up to the
    inversion's accuracy, or raises `NumericalFailureError`.
    """
    if not 0.0 < tau < 0.5:
        raise ValueError(f"tau must lie in (0, 1/2), got {tau}")
    _require_pair(pair)
    coef, offset = gaussian.llr_form(pair, "p")
    sd = pair.b_n / math.sqrt(2.0)

    def gap(t):
        alpha, density = qform.quadratic_form_cdf(coef, t - offset)
        return alpha - tau, density

    start = pair.kl - sd * typicality.qfunc_inv(tau)
    what = f"NP threshold at tau={tau}"
    t, _ = qform.bracketed_newton(gap, start, -math.inf, math.inf, sd, what, tol=qform.CDF_TOL)
    return DetectorSpec.np_threshold(t)


def estimate_beta_is(
    det: DetectorSpec, pair: gaussian.HypothesisPair, count: int, seed: int
) -> ErrorEstimates:
    """Unbiased type-II error estimate from p-samples only.

    beta = q(decide p) = E_p[e^{-LLR} 1{decide p}]; the weights are summed
    with a max-shift so beta down to e^{-200} is representable.  The
    reported stderr is for -ln(beta_hat), by the delta method.  The same
    draws give the type-I error: `alpha_hat` is the fraction the detector
    rejects, with `stderr_alpha`, and `ess` is the effective sample size
    of the weights.
    """
    if count < 1000:
        raise ValueError(f"count must be >= 1000, got {count}")
    sums = streams.quadratic_draws(
        seed,
        count,
        [gaussian.llr_form(pair, "p")],
        lambda llrs: _chunk_sums([det], [pair.kl], llrs),
    )
    return _error_estimates(count, np.array(sums)[:, :, 0])


def _chunk_sums(
    dets: Sequence[DetectorSpec], kls: Sequence[float], llrs: np.ndarray
) -> np.ndarray:
    """One chunk's reduction for the detector dets[i] on the LLR values in
    row i of `llrs`, drawn under p, whose KL is kls[i]: rows (accepted
    count, log sum e^{-LLR}, log sum e^{-2 LLR}) over its accepted draws,
    each with a column per detector.  Each log-sum is shifted by the
    largest accepted -LLR before exponentiating, and is -inf where no draw
    is accepted.  A column depends on its own row alone.
    """
    accepted = np.array([det.accepts_p(row, kl) for det, row, kl in zip(dets, llrs, kls)])
    log_weights = np.where(accepted, -llrs, NEG_INF)
    top = np.max(log_weights, axis=1)
    top[top == NEG_INF] = 0.0
    weights = np.exp(log_weights - top[:, None])
    sums = np.array([np.sum(weights, axis=1), np.sum(np.square(weights, out=weights), axis=1)])
    logs = np.log(sums, out=np.full_like(sums, NEG_INF), where=sums > 0.0)
    return np.array([np.count_nonzero(accepted, axis=1), top + logs[0], 2.0 * top + logs[1]])


def _error_estimates(count: int, sums: np.ndarray) -> ErrorEstimates:
    """Combine one detector's `_chunk_sums` columns, one row per chunk of
    the `count` draws, into its alpha and IS beta."""
    accepted = int(np.sum(sums[:, 0]))
    alpha = (count - accepted) / count
    stderr_alpha = math.sqrt(max(alpha * (1.0 - alpha), 0.0) / count)
    if accepted == 0:
        return ErrorEstimates(
            alpha_hat=alpha,
            beta_hat=0.0,
            beta_log=math.inf,
            stderr_alpha=stderr_alpha,
            stderr_beta_log=math.inf,
            ess=0.0,
            underflow=True,
        )

    log_sum = _logsumexp(sums[:, 1])
    log_sum_sq = _logsumexp(sums[:, 2])
    log_beta = log_sum - math.log(count)
    # Relative spread of the weights: Var(w)/(N mean(w)^2) in log domain.
    log_second = log_sum_sq - math.log(count)
    rel_var = math.expm1(min(log_second - 2.0 * log_beta, typicality.EXP_OVERFLOW))
    stderr_beta_log = math.sqrt(max(rel_var, 0.0) / count)
    return ErrorEstimates(
        alpha_hat=alpha,
        beta_hat=typicality.exp_or_inf(log_beta),
        beta_log=-log_beta,
        stderr_alpha=stderr_alpha,
        stderr_beta_log=stderr_beta_log,
        ess=math.exp(2.0 * log_sum - log_sum_sq),
    )


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a) of a 1-d array with a finite maximum, bit for bit as
    `scipy.special.logsumexp` forms it: the m entries equal to the maximum
    are counted, the rest summed as s = sum exp(a - max) / m (when s != 0),
    and the result is log1p(s) + log m + max.  It combines the chunks'
    log-sums of `_chunk_sums`.
    """
    top = np.max(a, keepdims=True)
    at_top = a == top
    count = np.sum(at_top, keepdims=True, dtype=float)
    rest = np.sum(np.exp(np.where(at_top, NEG_INF, a) - top), keepdims=True)
    if rest[0] != 0.0:
        rest /= count
    return float((np.log1p(rest) + np.log(count) + top)[0])


@dataclass(frozen=True)
class SteinBounds:
    """Two-sided window on beta_tau and on its exponent, in nats."""

    beta_lower: float
    beta_upper: float
    exp_lower: float  # lower edge of the -ln(beta) window
    exp_upper: float


def stein_bounds(
    kl: float, delta: float, gamma: float, eps: float, tau: float
) -> SteinBounds:
    """Sandwich (1-eps-tau)e^-(D+delta) <= beta_tau <= e^-(D-gamma)."""
    if delta <= 0.0 or gamma <= 0.0:
        raise ValueError(f"delta and gamma must be positive, got {delta}, {gamma}")
    if eps < 0.0 or tau < 0.0 or eps + tau >= 1.0:
        raise VacuousBoundError(f"eps + tau must be < 1, got {eps} + {tau}")
    exp_lower = kl - gamma
    exp_upper = kl + delta - math.log1p(-(eps + tau))
    return SteinBounds(
        beta_lower=typicality.exp_or_inf(-exp_upper),
        beta_upper=typicality.exp_or_inf(-exp_lower),
        exp_lower=exp_lower,
        exp_upper=exp_upper,
    )


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r2: float


def exponent_fit(ns: Sequence[int], beta_logs: Sequence[float]) -> ExponentFit:
    """Least-squares slope of -ln(beta) against n."""
    ns = np.asarray(ns, dtype=float)
    beta_logs = np.asarray(beta_logs, dtype=float)
    if ns.size < 3 or ns.size != beta_logs.size:
        raise ValueError("need at least 3 (n, beta_log) points")
    if np.ptp(ns) == 0.0:
        raise ValueError("abscissae are degenerate")
    slope, intercept = np.polyfit(ns, beta_logs, 1)
    fitted = slope * ns + intercept
    ss_res = float(np.sum((beta_logs - fitted) ** 2))
    ss_tot = float(np.sum((beta_logs - np.mean(beta_logs)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope=float(slope), intercept=float(intercept), r2=r2)


@dataclass(frozen=True)
class GcslRow:
    """Per-dimension results of the full pipeline run."""

    n: int
    kl: float
    gamma: float
    exp_lower: float
    exp_upper: float
    np_threshold: float
    np_alpha: float
    np_beta_log: float
    np_beta_stderr: float
    ts_alpha: float
    ts_beta_log: float
    ts_beta_stderr: float
    np_ess: float
    ts_ess: float
    np_underflow: bool
    ts_underflow: bool
    in_window: bool


@dataclass(frozen=True)
class GcslResult:
    rows: list[GcslRow]
    stein_rate: float
    slope: float
    r2: float
    slope_rel_err: float


def _exact_terms(
    cov_p: spectral.CovarianceSequence,
    cov_q: spectral.CovarianceSequence,
    n: int,
    tau: float,
) -> tuple:
    """What the draws and the row of one n read: (n, kl, gamma, window,
    exact threshold detector, LLR form under p).  The n x n matrices they
    come from are dropped on return."""
    pair = gaussian.whiten(
        numlin.toeplitz_from_cov(cov_p, n), numlin.toeplitz_from_cov(cov_q, n)
    )
    _require_pair(pair)
    # The window's delta and gamma are the same CLT good threshold.
    gamma = typicality.good_delta_correlated(pair, tau).delta
    window = stein_bounds(pair.kl, gamma, gamma, tau, tau)
    det_np = np_threshold_exact(pair, tau)
    return n, pair.kl, gamma, window, det_np, gaussian.llr_form(pair, "p")


def gcsl_experiment(
    cov_p: spectral.CovarianceSequence,
    cov_q: spectral.CovarianceSequence,
    tau: float,
    ns: Sequence[int],
    count: int,
    seed: int,
) -> GcslResult:
    """Run the full exponent study for a pair of covariance sequences.

    It runs in two phases.  The exact phase takes, for each n, the exact
    KL, the CLT good threshold gamma (from B_n, at eps=tau), the
    analytic exponent window with delta = gamma and the exact level-tau
    threshold (`np_threshold_exact`, no draws); of each n it keeps the LLR
    form and those scalars, not the matrices.  All dense linear algebra
    thus ends before the first draw (see `streams`).

    Only then does the draw phase estimate -ln(beta) by Monte Carlo for
    both the threshold detector and the typical-set detector, in one
    `streams.quadratic_draws` call seeded by (seed, `EVALUATION_STREAM`):
    every n reads the leading n coordinates of the same `count` evaluation
    samples, drawn at the largest n, and both of its detectors are scored
    on them.  A row is thus the same whatever the other n in `ns`, and
    equals `estimate_beta_is` at that n and seed.  Each chunk is reduced
    in its worker to each detector's `_chunk_sums`, so the pass holds a
    few numbers per chunk rather than a value per sample and n.
    """
    if not 0.0 < tau < 0.5:
        raise ValueError(f"tau must lie in (0, 1/2), got {tau}")
    ns = list(ns)
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("ns must be strictly ascending")
    if len(ns) < 3:
        raise ValueError(f"need at least 3 ns for the exponent fit, got {len(ns)}")
    rate = spectral.stein_rate(cov_p, cov_q)
    if rate == 0.0:
        raise DegeneratePairError("the two covariance sequences coincide")

    exact = [_exact_terms(cov_p, cov_q, n, tau) for n in ns]
    _, kls, gammas, _, np_dets, forms = zip(*exact)
    ts_dets = [DetectorSpec.typical_set(gamma) for gamma in gammas]
    sums = streams.quadratic_draws(
        streams.derive_seed(seed, EVALUATION_STREAM),
        count,
        forms,
        lambda llrs: np.array([_chunk_sums(dets, kls, llrs) for dets in (np_dets, ts_dets)]),
    )
    # Axes: chunk, detector (threshold, typical set), sum, n.
    sums = np.array(sums)
    rows = []
    for i, (n, kl, gamma, window, det_np, _) in enumerate(exact):
        est_np = _error_estimates(count, sums[:, 0, :, i])
        est_ts = _error_estimates(count, sums[:, 1, :, i])

        margin = 3.0 * est_np.stderr_beta_log
        in_window = (
            window.exp_lower - margin <= est_np.beta_log <= window.exp_upper + margin
        )
        rows.append(
            GcslRow(
                n=n,
                kl=kl,
                gamma=gamma,
                exp_lower=window.exp_lower,
                exp_upper=window.exp_upper,
                np_threshold=det_np.threshold,
                np_alpha=est_np.alpha_hat,
                np_beta_log=est_np.beta_log,
                np_beta_stderr=est_np.stderr_beta_log,
                ts_alpha=est_ts.alpha_hat,
                ts_beta_log=est_ts.beta_log,
                ts_beta_stderr=est_ts.stderr_beta_log,
                np_ess=est_np.ess,
                ts_ess=est_ts.ess,
                np_underflow=est_np.underflow,
                ts_underflow=est_ts.underflow,
                in_window=in_window,
            )
        )

    fit = exponent_fit([r.n for r in rows], [r.np_beta_log for r in rows])
    return GcslResult(
        rows=rows,
        stein_rate=rate,
        slope=fit.slope,
        r2=fit.r2,
        slope_rel_err=abs(fit.slope - rate) / rate,
    )
