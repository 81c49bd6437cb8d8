"""Detectors, error-rate estimation, and error-exponent extraction.

The minimal type-II error beta_tau is approximated by the likelihood-ratio
detector (`NpThreshold`) whose type-I error is exactly tau.  The
typical-set detector, which realizes the analytic upper-bound
construction, is the relative-entropy `typicality.TypicalSetSpec` itself:
the set whose p-probability `typical` measures.  Type-II errors are
estimated by exact change of measure (sampling under p with weights
e^{-LLR}).  Only the largest log weight is kept in the log domain, so
-ln beta is formed without underflow where beta is below every double:
near 8,000 nats for 512 coordinates of variance ratio 30.

Everything runs in whitened coordinates: both error probabilities and the
LLR law are invariant under the whitening bijection, so under p the LLR is
the `qform.QuadraticForm` offset + sum_j c_j z_j^2 with c = (kappas - 1)/2
and z standard normal (`gaussian.llr_form`, which rejects a pair identical
up to rounding).  The threshold for a type-I error of tau, down to
`TAU_MIN`, is that form's tau-quantile (`np_threshold_exact`), with no
draws; every sampled LLR value comes from `streams.quadratic_draws`.  The
estimates are read against the lemma's window on the exponent -ln beta_tau
(`stein_bounds`), and their slope in n against the spectral rate
(`exponent_fit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gaussian, qform, spectral, streams, typicality
from .exceptions import DegeneratePairError

NEG_INF = float("-inf")
# The smallest level `np_threshold_exact` takes: the inversion stops within
# `qform.CDF_TOL` of tau in absolute terms, 0.1% of tau here.
TAU_MIN = qform.CDF_TOL * 1e3
# `gcsl_experiment` draws its evaluation samples from the sub-stream of
# this key of its seed.
EVALUATION_STREAM = 1


@dataclass(frozen=True)
class NpThreshold:
    """Likelihood-ratio detector: decide p when llr(x) > threshold."""

    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")

    def contains(self, llrs: np.ndarray) -> np.ndarray:
        """Boolean mask: which LLR values fall in the p-decision region."""
        return llrs > self.threshold


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


def np_threshold_exact(pair: gaussian.HypothesisPair, tau: float) -> NpThreshold:
    """Threshold detector whose type-I error is tau, with no sampling: the
    tau-quantile of the LLR under p (`QuadraticForm.quantile`, to 1e-12 in
    alpha up to the inversion's accuracy, or `NumericalFailureError`), for
    tau from `TAU_MIN`: below it the level found would not be tau."""
    if not TAU_MIN <= tau < 0.5:
        raise ValueError(f"tau must lie in [{TAU_MIN:g}, 1/2), got {tau}")
    return NpThreshold(gaussian.llr_form(pair).quantile(tau, f"NP threshold at tau={tau}"))


def estimate_beta_is(
    det, pair: gaussian.HypothesisPair, count: int, seed: int
) -> ErrorEstimates:
    """Unbiased type-II error estimate from p-samples only, for a detector
    that decides p on the LLR values it `contains`.

    beta = q(decide p) = E_p[e^{-LLR} 1{decide p}]; the weights are summed
    relative to the largest, so -ln beta is finite where beta < e^{-745}.  The
    reported stderr is for -ln(beta_hat), by the delta method.  The same
    draws give the type-I error: `alpha_hat` is the fraction the detector
    rejects, with `stderr_alpha`, and `ess` is the effective sample size
    of the weights.
    """
    if count < 1000:
        raise ValueError(f"count must be >= 1000, got {count}")
    runs = streams.quadratic_draws(
        seed,
        count,
        [gaussian.llr_form(pair)],
        lambda llrs: _chunk_sums(typicality.memberships([det], llrs), llrs),
    )
    return _error_estimates(count, np.concatenate(runs)[:, 0])


def _chunk_sums(accepted: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """The reduction over the last axis of LLR values `llrs`, drawn under
    p, and the mask of the draws a detector `accepted` (broadcast against
    `llrs`): (accepted count, top, sum w, sum w^2) stacked on a new last
    axis.  Here top is the largest accepted -LLR (0 where no draw is
    accepted) and w = e^{-LLR - top}, so every w is at most 1.  Each
    entry depends on its own row of the last axis alone.
    """
    log_weights = np.where(accepted, -llrs, NEG_INF)
    top = np.max(log_weights, axis=-1)
    top[top == NEG_INF] = 0.0
    weights = np.exp(log_weights - top[..., None])
    sum_w = np.sum(weights, axis=-1)
    sum_sq = np.sum(np.square(weights, out=weights), axis=-1)
    return np.stack([np.count_nonzero(accepted, axis=-1), top, sum_w, sum_sq], axis=-1)


def _error_estimates(count: int, sums: np.ndarray) -> ErrorEstimates:
    """Combine one detector's `_chunk_sums`, one row per chunk of the
    `count` draws, into its alpha and IS beta.  Rescaled from each
    chunk's top to the largest, T, the sums give S1 = sum w and S2 = sum
    w^2 over all draws with w = e^{-LLR - T}, both in [1, count]."""
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

    # A chunk that accepted nothing has sums 0 and a placeholder top: give
    # it scale 0, not e^{0 - T}, which is inf once T < -709 (inf * 0 = nan).
    tops = np.where(sums[:, 0] > 0, sums[:, 1], NEG_INF)
    top = float(np.max(tops))
    scale = np.exp(tops - top)
    s1 = float(np.sum(scale * sums[:, 2]))
    s2 = float(np.sum(scale**2 * sums[:, 3]))
    log_beta = top + math.log(s1 / count)
    # Relative spread of the weights, Var(w)/(N mean(w)^2); at most count.
    rel_var = count * s2 / s1**2 - 1.0
    return ErrorEstimates(
        alpha_hat=alpha,
        beta_hat=typicality.exp_or_inf(log_beta),
        beta_log=-log_beta,
        stderr_alpha=stderr_alpha,
        stderr_beta_log=math.sqrt(max(rel_var, 0.0) / count),
        ess=s1**2 / s2,
    )


@dataclass(frozen=True)
class SteinBounds:
    """Two-sided window on the exponent -ln(beta_tau), in nats."""

    exp_lower: float
    exp_upper: float


def stein_bounds(
    kl: float, delta: float, gamma: float, eps: float, tau: float
) -> SteinBounds:
    """Sandwich (1-eps-tau)e^-(D+delta) <= beta_tau <= e^-(D-gamma), as the
    window D - gamma <= -ln(beta_tau) <= D + delta - ln(1-eps-tau)."""
    if delta <= 0.0 or gamma <= 0.0:
        raise ValueError(f"delta and gamma must be positive, got {delta}, {gamma}")
    if eps < 0.0 or tau < 0.0 or eps + tau >= 1.0:
        raise ValueError(f"eps + tau must be < 1, got {eps} + {tau}")
    return SteinBounds(exp_lower=kl - gamma, exp_upper=kl + delta - math.log1p(-(eps + tau)))


def exponent_fit(ns: Sequence[int], beta_logs: Sequence[float]) -> float:
    """Least-squares slope of -ln(beta) against n."""
    ns = np.asarray(ns, dtype=float)
    beta_logs = np.asarray(beta_logs, dtype=float)
    if ns.size < 3 or ns.size != beta_logs.size:
        raise ValueError("need at least 3 (n, beta_log) points")
    if np.ptp(ns) == 0.0:
        raise ValueError("abscissae are degenerate")
    slope, _ = np.polyfit(ns, beta_logs, 1)
    return float(slope)


@dataclass(frozen=True)
class GcslRow:
    """One n of the full pipeline run: the columns `steinlab detect` prints,
    in print order.  D is the exact KL, [lower, upper] the analytic window
    on -ln(beta), and the np_/ts_ columns the threshold and typical-set
    detectors' Monte Carlo estimates (`ErrorEstimates`)."""

    n: int
    D: float
    lower: float
    upper: float
    np_beta_log: float
    ts_beta_log: float
    in_window: bool
    np_alpha: float
    np_beta_stderr: float
    ts_alpha: float
    ts_beta_stderr: float
    np_ess: float
    ts_ess: float
    np_underflow: bool
    ts_underflow: bool


@dataclass(frozen=True)
class GcslResult:
    rows: list[GcslRow]
    stein_rate: float
    slope: float
    slope_rel_err: float


def _exact_terms(cov_p, cov_q, n: int, tau: float) -> tuple:
    """What the draws and the row of one n read: (KL, window, exact
    threshold detector, typical-set detector holding the LLR form, whose
    mean is the KL up to cancellation)."""
    pair = gaussian.whiten_toeplitz(cov_p, cov_q, n)
    # The window's delta and gamma and the typical set's delta are the same
    # CLT good threshold.
    form = gaussian.llr_form(pair)
    gamma = typicality.good_delta(form, tau)
    window = stein_bounds(pair.kl, gamma, gamma, tau, tau)
    det_np = np_threshold_exact(pair, tau)
    return pair.kl, window, det_np, typicality.TypicalSetSpec(form, gamma)


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
    threshold (`np_threshold_exact`, no draws); of each n it keeps the
    KL, the window and the two detectors, not the matrices: the typical
    set holds the LLR form.  All dense linear algebra thus ends before
    the first draw (see `streams`).

    Only then does the draw phase estimate -ln(beta) by Monte Carlo for
    both the threshold detector and the typical-set detector, in one
    `streams.quadratic_draws` call seeded by (seed, `EVALUATION_STREAM`):
    every n reads the leading n coordinates of the same `count` evaluation
    samples, drawn at the largest n, and both of its detectors are scored
    on them.  A row is thus the same whatever the other n in `ns`, and
    equals `estimate_beta_is` at that n and seed.  Each run of chunks is
    reduced in its worker by one `_chunk_sums` call for both detectors at
    every n, so the pass holds a few numbers per chunk rather than a value
    per sample and n.
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
    kls, windows, np_dets, ts_dets = zip(*exact)
    runs = streams.quadratic_draws(
        streams.derive_seed(seed, EVALUATION_STREAM),
        count,
        [ts.form for ts in ts_dets],
        lambda llrs: _chunk_sums(
            np.stack([typicality.memberships(dets, llrs) for dets in (np_dets, ts_dets)], axis=1),
            llrs[:, None],
        ),
    )
    # Axes: chunk, detector (threshold, typical set), n, sum.
    sums = np.concatenate(runs)
    rows = []
    for i, (n, kl, window) in enumerate(zip(ns, kls, windows)):
        est_np = _error_estimates(count, sums[:, 0, i])
        est_ts = _error_estimates(count, sums[:, 1, i])
        margin = 3.0 * est_np.stderr_beta_log
        in_window = window.exp_lower - margin <= est_np.beta_log <= window.exp_upper + margin
        rows.append(
            GcslRow(
                n=n,
                D=kl,
                lower=window.exp_lower,
                upper=window.exp_upper,
                np_beta_log=est_np.beta_log,
                ts_beta_log=est_ts.beta_log,
                in_window=in_window,
                np_alpha=est_np.alpha_hat,
                np_beta_stderr=est_np.stderr_beta_log,
                ts_alpha=est_ts.alpha_hat,
                ts_beta_stderr=est_ts.stderr_beta_log,
                np_ess=est_np.ess,
                ts_ess=est_ts.ess,
                np_underflow=est_np.underflow,
                ts_underflow=est_ts.underflow,
            )
        )

    slope = exponent_fit([r.n for r in rows], [r.np_beta_log for r in rows])
    return GcslResult(
        rows=rows, stein_rate=rate, slope=slope, slope_rel_err=abs(slope - rate) / rate
    )
