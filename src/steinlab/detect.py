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
Its law is known exactly, so the threshold for a type-I error of tau is
the root of an inverted characteristic function (`np_threshold_exact`),
with no draws; every sampled LLR value comes from `gaussian.llr_chunks`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad_vec
from scipy.optimize import brentq
from scipy.special import logsumexp, ndtri

from . import gaussian, numlin, spectral, streams, typicality
from .exceptions import DegeneratePairError, NumericalFailureError, VacuousBoundError

NEG_INF = float("-inf")

# `quadratic_form_cdf` integrates along a ray this far from the real axis,
# over initial panels that end at these multiples of the local scale.
_RAY_ANGLE = 7.0 * math.pi / 16.0
_RAY_PANELS = (1.5, 3.0, 6.0, 12.0)
# Absolute accuracy asked of each inversion; `np_threshold_exact` stops
# once its type-I error is this close to tau.
_CDF_TOL = 1e-12
# An inversion whose error estimate exceeds this is a failure.
_CDF_ERR_MAX = 1e-10
_NEWTON_STEPS = 50


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
    return np.concatenate(list(gaussian.llr_chunks(pair, count, seed, under)))


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


def quadratic_form_cdf(coef: np.ndarray, x: float) -> tuple[float, float]:
    """P(Q <= x) and the density of Q at x, for Q = sum_j coef[j] z_j^2 with
    z iid standard normal; the coefficients may have either sign, and at
    least one must be nonzero.

    Imhof's (1961) inversion of the moment generating function
    M(s) = prod_j (1 - 2 c_j s)^(-1/2): for real a != 0 inside its strip,
    (1/2 pi i) int M(s) e^{-sx} ds / s up the line Re s = a is P(Q > x)
    when a > 0 and -P(Q <= x) when a < 0, and the same integral without
    the 1/s is the density.  Imhof's real form (a -> 0) has an integrand
    that oscillates and decays only like u^(-1 - n/2).  Here a is the
    saddlepoint K'(a) = x of K(s) = log M(s) - s x, moved off the pole at
    0 if need be, and the line is turned about it toward the side where
    e^{-sx} decays.  M is singular on the real axis only, so the turn
    changes neither integral, and along the ray the integrand falls off
    like a Gaussian of width 1/sqrt K''(a) near a and exponentially
    beyond.  One `quad_vec` call gives both integrals.
    """
    c = np.asarray(coef, dtype=float)
    c = c[c != 0.0]
    if c.size == 0:
        raise ValueError("need at least one nonzero coefficient")
    c_min, c_max = float(np.min(c)), float(np.max(c))
    if c_min > 0.0 and x <= 0.0:
        return 0.0, 0.0
    if c_max < 0.0 and x >= 0.0:
        return 1.0, 0.0
    # K' is increasing; bracket its root by the strip's edges 1/(2 c) or,
    # on a side with no edge, by -m/x, where K' - x already has the sign.
    lo = 0.5 / c_min * (1.0 - 1e-9) if c_min < 0.0 else -c.size / x
    hi = 0.5 / c_max * (1.0 - 1e-9) if c_max > 0.0 else -c.size / x
    a = brentq(lambda s: float(np.sum(c / (1.0 - 2.0 * c * s))) - x, lo, hi)
    scale = math.sqrt(float(np.sum(2.0 * (c / (1.0 - 2.0 * c * a)) ** 2)))  # sqrt K''(a)
    # Off the pole at 0 by a quarter of the local scale, which stays inside
    # the strip since K''(a) >= 1/(2 d^2) at distance d from an edge.
    a = math.copysign(max(abs(a), 0.25 / scale), a)
    # s = a + r w / scale: unit steps in r span the local scale 1/sqrt K''.
    w = cmath.exp(1j * (_RAY_ANGLE if x >= 0.0 else math.pi - _RAY_ANGLE))
    step = w / scale
    scaled = -2.0 * c

    def integrands(r):
        s = a + r * step
        # log M(s) in real arithmetic: 1 - 2 c_j s = u_j + i v_j, whose
        # principal arguments sum to the branch of M continuous from a.
        u = scaled * s.real
        u += 1.0
        v = scaled * s.imag
        log_m = complex(np.log(np.hypot(u, v)).sum(), np.arctan2(v, u).sum())
        h = cmath.exp(-0.5 * log_m - s * x) * w
        # Both integrands are O(1): the density's carries a factor scale.
        return np.array([(h / (scale * s)).imag, h.imag])

    # Conjugate symmetry folds the two halves of the path into Im int_0^inf.
    (tail, density), err = quad_vec(
        integrands,
        0.0,
        math.inf,
        epsabs=_CDF_TOL,
        epsrel=0.0,
        norm="max",
        quadrature="gk21",
        points=_RAY_PANELS,
    )
    tail /= math.pi
    cdf = 1.0 - tail if a > 0.0 else -tail
    density /= math.pi * scale
    if not (math.isfinite(cdf) and math.isfinite(density) and err <= _CDF_ERR_MAX):
        raise NumericalFailureError(
            f"Imhof inversion at x={x!r} failed: cdf={cdf!r}, error estimate {err:.3g}"
        )
    return cdf, density


def np_threshold_exact(pair: gaussian.HypothesisPair, tau: float) -> DetectorSpec:
    """Threshold detector whose type-I error is tau, with no sampling.

    Under p the LLR is offset + Q (`gaussian.llr_form`), so the type-I
    error at threshold t is alpha(t) = P(Q <= t - offset), from
    `quadratic_form_cdf`.  Newton's method solves alpha(t) = tau from the
    normal quantile kl + (b_n / sqrt 2) Phi^-1(tau); a step that leaves the
    bracket found so far is replaced by bisection.  The returned threshold
    has |alpha(t) - tau| <= 1e-12, up to the inversion's accuracy.
    """
    if not 0.0 < tau < 0.5:
        raise ValueError(f"tau must lie in (0, 1/2), got {tau}")
    _require_pair(pair)
    coef, offset = gaussian.llr_form(pair, "p")
    sd = pair.b_n / math.sqrt(2.0)
    t = pair.kl + sd * float(ndtri(tau))
    lo, hi = -math.inf, math.inf
    for _ in range(_NEWTON_STEPS):
        alpha, density = quadratic_form_cdf(coef, t - offset)
        if abs(alpha - tau) <= _CDF_TOL:
            return DetectorSpec.np_threshold(t)
        if alpha < tau:
            lo = t
        else:
            hi = t
        nxt = t - (alpha - tau) / density if density > 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if math.isfinite(lo + hi) else t + math.copysign(sd, tau - alpha)
        t = nxt
    raise NumericalFailureError(
        f"NP threshold at tau={tau} not found in {_NEWTON_STEPS} Newton steps"
    )


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
    return _error_estimates(det, sample_llr(pair, count, seed), pair.kl)


def _error_estimates(det: DetectorSpec, llrs: np.ndarray, kl: float) -> ErrorEstimates:
    """Reduce LLR values drawn under p to the detector's alpha and IS beta."""
    count = llrs.size
    accepted = det.accepts_p(llrs, kl)
    alpha = int(np.count_nonzero(~accepted)) / count
    stderr_alpha = math.sqrt(max(alpha * (1.0 - alpha), 0.0) / count)
    log_weights = np.where(accepted, -llrs, NEG_INF)

    if not np.any(accepted):
        return ErrorEstimates(
            alpha_hat=alpha,
            beta_hat=0.0,
            beta_log=math.inf,
            stderr_alpha=stderr_alpha,
            stderr_beta_log=math.inf,
            ess=0.0,
            underflow=True,
        )

    log_sum = float(logsumexp(log_weights))
    log_sum_sq = float(logsumexp(2.0 * log_weights))
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


def gcsl_experiment(
    cov_p: spectral.CovarianceSequence,
    cov_q: spectral.CovarianceSequence,
    tau: float,
    ns: Sequence[int],
    count: int,
    seed: int,
) -> GcslResult:
    """Run the full exponent study for a pair of covariance sequences.

    For each n: exact KL, the minimal good threshold gamma (from B_n, at
    eps=tau), the analytic exponent window with delta = gamma, the exact
    level-tau threshold (`np_threshold_exact`, no draws), and Monte Carlo
    -ln(beta) for both the threshold detector and the typical-set detector.
    Each n draws one set of evaluation samples, from its own derived seed,
    and both detectors are scored on it.
    """
    if not 0.0 < tau < 0.5:
        raise ValueError(f"tau must lie in (0, 1/2), got {tau}")
    ns = list(ns)
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("ns must be strictly ascending")
    if len(ns) < 3:
        raise ValueError(f"need at least 3 ns for the exponent fit, got {len(ns)}")
    rate = spectral.stein_rate(cov_p.spectrum(), cov_q.spectrum())
    if rate == 0.0:
        raise DegeneratePairError("the two covariance sequences coincide")

    rows = []
    for i, n in enumerate(ns):
        lam_p = numlin.toeplitz_from_cov(cov_p, n)
        lam_q = numlin.toeplitz_from_cov(cov_q, n)
        pair = gaussian.whiten(lam_p, lam_q)
        _require_pair(pair)
        # The window's delta and gamma are the same minimal good threshold.
        gamma = typicality.good_delta_correlated(pair, tau).delta
        window = stein_bounds(pair.kl, gamma, gamma, tau, tau)

        det_np = np_threshold_exact(pair, tau)
        det_ts = DetectorSpec.typical_set(gamma)
        llrs = sample_llr(pair, count, streams.derive_seed(seed, i, 1))
        est_np = _error_estimates(det_np, llrs, pair.kl)
        est_ts = _error_estimates(det_ts, llrs, pair.kl)

        margin = 3.0 * est_np.stderr_beta_log
        in_window = (
            window.exp_lower - margin <= est_np.beta_log <= window.exp_upper + margin
        )
        rows.append(
            GcslRow(
                n=n,
                kl=pair.kl,
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
