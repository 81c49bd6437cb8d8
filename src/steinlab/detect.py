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
with no draws; every sampled LLR value comes from `streams.quadratic_draws`.
The inversion (`quadratic_form_cdf`) is one adaptive G10/K21
Gauss-Kronrod quadrature whose nodes are evaluated in batches, panel by
panel, until its summed error estimate is at most 1e-12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gaussian, numlin, spectral, streams, typicality
from .exceptions import DegeneratePairError, NumericalFailureError, VacuousBoundError

NEG_INF = float("-inf")
_EPS = float(np.finfo(float).eps)
# `gcsl_experiment` draws its evaluation samples from the sub-stream of
# this key of its seed.
EVALUATION_STREAM = 1

# `quadratic_form_cdf` integrates along a ray this far from the real axis,
# over initial panels that end at these multiples of the local scale.
_RAY_ANGLE = 7.0 * math.pi / 16.0
_RAY_PANELS = (1.5, 3.0, 6.0, 12.0)
# Absolute accuracy asked of each inversion; `np_threshold_exact` stops
# once its type-I error is this close to tau.
_CDF_TOL = 1e-12
# An inversion whose error estimate exceeds this is a failure.
_CDF_ERR_MAX = 1e-10
# An inversion may bisect at most this many panels in all.
_CDF_SPLITS = 10_000
# Largest temporary of the inversion, in doubles: its nodes are evaluated
# in blocks of about this many node-coefficient products.
_BLOCK_DOUBLES = 1 << 20
_NEWTON_STEPS = 50
# Newton steps (or bisections) allowed for the inversion's saddlepoint.
_SADDLE_STEPS = 200

# The G10/K21 Gauss-Kronrod pair on [-1, 1] (Piessens et al., QUADPACK
# 1983), the rule of `scipy.integrate.quad_vec(quadrature="gk21")`: the 11
# Kronrod nodes x >= 0, descending, with their Kronrod and Gauss weights
# (the Gauss nodes are the odd positions).  The rule is symmetric, so the
# other 10 nodes mirror these.
_GK_HALF_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_GK_HALF_KRONROD = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK_HALF_GAUSS = (
    0.0,
    0.066671344308688137593568809893332,
    0.0,
    0.149451349150580593145776339657697,
    0.0,
    0.219086362515982043995534934228163,
    0.0,
    0.269266719309996355091226921569469,
    0.0,
    0.295524224714752870173892994651338,
    0.0,
)
_GK_NODES = np.array(_GK_HALF_NODES + tuple(-x for x in _GK_HALF_NODES[-2::-1]))
_GK_KRONROD = np.array(_GK_HALF_KRONROD + _GK_HALF_KRONROD[-2::-1])
_GK_GAUSS = np.array(_GK_HALF_GAUSS + _GK_HALF_GAUSS[-2::-1])


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
    beyond.

    Both integrals come from one adaptive G10/K21 Gauss-Kronrod
    quadrature of the ray, mapped onto [0, 1) by t = 1 / (1 + r) as
    `scipy.integrate.quad_vec` maps it.  Each round evaluates every node of
    every new panel in one batch, in blocks of about `_BLOCK_DOUBLES`
    doubles, and sums log M(s) along the coefficient axis.  It then
    bisects the panels of largest error estimate, as few as leave at most
    `_CDF_TOL` / 8 in the others, until the summed estimate is at most
    `_CDF_TOL`.  A non-finite value, more than `_CDF_SPLITS` bisections,
    or a final error estimate above `_CDF_ERR_MAX` raises
    `NumericalFailureError`.
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
    a, curvature = _saddlepoint(c, x, lo, hi)
    scale = math.sqrt(curvature)  # sqrt K''(a)
    # Off the pole at 0 by a quarter of the local scale, which stays inside
    # the strip since K''(a) >= 1/(2 d^2) at distance d from an edge.
    a = math.copysign(max(abs(a), 0.25 / scale), a)
    # s = a + r w / scale: unit steps in r span the local scale 1/sqrt K''.
    w = cmath.exp(1j * (_RAY_ANGLE if x >= 0.0 else math.pi - _RAY_ANGLE))
    step = w / scale
    scaled = -2.0 * c
    rows = max(1, _BLOCK_DOUBLES // c.size)

    def integrands(t):
        # Both integrands at the points t of (0, 1), r = (1 - t) / t, each
        # with the Jacobian 1/t^2 of that map.  They are O(1) along the
        # ray: the density's carries a factor scale.
        out = np.empty((2, t.size))
        for start in range(0, t.size, rows):
            tb = t[start : start + rows]
            s = a + (1.0 - tb) / tb * step
            # log M(s) in real arithmetic: 1 - 2 c_j s = u_j + i v_j, whose
            # principal arguments sum to the branch of M continuous from a.
            u = np.multiply.outer(s.real, scaled)
            u += 1.0
            v = np.multiply.outer(s.imag, scaled)
            work = np.hypot(u, v)
            log_abs = np.log(work, out=work).sum(axis=1)
            arg = np.arctan2(v, u, out=work).sum(axis=1)
            h = np.exp(-0.5 * (log_abs + 1j * arg) - s * x) * w
            out[0, start : start + rows] = (h / (scale * s)).imag / tb / tb
            out[1, start : start + rows] = h.imag / tb / tb
        return out

    # Conjugate symmetry folds the two halves of the path into Im int_0^inf.
    # Panels are the columns of `bounds` (lo, hi) and of `est` (tail and
    # density integrals, error estimate, its rounding floor).
    edges = np.array([0.0, *sorted(1.0 / (1.0 + r) for r in _RAY_PANELS), 1.0])
    bounds = np.array([edges[:-1], edges[1:]])
    est = _gk21_panels(integrands, bounds)
    splits = 0
    while np.sum(est[2]) > _CDF_TOL:
        # Bisect the panels of largest error, as few as leave at most 1/8 of
        # the tolerance in the rest; the others are closed for this round.
        # A panel at its rounding floor gains nothing from bisection.
        order = np.argsort(-est[2])
        order = order[est[2, order] > est[3, order]]
        left = np.sum(est[2]) - np.cumsum(est[2, order])
        order = order[: np.count_nonzero(left > _CDF_TOL / 8.0) + 1]
        if order.size == 0:
            break
        splits += order.size
        if splits > _CDF_SPLITS:
            raise NumericalFailureError(
                f"Imhof inversion at x={x!r} needs more than {_CDF_SPLITS} bisections"
            )
        split = np.zeros(bounds.shape[1], dtype=bool)
        split[order] = True
        lo, hi = bounds[:, split]
        mid = 0.5 * (lo + hi)
        halves = np.array([np.concatenate([lo, mid]), np.concatenate([mid, hi])])
        bounds = np.concatenate([bounds[:, ~split], halves], axis=1)
        est = np.concatenate([est[:, ~split], _gk21_panels(integrands, halves)], axis=1)
    tail, density, err = np.sum(est[:3], axis=1)
    tail /= math.pi
    cdf = 1.0 - tail if a > 0.0 else -tail
    density /= math.pi * scale
    if not (math.isfinite(cdf) and math.isfinite(density) and err <= _CDF_ERR_MAX):
        raise NumericalFailureError(
            f"Imhof inversion at x={x!r} failed: cdf={cdf!r}, error estimate {err:.3g}"
        )
    return float(cdf), float(density)


def _saddlepoint(c: np.ndarray, x: float, lo: float, hi: float) -> tuple[float, float]:
    """The root a in (lo, hi) of K'(a) = sum_j c_j / (1 - 2 c_j a) = x, and
    K''(a) = 2 sum_j (c_j / (1 - 2 c_j a))^2.

    Newton's method from 0; a step that leaves the bracket, which shrinks
    to the side of each iterate where K' - x changes sign, is replaced by
    bisection.
    """
    a = 0.0
    for _ in range(_SADDLE_STEPS):
        ratio = c / (1.0 - 2.0 * c * a)
        curvature = float(np.sum(2.0 * ratio**2))
        gap = float(np.sum(ratio)) - x
        if gap == 0.0:
            return a, curvature
        if gap < 0.0:
            lo = a
        else:
            hi = a
        nxt = a - gap / curvature
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - a) <= 4.0 * _EPS * abs(a):
            return a, curvature
        a = nxt
    raise NumericalFailureError(
        f"saddlepoint K'(a) = {x!r} not found in {_SADDLE_STEPS} steps"
    )


def _gk21_panels(f, bounds: np.ndarray) -> np.ndarray:
    """G10/K21 on each panel [lo, hi] (the columns of `bounds`) of a
    2-vector integrand f, which maps points (k,) to values (2, k).

    Returns rows: the two K21 integrals, QUADPACK's error estimate in the
    max norm over them, and its rounding floor, each formed as
    `scipy.integrate.quad_vec` forms it; the estimate is at least the floor.
    """
    lo, hi = bounds
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    fv = f(nodes.ravel()).reshape(2, lo.size, _GK_NODES.size)
    kronrod = fv @ _GK_KRONROD
    spread = np.abs(fv - 0.5 * kronrod[..., None]) @ _GK_KRONROD
    err = np.max(np.abs(kronrod - fv @ _GK_GAUSS), axis=0) * half
    dabs = np.max(spread, axis=0) * half
    damped = (err != 0.0) & (dabs != 0.0)
    err[damped] = dabs[damped] * np.minimum(1.0, (200.0 * err[damped] / dabs[damped]) ** 1.5)
    floor = 50.0 * _EPS * half * np.max(np.abs(fv) @ _GK_KRONROD, axis=0)
    return np.vstack([kronrod * half, np.maximum(err, floor), floor])


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
    t = pair.kl - sd * typicality.qfunc_inv(tau)
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
    # The window's delta and gamma are the same minimal good threshold.
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
    KL, the minimal good threshold gamma (from B_n, at eps=tau), the
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
    rate = spectral.stein_rate(cov_p.spectrum(), cov_q.spectrum())
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
