"""Typical sets, their good thresholds, and their bound calculators.

Covers both flavors of typical set (entropy-centered and relative-entropy-
centered) as the statistic each tests, the inverse normal tail they
calibrate against, the CLT good thresholds for the white and the
correlated Gaussian cases (normal approximations, neither minimal nor
always eps-good), Monte Carlo set-probability estimation on the draws
of `streams.quadratic_draws`, the volume / q-probability bound formulas,
and a CLT check of the log-likelihood-ratio fluctuation.
Everything is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Sequence

import numpy as np

from . import gaussian, streams
from .exceptions import DegeneratePairError

EXP_OVERFLOW = 700.0  # exp() overflows past this in double precision
# `clt_psi_check` passes when its Kolmogorov-Smirnov distance is below this.
CLT_KS_BOUND = 0.02


def qfunc_inv(p: float) -> float:
    """Inverse of Q on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"qfunc_inv requires p in (0, 1), got {p}")
    return -NormalDist().inv_cdf(p)


def good_delta_white_gaussian(n: int, eps: float) -> float:
    """CLT threshold sqrt(n/2)*Qinv(eps/2) for the white Gaussian set.

    It treats the centred chi-square statistic as normal.  That is not the
    minimal eps-good threshold: the set it gives over-covers (0.955 at
    n = 8, 0.950 at n = 256, for eps = 0.05)."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return math.sqrt(n / 2.0) * qfunc_inv(eps / 2.0)


@dataclass(frozen=True)
class CorrelatedThreshold:
    delta: float
    b_n: float


def good_delta_correlated(
    pair: gaussian.HypothesisPair, eps: float
) -> CorrelatedThreshold:
    """CLT threshold (B_n/sqrt(2))*Qinv(eps/2) for a whitened pair.

    It treats the LLR as normal with variance B_n^2/2.  That is neither
    minimal nor always eps-good: at rho = 0.5 against white noise and
    eps = 0.05 the exact coverage is 0.9438 at n = 8, 0.94945 at n = 64
    and 0.95002 at n = 256."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    b_n = pair.b_n
    if b_n == 0.0:
        raise DegeneratePairError("hypotheses are identical (all kappas are 1)")
    return CorrelatedThreshold(
        delta=b_n / math.sqrt(2.0) * qfunc_inv(eps / 2.0), b_n=b_n
    )


@dataclass(frozen=True, eq=False)
class TypicalSetSpec:
    """A typical set as the statistic it tests.

    A draw from p lies in the set when its statistic,
    offset + sum_j coef[j] z_j^2 with z ~ N(0, I), is within delta of
    center.  Both kinds of set have a statistic of that form: -log p(x)
    for the entropy set (`entropy`), the log-likelihood ratio for the
    relative-entropy set (`relative_entropy`).
    """

    delta: float
    center: float
    coef: np.ndarray = field(repr=False)
    offset: float

    @classmethod
    def entropy(cls, model: gaussian.GaussianModel, delta: float) -> "TypicalSetSpec":
        """Entropy-centred set: a draw from p is L z (L L^T = Lambda), and
        -log p(L z) = 0.5 (n ln 2 pi + log det Lambda) + 0.5 |z|^2, so only
        the model's log-determinant and entropy are read."""
        if delta <= 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        return cls(
            delta=delta,
            center=model.entropy,
            coef=np.full(model.n, 0.5),
            offset=0.5 * (model.n * gaussian.LOG_2PI + model.log_det),
        )

    @classmethod
    def relative_entropy(
        cls, pair: gaussian.HypothesisPair, delta: float
    ) -> "TypicalSetSpec":
        """KL-centred set, on the LLR under p (`gaussian.llr_form`)."""
        if delta <= 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        if not math.isfinite(pair.kl):
            raise ValueError("pair KL must be finite")
        coef, offset = gaussian.llr_form(pair, "p")
        return cls(delta=delta, center=pair.kl, coef=coef, offset=offset)


@dataclass(frozen=True)
class MonteCarloProbability:
    estimate: float
    stderr: float


def mc_typical_prob(
    spec: TypicalSetSpec, count: int, seed: int
) -> MonteCarloProbability:
    """Fraction of `count` samples from p that land in the typical set,
    with its binomial standard error: `mc_typical_probs` of one set."""
    return mc_typical_probs([spec], count, seed)[0]


def mc_typical_probs(
    specs: Sequence[TypicalSetSpec], count: int, seed: int
) -> list[MonteCarloProbability]:
    """`mc_typical_prob` of each set, from one `streams.quadratic_draws`
    call: every set reads the leading coordinates of the same `count`
    samples, so its estimate does not depend on the other sets.  Each
    chunk is reduced in its worker to the count inside each set.  For a
    relative-entropy set the statistic is the value `detect.sample_llr`
    gives.
    """
    if count < 1000:
        raise ValueError(f"count must be >= 1000, got {count}")
    centers = np.array([[spec.center] for spec in specs])
    deltas = np.array([[spec.delta] for spec in specs])
    inside = streams.quadratic_draws(
        seed,
        count,
        [(spec.coef, spec.offset) for spec in specs],
        lambda stats: np.count_nonzero(np.abs(stats - centers) <= deltas, axis=1),
    )
    results = []
    for hits in np.sum(inside, axis=0):
        estimate = int(hits) / count
        stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / count)
        results.append(MonteCarloProbability(estimate=estimate, stderr=stderr))
    return results


def exp_or_inf(log_value: float) -> float:
    """e^log_value, saturated to inf or 0 beyond +-EXP_OVERFLOW."""
    if log_value > EXP_OVERFLOW:
        return math.inf
    if log_value < -EXP_OVERFLOW:
        return 0.0
    return math.exp(log_value)


@dataclass(frozen=True)
class VolumeBounds:
    upper: float
    lower: float
    log_upper: float
    log_lower: float


def volume_bounds(h: float, delta: float, eps: float) -> VolumeBounds:
    """Typical-set volume window: e^(h+delta) above, (1-eps)e^(h-delta) below."""
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    log_upper = h + delta
    log_lower = math.log1p(-eps) + h - delta
    return VolumeBounds(
        upper=exp_or_inf(log_upper),
        lower=exp_or_inf(log_lower),
        log_upper=log_upper,
        log_lower=log_lower,
    )


@dataclass(frozen=True)
class QProbBounds:
    upper: float
    lower: float
    log_upper: float
    log_lower: float


def q_prob_bounds(kl: float, delta: float, eps: float) -> QProbBounds:
    """q-mass window of the relative-entropy typical set.

    Upper: e^-(D-delta).  Lower (for eps-good delta): (1-eps)e^-(D+delta).
    """
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    log_upper = -(kl - delta)
    log_lower = math.log1p(-eps) - (kl + delta)
    return QProbBounds(
        upper=exp_or_inf(log_upper),
        lower=exp_or_inf(log_lower),
        log_upper=log_upper,
        log_lower=log_lower,
    )


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
    if pair.b_n == 0.0:
        raise DegeneratePairError("hypotheses are identical (all kappas are 1)")
    llrs = streams.quadratic_values(seed, count, *gaussian.llr_form(pair, "p"))
    values = np.sort((llrs - pair.kl) * (math.sqrt(2.0) / pair.b_n))
    cdf = 0.5 * np.fromiter(map(math.erfc, -values / math.sqrt(2.0)), float, count)
    i = np.arange(1, count + 1)
    ks = float(np.max(np.maximum(i / count - cdf, cdf - (i - 1) / count)))
    mean = float(np.mean(values))
    variance = float(np.var(values))
    return CltCheck(ks_distance=ks, mean=mean, variance=variance, passed=ks < CLT_KS_BOUND)
