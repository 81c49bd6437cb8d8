"""Typical sets, good threshold families, and their bound calculators.

Covers both flavors of typical set (entropy-centered and relative-entropy-
centered), the normal-tail utilities they calibrate against, the minimal
good thresholds for the iid / white Gaussian / correlated Gaussian cases,
Monte Carlo set-probability estimation, and the volume / q-probability
bound formulas.  Everything is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy import special

from . import gaussian, streams
from .exceptions import DegeneratePairError, VacuousBoundError

EXP_OVERFLOW = 700.0  # exp() overflows past this in double precision


def qfunc(x: float) -> float:
    """Standard normal upper-tail probability Q(x)."""
    return float(0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0)))


def qfunc_inv(p: float) -> float:
    """Inverse of Q on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"qfunc_inv requires p in (0, 1), got {p}")
    return float(math.sqrt(2.0) * special.erfcinv(2.0 * p))


@dataclass(frozen=True)
class ScalarFamily:
    """A positive threshold family delta^[n] with an asymptotic-class tag.

    Kinds: constant c, linear n*xi, sqrt_scaled c*sqrt(n), bn_scaled
    c*B_n (pair-dependent, via a supplied n -> B_n map), or a finite table.
    """

    kind: str
    coeff: float = 1.0
    table: Mapping[int, float] | None = None
    bn_of: Callable[[int], float] | None = None

    _KINDS = ("constant", "linear", "sqrt_scaled", "bn_scaled", "table")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "table" and not self.table:
            raise ValueError("table family needs a non-empty table")
        if self.kind == "bn_scaled" and self.bn_of is None:
            raise ValueError("bn_scaled family needs an n -> B_n map")
        if self.kind != "table" and self.coeff <= 0.0:
            raise ValueError(f"family coefficient must be positive, got {self.coeff}")

    @classmethod
    def constant(cls, c: float) -> "ScalarFamily":
        return cls(kind="constant", coeff=c)

    @classmethod
    def linear(cls, xi: float) -> "ScalarFamily":
        return cls(kind="linear", coeff=xi)

    @classmethod
    def sqrt_scaled(cls, c: float) -> "ScalarFamily":
        return cls(kind="sqrt_scaled", coeff=c)

    @classmethod
    def bn_scaled(cls, c: float, bn_of: Callable[[int], float]) -> "ScalarFamily":
        return cls(kind="bn_scaled", coeff=c, bn_of=bn_of)

    @classmethod
    def tabulated(cls, table: Mapping[int, float]) -> "ScalarFamily":
        return cls(kind="table", table=dict(table))

    def value(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if self.kind == "constant":
            v = self.coeff
        elif self.kind == "linear":
            v = self.coeff * n
        elif self.kind == "sqrt_scaled":
            v = self.coeff * math.sqrt(n)
        elif self.kind == "bn_scaled":
            v = self.coeff * self.bn_of(n)
        else:
            v = self.table[n]
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"family value at n={n} is not positive finite: {v}")
        return float(v)


GOOD_FOR_ALL_CONSTANTS = "good-for-all-constants"
NOT_GOOD_FOR_ALL_CONSTANTS = "not"


@dataclass(frozen=True)
class FamilyClassification:
    label: str
    heuristic: bool = False


def family_class(fam: ScalarFamily) -> FamilyClassification:
    """Classify whether delta^[n]/sqrt(n) grows without bound.

    Linear families qualify; constant, sqrt-scaled and B_n-scaled ones do
    not (B_n is Theta(sqrt(n)) for bounded spectra).  Tables are judged by
    the trend of delta/sqrt(n) over their range and flagged heuristic.
    """
    if fam.kind == "linear":
        return FamilyClassification(GOOD_FOR_ALL_CONSTANTS)
    if fam.kind in ("constant", "sqrt_scaled", "bn_scaled"):
        return FamilyClassification(NOT_GOOD_FOR_ALL_CONSTANTS)
    ns = sorted(fam.table)
    first = fam.value(ns[0]) / math.sqrt(ns[0])
    last = fam.value(ns[-1]) / math.sqrt(ns[-1])
    label = GOOD_FOR_ALL_CONSTANTS if last > 2.0 * first else NOT_GOOD_FOR_ALL_CONSTANTS
    return FamilyClassification(label, heuristic=True)


def entropy_typical_member(
    model: gaussian.GaussianModel, delta: float, x: np.ndarray
) -> bool:
    """True iff -log p(x) is within delta of the differential entropy."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    neg_log = -gaussian.log_density(model, x)
    return bool(model.entropy - delta <= neg_log <= model.entropy + delta)


def rel_typical_member(
    pair: gaussian.HypothesisPair, delta: float, x: np.ndarray
) -> bool:
    """True iff the log-likelihood ratio at x is within delta of the KL."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    value = gaussian.llr(pair, x)
    return bool(pair.kl - delta <= value <= pair.kl + delta)


def good_delta_iid(sigma: float, n: int, eps: float) -> float:
    """Minimal CLT threshold sigma*sqrt(n)*Qinv(eps/2) for the iid case."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return sigma * math.sqrt(n) * qfunc_inv(eps / 2.0)


def good_delta_white_gaussian(n: int, eps: float) -> float:
    """Minimal threshold sqrt(n/2)*Qinv(eps/2) for the white Gaussian set."""
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
    """Minimal threshold (B_n/sqrt(2))*Qinv(eps/2) for a whitened pair."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    b_n = pair.b_n
    if b_n == 0.0:
        raise DegeneratePairError("hypotheses are identical (all kappas are 1)")
    return CorrelatedThreshold(
        delta=b_n / math.sqrt(2.0) * qfunc_inv(eps / 2.0), b_n=b_n
    )


@dataclass(frozen=True)
class TypicalSetSpec:
    """A typical set: which center (entropy or KL), whose law, what delta."""

    variant: str  # "entropy" | "rel_entropy"
    delta: float
    model: gaussian.GaussianModel | None = None
    pair: gaussian.HypothesisPair | None = None

    @classmethod
    def entropy(cls, model: gaussian.GaussianModel, delta: float) -> "TypicalSetSpec":
        if delta <= 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        return cls(variant="entropy", delta=delta, model=model)

    @classmethod
    def relative_entropy(
        cls, pair: gaussian.HypothesisPair, delta: float
    ) -> "TypicalSetSpec":
        if delta <= 0.0:
            raise ValueError(f"delta must be positive, got {delta}")
        if not math.isfinite(pair.kl):
            raise ValueError("pair KL must be finite")
        return cls(variant="rel_entropy", delta=delta, pair=pair)

    @property
    def center(self) -> float:
        if self.variant == "entropy":
            return self.model.entropy
        return self.pair.kl


@dataclass(frozen=True)
class MonteCarloProbability:
    estimate: float
    stderr: float
    count: int
    seed: int


def mc_typical_prob(
    spec: TypicalSetSpec, count: int, seed: int
) -> MonteCarloProbability:
    """Fraction of samples from p that land in the typical set.

    Entropy set: a draw from p is L z (L L^T = Lambda), and
    -log p(L z) = 0.5 (n ln 2 pi + log det Lambda) + 0.5 |z|^2, so only the
    model's log-determinant is read.
    """
    if count < 1000:
        raise ValueError(f"count must be >= 1000, got {count}")
    if spec.variant == "entropy":
        model = spec.model
        offset = 0.5 * (model.n * gaussian.LOG_2PI + model.log_det)
        stats = (
            quad + offset
            for quad in streams.quadratic_chunks(seed, count, np.full(model.n, 0.5))
        )
    else:
        stats = gaussian.llr_chunks(spec.pair, count, seed, "p")
    hits = 0
    for stat in stats:
        hits += int(np.count_nonzero(np.abs(stat - spec.center) <= spec.delta))
    estimate = hits / count
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / count)
    return MonteCarloProbability(estimate=estimate, stderr=stderr, count=count, seed=seed)


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
class LowerBound:
    value: float
    log_value: float


def other_set_volume_lb(h: float, delta: float, eps: float, eps2: float) -> LowerBound:
    """Volume floor (1-eps-eps2)e^(h-delta) for any high-p-probability set."""
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if eps < 0.0 or eps2 < 0.0 or eps + eps2 >= 1.0:
        raise VacuousBoundError(f"eps + eps2 must be < 1, got {eps} + {eps2}")
    log_value = math.log1p(-(eps + eps2)) + h - delta
    return LowerBound(value=exp_or_inf(log_value), log_value=log_value)


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


def clt_psi_check(
    pair: gaussian.HypothesisPair,
    count: int,
    seed: int,
    ks_bound: float = 0.02,
) -> CltCheck:
    """Simulate the normalized LLR fluctuation and compare it to Phi.

    Each replicate is (LLR - D) sqrt(2) / B_n under p, i.e. sum_k (kappa_k - 1)
    / (sqrt(2) B_n) * (Y_k^2 - 1) with iid standard normal Y; its law should
    be near standard normal for large n.  Returns the Kolmogorov-Smirnov
    sup-gap of the empirical CDF against Phi.
    """
    if count < 10_000:
        raise ValueError(f"count must be >= 10000, got {count}")
    if pair.b_n == 0.0:
        raise DegeneratePairError("hypotheses are identical (all kappas are 1)")
    llrs = np.concatenate(list(gaussian.llr_chunks(pair, count, seed, "p")))
    values = np.sort((llrs - pair.kl) * (math.sqrt(2.0) / pair.b_n))
    cdf = 0.5 * special.erfc(-values / math.sqrt(2.0))
    i = np.arange(1, count + 1)
    ks = float(np.max(np.maximum(i / count - cdf, cdf - (i - 1) / count)))
    mean = float(np.mean(values))
    variance = float(np.var(values))
    return CltCheck(ks_distance=ks, mean=mean, variance=variance, passed=ks < ks_bound)
