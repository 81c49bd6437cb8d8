"""Typical sets, their good thresholds, and their bound calculators.

A typical set is a `qform.QuadraticForm` statistic and a delta: the
entropy-centred set tests -log p (`gaussian.surprisal_forms`), the
relative-entropy-centred set the log-likelihood ratio (`gaussian.llr_form`),
with one membership rule; the relative-entropy set is also the
typical-set detector that `detect` scores.  Besides the sets: the CLT good
threshold `good_delta` of any form (the inverse normal tail, scaled: a
normal approximation, neither minimal nor always eps-good), Monte Carlo
set-probability estimation on the draws of `streams.quadratic_draws`, and
one window that bounds both a set's volume and the relative-entropy set's
q-mass.  Everything is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from . import qform, streams
from .exceptions import DegeneratePairError


def good_delta(form: qform.QuadraticForm, eps: float) -> float:
    """CLT threshold (B/sqrt(2)) Qinv(eps/2) for the statistic `form`, as if
    it were normal with variance B^2/2.  That is neither minimal nor always
    eps-good: at eps = 0.05 the white entropy set covers 0.955 at n = 8 and
    0.950 at n = 256, the LLR set of rho = 0.5 against white noise 0.9438
    at n = 8, 0.94945 at n = 64 and 0.95002 at n = 256."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not form.scale > 0.0:
        raise DegeneratePairError("the statistic is constant (all coefficients are 0)")
    return form.scale / math.sqrt(2.0) * -NormalDist().inv_cdf(eps / 2.0)


@dataclass(frozen=True, eq=False)
class TypicalSetSpec:
    """A typical set as the statistic it tests.

    A draw from p lies in the set when its statistic `form` is within
    delta of the form's mean, the center: up to rounding, the entropy for
    the entropy set, the KL for the relative-entropy set.  The latter is
    also the detector of the lemma's achievability half, which `detect`
    scores: it decides p on the draws the set contains.
    """

    form: qform.QuadraticForm
    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")

    @property
    def center(self) -> float:
        return self.form.mean

    def contains(self, stats: np.ndarray) -> np.ndarray:
        """Boolean mask: which statistic values lie in the set."""
        return np.abs(stats - self.center) <= self.delta


def memberships(sets: Sequence, values: np.ndarray) -> np.ndarray:
    """Which draws each of `sets` contains, sets[i] on its own form's values
    values[:, i] in a (chunk, form, sample) run of `streams.quadratic_draws`:
    a mask of the shape of `values`.  A set is anything with `contains`: a
    typical set, or a detector that `detect` scores."""
    return np.stack([s.contains(values[:, i]) for i, s in enumerate(sets)], axis=1)


@dataclass(frozen=True)
class MonteCarloProbability:
    estimate: float
    stderr: float


def mc_typical_probs(
    specs: Sequence[TypicalSetSpec], count: int, seed: int
) -> list[MonteCarloProbability]:
    """For each set, the fraction of `count` samples from p that land in
    it, with its binomial standard error, from one `streams.quadratic_draws`
    call: every set reads the leading coordinates of the same `count`
    samples, so its estimate does not depend on the other sets.  Each run
    of chunks is reduced in its worker to the count inside each set, one
    row per chunk, by one count over all the sets.
    """
    if count < 1000:
        raise ValueError(f"count must be >= 1000, got {count}")
    runs = streams.quadratic_draws(
        seed,
        count,
        [spec.form for spec in specs],
        lambda stats: np.count_nonzero(memberships(specs, stats), axis=-1),
    )
    results = []
    for hits in np.sum(np.concatenate(runs), axis=0):
        estimate = int(hits) / count
        stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / count)
        results.append(MonteCarloProbability(estimate=estimate, stderr=stderr))
    return results


def exp_or_inf(log_value: float) -> float:
    """e^log_value, or inf where it overflows a double (past ln 2^1024)."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class VolumeBounds:
    upper: float
    lower: float
    log_upper: float
    log_lower: float


def volume_bounds(h: float, delta: float, eps: float) -> VolumeBounds:
    """Typical-set volume window: e^(h+delta) above, (1-eps)e^(h-delta) below.

    For an eps-good set, h is the entropy for its volume and -D for the
    q-mass of the relative-entropy set: there q = p e^-LLR with LLR within
    delta of D, so that mass lies in [(1-eps)e^-(D+delta), e^-(D-delta)].
    """
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
