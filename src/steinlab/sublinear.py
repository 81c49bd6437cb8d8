"""A hypothesis pair on the unit cube whose relative entropy grows like ln(sqrt(n)).

p is uniform on [0,1]^n; q puts density n - sqrt(n) on the small sup-norm
ball of radius n^(-1/n) (whose volume is exactly 1/n) and sqrt(n)/(n-1)
outside it.  The log-likelihood ratio takes only two values, so every error
quantity has a closed form and no sampling is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidDimensionError


def _check_n(n: int) -> None:
    if n < 3:
        raise InvalidDimensionError(f"n must be >= 3, got {n}")


def _check_point(n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise InvalidDimensionError(f"expected a vector of length {n}, got {x.shape}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("point lies outside the unit cube")
    return x


def inner_radius(n: int) -> float:
    """Sup-norm radius n^(-1/n) of the high-density region."""
    _check_n(n)
    return n ** (-1.0 / n)


def sub_q_density(n: int, x) -> float:
    """q-density: n - sqrt(n) inside the small ball, sqrt(n)/(n-1) outside."""
    _check_n(n)
    x = _check_point(n, x)
    if np.max(np.abs(x)) <= inner_radius(n):
        return n - math.sqrt(n)
    return math.sqrt(n) / (n - 1.0)


def sub_llr(n: int, x) -> float:
    """Two-valued log-likelihood ratio ln(p/q) in nats."""
    return -math.log(sub_q_density(n, x))


def sub_kl(n: int) -> float:
    """Exact relative entropy: (1/n)ln(1/(n-sqrt n)) + (1-1/n)ln((n-1)/sqrt n)."""
    _check_n(n)
    root = math.sqrt(n)
    return (1.0 / n) * math.log(1.0 / (n - root)) + (1.0 - 1.0 / n) * math.log(
        (n - 1.0) / root
    )


def sub_typical_lb(n: int) -> float:
    """p-probability 1 - 1/n of the outside region.

    There the LLR is ln((n-1)/sqrt n), which differs from the KL by a gap
    that vanishes as n grows; for every delta above that gap the region
    lies in the relative-entropy typical set, whose p-mass this bounds
    from below.
    """
    _check_n(n)
    return 1.0 - 1.0 / n


@dataclass(frozen=True)
class ExactErrors:
    alpha: float
    beta: float
    beta_log: float  # -ln beta = 0.5 ln n


def exact_error_pair(n: int) -> ExactErrors:
    """Exact errors of a threshold between the two LLR values.

    Deciding p on the outside region gives alpha = p(inside) = 1/n and
    beta = q(outside) = 1/sqrt(n), so -ln beta = 0.5 ln n, tracking the KL.
    """
    _check_n(n)
    return ExactErrors(
        alpha=1.0 / n, beta=1.0 / math.sqrt(n), beta_log=0.5 * math.log(n)
    )
