"""The law of a statistic offset + sum_j c_j z_j^2, z iid standard normal,
as one value, `QuadraticForm`: every statistic a study reads is one.  Its
law is Imhof's inversion (`quadratic_form_cdf`), one trapezoid rule along
a hyperbola through the saddlepoint, refined by halving its step, and its
quantiles come from `bracketed_newton`, the one root finder for an
increasing function, under one step budget, which the saddlepoint calls too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .exceptions import NumericalFailureError

_EPS = float(np.finfo(float).eps)
# Absolute accuracy asked of each inversion; `QuadraticForm.quantile`
# stops once the CDF is this close to its level.
CDF_TOL = 1e-12
# `quadratic_form_cdf` integrates along a hyperbola that bends off the
# vertical line by this much, starts its trapezoid rule at this step (in
# units of the local scale) and halves the step at most this many times.
_BEND = 0.25
_FIRST_STEP = 0.5
_HALVINGS = 12
# Largest temporary of the inversion, in doubles: its nodes are evaluated
# in blocks of about this many node-coefficient products.
_BLOCK_DOUBLES = 1 << 20
# Newton steps (or bisections) allowed to each `bracketed_newton` solve.
_NEWTON_STEPS = 200


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """The statistic offset + sum_j coef[j] z_j^2, z ~ N(0, I), with `coef`
    stored as a contiguous float array: mean offset + sum(coef), variance
    B^2 / 2 for the CLT `scale` B = sqrt(sum (2 coef[j])^2)."""

    coef: np.ndarray = field(repr=False)
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "coef", np.ascontiguousarray(self.coef, dtype=float))
        object.__setattr__(self, "offset", float(self.offset))

    @functools.cached_property
    def mean(self) -> float:
        return self.offset + float(np.sum(self.coef))

    @functools.cached_property
    def scale(self) -> float:
        return float(np.sqrt(np.sum((2.0 * self.coef) ** 2)))

    def cdf(self, t: float) -> tuple[float, float]:
        """P(statistic <= t) and its density at t (`quadratic_form_cdf`)."""
        return quadratic_form_cdf(self.coef, t - self.offset)

    def quantile(self, p: float, what: str) -> float:
        """The t with cdf(t) = p to `CDF_TOL`, by `bracketed_newton` from
        the normal quantile mean + sd Phi^-1(p), sd = B / sqrt 2, moving by
        sd while the bracket is open; `what` names the solve in a
        `NumericalFailureError`.  Below the level each step is Newton's on
        ln F, (ln F - ln p) F / f, and none where F = 0: from deep in the
        lower tail a plain step would throw t far past the root."""
        sd = self.scale / math.sqrt(2.0)

        def gap(t):
            value, density = self.cdf(t)
            if 0.0 < value < p - CDF_TOL:
                # The slope that turns the plain step into the ln F step.
                density *= (value - p) / (value * math.log(value / p))
            elif value <= 0.0:
                density = 0.0
            return value - p, density

        start = self.mean + sd * NormalDist().inv_cdf(p)
        t, _ = bracketed_newton(gap, start, -math.inf, math.inf, sd, what, tol=CDF_TOL)
        return t


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
    saddlepoint K'(a) = x of K(s) = log M(s), moved off the pole at 0 if
    need be, and the line is bent about it toward the side where e^{-sx}
    decays.  M is singular on the real axis only, so the bend changes
    neither integral.  The path is the hyperbola

        s(u) = a + (bend (cosh u - 1) + i sinh u) / sqrt K''(a),

    which leaves a upward, as the steepest-descent path does, and bends by
    `_BEND` toward that side.  Along it the integrands fall off like a
    Gaussian in u near a, and at least exponentially in u beyond, where
    |s| grows like e^u.  Both are analytic in a strip about the real u
    axis of half-width about 1/4 (the pole at 0 is at least 0.25 / sqrt
    K''(a) from a, the strip's edges at least 1/sqrt(2 K''(a))), so the
    trapezoid rule converges geometrically, its error falling like
    e^{-pi / (2 h)} at step h (Trefethen & Weideman 2014), and they are
    O(1), since K(a) - a x <= 0.

    The rule starts at step `_FIRST_STEP` and runs its nodes out, doubling
    the range, until both integrands are below `CDF_TOL`; it then halves
    the step, evaluating only the new nodes, until two successive sums of
    both integrals agree to `CDF_TOL`.  Each round evaluates its nodes in
    one batch, in blocks of about `_BLOCK_DOUBLES` doubles, and sums log
    M(s) along the coefficient axis.  A non-finite value, or no agreement
    after `_HALVINGS` halvings, raises `NumericalFailureError`.
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
    # Unit steps in u span the local scale 1/sqrt K'' near a.
    bend = _BEND if x >= 0.0 else -_BEND
    scaled = -2.0 * c
    rows = max(1, _BLOCK_DOUBLES // c.size)

    def integrands(u):
        # With ds/du = w / scale, w = bend sinh u + i cosh u, the integrands
        # at the nodes u are M(s) e^{-sx} w / (scale s) and M(s) e^{-sx} w,
        # each O(1) (the density's carries a factor scale).
        out = np.empty((2, u.size), dtype=complex)
        for start in range(0, u.size, rows):
            block = u[start : start + rows]
            sinh, cosh = np.sinh(block), np.cosh(block)
            s = a + (bend * (cosh - 1.0) + 1j * sinh) / scale
            # log M(s) in real arithmetic: 1 - 2 c_j s = p_j + i q_j, whose
            # principal arguments sum to the branch of M continuous from a.
            p = np.multiply.outer(s.real, scaled)
            p += 1.0
            q = np.multiply.outer(s.imag, scaled)
            work = np.hypot(p, q)
            log_abs = np.log(work, out=work).sum(axis=1)
            arg = np.arctan2(q, p, out=work).sum(axis=1)
            h = np.exp(-0.5 * (log_abs + 1j * arg) - s * x) * (bend * sinh + 1j * cosh)
            out[0, start : start + rows] = h / (scale * s)
            out[1, start : start + rows] = h
        if not np.all(np.isfinite(out)):
            raise NumericalFailureError(f"Imhof inversion at x={x!r} met a non-finite integrand")
        return out

    # Conjugate symmetry folds the two halves of the path into Im int_0^inf,
    # where the trapezoid rule gives the node at u = 0 half weight; its
    # sums are step * `total`.
    step, count = _FIRST_STEP, 2
    values = integrands(step * np.arange(count + 1))
    total = values.imag.sum(axis=1) - 0.5 * values[:, 0].imag
    while np.max(np.abs(values[:, -1])) >= CDF_TOL:
        values = integrands(step * np.arange(count + 1, 2 * count + 1))
        total += values.imag.sum(axis=1)
        count *= 2
    for _ in range(_HALVINGS):
        previous = step * total
        step *= 0.5
        total += integrands(step * np.arange(1, 2 * count, 2)).imag.sum(axis=1)
        count *= 2
        if np.max(np.abs(step * total - previous)) <= CDF_TOL:
            break
    else:
        raise NumericalFailureError(
            f"Imhof inversion at x={x!r} did not settle in {_HALVINGS} halvings of the step"
        )
    tail, density = step * total
    tail /= math.pi
    cdf = 1.0 - tail if a > 0.0 else -tail
    density /= math.pi * scale
    return float(cdf), float(density)


def _saddlepoint(c: np.ndarray, x: float, lo: float, hi: float) -> tuple[float, float]:
    """The root a in (lo, hi) of K'(a) = sum_j c_j / (1 - 2 c_j a) = x, and
    K''(a) = 2 sum_j (c_j / (1 - 2 c_j a))^2, by `bracketed_newton` from 0
    until K'(a) = x or a step would move a by at most 4 eps |a|."""

    def gap(a):
        ratio = c / (1.0 - 2.0 * c * a)
        return float(np.sum(ratio)) - x, float(np.sum(2.0 * ratio**2))

    what = f"saddlepoint K'(a) = {x!r}"
    return bracketed_newton(gap, 0.0, lo, hi, math.nan, what, rtol=4.0 * _EPS)


def bracketed_newton(
    f, x: float, lo: float, hi: float, step: float, what: str, tol: float = 0.0, rtol=None
) -> tuple[float, float]:
    """A root of the increasing f, which maps x to (f(x), f'(x)), and f'
    there, by Newton's method from x in the bracket (lo, hi).

    Each iterate becomes the bracket's edge on its side.  A step that
    leaves the bracket, or has no positive slope, becomes a bisection, or,
    while a side is open (infinite), a move of `step` toward it.  It stops
    at the first iterate where |f| <= tol or, if `rtol` is given, where the
    next step moves it by at most rtol |x|.  `NumericalFailureError`,
    naming `what`, follows a next iterate equal to the current one (the
    bracket has closed on it, and f would be evaluated there again) or
    `_NEWTON_STEPS` iterates without a stop.
    """
    for _ in range(_NEWTON_STEPS):
        value, slope = f(x)
        if abs(value) <= tol:
            return x, slope
        if value < 0.0:
            lo = x
        else:
            hi = x
        nxt = x - value / slope if slope > 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if math.isfinite(lo + hi) else x + math.copysign(step, -value)
        if rtol is not None and abs(nxt - x) <= rtol * abs(x):
            return x, slope
        if nxt == x:
            raise NumericalFailureError(f"{what} not found: the bracket closed at {x!r}")
        x = nxt
    raise NumericalFailureError(f"{what} not found in {_NEWTON_STEPS} steps")
