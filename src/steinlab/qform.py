"""The law of Q = sum_j c_j z_j^2, z iid standard normal: Imhof's
inversion (`quadratic_form_cdf`), one adaptive G10/K21 Gauss-Kronrod
quadrature along a ray through the saddlepoint, and `bracketed_newton`, the
one root finder for an increasing function, under one step budget, which
the saddlepoint and `detect.np_threshold_exact` both call.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .exceptions import NumericalFailureError

_EPS = float(np.finfo(float).eps)
# `quadratic_form_cdf` integrates along a ray this far from the real axis,
# over initial panels that end at these multiples of the local scale.
_RAY_ANGLE = 7.0 * math.pi / 16.0
_RAY_PANELS = (1.5, 3.0, 6.0, 12.0)
# Absolute accuracy asked of each inversion; `detect.np_threshold_exact`
# stops once its type-I error is this close to tau.
CDF_TOL = 1e-12
# An inversion whose error estimate exceeds this is a failure.
_CDF_ERR_MAX = 1e-10
# An inversion may bisect at most this many panels in all.
_CDF_SPLITS = 10_000
# Largest temporary of the inversion, in doubles: its nodes are evaluated
# in blocks of about this many node-coefficient products.
_BLOCK_DOUBLES = 1 << 20
# Newton steps (or bisections) allowed to each `bracketed_newton` solve.
_NEWTON_STEPS = 200

# The G10/K21 Gauss-Kronrod pair on [-1, 1] (Piessens et al., QUADPACK 1983), the
# rule of `scipy.integrate.quad_vec(quadrature="gk21")`: the 11 Kronrod nodes x >= 0,
# descending, with their Kronrod and Gauss weights (the Gauss nodes are the odd
# positions).  The rule is symmetric, so the other 10 nodes mirror these.
_GK_HALF_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_GK_HALF_KRONROD = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK_HALF_GAUSS = (
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
)
_GK_NODES = np.array(_GK_HALF_NODES + tuple(-x for x in _GK_HALF_NODES[-2::-1]))
_GK_KRONROD = np.array(_GK_HALF_KRONROD + _GK_HALF_KRONROD[-2::-1])
_GK_GAUSS = np.array(_GK_HALF_GAUSS + _GK_HALF_GAUSS[-2::-1])


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
    `CDF_TOL` / 8 in the others, until the summed estimate is at most
    `CDF_TOL`.  A non-finite value, more than `_CDF_SPLITS` bisections,
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
    while np.sum(est[2]) > CDF_TOL:
        # Bisect the panels of largest error, as few as leave at most 1/8 of
        # the tolerance in the rest; the others are closed for this round.
        # A panel at its rounding floor gains nothing from bisection.
        order = np.argsort(-est[2])
        order = order[est[2, order] > est[3, order]]
        left = np.sum(est[2]) - np.cumsum(est[2, order])
        order = order[: np.count_nonzero(left > CDF_TOL / 8.0) + 1]
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
