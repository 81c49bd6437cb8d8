import math

import numpy as np
import pytest
from scipy import special

from steinlab import gaussian, numlin, qform, spectral
from steinlab.exceptions import NumericalFailureError

import oracles


def recorded(f):
    """f, and the list of the points it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestBracketedNewton:
    # No slope, so no Newton step: moves of `step` toward the open side
    # until the root is bracketed, then bisection, which lands on it.
    @pytest.mark.parametrize(
        "root, lo, hi, calls",
        [
            pytest.param(10.0, -math.inf, math.inf, [0.0, 4.0, 8.0, 12.0, 10.0], id="upper"),
            pytest.param(-6.0, -math.inf, 5.0, [0.0, -4.0, -8.0, -6.0], id="lower"),
        ],
    )
    def test_steps_toward_an_open_side(self, root, lo, hi, calls):
        f, seen = recorded(lambda x: (x - root, 0.0))
        assert qform.bracketed_newton(f, 0.0, lo, hi, 4.0, "x")[0] == root
        assert seen == calls

    def test_bisects_when_newton_leaves_the_bracket(self):
        # From 2, Newton on atan overshoots to 2 - 5 atan 2 = -3.5, below
        # the bracket (-1, 2), so the next point is its midpoint.
        f, calls = recorded(lambda x: (math.atan(x), 1.0 / (1.0 + x * x)))
        root, slope = qform.bracketed_newton(f, 2.0, -1.0, 3.0, math.nan, "atan x = 0", tol=1e-15)
        assert calls[:2] == [2.0, 0.5]
        assert abs(root) <= 1e-15
        assert slope == pytest.approx(1.0)
        assert all(-1.0 < x < 3.0 for x in calls)

    def test_value_stop(self):
        # An exact root stops at once, with its slope, even with tol = 0.
        f, calls = recorded(lambda x: (2.0 * x - 6.0, 2.0))
        assert qform.bracketed_newton(f, 0.0, -1.0, 5.0, math.nan, "x = 3") == (3.0, 2.0)
        assert calls == [0.0, 3.0]

    def test_value_stop_within_tol(self):
        f, calls = recorded(lambda x: (x * x * x - 8.0, 3.0 * x * x))
        root, _ = qform.bracketed_newton(f, 3.0, 0.0, 4.0, math.nan, "x^3 = 8", tol=1e-6)
        assert abs(root**3 - 8.0) <= 1e-6
        assert abs(calls[-2] ** 3 - 8.0) > 1e-6

    def test_rounding_stop(self):
        # x^2 = 2 has no root in floating point: f is never 0, and the
        # iterates end next to sqrt 2, where a step moves x by an ulp.
        f, calls = recorded(lambda x: (x * x - 2.0, 2.0 * x))
        rtol = 4.0 * np.finfo(float).eps
        root, _ = qform.bracketed_newton(f, 1.5, 1.0, 2.0, math.nan, "x^2 = 2", rtol=rtol)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
        assert len(calls) < 10

    def test_budget_exhaustion_names_the_unknown(self):
        # An f that stays negative brackets no root: each iterate moves by
        # `step` toward the open upper side, to a new point every time,
        # until the steps run out.
        f, calls = recorded(lambda x: (-1.0, 0.0))
        with pytest.raises(NumericalFailureError, match=r"f = 0 not found in 200 steps"):
            qform.bracketed_newton(f, 0.0, -math.inf, math.inf, 1.0, "f = 0")
        assert len(set(calls)) == len(calls) == 200

    def test_closed_bracket_stops(self):
        # Without the rounding stop the iterates of x^2 = 2 end on a float
        # next to sqrt 2 whose next iterate is itself: the solve stops
        # there, naming the point, rather than evaluate it again.
        f, calls = recorded(lambda x: (x * x - 2.0, 2.0 * x))
        closed = r"x\^2 = 2 not found: the bracket closed"
        with pytest.raises(NumericalFailureError, match=closed) as err:
            qform.bracketed_newton(f, 1.5, 1.0, 2.0, math.nan, "x^2 = 2")
        assert str(err.value).endswith(f"closed at {calls[-1]!r}")
        assert abs(calls[-1] - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
        assert len(set(calls)) == len(calls) < 10


class TestQuadraticForm:
    def test_stored_as_float_array_and_float(self):
        form = qform.QuadraticForm([1, 2, 3], 4)
        assert isinstance(form.coef, np.ndarray) and form.coef.dtype == float
        assert form.coef.flags.c_contiguous
        assert type(form.offset) is float
        assert form.mean == 10.0
        assert qform.QuadraticForm(form.coef, 4.0) != form  # identity equality

    @pytest.mark.parametrize("n", [1, 8, 64, 256])
    def test_surprisal_law_is_gamma(self, n):
        # -log p = offset + |z|^2 / 2, and |z|^2 / 2 is Gamma(n / 2).
        cov = spectral.CovarianceSequence.geometric(0.5)
        form = gaussian.surprisal_forms(cov, [n])[0]
        assert form.scale == math.sqrt(n)
        entropy = oracles.surprisal_form(numlin.toeplitz_from_cov(cov, n)).mean
        assert form.mean == pytest.approx(entropy, rel=1e-12)
        for y in (0.25 * n, 0.5 * n, n, 1.5 * n + 3.0):
            cdf, _ = form.cdf(form.offset + y)
            assert abs(cdf - special.gammainc(n / 2.0, y)) < 1e-12

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_llr_scale_is_b_n_and_mean_is_kl(self, n):
        cov_p = spectral.CovarianceSequence.geometric(0.5)
        pair = gaussian.whiten(numlin.toeplitz_from_cov(cov_p, n), np.eye(n))
        form = gaussian.llr_form(pair)
        assert form.scale == pytest.approx(np.sqrt(np.sum((pair.kappas - 1.0) ** 2)), rel=1e-15)
        assert form.mean == pytest.approx(pair.kl, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1e-9, 0.2, 0.5, 0.9])
    def test_quantile_inverts_the_cdf(self, p):
        form = qform.QuadraticForm(np.linspace(-0.3, 0.8, 12), -1.5)
        t = form.quantile(p, "quantile")
        assert abs(form.cdf(t)[0] - p) <= qform.CDF_TOL
