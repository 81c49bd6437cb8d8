import math

import numpy as np
import pytest

from steinlab import qform
from steinlab.exceptions import NumericalFailureError


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
        # Without the rounding stop the same iterates end stuck next to
        # sqrt 2 and run out of steps.
        f, calls = recorded(lambda x: (x * x - 2.0, 2.0 * x))
        with pytest.raises(NumericalFailureError, match=r"x\^2 = 2 not found in 200 steps"):
            qform.bracketed_newton(f, 1.5, 1.0, 2.0, math.nan, "x^2 = 2")
        assert len(calls) == 200
