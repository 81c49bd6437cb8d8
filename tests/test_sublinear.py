import math

import numpy as np
import pytest

from steinlab import sublinear
from steinlab.exceptions import InvalidDimensionError

import oracles


class TestGeometry:
    def test_inner_radius(self):
        assert oracles.inner_radius(4) == pytest.approx(4.0 ** (-0.25))

    def test_inner_region_volume_is_one_over_n(self):
        for n in (3, 10, 100):
            assert oracles.inner_radius(n) ** n == pytest.approx(1.0 / n, abs=1e-12)

    def test_density_values(self):
        n = 9
        inside = np.full(n, 0.1)
        outside = np.full(n, 0.99)
        assert oracles.sub_q_density(n, inside) == pytest.approx(9.0 - 3.0)
        assert oracles.sub_q_density(n, outside) == pytest.approx(3.0 / 8.0)

    def test_density_integrates_to_one(self):
        # mass = (1/n)(n - sqrt n) + (1 - 1/n) sqrt(n)/(n-1)
        for n in (3, 7, 50):
            root = math.sqrt(n)
            mass = (1.0 / n) * (n - root) + (1.0 - 1.0 / n) * root / (n - 1.0)
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_point_outside_cube_rejected(self):
        with pytest.raises(ValueError):
            oracles.sub_q_density(3, [0.5, 0.5, 1.5])

    def test_small_n_rejected(self):
        for fn in (
            lambda: oracles.inner_radius(2),
            lambda: sublinear.sub_kl(2),
            lambda: sublinear.exact_error_pair(1),
        ):
            with pytest.raises(InvalidDimensionError):
                fn()


class TestKl:
    def test_n4_value(self):
        # direct evaluation of the two-branch expectation
        expected = 0.25 * math.log(1.0 / 2.0) + 0.75 * math.log(1.5)
        assert sublinear.sub_kl(4) == pytest.approx(expected, abs=1e-14)

    def test_matches_expectation_of_llr(self):
        n = 12
        inside = np.full(n, 0.01)
        outside = np.full(n, 0.95)
        expected = (1.0 / n) * oracles.sub_llr(n, inside) + (
            1.0 - 1.0 / n
        ) * oracles.sub_llr(n, outside)
        assert sublinear.sub_kl(n) == pytest.approx(expected, abs=1e-12)

    def test_sublinear_growth(self):
        # D_n / (0.5 ln n) -> 1 while D_n / n -> 0
        for n in (10**3, 10**6):
            ratio = sublinear.sub_kl(n) / (0.5 * math.log(n))
            assert abs(ratio - 1.0) < 0.05
        assert sublinear.sub_kl(10**6) / 10**6 < 1e-5


def outside_gap(n: int) -> float:
    """LLR at the cube's far corner, which lies outside the small ball, minus the KL."""
    return oracles.sub_llr(n, np.ones(n)) - sublinear.sub_kl(n)


def first_below(gap, delta: float) -> int:
    n = 3
    while abs(gap(n)) >= delta:
        n += 1
    return n


class TestResidual:
    """The gap between the outside region's LLR and the KL (see sub_typical_lb).

    For every delta above it, the outside region lies in the relative-entropy
    typical set.
    """

    @staticmethod
    def closed_form(n: int) -> float:
        root = math.sqrt(n)
        return (1.0 / n) * math.log((n - 1.0) * (n - root) / root)

    def test_matches_definition(self):
        assert outside_gap(20) == pytest.approx(self.closed_form(20), abs=1e-12)

    def test_vanishes(self):
        assert abs(outside_gap(10**6)) < 1e-4
        assert abs(outside_gap(10**6)) < abs(outside_gap(100))

    def test_crossover_is_first_qualifying_n(self):
        # Below |gap(3)| the first qualifying n lies past the peak at n=6,
        # and the outside region stays delta-typical from there on.
        delta = 0.05
        n = first_below(outside_gap, delta)
        assert n > 6
        assert all(abs(outside_gap(m)) < delta for m in range(n, 4 * n))

    @pytest.mark.parametrize(
        "delta", [0.001, 0.1075, 0.2039, 0.5], ids=lambda delta: f"{delta:.4g}"
    )
    def test_crossover_matches_linear_scan(self, delta):
        # Above |gap(3)| (0.2039, 0.5) the answer is 3 even though larger n
        # up to the peak do not qualify.
        assert first_below(outside_gap, delta) == first_below(self.closed_form, delta)

    def test_crossover_monotone(self):
        # The gap rises from n=3 to its peak at n=6 and falls after it.
        gaps = [outside_gap(n) for n in range(3, 2000)]
        peak = int(np.argmax(gaps))
        assert peak + 3 == 6
        assert np.all(np.diff(gaps[: peak + 1]) > 0)
        assert np.all(np.diff(gaps[peak:]) < 0)


class TestErrors:
    def test_typical_lb(self):
        assert sublinear.sub_typical_lb(10) == pytest.approx(0.9)

    def test_exact_error_pair(self):
        result = sublinear.exact_error_pair(100)
        assert result.alpha == pytest.approx(0.01)
        assert result.beta == pytest.approx(0.1)
        assert result.beta_log == pytest.approx(0.5 * math.log(100.0))

    def test_beta_log_tracks_kl(self):
        # -ln beta and the KL agree to first order in ln n
        n = 10**6
        assert sublinear.exact_error_pair(n).beta_log == pytest.approx(
            sublinear.sub_kl(n), rel=0.01
        )
