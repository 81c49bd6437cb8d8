import math

import numpy as np
import pytest
from scipy import special
from scipy.stats import norm

from steinlab import gaussian, numlin, qform, typicality
from steinlab.exceptions import DegeneratePairError

import oracles


# A form of scale sqrt(2): its good_delta at eps is Qinv(eps/2) itself.
UNIT_SD_FORM = qform.QuadraticForm(np.full(2, 0.5), 0.0)


class TestQfunc:
    """The inverse normal tail Qinv(eps/2) that `good_delta` scales."""

    def test_inverse_matches_scipy_isf(self):
        for p in (1e-6, 0.025, 0.5):
            assert typicality.good_delta(UNIT_SD_FORM, 2.0 * p) == pytest.approx(
                norm.isf(p), rel=1e-10
            )

    def test_inverse_within_1e14_of_scipy(self):
        # `QuadraticForm.quantile` starts Newton at the same normal quantile.
        for p in np.concatenate((np.logspace(-300, -2, 60), np.linspace(0.01, 0.5, 50))):
            delta = typicality.good_delta(UNIT_SD_FORM, 2.0 * p)
            assert delta == pytest.approx(norm.isf(p), rel=1e-14, abs=0.0)
            assert -delta == pytest.approx(special.ndtri(p), rel=1e-14, abs=0.0)

    def test_inverse_domain(self):
        for eps in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                typicality.good_delta(UNIT_SD_FORM, eps)


class TestGoodDeltas:
    def test_white_gaussian_closed_form(self):
        # the entropy statistic per coordinate has variance 1/2
        n, eps = 64, 0.1
        form = oracles.surprisal_form(np.eye(n))
        assert typicality.good_delta(form, eps) == pytest.approx(
            math.sqrt(n / 2.0) * norm.isf(eps / 2.0)
        )

    def test_correlated_uses_b_n(self):
        pair = oracles.diagonal_pair([3.0, 1.0])
        form = gaussian.llr_form(pair)
        assert form.scale == pytest.approx(2.0)
        assert typicality.good_delta(form, 0.2) == pytest.approx(2.0 / math.sqrt(2.0) * norm.isf(0.1))

    def test_degenerate_pair_rejected(self):
        pair = oracles.diagonal_pair([1.0, 1.0])
        with pytest.raises(DegeneratePairError):
            typicality.good_delta(gaussian.llr_form(pair), 0.1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            typicality.good_delta(oracles.surprisal_form(np.eye(4)), 0.0)


class TestMonteCarlo:
    def test_white_entropy_coverage(self):
        n, eps = 64, 0.1
        form = oracles.surprisal_form(np.eye(n))
        spec = typicality.TypicalSetSpec(form, typicality.good_delta(form, eps))
        result = typicality.mc_typical_probs([spec], count=20_000, seed=21)[0]
        assert abs(result.estimate - (1.0 - eps)) < 4.0 * result.stderr + 0.01

    def test_rel_entropy_coverage(self):
        eps = 0.1
        pair = oracles.diagonal_pair(np.linspace(0.5, 2.0, 32))
        form = gaussian.llr_form(pair)
        spec = typicality.TypicalSetSpec(form, typicality.good_delta(form, eps))
        result = typicality.mc_typical_probs([spec], count=20_000, seed=22)[0]
        assert abs(result.estimate - (1.0 - eps)) < 4.0 * result.stderr + 0.02

    def test_deterministic(self):
        spec = typicality.TypicalSetSpec(oracles.surprisal_form(np.eye(8)), 1.0)
        a = typicality.mc_typical_probs([spec], count=2000, seed=5)[0]
        b = typicality.mc_typical_probs([spec], count=2000, seed=5)[0]
        assert a.estimate == b.estimate

    def test_small_count_rejected(self):
        spec = typicality.TypicalSetSpec(oracles.surprisal_form(np.eye(2)), 1.0)
        with pytest.raises(ValueError):
            typicality.mc_typical_probs([spec], count=999, seed=0)


class TestBoundFormulas:
    def test_volume_bounds(self):
        b = typicality.volume_bounds(h=2.0, delta=0.5, eps=0.1)
        assert b.log_upper == pytest.approx(2.5)
        assert b.log_lower == pytest.approx(math.log(0.9) + 1.5)
        assert b.upper == pytest.approx(math.exp(2.5))
        assert b.lower == pytest.approx(0.9 * math.exp(1.5))

    def test_volume_bounds_overflow_to_inf(self):
        b = typicality.volume_bounds(h=1000.0, delta=1.0, eps=0.0)
        assert b.upper == math.inf
        assert b.log_upper == pytest.approx(1001.0)

    @pytest.mark.parametrize("log_value", [705.0, -705.0])
    def test_exp_or_inf_is_exp_within_double_range(self, log_value):
        # e^705 = 1.5e306 and e^-705 = 6.6e-307 are both doubles.
        assert typicality.exp_or_inf(log_value) == math.exp(log_value)
        assert 0.0 < typicality.exp_or_inf(log_value) < math.inf

    def test_exp_or_inf_overflows_to_inf(self):
        assert typicality.exp_or_inf(710.0) == math.inf

    def test_q_prob_bounds(self):
        b = typicality.volume_bounds(h=-5.0, delta=0.5, eps=0.1)
        assert b.log_upper == pytest.approx(-4.5)
        assert b.log_lower == pytest.approx(math.log(0.9) - 5.5)
        assert b.lower <= b.upper

    def test_negative_delta_rejected(self):
        for fn in (
            lambda: typicality.volume_bounds(0.0, -1.0, 0.1),
            lambda: typicality.volume_bounds(-1.0, -1.0, 0.1),
        ):
            with pytest.raises(ValueError):
                fn()


class TestCltCheck:
    def test_passes_for_large_n(self, geo_half):
        # the chi-square skewness is still visible at n=64; 256 is comfortably
        # inside the normal regime at this sample size
        pair = gaussian.whiten(
            numlin.toeplitz_from_cov(geo_half, 256), np.eye(256)
        )
        result = oracles.clt_psi_check(pair, count=20_000, seed=23)
        assert result.passed
        assert abs(result.mean) < 0.05
        assert abs(result.variance - 1.0) < 0.1

    def test_cdf_matches_scipy_erfc(self, pair_rho_half_n64):
        # The same draws against Phi from `scipy.special.erfc`: the two Phi
        # agree to 2 ulp of 1, so the distance does to 1e-15 absolute.
        pair, count, seed = pair_rho_half_n64, 10_000, 7
        result = oracles.clt_psi_check(pair, count, seed)
        llrs = oracles.sample_llr(pair, count, seed, "p")
        values = np.sort((llrs - pair.kl) * (math.sqrt(2.0) / gaussian.llr_form(pair).scale))
        cdf = 0.5 * special.erfc(-values / math.sqrt(2.0))
        i = np.arange(1, count + 1)
        ks = np.max(np.maximum(i / count - cdf, cdf - (i - 1) / count))
        assert result.ks_distance == pytest.approx(ks, rel=0.0, abs=1e-15)

    def test_degenerate_pair_rejected(self):
        pair = oracles.diagonal_pair([1.0, 1.0, 1.0])
        with pytest.raises(DegeneratePairError):
            oracles.clt_psi_check(pair, count=10_000, seed=0)

    def test_small_count_rejected(self, pair_rho_half_n64):
        with pytest.raises(ValueError):
            oracles.clt_psi_check(pair_rho_half_n64, count=5000, seed=0)
