import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from steinlab import cli, detect, gaussian, numlin, qform, spectral, streams, typicality
from steinlab.exceptions import DegeneratePairError, NumericalFailureError

import oracles


@pytest.fixture(scope="module")
def small_pair():
    return oracles.diagonal_pair(np.linspace(0.5, 2.5, 16))


class TestDetectorSpec:
    def test_np_threshold_mask(self):
        det = detect.NpThreshold(0.0)
        mask = det.contains(np.array([-1.0, 0.0, 2.0]))
        assert mask.tolist() == [False, False, True]

    def test_typical_set_mask(self):
        det = typicality.TypicalSetSpec(qform.QuadraticForm(np.ones(1), 4.0), delta=1.0)
        mask = det.contains(np.array([3.9, 5.0, 6.1]))
        assert mask.tolist() == [False, True, False]

    def test_validation(self, small_pair):
        with pytest.raises(ValueError):
            detect.NpThreshold(math.inf)
        with pytest.raises(ValueError):
            typicality.TypicalSetSpec(gaussian.llr_form(small_pair), 0.0)


class TestSampleLlr:
    def test_mean_under_p_is_kl(self, small_pair):
        llrs = oracles.sample_llr(small_pair, count=200_000, seed=1, under="p")
        se = np.std(llrs) / math.sqrt(llrs.size)
        assert abs(np.mean(llrs) - small_pair.kl) < 4.0 * se

    def test_mean_under_q_is_minus_reverse_kl(self, small_pair):
        # E_q[llr] = -D(q || p) = -0.5 sum(1/kappa + log kappa - 1)
        reverse_kl = 0.5 * np.sum(
            1.0 / small_pair.kappas + np.log(small_pair.kappas) - 1.0
        )
        llrs = oracles.sample_llr(small_pair, count=200_000, seed=2, under="q")
        se = np.std(llrs) / math.sqrt(llrs.size)
        assert abs(np.mean(llrs) + reverse_kl) < 4.0 * se

    def test_matches_density_llr(self):
        # with the diagonal already in descending order the whitened
        # coordinates coincide with the originals, so the chi-square
        # shortcut must reproduce the density-ratio values samplewise
        kappas = np.linspace(2.5, 0.5, 16)
        pair = oracles.diagonal_pair(kappas)
        zs = np.concatenate(list(oracles.standard_normal_chunks(3, 4096, 16)), axis=1).T
        xs = np.sqrt(kappas) * zs
        log_p = multivariate_normal(cov=np.diag(kappas)).logpdf(xs)
        log_q = multivariate_normal(cov=np.eye(16)).logpdf(xs)
        shortcut = oracles.sample_llr(pair, count=4096, seed=3, under="p")
        assert np.allclose(log_p - log_q, shortcut, atol=1e-8)


class TestNpCalibrate:
    def test_alpha_near_tau(self, small_pair):
        tau = 0.2
        det = oracles.np_calibrate(small_pair, tau, count=50_000, seed=4)
        est = detect.estimate_beta_is(det, small_pair, count=50_000, seed=5)
        assert abs(est.alpha_hat - tau) < 4.0 * est.stderr_alpha + 0.005

    def test_validation(self, small_pair):
        with pytest.raises(ValueError):
            oracles.np_calibrate(small_pair, 0.6, count=10_000, seed=0)
        with pytest.raises(ValueError):
            oracles.np_calibrate(small_pair, 0.2, count=100, seed=0)

    def test_tau_below_ten_draws_rejected(self, small_pair):
        # Below 1/count the empirical quantile is the sample minimum,
        # whatever tau is; 10/count leaves ten draws under it.
        with pytest.raises(ValueError, match="10/count"):
            oracles.np_calibrate(small_pair, 1e-6, count=10_000, seed=0)
        oracles.np_calibrate(small_pair, 1e-3, count=10_000, seed=0)

    def test_degenerate_pair_rejected(self):
        pair = oracles.diagonal_pair(np.ones(4))
        with pytest.raises(DegeneratePairError):
            oracles.np_calibrate(pair, 0.2, count=10_000, seed=0)


class TestEstimateBeta:
    def test_agrees_with_direct_q_sampling(self, small_pair):
        det = detect.NpThreshold(0.0)
        est = detect.estimate_beta_is(det, small_pair, count=100_000, seed=6)
        llrs_q = oracles.sample_llr(small_pair, count=100_000, seed=7, under="q")
        direct = float(np.mean(det.contains(llrs_q)))
        direct_se = math.sqrt(direct * (1.0 - direct) / llrs_q.size)
        joint = math.sqrt(direct_se**2 + (est.beta_hat * est.stderr_beta_log) ** 2)
        assert abs(est.beta_hat - direct) < 4.0 * joint

    def test_reaches_deep_tails(self):
        # beta around e^-40 is far below what direct q-sampling can see
        pair = oracles.diagonal_pair(np.full(64, 3.0))
        det = detect.NpThreshold(pair.kl)
        est = detect.estimate_beta_is(det, pair, count=50_000, seed=8)
        assert not est.underflow
        assert est.beta_log > 20.0
        assert math.isfinite(est.stderr_beta_log)

    def test_underflow_flagged(self, small_pair):
        det = typicality.TypicalSetSpec(gaussian.llr_form(small_pair), 1e-9)
        est = detect.estimate_beta_is(det, small_pair, count=1000, seed=9)
        assert est.underflow
        assert est.beta_hat == 0.0
        assert est.beta_log == math.inf
        assert est.ess == 0.0

    def test_ess_of_the_weights(self, small_pair):
        det = detect.NpThreshold(small_pair.kl)
        est = detect.estimate_beta_is(det, small_pair, count=20_000, seed=12)
        llrs = oracles.sample_llr(small_pair, count=20_000, seed=12)
        weights = np.where(det.contains(llrs), np.exp(-llrs), 0.0)
        assert est.ess == pytest.approx(np.sum(weights) ** 2 / np.sum(weights**2), rel=1e-10)
        assert 1.0 < est.ess < 20_000

    def test_deterministic(self, small_pair):
        det = detect.NpThreshold(0.0)
        a = detect.estimate_beta_is(det, small_pair, count=2000, seed=10)
        b = detect.estimate_beta_is(det, small_pair, count=2000, seed=10)
        assert a.beta_hat == b.beta_hat

    @pytest.mark.parametrize("count", [1000, 10_000, 100_003])
    def test_typical_set_detector_is_the_set(self, pair_rho_half_n64, count):
        # On the same draws, the typical-set detector rejects p exactly on
        # the draws that fall outside the set `typical` measures.
        pair = pair_rho_half_n64
        form = gaussian.llr_form(pair)
        ts = typicality.TypicalSetSpec(form, typicality.good_delta(form, 0.2))
        rejected = detect.estimate_beta_is(ts, pair, count, seed=13).alpha_hat * count
        inside = typicality.mc_typical_probs([ts], count, seed=13)[0].estimate * count
        assert round(rejected) + round(inside) == count


@pytest.mark.filterwarnings("error")
class TestRescaledSums:
    # `_error_estimates` rescales each chunk's weight sums from the chunk's
    # largest log weight to the overall largest.  Values recorded under the
    # SFC64 chunk generator; under PCG64 they were recorded when the
    # chunks' log-sums were combined by a logsumexp instead, and
    # `test_within_tolerance_of_the_pcg64_stream` keeps them.
    @pytest.mark.parametrize(
        "quantile, beta_log, stderr, ess",
        [
            pytest.param(
                0.999, 8195.296580168704, 0.9929387976656554, 1.0140162848049814, id="q0.999"
            ),
            pytest.param(
                0.5, 6544.453675978835, 0.4030776816332799, 6.145464971333013, id="q0.5"
            ),
        ],
    )
    def test_deep_tail(self, quantile, beta_log, stderr, ess):
        # Every log weight lies below -709, and at the 0.999 quantile most
        # chunks accept no draw: their placeholder top must not scale in.
        pair = oracles.diagonal_pair(np.full(512, 30.0))
        threshold = float(np.quantile(oracles.sample_llr(pair, 4000, seed=3), quantile))
        est = detect.estimate_beta_is(detect.NpThreshold(threshold), pair, 4000, 3)
        assert not est.underflow
        assert est.beta_log == pytest.approx(beta_log, rel=1e-12)
        assert est.stderr_beta_log == pytest.approx(stderr, rel=1e-12)
        assert est.ess == pytest.approx(ess, rel=1e-12)

    def test_threshold_far_below_the_draws(self):
        # Weights shifted by the threshold, e^{-LLR - 2000}, would all be 0.
        pair = oracles.diagonal_pair(np.linspace(2.2, 0.6, 8))
        det = detect.NpThreshold(-2000.0)
        est = detect.estimate_beta_is(det, pair, count=20_000, seed=5)
        assert not est.underflow
        assert est.beta_log == pytest.approx(-0.0028749892371049413, rel=1e-12)

    # The PCG64 values of the tests above: kappas, threshold, count, seed,
    # -ln(beta) and its stderr.  `test_deep_tail` takes its threshold from
    # the draws, so the threshold each drew under PCG64 is kept.
    PCG64 = [
        pytest.param(
            [30.0] * 512, 8149.495787773135, 4000, 3, 8168.685937935625, 0.7138294853674868,
            id="q0.999",
        ),
        pytest.param(
            [30.0] * 512, 6547.540819179161, 4000, 3, 6555.155346079121, 0.49885037932942183,
            id="q0.5",
        ),
        pytest.param(
            list(np.linspace(2.2, 0.6, 8)), -2000.0, 20_000, 5,
            0.0006567686506819825, 0.009555415030727016,
            id="far-below",
        ),
    ]

    @pytest.mark.parametrize("kappas, threshold, count, seed, beta_log, stderr", PCG64)
    def test_within_tolerance_of_the_pcg64_stream(
        self, kappas, threshold, count, seed, beta_log, stderr
    ):
        # Two independent streams estimate one -ln(beta): they agree within
        # 3 sqrt(se_old^2 + se_new^2).
        pair = oracles.diagonal_pair(kappas)
        est = detect.estimate_beta_is(detect.NpThreshold(threshold), pair, count, seed)
        assert abs(est.beta_log - beta_log) <= 3.0 * math.hypot(stderr, est.stderr_beta_log)


def imhof_reference(coef, x):
    """P(sum c_j z_j^2 <= x) from Imhof's real integral, at 20 digits.

    Do not use it near x = 0 with one or two coefficients, where `quadosc`
    misreads the slow oscillation: at coef [0.15], x = 1e-6 it returns
    0.365, where P = erf(sqrt(x / 0.3)) = 0.00206 (`conditional_reference`
    holds there).  Nor with three or more at a level-1e-9 threshold: its
    piece count grows with U |x|, and it runs for minutes.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        c = [mp.mpf(float(v)) for v in coef]
        x = mp.mpf(float(x))

        def integrand(u):
            theta = mp.fsum(mp.atan(cj * u) for cj in c) / 2 - x * u / 2
            log_rho = mp.fsum(mp.log1p((cj * u) ** 2) for cj in c) / 4
            return mp.sin(theta) / (u * mp.exp(log_rho))

        m = len(c)
        if m <= 2:
            # Decays like u^(-1 - m/2) only: sum the oscillations to infinity.
            integral = mp.quadosc(integrand, [0, mp.inf], omega=abs(x) / 2)
        else:
            # Imhof's bound: the tail beyond U is below 2 / (m U^(m/2) prod sqrt|c|).
            log_u = 2.0 / m * (math.log(2.0 / (m * 1e-15)) - 0.5 * np.sum(np.log(np.abs(coef))))
            upper = math.exp(log_u)
            pieces = 2 + int(upper * abs(float(x)) / (4.0 * math.pi))
            integral = mp.quad(integrand, mp.linspace(0, upper, pieces), method="gauss-legendre")
        return float(mp.mpf(1) / 2 - integral / mp.pi)


def conditional_reference(coef, x):
    """P(c_1 z_1^2 [+ c_2 z_2^2] <= x) at 30 digits, by conditioning on z_2.

    Unlike `imhof_reference`, it holds near x = 0, where Imhof's real
    integrand oscillates too slowly for `quadosc`.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        c1, x = mp.mpf(float(coef[0])), mp.mpf(float(x))

        def cdf1(y):
            if c1 > 0:
                return mp.erf(mp.sqrt(y / (2 * c1))) if y > 0 else mp.mpf(0)
            return mp.erfc(mp.sqrt(y / (2 * c1))) if y < 0 else mp.mpf(1)

        if len(coef) == 1:
            return float(cdf1(x))
        c2 = mp.mpf(float(coef[1]))
        kink = x / c2  # z_2^2 where the inner probability stops changing
        points = [0, mp.sqrt(kink), mp.inf] if kink > 0 else [0, mp.inf]
        inner = mp.quad(lambda z: cdf1(x - c2 * z * z) * mp.exp(-z * z / 2), points)
        return float(inner * mp.sqrt(2 / mp.pi))


def ar1_pair(rho, n):
    """Geometric(rho) against white noise at dimension n, without an n x n
    matrix: the kappas are the eigenvalues of the AR(1) Toeplitz matrix,
    the reciprocals of those of its tridiagonal inverse."""
    diag = np.full(n, 1.0 + rho**2)
    diag[[0, -1]] = 1.0
    inverse = scipy.linalg.eigvalsh_tridiagonal(diag / (1.0 - rho**2), np.full(n - 1, -rho / (1.0 - rho**2)))
    kappas = np.sort(1.0 / inverse)[::-1]
    # np_threshold_exact reads only the kappas and the KL.
    return gaussian.HypothesisPair(kappas=kappas, kl=gaussian._kl_from_kappas(kappas))


def toeplitz_form(n, rho=0.5):
    pair = gaussian.whiten(numlin.toeplitz_from_cov(spectral.CovarianceSequence.geometric(rho), n), np.eye(n))
    form = gaussian.llr_form(pair)
    return pair, form.coef, form.offset


def assert_scored_alone(row, pair, tau, count, seed):
    """The row's Monte Carlo columns are those of its pair's two detectors,
    the exact level-tau threshold and the typical set of the CLT good
    threshold, each scored alone by `estimate_beta_is` on `seed`."""
    form = gaussian.llr_form(pair)
    gamma = typicality.good_delta(form, tau)
    est_np, est_ts = (
        detect.estimate_beta_is(det, pair, count, seed)
        for det in (
            detect.np_threshold_exact(pair, tau),
            typicality.TypicalSetSpec(form, gamma),
        )
    )
    assert (row.np_alpha, row.np_beta_log, row.np_beta_stderr, row.np_ess) == (
        est_np.alpha_hat, est_np.beta_log, est_np.stderr_beta_log, est_np.ess
    )
    assert (row.ts_alpha, row.ts_beta_log, row.ts_beta_stderr, row.ts_ess) == (
        est_ts.alpha_hat, est_ts.beta_log, est_ts.stderr_beta_log, est_ts.ess
    )


CRITERION_07_NS = list(range(32, 257, 32))
AR1_RHO = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)
AR1_LOG_SCALE = st.floats(math.log(0.1), math.log(10.0))


class TestExactThreshold:
    @pytest.mark.parametrize(
        "coef, x",
        [
            pytest.param([0.15], 0.05, id="n=1"),
            pytest.param([-0.4], -0.7, id="n=1-negative"),
            pytest.param([0.7, -0.3], -0.14, id="n=2-mixed"),
        ],
    )
    def test_cdf_matches_imhof_reference(self, coef, x):
        cdf, _ = qform.quadratic_form_cdf(np.array(coef), x)
        assert abs(cdf - imhof_reference(coef, x)) < 1e-10

    @pytest.mark.parametrize("n, z", [(32, -1.5), (256, None)])
    def test_cdf_matches_imhof_reference_on_toeplitz_forms(self, n, z):
        # kappas on both sides of 1, so the coefficients have mixed signs;
        # z=None checks alpha at the exact threshold itself.
        pair, coef, offset = toeplitz_form(n)
        assert coef.min() < 0.0 < coef.max()
        if z is None:
            x = detect.np_threshold_exact(pair, 0.2).threshold - offset
        else:
            x = float(np.sum(coef)) + z * gaussian.llr_form(pair).scale / math.sqrt(2.0)
        cdf, _ = qform.quadratic_form_cdf(coef, x)
        reference = imhof_reference(coef, x)
        assert abs(cdf - reference) < 1e-10
        if z is None:
            assert abs(reference - 0.2) < 1e-10

    def test_density_is_the_derivative(self):
        _, coef, _ = toeplitz_form(32)
        h = 1e-4
        lower, _ = qform.quadratic_form_cdf(coef, 1.0 - h)
        upper, _ = qform.quadratic_form_cdf(coef, 1.0 + h)
        _, density = qform.quadratic_form_cdf(coef, 1.0)
        assert density == pytest.approx((upper - lower) / (2.0 * h), rel=1e-6)

    def test_support_edges(self):
        assert qform.quadratic_form_cdf(np.array([0.5, 0.0, 2.0]), -1.0) == (0.0, 0.0)
        assert qform.quadratic_form_cdf(np.array([-0.5, -2.0]), 0.0) == (1.0, 0.0)
        with pytest.raises(ValueError):
            qform.quadratic_form_cdf(np.zeros(3), 1.0)

    # rho=0.9 at small tau: there plain Newton steps from the normal
    # quantile would overshoot far into a tail.
    @pytest.mark.parametrize(
        "rho, n, tau",
        [
            (0.5, 96, 0.01),
            (0.5, 96, 0.2),
            (0.5, 96, 0.45),
            (0.9, 16, 0.05),
            (0.9, 64, 0.001),
            (0.9, 64, 1e-9),
            (0.9, 256, 1e-9),
        ],
    )
    def test_alpha_is_tau(self, rho, n, tau):
        pair, coef, offset = toeplitz_form(n, rho)
        det = detect.np_threshold_exact(pair, tau)
        alpha, _ = qform.quadratic_form_cdf(coef, det.threshold - offset)
        assert abs(alpha - tau) <= 1e-12

    def test_within_three_quantile_stderr_of_np_calibrate(self):
        # Criterion 07's sweep, with the calibration seeds it used to draw.
        tau, count = 0.2, 100_000
        for i, n in enumerate(CRITERION_07_NS):
            pair, coef, offset = toeplitz_form(n)
            exact = detect.np_threshold_exact(pair, tau).threshold
            sampled = oracles.np_calibrate(pair, tau, count, streams.derive_seed(7, i, 0))
            _, density = qform.quadratic_form_cdf(coef, exact - offset)
            stderr = math.sqrt(tau * (1.0 - tau) / count) / density
            assert abs(sampled.threshold - exact) < 3.0 * stderr, n

    def test_experiment_draws_only_evaluation_samples(self, monkeypatch):
        # One kernel call draws every n's evaluation samples, and nothing
        # else is drawn: the thresholds are exact.
        calls = []
        kernel = streams.quadratic_draws

        def counted(seed, count, forms, reduce):
            calls.append((seed, count, [form.coef.size for form in forms]))
            return kernel(seed, count, forms, reduce)

        monkeypatch.setattr(streams, "quadratic_draws", counted)
        ns = [16, 32, 48]
        result = detect.gcsl_experiment(
            spectral.CovarianceSequence.geometric(0.5),
            spectral.CovarianceSequence.white(),
            0.2,
            ns,
            10_000,
            3,
        )
        seed_eval = streams.derive_seed(3, detect.EVALUATION_STREAM)
        assert calls == [(seed_eval, 10_000, ns)]
        for n, row in zip(ns, result.rows):
            assert_scored_alone(row, toeplitz_form(n)[0], 0.2, 10_000, seed_eval)

    def test_no_convergence_is_a_numerical_failure(self, monkeypatch, capsys):
        # One budget for every Newton solve: here the inversion's saddlepoint
        # runs out first.
        monkeypatch.setattr(qform, "_NEWTON_STEPS", 1)
        pair, _, _ = toeplitz_form(32)
        with pytest.raises(NumericalFailureError):
            detect.np_threshold_exact(pair, 0.2)
        code = cli.main(["detect", "--n-list", "32,64,96", "--samples", "10000"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_closed_bracket_is_a_numerical_failure(self, monkeypatch):
        # At n = 1 the root x = t - offset, about 8e-19, is below the float
        # spacing of t near offset = -0.35, so no t meets the tolerance: the
        # bracket closes on adjacent floats, and the solve stops there
        # rather than invert at the same t for the rest of its 200 steps.
        calls = []
        cdf = qform.quadratic_form_cdf

        def counted(coef, x):
            calls.append(x)
            return cdf(coef, x)

        monkeypatch.setattr(qform, "quadratic_form_cdf", counted)
        cov_p = spectral.CovarianceSequence.geometric(0.3, 2.0)
        pair = gaussian.whiten(numlin.toeplitz_from_cov(cov_p, 1), np.eye(1))
        with pytest.raises(NumericalFailureError, match="the bracket closed at"):
            detect.np_threshold_exact(pair, 1e-9)
        assert len(calls) <= 60

    # Cases where the integrands are far from a plain Gaussian along the
    # path: n=1 of either sign far into both tails, n=2 with mixed signs in
    # both tails and next to the density's log singularity at 0 (down to
    # x = 1e-30, where the density integrand stays O(1) out to u = 70), and
    # a level-1e-9 threshold.
    @pytest.mark.parametrize(
        "coef, x",
        [
            pytest.param([0.15], 6.0, id="n=1-upper-tail"),
            pytest.param([0.15], 1e-6, id="n=1-lower-tail"),
            pytest.param([-0.4], -15.0, id="n=1-negative-lower-tail"),
            pytest.param([-0.4], -1e-5, id="n=1-negative-upper-tail"),
            pytest.param([0.7, -0.3], 12.0, id="n=2-mixed-upper-tail"),
            pytest.param([0.7, -0.3], -6.0, id="n=2-mixed-lower-tail"),
            pytest.param([0.7, -0.3], 1e-3, id="n=2-mixed-near-0"),
            pytest.param([0.7, -0.3], 1e-10, id="n=2-mixed-at-1e-10"),
            pytest.param([0.7, -0.3], 1e-30, id="n=2-mixed-at-1e-30"),
        ],
    )
    def test_refined_cdf_matches_reference(self, coef, x):
        cdf, _ = qform.quadratic_form_cdf(np.array(coef), x)
        assert abs(cdf - conditional_reference(coef, x)) < 1e-10

    def test_refined_cdf_at_level_1e_9(self):
        pair, coef, offset = toeplitz_form(2)
        x = detect.np_threshold_exact(pair, 1e-9).threshold - offset
        cdf, _ = qform.quadratic_form_cdf(coef, x)
        reference = conditional_reference(coef, x)
        assert abs(cdf - reference) < 1e-10
        # The inversion's 1e-12 absolute accuracy is 1e-3 relative here.
        assert abs(cdf / reference - 1.0) < 1e-3

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        _, coef, _ = toeplitz_form(32)
        whole = qform.quadratic_form_cdf(coef, 1.0)
        monkeypatch.setattr(qform, "_BLOCK_DOUBLES", 1)  # one node per block
        assert qform.quadratic_form_cdf(coef, 1.0) == whole

    def test_halving_cap_is_a_numerical_failure(self, monkeypatch, capsys):
        # With no halving there are no two sums to compare.
        monkeypatch.setattr(qform, "_HALVINGS", 0)
        with pytest.raises(NumericalFailureError, match="0 halvings"):
            qform.quadratic_form_cdf(np.array([0.7, -0.3]), -0.14)
        code = cli.main(["detect", "--n-list", "32,64,96", "--samples", "10000"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coef, x",
        [
            pytest.param([0.15], 1e-6, id="n=1-near-0"),
            pytest.param([0.15], 60.0, id="n=1-near-the-pole"),
            pytest.param([0.7, -0.3], -30.0, id="n=2-near-the-negative-pole"),
            pytest.param([0.7, -0.3], 0.4, id="root-at-0"),
        ],
    )
    def test_saddlepoint_solves_k_prime(self, coef, x):
        c = np.array(coef)
        lo = 0.5 / c.min() * (1.0 - 1e-9) if c.min() < 0.0 else -c.size / x
        hi = 0.5 / c.max() * (1.0 - 1e-9) if c.max() > 0.0 else -c.size / x
        a, curvature = qform._saddlepoint(c, x, lo, hi)
        ratio = c / (1.0 - 2.0 * c * a)
        assert lo < a < hi
        # K'(a) - x is what a few ulps of a give, at slope K''(a).
        assert abs(np.sum(ratio) - x) <= 16.0 * np.finfo(float).eps * (abs(a) * curvature + abs(x))
        assert curvature == pytest.approx(2.0 * np.sum(ratio**2), rel=1e-15)

    def test_saddlepoint_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(qform, "_NEWTON_STEPS", 1)
        with pytest.raises(NumericalFailureError, match="saddlepoint"):
            qform.quadratic_form_cdf(np.array([0.7, -0.3]), -0.14)
        code = cli.main(["detect", "--n-list", "32,64,96", "--samples", "10000"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_n_4096_in_bounded_memory(self, monkeypatch):
        pair = ar1_pair(0.9, 4096)
        form = gaussian.llr_form(pair)
        coef, offset = form.coef, form.offset

        def threshold_and_peak():
            tracemalloc.start()
            try:
                return detect.np_threshold_exact(pair, 0.2), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        det, peak = threshold_and_peak()
        alpha, _ = qform.quadratic_form_cdf(coef, det.threshold - offset)
        assert abs(alpha - 0.2) <= 1e-12
        assert peak < 64 * 2**20
        # The peak follows the block size: 2^16 doubles is 0.5 MB a temporary.
        monkeypatch.setattr(qform, "_BLOCK_DOUBLES", 1 << 16)
        small_det, small_peak = threshold_and_peak()
        assert small_det.threshold == det.threshold
        assert small_peak < 4 * 2**20

    def test_validation(self):
        pair, _, _ = toeplitz_form(8)
        for tau in (0.0, 0.5, math.nan):
            with pytest.raises(ValueError):
                detect.np_threshold_exact(pair, tau)
        with pytest.raises(DegeneratePairError):
            detect.np_threshold_exact(oracles.diagonal_pair(np.ones(4)), 0.2)

    # Random AR(1) pairs: p and q each with rho on (-0.95, 0.95) and scale
    # log-uniform on [0.1, 10], at n up to 300, and tau log-uniform over the
    # levels np_threshold_exact takes, [TAU_MIN, 0.45].  Some normal starts
    # lie deep in the lower tail, where a plain Newton step would throw t far
    # into the upper one: rho 0.5 and scale e against white noise at n = 5,
    # tau = e^-4, for one.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.tuples(AR1_RHO, AR1_LOG_SCALE),
        q=st.tuples(AR1_RHO, AR1_LOG_SCALE),
        n=st.integers(1, 300),
        log_tau=st.floats(math.log(detect.TAU_MIN), math.log(0.45)),
    )
    def test_level_is_tau_on_random_ar1_pairs(self, p, q, n, log_tau):
        tau = min(max(math.exp(log_tau), detect.TAU_MIN), 0.45)
        covs = [spectral.CovarianceSequence.geometric(rho, math.exp(s)) for rho, s in (p, q)]
        pair = gaussian.whiten_toeplitz(*covs, n)
        try:
            form = gaussian.llr_form(pair)
        except DegeneratePairError:
            reject()  # p = q up to rounding: no LLR, so no threshold
        try:
            t = detect.np_threshold_exact(pair, tau).threshold
        except NumericalFailureError as exc:
            # Where F moves by more than 2e-12 from one double to the next,
            # as at n = 1 next to the offset, no t meets the level: the solve
            # stops on a bracket closed at t, between whose neighbours F
            # crosses tau.
            closed = re.fullmatch(r".* the bracket closed at (\S+)", str(exc))
            assert closed, exc
            t = float(closed.group(1))
            neighbours = (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))
            below, at, above = (form.cdf(x)[0] for x in neighbours)
            assert below < tau - 1e-12 and above > tau + 1e-12 and abs(at - tau) > 1e-12
        else:
            assert abs(form.cdf(t)[0] - tau) <= 1e-12

    def test_tau_below_the_floor_rejected(self):
        # The inversion stops within 1e-12 of tau: here the level found was
        # 1.000006e-9 for tau = 1e-9, 1.0057e-10 for 1e-10, 1.75e-13 for 1e-13.
        pair, _, _ = toeplitz_form(64)
        assert detect.TAU_MIN == 1e-9
        detect.np_threshold_exact(pair, 1e-9)
        with pytest.raises(ValueError):
            detect.np_threshold_exact(pair, 1e-10)


class TestSteinBounds:
    def test_window_arithmetic(self):
        w = detect.stein_bounds(kl=10.0, delta=1.0, gamma=0.5, eps=0.1, tau=0.2)
        assert w.exp_lower == pytest.approx(9.5)
        assert w.exp_upper == pytest.approx(11.0 - math.log(0.7))

    def test_window_ordering(self):
        w = detect.stein_bounds(kl=3.0, delta=0.4, gamma=0.4, eps=0.05, tau=0.05)
        assert w.exp_lower < w.exp_upper

    def test_vacuous_rejected(self):
        with pytest.raises(ValueError, match="eps \\+ tau must be < 1"):
            detect.stein_bounds(kl=1.0, delta=0.1, gamma=0.1, eps=0.5, tau=0.5)
        with pytest.raises(ValueError):
            detect.stein_bounds(kl=1.0, delta=0.0, gamma=0.1, eps=0.1, tau=0.1)


class TestExponentFit:
    def test_recovers_exact_line(self):
        ns = [10, 20, 30, 40]
        slope = detect.exponent_fit(ns, [0.3 * n + 2.0 for n in ns])
        assert slope == pytest.approx(0.3, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            detect.exponent_fit([1, 2], [1.0, 2.0])
        with pytest.raises(ValueError):
            detect.exponent_fit([5, 5, 5], [1.0, 2.0, 3.0])


GCSL_NS = [32, 64, 96, 128]
GCSL_SEED = 11


@pytest.fixture(scope="module")
def result():
    cov_p = spectral.CovarianceSequence.geometric(0.5)
    cov_q = spectral.CovarianceSequence.white()
    return detect.gcsl_experiment(
        cov_p, cov_q, tau=0.2, ns=GCSL_NS, count=20_000, seed=GCSL_SEED
    )


class TestGcslExperiment:
    def test_rate_and_rows(self, result):
        assert result.stein_rate == pytest.approx(-0.5 * math.log(0.75), abs=1e-10)
        assert [r.n for r in result.rows] == [32, 64, 96, 128]
        for row in result.rows:
            assert row.lower < row.upper
            assert row.np_beta_log > 0.0
            assert 0.0 < row.np_alpha < 0.5

    def test_exponents_in_window(self, result):
        assert all(row.in_window for row in result.rows)

    def test_slope_positive_and_fit_tight(self, result):
        assert result.slope > 0.0
        ns = np.array([r.n for r in result.rows], dtype=float)
        beta_logs = np.array([r.np_beta_log for r in result.rows])
        r2 = np.corrcoef(ns, beta_logs)[0, 1] ** 2
        assert r2 > 0.98

    def test_one_pass_matches_separate_estimates(self, result):
        # Each n reads the leading coordinates of the one evaluation stream,
        # so its row is that of its own pair scored alone on the same seed.
        seed_eval = streams.derive_seed(GCSL_SEED, detect.EVALUATION_STREAM)
        for row in result.rows:
            assert_scored_alone(row, toeplitz_form(row.n)[0], 0.2, 20_000, seed_eval)

    def test_degenerate_pair_rejected(self):
        white = spectral.CovarianceSequence.white()
        with pytest.raises(DegeneratePairError):
            detect.gcsl_experiment(white, white, 0.2, [16, 32, 48], 20_000, 0)

    def test_unsorted_ns_rejected(self):
        cov_p = spectral.CovarianceSequence.geometric(0.5)
        white = spectral.CovarianceSequence.white()
        with pytest.raises(ValueError):
            detect.gcsl_experiment(cov_p, white, 0.2, [32, 16, 64], 20_000, 0)

    def test_too_few_ns_rejected_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before checking ns")

        monkeypatch.setattr(streams, "quadratic_draws", refuse)
        cov_p = spectral.CovarianceSequence.geometric(0.5)
        white = spectral.CovarianceSequence.white()
        with pytest.raises(ValueError, match="at least 3"):
            detect.gcsl_experiment(cov_p, white, 0.2, [128, 256], 20_000, 0)
