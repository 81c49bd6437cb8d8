import collections
import json

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multivariate_normal

from steinlab import cli, detect, gaussian, numlin, spectral, streams
from steinlab.exceptions import (
    DegeneratePairError,
    InvalidDimensionError,
    NotPositiveDefiniteError,
)

import oracles
from conftest import random_pd

# np.linalg.cholesky accepts this matrix; the PD rule (least pivot <= 1e-12
# times the largest diagonal entry) rejects it.
NEAR_SINGULAR = np.diag([1.0, 1e-13])


class TestModel:
    def test_identity_factors(self):
        assert oracles.log_det(np.eye(3)) == pytest.approx(0.0)

    def test_identity_entropy(self):
        # differential entropy of N(0, I_n), the mean of -log p, is
        # n/2 * (ln(2 pi) + 1)
        form = oracles.surprisal_form(np.eye(4))
        assert form.mean == pytest.approx(2.0 * (gaussian.LOG_2PI + 1.0))

    def test_diagonal_log_det(self):
        assert oracles.log_det(np.diag([2.0, 8.0])) == pytest.approx(np.log(16.0))

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            oracles.log_det(np.diag([1.0, 0.0]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            oracles.log_det(np.diag([1.0, -1.0]))

    def test_near_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            oracles.log_det(NEAR_SINGULAR)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, -0.95])
    @pytest.mark.parametrize("n", [1, 17, 256])
    def test_toeplitz_matches_dense(self, rho, n):
        cov = spectral.CovarianceSequence.geometric(rho)
        dense = numlin.toeplitz_from_cov(cov, n)
        (form,) = gaussian.surprisal_forms(cov, [n])
        assert form.coef.size == n
        # The offset is 0.5 (n ln 2 pi + log det); its mean adds n / 2.
        log_det = 2.0 * form.offset - n * gaussian.LOG_2PI
        assert log_det == pytest.approx(oracles.log_det(dense), rel=1e-12, abs=1e-12)
        assert form.mean == pytest.approx(oracles.surprisal_form(dense).mean, rel=1e-13)

    def test_toeplitz_near_singular_rejected(self):
        # The 2x2 Toeplitz matrix of K = (1, 1 - 1e-13) has last pivot about
        # 2e-13, below the PD rule, as for its Cholesky factor.
        lags = spectral.CovarianceSequence.from_table([1.0, 1.0 - 1e-13])
        with pytest.raises(NotPositiveDefiniteError):
            gaussian.surprisal_forms(lags, [2])


class TestKl:
    def test_equal_covariances(self):
        cov = random_pd(6, seed=7)
        assert oracles.kl_gaussian(cov, cov) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_closed_form(self):
        kappas = np.array([0.5, 2.0, 3.0])
        expected = 0.5 * np.sum(kappas - np.log(kappas) - 1.0)
        value = oracles.kl_gaussian(np.diag(kappas), np.eye(3))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_trace_logdet_oracle(self):
        cov_p = random_pd(5, seed=8)
        cov_q = random_pd(5, seed=9)
        inv_q = np.linalg.inv(cov_q)
        sign_p, logdet_p = np.linalg.slogdet(cov_p)
        sign_q, logdet_q = np.linalg.slogdet(cov_q)
        oracle = 0.5 * (np.trace(inv_q @ cov_p) - (logdet_p - logdet_q) - 5)
        assert oracles.kl_gaussian(cov_p, cov_q) == pytest.approx(oracle, abs=1e-9)

    def test_asymmetry(self):
        cov_p = np.diag([2.0, 2.0])
        assert oracles.kl_gaussian(cov_p, np.eye(2)) != pytest.approx(
            oracles.kl_gaussian(np.eye(2), cov_p)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidDimensionError):
            oracles.kl_gaussian(np.eye(2), np.eye(3))

    def test_near_singular_q_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            oracles.kl_gaussian(np.eye(2), NEAR_SINGULAR)

    def test_near_singular_p_rejected(self):
        # The pencil's kappas are all positive here; `whiten`'s rule rejects it.
        with pytest.raises(NotPositiveDefiniteError):
            oracles.kl_gaussian(NEAR_SINGULAR, np.eye(2))


GEO_HALF = spectral.CovarianceSequence.geometric(0.5)
KAPPA_CASES = [
    pytest.param(numlin.toeplitz_from_cov(GEO_HALF, n), np.eye(n), id=f"rho=0.5-n={n}")
    for n in range(32, 257, 32)
] + [
    pytest.param(random_pd(n, seed=n), random_pd(n, seed=n + 1), id=f"random-n={n}")
    for n in (3, 8, 40)
] + [
    pytest.param(
        numlin.toeplitz_from_cov(GEO_HALF, n),
        numlin.toeplitz_from_cov(spectral.CovarianceSequence.geometric(-0.3), n),
        id=f"rho=0.5-vs-rho=-0.3-n={n}",
    )
    for n in (64, 256)
]


class TestWhiten:
    @pytest.mark.parametrize(
        "cov_p, cov_q", [(NEAR_SINGULAR, np.eye(2)), (np.eye(2), NEAR_SINGULAR)],
        ids=["p", "q"],
    )
    def test_near_singular_rejected(self, cov_p, cov_q):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian.whiten(cov_p, cov_q)

    def test_whitener_normalizes_q_and_diagonalizes_p(self):
        cov_p = random_pd(6, seed=10)
        cov_q = random_pd(6, seed=11)
        pair = gaussian.whiten(cov_p, cov_q)
        m = oracles.whitener(cov_p, cov_q)
        assert np.allclose(m @ cov_q @ m.T, np.eye(6), atol=1e-8)
        assert np.allclose(m @ cov_p @ m.T, np.diag(pair.kappas), atol=1e-8)

    @pytest.mark.parametrize("cov_p, cov_q", KAPPA_CASES)
    def test_kappas_match_the_vector_solve(self, cov_p, cov_q):
        # The values-only pencil solve against the one that also returns the
        # whitening basis.
        kappas = gaussian.whiten(cov_p, cov_q).kappas
        expected = oracles.eig_sym(cov_p, cov_q).eigenvalues[::-1]
        np.testing.assert_allclose(kappas, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("cov_p, cov_q", KAPPA_CASES)
    def test_kappas_match_scipy(self, cov_p, cov_q):
        # The reduction through both Cholesky factors against LAPACK's
        # sygvd, which factors q itself; rel 1e-12 on every kappa.
        kappas = gaussian.whiten(cov_p, cov_q).kappas
        expected = scipy.linalg.eigh(cov_p, cov_q, eigvals_only=True)[::-1]
        np.testing.assert_allclose(kappas, expected, rtol=1e-12, atol=0.0)

    def test_kappas_descending(self):
        pair = gaussian.whiten(random_pd(8, seed=12), random_pd(8, seed=13))
        assert np.all(np.diff(pair.kappas) <= 0.0)

    def test_kl_matches_direct(self):
        cov_p = random_pd(5, seed=14)
        cov_q = random_pd(5, seed=15)
        pair = gaussian.whiten(cov_p, cov_q)
        assert pair.kl == pytest.approx(oracles.kl_gaussian(cov_p, cov_q), abs=1e-10)

    def test_b_n(self):
        pair = oracles.diagonal_pair([3.0, 1.0, 0.5])
        assert gaussian.llr_form(pair).scale == pytest.approx(np.hypot(2.0, 0.5), abs=1e-12)

    def test_diagonal_pair_recovers_kappas(self):
        kappas = [4.0, 2.0, 0.25]
        pair = oracles.diagonal_pair(kappas)
        assert np.allclose(pair.kappas, kappas, atol=1e-10)

    def test_toeplitz_pair_kappas_within_spectrum_bounds(self, geo_half):
        s = geo_half.spectrum()
        pair = gaussian.whiten(numlin.toeplitz_from_cov(geo_half, 32), np.eye(32))
        assert np.all(pair.kappas >= s.min() - 1e-10)
        assert np.all(pair.kappas <= s.max() + 1e-10)


class TestLlr:
    def test_chunks_under_q_match_density_llr(self):
        # With descending diagonal kappas and q = I, whitened coordinates are
        # the originals up to sign, so q-draws are the raw normals.
        kappas = np.linspace(2.5, 0.5, 6)
        pair = oracles.diagonal_pair(kappas)
        zs = np.concatenate(list(oracles.standard_normal_chunks(4, 5000, 6)), axis=1).T
        sampled = oracles.sample_llr(pair, 5000, 4, "q")
        log_p = multivariate_normal(cov=np.diag(kappas)).logpdf(zs)
        log_q = multivariate_normal(cov=np.eye(6)).logpdf(zs)
        assert np.allclose(sampled, log_p - log_q, atol=1e-10)


# Identical pairs of every kind: whitening leaves their kappas a few
# rounding units eps sqrt(n) max kappa from 1, never exactly 1 in general.
IDENTICAL_COVARIANCES = [
    *(
        spectral.CovarianceSequence.geometric(rho, scale)
        for rho in (0.1, 0.5, 0.9, 0.99, -0.7)
        for scale in (1.0, 3.0, 1e-3)
    ),
    spectral.CovarianceSequence.from_table([1.0, 0.4, 0.2, 0.1]),
    spectral.CovarianceSequence.white(2.0),
]


class TestDegenerateRule:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_identical_pairs_rejected(self, n):
        eps = np.finfo(float).eps
        for cov in IDENTICAL_COVARIANCES:
            pair = gaussian.whiten_toeplitz(cov, cov, n)
            # 6.25 units at most here: the rule's 64 leaves a margin of 10.
            b_n = np.sqrt(np.sum((pair.kappas - 1.0) ** 2))
            assert b_n <= 10.0 * eps * np.sqrt(n) * np.max(pair.kappas)
            with pytest.raises(DegeneratePairError):
                gaussian.llr_form(pair)

    GUARDS = {
        "np_threshold_exact": lambda pair, cov: detect.np_threshold_exact(pair, 0.2),
        "_exact_terms": lambda pair, cov: detect._exact_terms(cov, cov, 64, 0.2),
        "estimate_beta_is": lambda pair, cov: detect.estimate_beta_is(
            detect.NpThreshold(0.0), pair, 1000, 0
        ),
        "llr_form-p": lambda pair, cov: gaussian.llr_form(pair),
    }

    @pytest.mark.parametrize("guard", list(GUARDS))
    def test_guards_reject_a_pair_identical_up_to_rounding(self, geo_half, guard):
        # B_n is 4.4e-15 here, not 0, and the KL is exactly 0.
        pair = gaussian.whiten_toeplitz(geo_half, geo_half, 64)
        assert 0.0 < np.sqrt(np.sum((pair.kappas - 1.0) ** 2)) < 1e-13
        with pytest.raises(DegeneratePairError):
            self.GUARDS[guard](pair, geo_half)

    def test_nearby_pair_accepted(self, geo_half):
        # rho 0.5 against 0.501: B_n is far above rounding, though small.
        cov_q = spectral.CovarianceSequence.geometric(0.501)
        pair = gaussian.whiten_toeplitz(geo_half, cov_q, 64)
        gaussian.llr_form(pair)
        assert detect.np_threshold_exact(pair, 0.2).threshold < pair.kl


def test_studies_read_only_kappas(capsys, monkeypatch, tmp_path):
    # detect and typical need the pencil eigenvalues and log-determinants
    # only: per n, one values-only pencil solve and two checked Cholesky
    # factors for a pair, and no eigenvector solve.  An entropy model takes
    # its log-determinant from the Levinson recursion, so it factors
    # nothing.
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvector solve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    calls = collections.Counter()

    def counted(name):
        original = getattr(numlin, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("pencil_eigvals", "cholesky"):
        monkeypatch.setattr(numlin, name, counted(name))
    ns = [32, 64, 96]
    small = ["--n-list", ",".join(map(str, ns)), "--samples", "10000", "--check"]
    pair = {"pencil_eigvals": len(ns), "cholesky": 2 * len(ns)}
    for command, config, expected in [
        ("detect", {}, pair),
        ("typical", {"variant": "rel_entropy"}, pair),
        ("typical", {"variant": "entropy"}, {}),
    ]:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        calls.clear()
        assert cli.main([command, "--config", str(cfg), *small]) == 0, capsys.readouterr().err
        assert calls == expected, (command, config)
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, config, factors",
    [
        pytest.param("detect", {}, {"cholesky", "pencil_eigvals"}, id="detect"),
        pytest.param(
            "typical",
            {"variant": "rel_entropy"},
            {"cholesky", "pencil_eigvals"},
            id="typical-rel_entropy",
        ),
        pytest.param("typical", {"variant": "entropy"}, {"levinson"}, id="typical-entropy"),
    ],
)
def test_studies_factor_everything_before_drawing(
    command, config, factors, capsys, monkeypatch, tmp_path
):
    # A LAPACK call leaves OpenBLAS threads running that slow the draws
    # after it (see `streams`), so a study ends every factorization before
    # it draws, then draws every n's samples in one kernel call.
    events = []

    def logged(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module, name in [
        (numlin, "cholesky"),
        (numlin, "pencil_eigvals"),
        (numlin, "levinson"),
        (streams, "quadratic_draws"),
    ]:
        monkeypatch.setattr(module, name, logged(module, name))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), "--n-list", "32,64,96", "--samples", "10000"]
    assert cli.main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    first_draw = events.index("quadratic_draws")
    assert events[first_draw:] == ["quadratic_draws"]
    assert set(events[:first_draw]) == factors
