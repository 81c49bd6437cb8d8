import json

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multivariate_normal

from steinlab import cli, gaussian, numlin, spectral, streams
from steinlab.exceptions import InvalidDimensionError, NotPositiveDefiniteError

from conftest import random_pd

# Cholesky accepts this matrix; the PD rule (lambda_min <= 1e-12 lambda_max)
# rejects it.
NEAR_SINGULAR = np.diag([1.0, 1e-13])


class TestModel:
    def test_identity_factors(self):
        model = gaussian.model_from_cov(np.eye(3))
        assert model.log_det == pytest.approx(0.0)

    def test_identity_entropy(self):
        # differential entropy of N(0, I_n) is n/2 * (ln(2 pi) + 1)
        model = gaussian.model_from_cov(np.eye(4))
        assert model.entropy == pytest.approx(2.0 * (gaussian.LOG_2PI + 1.0))

    def test_diagonal_log_det(self):
        model = gaussian.model_from_cov(np.diag([2.0, 8.0]))
        assert model.log_det == pytest.approx(np.log(16.0))

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian.model_from_cov(np.diag([1.0, 0.0]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian.model_from_cov(np.diag([1.0, -1.0]))

    def test_near_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian.model_from_cov(NEAR_SINGULAR)


class TestKl:
    def test_equal_covariances(self):
        cov = random_pd(6, seed=7)
        assert gaussian.kl_gaussian(cov, cov) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_closed_form(self):
        kappas = np.array([0.5, 2.0, 3.0])
        expected = 0.5 * np.sum(kappas - np.log(kappas) - 1.0)
        value = gaussian.kl_gaussian(np.diag(kappas), np.eye(3))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_trace_logdet_oracle(self):
        cov_p = random_pd(5, seed=8)
        cov_q = random_pd(5, seed=9)
        inv_q = np.linalg.inv(cov_q)
        sign_p, logdet_p = np.linalg.slogdet(cov_p)
        sign_q, logdet_q = np.linalg.slogdet(cov_q)
        oracle = 0.5 * (np.trace(inv_q @ cov_p) - (logdet_p - logdet_q) - 5)
        assert gaussian.kl_gaussian(cov_p, cov_q) == pytest.approx(oracle, abs=1e-9)

    def test_asymmetry(self):
        cov_p = np.diag([2.0, 2.0])
        assert gaussian.kl_gaussian(cov_p, np.eye(2)) != pytest.approx(
            gaussian.kl_gaussian(np.eye(2), cov_p)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidDimensionError):
            gaussian.kl_gaussian(np.eye(2), np.eye(3))

    def test_near_singular_q_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian.kl_gaussian(np.eye(2), NEAR_SINGULAR)

    def test_near_singular_p_rejected(self):
        # The pencil's kappas are all positive here; `whiten`'s rule rejects it.
        with pytest.raises(NotPositiveDefiniteError):
            gaussian.kl_gaussian(NEAR_SINGULAR, np.eye(2))


GEO_HALF = spectral.CovarianceSequence.geometric(0.5)
KAPPA_CASES = [
    pytest.param(numlin.toeplitz_from_cov(GEO_HALF, n), np.eye(n), id=f"rho=0.5-n={n}")
    for n in range(32, 257, 32)
] + [
    pytest.param(random_pd(n, seed=n), random_pd(n, seed=n + 1), id=f"random-n={n}")
    for n in (3, 8, 40)
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
        m = pair.whitener
        assert np.allclose(m @ cov_q @ m.T, np.eye(6), atol=1e-8)
        assert np.allclose(m @ cov_p @ m.T, np.diag(pair.kappas), atol=1e-8)

    def test_whitener_built_on_first_read(self):
        pair = gaussian.whiten(random_pd(5, seed=22), random_pd(5, seed=23))
        assert "whitener" not in pair.__dict__
        assert pair.whitener is pair.whitener

    @pytest.mark.parametrize("cov_p, cov_q", KAPPA_CASES)
    def test_kappas_match_the_vector_solve(self, cov_p, cov_q):
        # The values-only pencil solve against the one that also returns the
        # whitening basis.
        kappas = gaussian.whiten(cov_p, cov_q).kappas
        expected = numlin.eig_sym(cov_p, cov_q).eigenvalues[::-1]
        np.testing.assert_allclose(kappas, expected, rtol=1e-13, atol=0.0)

    def test_kappas_descending(self):
        pair = gaussian.whiten(random_pd(8, seed=12), random_pd(8, seed=13))
        assert np.all(np.diff(pair.kappas) <= 0.0)

    def test_kl_matches_direct(self):
        cov_p = random_pd(5, seed=14)
        cov_q = random_pd(5, seed=15)
        pair = gaussian.whiten(cov_p, cov_q)
        assert pair.kl == pytest.approx(gaussian.kl_gaussian(cov_p, cov_q), abs=1e-10)

    def test_b_n(self):
        pair = gaussian.diagonal_pair([3.0, 1.0, 0.5])
        assert pair.b_n == pytest.approx(np.hypot(2.0, 0.5), abs=1e-12)

    def test_diagonal_pair_recovers_kappas(self):
        kappas = [4.0, 2.0, 0.25]
        pair = gaussian.diagonal_pair(kappas)
        assert np.allclose(pair.kappas, kappas, atol=1e-10)

    def test_toeplitz_pair_kappas_within_spectrum_bounds(self, geo_half):
        s = geo_half.spectrum()
        pair = gaussian.whiten(numlin.toeplitz_from_cov(geo_half, 32), np.eye(32))
        assert np.all(pair.kappas >= s.lower - 1e-10)
        assert np.all(pair.kappas <= s.upper + 1e-10)


class TestLlr:
    def test_chunks_under_q_match_density_llr(self):
        # With descending diagonal kappas and q = I, whitened coordinates are
        # the originals up to sign, so q-draws are the raw normals.
        kappas = np.linspace(2.5, 0.5, 6)
        pair = gaussian.diagonal_pair(kappas)
        zs = np.concatenate(list(streams.standard_normal_chunks(4, 5000, 6)))
        sampled = np.concatenate(list(gaussian.llr_chunks(pair, 5000, 4, "q")))
        log_p = multivariate_normal(cov=np.diag(kappas)).logpdf(zs)
        log_q = multivariate_normal(cov=np.eye(6)).logpdf(zs)
        assert np.allclose(sampled, log_p - log_q, atol=1e-10)

    def test_chunks_reject_unknown_law(self):
        pair = gaussian.diagonal_pair([2.0, 0.5])
        with pytest.raises(ValueError):
            next(gaussian.llr_chunks(pair, 10, 0, "r"))


def test_studies_read_only_kappas(capsys, monkeypatch, tmp_path):
    # detect and typical need the pencil eigenvalues and log-determinants
    # only: no eigenvector solve and no Cholesky factor.
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvector solve or Cholesky factor")

    for module, name in [
        (numlin, "eig_sym"),
        (np.linalg, "eigh"),
        (scipy.linalg, "cholesky"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    small = ["--n-list", "32,64,96", "--samples", "10000", "--check"]
    assert cli.main(["detect", *small]) == 0, capsys.readouterr().err
    for variant in ("rel_entropy", "entropy"):
        cfg = tmp_path / f"{variant}.json"
        cfg.write_text(json.dumps({"variant": variant}))
        assert cli.main(["typical", "--config", str(cfg), *small]) == 0, capsys.readouterr().err
    capsys.readouterr()
