"""The structured Toeplitz path (Levinson, Gohberg-Semencul, lag-sum norms,
shift-inverted Lanczos) against the dense matrices it replaces, and the
exact studies run without any dense matrix."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from steinlab import cli, gaussian, numlin, spectral
from steinlab.exceptions import (
    InvalidDimensionError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)

WHITE = spectral.CovarianceSequence.white()
COVS = {
    "rho=0.5": spectral.CovarianceSequence.geometric(0.5),
    "rho=0.99": spectral.CovarianceSequence.geometric(0.99),
    "rho=0.999": spectral.CovarianceSequence.geometric(0.999),
    "rho=-0.95": spectral.CovarianceSequence.geometric(-0.95),
    "table": spectral.CovarianceSequence.from_table([2.0, 0.5, -0.25]),
}
# Every covariance at the small sizes; n = 2048, where one dense oracle costs
# about a second, only for the two long-memory ones.
CASES = [(name, n) for name in COVS for n in (3, 4, 17, 512)] + [
    ("rho=0.99", 2048),
    ("rho=0.999", 2048),
]
CASE_IDS = [f"{name}-n={n}" for name, n in CASES]


@functools.cache
def dense(name, n):
    """Eigenvalues and inverse diagonal sums of the dense Toeplitz matrix;
    the matrices themselves are not kept."""
    toep = numlin.toeplitz_from_cov(COVS[name], n)
    inverse = np.linalg.inv(toep)
    return np.linalg.eigvalsh(toep), np.array([np.trace(inverse, offset=d) for d in range(n)])


def lags(name, n):
    return COVS[name].k(np.arange(n))


@pytest.mark.parametrize("name, n", CASES, ids=CASE_IDS)
class TestAgainstDense:
    def test_levinson_log_det(self, name, n):
        eigs, _ = dense(name, n)
        _, errors = numlin.levinson(lags(name, n))
        assert np.sum(np.log(errors)) == pytest.approx(np.sum(np.log(eigs)), rel=1e-12, abs=1e-12)

    def test_predictor_solves_first_column(self, name, n):
        a, errors = numlin.levinson(lags(name, n))
        first = scipy.linalg.solve_toeplitz(lags(name, n), np.eye(n)[0])
        assert np.allclose(a / errors[-1], first, rtol=0.0, atol=1e-11 * np.abs(first).max())

    def test_inverse_diagonal_sums(self, name, n):
        _, expected = dense(name, n)
        a, errors = numlin.levinson(lags(name, n))
        sums = numlin.inverse_diagonal_sums(a, errors[-1])
        assert np.allclose(sums, expected, rtol=0.0, atol=1e-12 * expected[0])

    def test_report_columns(self, name, n):
        cov = COVS[name]
        eigs, inverse_sums = dense(name, n)
        toep = numlin.toeplitz_from_cov(cov, n)
        band = numlin.banded_from_cov(cov, n)
        circ = numlin.circulant_from_cov(cov, n)
        expected = {
            "weak_diff_toeplitz_circulant": numlin.weak_norm(toep - circ),
            "eigavg_x": np.mean(eigs),
            "eigavg_log": np.mean(np.log(eigs)),
            "eigavg_inv": inverse_sums[0] / n,
            "weak_diff_toeplitz_banded": numlin.weak_norm(toep - band),
            "weak_diff_banded_circulant": numlin.weak_norm(band - circ),
            "strong_toeplitz": np.abs(eigs).max(),
            "strong_circulant": np.abs(np.linalg.eigvalsh(circ)).max(),
        }
        (row,) = spectral.asym_equiv_report(cov, [n])
        for column, value in expected.items():
            assert getattr(row, column) == pytest.approx(value, rel=1e-12, abs=1e-15), column


@pytest.mark.parametrize("name", COVS)
@pytest.mark.parametrize(
    "q", [WHITE, spectral.CovarianceSequence.geometric(-0.5)], ids=["q=white", "q=rho=-0.5"]
)
@pytest.mark.parametrize("n", [1, 3, 4, 17, 512])
def test_kl_toeplitz_matches_kl_gaussian(name, q, n):
    p = COVS[name]
    expected = gaussian.kl_gaussian(
        numlin.toeplitz_from_cov(p, n), numlin.toeplitz_from_cov(q, n)
    )
    assert gaussian.kl_toeplitz(p, q, n) == pytest.approx(expected, rel=1e-12)


def test_kl_toeplitz_matches_kl_gaussian_long_memory():
    p = COVS["rho=0.99"]
    expected = gaussian.kl_gaussian(numlin.toeplitz_from_cov(p, 2048), np.eye(2048))
    assert gaussian.kl_toeplitz(p, WHITE, 2048) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "name",
    [
        "rho=0.5",
        "rho=0.99",
        pytest.param(
            "rho=0.999",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the 4097-point grid under-resolves the spectral peak: C_s is 0.9% low",
            ),
        ),
        "rho=-0.95",
        "table",
    ],
)
def test_kolmogorov_szego(name):
    # For white q, C_s = (K_p[0] - ln sigma^2_inf - 1) / 2, with sigma^2_inf
    # the limit of the prediction-error variance: an independent check of the
    # grid quadrature in `stein_rate`.
    cov = COVS[name]
    _, errors = numlin.levinson(lags(name, 512))
    exact = 0.5 * (cov.k(0) - math.log(errors[-1]) - 1.0)
    assert spectral.stein_rate(cov.spectrum(), WHITE.spectrum()) == pytest.approx(exact, rel=1e-8)


def test_kolmogorov_szego_long_memory_value():
    _, errors = numlin.levinson(lags("rho=0.99", 512))
    assert 0.5 * (1.0 - math.log(errors[-1]) - 1.0) == pytest.approx(1.958517773626, abs=1e-12)
    rate = spectral.stein_rate(COVS["rho=0.99"].spectrum(), WHITE.spectrum())
    assert rate == pytest.approx(1.95851777324, abs=1e-11)


def test_large_n_in_linear_memory():
    # One dense 16384 x 16384 matrix would take 2 GB.
    p, n = COVS["rho=0.99"], 16384
    tracemalloc.start()
    try:
        kl = gaussian.kl_toeplitz(p, WHITE, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert abs(kl / n - spectral.stein_rate(p.spectrum(), WHITE.spectrum())) < 2e-4


class TestLevinson:
    def test_white(self):
        a, errors = numlin.levinson([2.0, 0.0, 0.0])
        assert a.tolist() == [1.0, 0.0, 0.0]
        assert errors.tolist() == [2.0, 2.0, 2.0]

    def test_geometric_closed_form(self):
        # AR(1): a = (1, -rho, 0, ...), E_k = 1 - rho^2 for k >= 1.
        a, errors = numlin.levinson(lags("rho=0.5", 6))
        assert np.allclose(a, [1.0, -0.5, 0.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
        assert np.allclose(errors, [1.0] + [0.75] * 5, rtol=1e-15)

    @pytest.mark.parametrize(
        "values", [[1.0, 1.0], [1.0, 0.6, -0.4], [0.0, 0.5], [-1.0], [1.0, 1.0 - 1e-13]],
        ids=["singular", "indefinite", "zero-k0", "negative-k0", "near-singular"],
    )
    def test_not_positive_definite_rejected(self, values):
        with pytest.raises(NotPositiveDefiniteError):
            numlin.levinson(values)

    def test_empty_rejected(self):
        with pytest.raises(InvalidDimensionError):
            numlin.levinson([])

    def test_pd_rule_no_stricter_than_check_pd(self):
        # E_{n-1} >= lambda_min and K[0] <= lambda_max, so a matrix that
        # check_pd accepts passes the recursion too.
        values = [1.0, 1.0 - 1e-11]
        numlin.check_pd(np.linalg.eigvalsh(scipy.linalg.toeplitz(values)), "T")
        numlin.levinson(values)


class TestLagNorms:
    def test_strong_norm_of_white_is_its_level(self):
        assert numlin.strong_norm_toeplitz([2.5, 0.0, 0.0, 0.0]) == 2.5

    def test_weak_norm_matches_dense(self):
        values = lags("table", 9)
        assert numlin.weak_norm_toeplitz(values) == pytest.approx(
            numlin.weak_norm(scipy.linalg.toeplitz(values)), rel=1e-15
        )

    def test_lanczos_failure_is_a_numerical_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with pytest.raises(NumericalFailureError):
            numlin.strong_norm_toeplitz(lags("rho=0.5", 16))


def test_exact_studies_form_no_dense_matrix(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix or eigensolve")

    for module, name in [
        (numlin, "toeplitz_from_cov"),
        (numlin, "banded_from_cov"),
        (numlin, "circulant_from_cov"),
        (numlin, "eigvals_sym"),
        (numlin, "eig_sym"),
        (scipy.linalg, "eigh"),
        (scipy.linalg, "toeplitz"),
        (scipy.linalg, "circulant"),
        (np.linalg, "eigh"),
        (np.linalg, "eigvalsh"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    long_memory = {"kind": "geometric", "rho": 0.99, "scale": 1.0}
    for command in ("rate", "asymptotics"):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"cov_p": long_memory}))
        args = [command, "--config", str(cfg), "--n-list", "512,1024,2048", "--check"]
        assert cli.main(args) == 0, capsys.readouterr().err
    capsys.readouterr()
