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
    (kl,) = gaussian.kl_toeplitz(p, q, [n])
    assert kl == pytest.approx(expected, rel=1e-12)


def test_kl_toeplitz_matches_kl_gaussian_long_memory():
    p = COVS["rho=0.99"]
    expected = gaussian.kl_gaussian(numlin.toeplitz_from_cov(p, 2048), np.eye(2048))
    (kl,) = gaussian.kl_toeplitz(p, WHITE, [2048])
    assert kl == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "name",
    [
        "rho=0.5",
        "rho=0.99",
        "rho=0.999",
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
    assert spectral.stein_rate(cov, WHITE) == pytest.approx(exact, rel=1e-8)


def test_kolmogorov_szego_long_memory_value():
    _, errors = numlin.levinson(lags("rho=0.99", 512))
    assert 0.5 * (1.0 - math.log(errors[-1]) - 1.0) == pytest.approx(1.958517773626, abs=1e-12)
    rate = spectral.stein_rate(COVS["rho=0.99"], WHITE)
    assert rate == pytest.approx(1.958517773626, abs=1e-12)


def test_large_n_in_linear_memory():
    # One dense 16384 x 16384 matrix would take 2 GB.
    p, n = COVS["rho=0.99"], 16384
    tracemalloc.start()
    try:
        (kl,) = gaussian.kl_toeplitz(p, WHITE, [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert abs(kl / n - spectral.stein_rate(p, WHITE)) < 2e-4


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

    def test_pd_rule_no_stricter_than_the_eigenvalue_rule(self):
        # E_{n-1} >= lambda_min and K[0] <= lambda_max, so a matrix that the
        # eigenvalue rule lambda_min > PD_RTOL * lambda_max accepts passes
        # the recursion too.
        values = [1.0, 1.0 - 1e-11]
        w = np.linalg.eigvalsh(scipy.linalg.toeplitz(values))
        assert w[0] > numlin.PD_RTOL * w[-1]
        numlin.levinson(values)


def reference_levinson(lags):
    """The recursion step as first written, on an error array and numpy
    scalars: the reference for the leaner step."""
    lags = np.asarray(lags, dtype=float)
    n = lags.size
    reversed_lags = lags[::-1].copy()
    a = np.zeros(n)
    a[0] = 1.0
    errors = np.empty(n)
    errors[0] = lags[0]
    step = np.empty(n)
    for k in range(1, n):
        refl = -np.dot(a[:k], reversed_lags[n - 1 - k : n - 1]) / errors[k - 1]
        assert abs(refl) < 1.0
        a[1 : k + 1] += np.multiply(a[k - 1 :: -1], refl, out=step[:k])
        errors[k] = errors[k - 1] * ((1.0 - refl) * (1.0 + refl))
    return a, errors


SHARED = {**COVS, "q=rho=-0.3": spectral.CovarianceSequence.geometric(-0.3)}
ORDERS = [1, 2, 17, 511, 512]
# T_4 of these lags is positive definite, T_5 is not.
PD_TO_ORDER_4 = np.array([1.0, 0.55, -0.1] + [0.0] * 61)


class TestSharedRecursion:
    """One run at the largest n serves every leading order bit for bit."""

    @pytest.mark.parametrize("name", list(SHARED))
    def test_each_order_matches_its_own_run(self, name):
        values = SHARED[name].k(np.arange(512))
        predictors, errors = numlin.levinson(values, ORDERS)
        assert errors.size == 512
        for m, predictor in zip(ORDERS, predictors):
            alone, alone_errors = numlin.levinson(values[:m])
            assert np.array_equal(predictor, alone), m
            assert np.array_equal(errors[:m], alone_errors), m

    @pytest.mark.parametrize(
        "name, n", [(name, 512) for name in SHARED] + [("rho=0.99", 2048)]
    )
    def test_step_matches_the_reference(self, name, n):
        values = SHARED[name].k(np.arange(n))
        a, errors = numlin.levinson(values)
        expected_a, expected_errors = reference_levinson(values)
        assert np.array_equal(a, expected_a)
        assert np.array_equal(errors, expected_errors)

    @pytest.mark.parametrize("n", [1, 2, 7, 512, 2048])
    @pytest.mark.parametrize("scale", [1.0, 0.3, 2.5e3])
    def test_white_skips_the_loop_bit_for_bit(self, n, scale):
        # K[m] = 0 for m >= 1: the loop's reflection coefficients are all
        # -0.0, so skipping it must return its bytes, signed zeros included.
        values = spectral.CovarianceSequence.white(scale).k(np.arange(n))
        a, errors = numlin.levinson(values)
        expected_a, expected_errors = reference_levinson(values)
        assert a.tobytes() == expected_a.tobytes()
        assert errors.tobytes() == expected_errors.tobytes()
        # The shared run's orders against the loop: a nonzero last lag makes
        # the recursion run, yet the orders below it see only zero lags.
        orders = [m for m in (1, 2, 17, 511) if m < n] + [n]
        predictors, errors = numlin.levinson(values, orders)
        if n > 1:
            looped = np.append(values, scale * 1e-3)
            expected, expected_errors = numlin.levinson(looped, orders)
            assert errors.tobytes() == expected_errors.tobytes()
            for got, want in zip(predictors, expected):
                assert got.tobytes() == want.tobytes()

    def test_run_stops_at_the_largest_order(self):
        predictors, errors = numlin.levinson(lags("rho=0.5", 64), [3, 9])
        assert [p.size for p in predictors] == [3, 9]
        assert errors.size == 9

    @pytest.mark.parametrize("orders", [[], [0, 4], [4, 2], [4, 4], [65]])
    def test_bad_orders_rejected(self, orders):
        with pytest.raises(InvalidDimensionError):
            numlin.levinson(lags("rho=0.5", 64), orders)

    def test_failure_names_the_order_a_lone_run_names(self):
        numlin.levinson(PD_TO_ORDER_4[:4])
        with pytest.raises(NotPositiveDefiniteError, match="at order 4") as alone:
            numlin.levinson(PD_TO_ORDER_4[:5])
        with pytest.raises(NotPositiveDefiniteError) as shared:
            numlin.levinson(PD_TO_ORDER_4, [4, 64])
        assert str(shared.value) == str(alone.value)

    def test_pivot_rule_applies_at_each_order(self):
        # T_2 fails the PD_RTOL rule (its last pivot is about 2e-13); past
        # it the recursion would fail the reflection test instead.
        values = np.array([1.0, 1.0 - 1e-13, 0.0, 0.0])
        with pytest.raises(NotPositiveDefiniteError, match="least pivot") as alone:
            numlin.levinson(values[:2])
        with pytest.raises(NotPositiveDefiniteError) as shared:
            numlin.levinson(values, [2, 4])
        assert str(shared.value) == str(alone.value)

    @pytest.mark.parametrize(
        "argv", [["rate"], ["asymptotics"], ["typical", "--samples", "1000"]],
        ids=["rate", "asymptotics", "typical-entropy"],
    )
    def test_study_on_a_table_pd_to_order_4_exits_3(self, argv, capsys, tmp_path):
        # Lags 1 and 8193 = 1 + 2 * 4096 cancel on the 4096- and 8192-point
        # grids, the two the spectral integrals stop at here, so the
        # spectrum checks pass there and only the recursion finds T_5
        # indefinite.
        values = [1.0, 0.55, -0.1] + [0.0] * 8190 + [-0.55]
        config = {"cov_p": {"kind": "table", "values": values}}
        if argv[0] == "typical":
            config["variant"] = "entropy"
        cfg = tmp_path / "table.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([*argv, "--config", str(cfg), "--n-list", "4"]) == 0
        assert cli.main([*argv, "--config", str(cfg), "--n-list", "4,64"]) == 3
        assert "at order 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "study, variant",
        [
            ("rate", None),
            ("asymptotics", None),
            ("typical", "entropy"),
            ("typical", "rel_entropy"),
        ],
        ids=["rate", "asymptotics", "typical-entropy", "typical-rel_entropy"],
    )
    def test_table_folded_on_the_first_grid_only_exits_2(self, study, variant, capsys, tmp_path):
        # Lags 1 and 4097 cancel on the 4096-point grid alone; the 8192-point
        # grid the spectral integrals go on to, and `typical` checks too,
        # finds the spectrum negative.
        values = [1.0, 0.55, -0.1] + [0.0] * 4094 + [-0.55]
        config = {"cov_p": {"kind": "table", "values": values}}
        if variant is not None:
            config["variant"] = variant
        cfg = tmp_path / "table.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([study, "--config", str(cfg), "--n-list", "4"]) == 2
        assert "spectrum is not positive on the grid" in capsys.readouterr().err


@pytest.mark.parametrize("n_list", ["64", "64,128,256"])
@pytest.mark.parametrize(
    "argv", [["rate"], ["asymptotics"], ["typical", "--samples", "1000"]],
    ids=["rate", "asymptotics", "typical-entropy"],
)
def test_one_recursion_per_lag_sequence(argv, n_list, capsys, monkeypatch, tmp_path):
    calls = []
    levinson = numlin.levinson

    def counted(*args, **kwargs):
        calls.append(args)
        return levinson(*args, **kwargs)

    monkeypatch.setattr(numlin, "levinson", counted)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"variant": "entropy"} if argv[0] == "typical" else {}))
    assert cli.main([*argv, "--config", str(cfg), "--n-list", n_list]) == 0
    capsys.readouterr()
    count = len(n_list.split(","))
    # rate: one per covariance; asymptotics: one for T, plus the strong
    # norm's own shifted recursion at each n.
    assert len(calls) == {"rate": 2, "asymptotics": 1 + count, "typical": 1}[argv[0]]


class TestPdRule:
    """Cholesky, Levinson and whitening apply one rule: the least pivot must
    exceed PD_RTOL times the largest diagonal entry."""

    @staticmethod
    def verdicts(values):
        dense = scipy.linalg.toeplitz(values)
        checks = {
            "cholesky": lambda: numlin.cholesky(dense, "T"),
            "levinson": lambda: numlin.levinson(values),
            "kl_gaussian": lambda: gaussian.kl_gaussian(dense, np.eye(len(values))),
        }
        verdicts = {}
        for name, check in checks.items():
            try:
                check()
                verdicts[name] = True
            except NotPositiveDefiniteError:
                verdicts[name] = False
        return verdicts

    def test_accepted_everywhere(self):
        # The last pivot is 1 - (1 - 1e-12)^2 ~ 2e-12 > 1e-12; the eigenvalue
        # rule, lambda_min = 1e-12 <= PD_RTOL * lambda_max, would reject it.
        verdicts = self.verdicts([1.0, 1.0 - 1e-12])
        assert verdicts == dict.fromkeys(verdicts, True)

    def test_rejected_everywhere(self):
        verdicts = self.verdicts([1.0, 1.0 - 1e-13])
        assert verdicts == dict.fromkeys(verdicts, False)

    @pytest.mark.parametrize("name", list(COVS))
    @pytest.mark.parametrize("n", [3, 17, 512])
    def test_cholesky_pivots_are_the_levinson_errors(self, name, n):
        # Cholesky forms a pivot as K[0] minus a sum, so its error is of order
        # n eps K[0], on the scale the rule compares at; at rho = 0.999,
        # n = 512, where E_k is K[0]/500, that is 1.8e-12 relative.
        values = lags(name, n)
        factor = numlin.cholesky(scipy.linalg.toeplitz(values), "T")
        _, errors = numlin.levinson(values)
        np.testing.assert_allclose(
            np.diagonal(factor) ** 2, errors, rtol=1e-12, atol=n * np.finfo(float).eps * values[0]
        )


class TestLagNorms:
    def test_strong_norm_of_white_is_its_level(self):
        assert numlin.strong_norm_toeplitz([2.5, 0.0, 0.0, 0.0]) == 2.5

    def test_weak_norm_matches_dense(self):
        values = lags("table", 9)
        assert numlin.weak_norm_toeplitz(values) == pytest.approx(
            numlin.weak_norm(scipy.linalg.toeplitz(values)), rel=1e-15
        )

    def test_lanczos_failure_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(numlin, "_LANCZOS_STEPS", 1)
        with pytest.raises(NumericalFailureError):
            numlin.strong_norm_toeplitz(lags("rho=0.5", 16))

    @pytest.mark.parametrize("name", list(COVS))
    @pytest.mark.parametrize("n", [16, 512, 2048])
    def test_strong_norm_matches_eigsh(self, name, n):
        # ARPACK in shift-invert mode about the same circulant bound, on the
        # dense matrix; rel 1e-13.
        values = lags(name, n)
        sigma = np.fft.rfft(np.concatenate((values, [0.0], values[:0:-1]))).real.max()
        (expected,) = scipy.sparse.linalg.eigsh(
            scipy.linalg.toeplitz(values), k=1, sigma=sigma, which="LM", tol=0,
            return_eigenvectors=False,
        )
        assert numlin.strong_norm_toeplitz(values) == pytest.approx(expected, rel=1e-13)


def test_exact_studies_form_no_dense_matrix(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix or eigensolve")

    for module, name in [
        (numlin, "toeplitz_from_cov"),
        (numlin, "banded_from_cov"),
        (numlin, "circulant_from_cov"),
        (numlin, "pencil_eigvals"),
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
