import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinlab import numlin, spectral
from steinlab.exceptions import InvalidDimensionError

import oracles
from conftest import random_pd


def geo(rho):
    return spectral.CovarianceSequence.geometric(rho)


WHITE = spectral.CovarianceSequence.white()


class TestToeplitz:
    def test_white_noise_is_identity(self):
        assert np.array_equal(numlin.toeplitz_from_cov(WHITE, 3), np.eye(3))

    def test_geometric_n2(self):
        expected = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(numlin.toeplitz_from_cov(geo(0.5), 2), expected)

    def test_geometric_n3(self):
        expected = np.array(
            [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        )
        assert np.array_equal(numlin.toeplitz_from_cov(geo(0.5), 3), expected)

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            numlin.toeplitz_from_cov(WHITE, 0)


class TestCirculant:
    def test_white_noise_is_identity(self):
        assert np.array_equal(oracles.circulant_from_cov(WHITE, 4), np.eye(4))

    def test_even_first_row(self):
        # Hand-applied even-n template, n=4, n_hat=3: (1, rho, rho^2, rho)
        rho = 0.3
        row = oracles.circulant_from_cov(geo(rho), 4)[0]
        assert np.allclose(row, [1.0, rho, rho**2, rho])

    def test_odd_first_row(self):
        # Hand-applied odd-n template, n=5, n_hat=3: (1, rho, rho^2, rho^2, rho)
        rho = 0.3
        row = oracles.circulant_from_cov(geo(rho), 5)[0]
        assert np.allclose(row, [1.0, rho, rho**2, rho**2, rho])

    def test_symmetric_and_circulant(self):
        m = oracles.circulant_from_cov(geo(0.5), 7)
        assert np.array_equal(m, m.T)
        for i in range(1, 7):
            assert np.allclose(m[i], np.roll(m[0], i))

    def test_small_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            oracles.circulant_from_cov(WHITE, 2)


class TestBanded:
    def test_white_noise_is_identity(self):
        assert np.array_equal(oracles.banded_from_cov(WHITE, 4), np.eye(4))

    def test_geometric_n4(self):
        # n_hat = 3, so lag 3 is zeroed: Toeplitz of (1, rho, rho^2, 0)
        rho = 0.5
        expected = np.array(
            [
                [1.0, rho, rho**2, 0.0],
                [rho, 1.0, rho, rho**2],
                [rho**2, rho, 1.0, rho],
                [0.0, rho**2, rho, 1.0],
            ]
        )
        assert np.array_equal(oracles.banded_from_cov(geo(rho), 4), expected)

    def test_difference_has_zero_main_band(self):
        n = 9
        diff = numlin.toeplitz_from_cov(geo(0.5), n) - oracles.banded_from_cov(
            geo(0.5), n
        )
        n_hat = n // 2 + 1
        i, j = np.indices((n, n))
        assert np.all(diff[np.abs(i - j) < n_hat] == 0.0)


class TestEigSym:
    def test_identity(self):
        dec = oracles.eig_sym(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        dec = oracles.eig_sym(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0])

    def test_2x2_closed_form(self):
        # eigenvalues of [[1, rho], [rho, 1]] are 1 -+ rho
        dec = oracles.eig_sym(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(dec.eigenvalues, [0.5, 1.5])

    def test_invariants_on_random_matrix(self):
        m = random_pd(12, seed=0)
        dec = oracles.eig_sym(m)
        n = m.shape[0]
        assert np.max(np.abs(dec.basis.T @ dec.basis - np.eye(n))) < 1e-10 * n
        recon = dec.basis @ np.diag(dec.eigenvalues) @ dec.basis.T
        assert oracles.strong_norm(recon - m) < 1e-10 * oracles.strong_norm(m)

    def test_eigenvalues_ascending(self):
        dec = oracles.eig_sym(random_pd(8, seed=1))
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)


class TestNorms:
    def test_identity(self):
        for n in (1, 4, 9):
            assert oracles.weak_norm(np.eye(n)) == pytest.approx(1.0)
            assert oracles.strong_norm(np.eye(n)) == pytest.approx(1.0)

    def test_zero(self):
        assert oracles.weak_norm(np.zeros((3, 3))) == 0.0
        assert oracles.strong_norm(np.zeros((3, 3))) == 0.0

    def test_exchange_matrix(self):
        # eigenvalues +-1; entry-square sum 2 over n=2
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert oracles.weak_norm(m) == pytest.approx(1.0)
        assert oracles.strong_norm(m) == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_weak_below_strong(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        m = numlin.symmetrize(rng.standard_normal((n, n)))
        assert oracles.weak_norm(m) <= oracles.strong_norm(m) + 1e-12


class TestAsymptoticProperties:
    def test_toeplitz_strong_norm_bound(self):
        cov = geo(0.5)
        for n in (16, 64):
            toep = numlin.toeplitz_from_cov(cov, n)
            assert oracles.strong_norm(toep) <= cov.abs_sum

    def test_banded_strong_norm_bound(self):
        cov = geo(0.5)
        for n in (128, 512):
            band = oracles.banded_from_cov(cov, n)
            assert oracles.strong_norm(band) <= cov.abs_sum

    @pytest.mark.parametrize(
        "cov",
        [geo(-0.9), spectral.CovarianceSequence.from_table([2.0, 0.5, -0.25])],
        ids=["geometric--0.9", "table"],
    )
    def test_strong_norms_within_abs_sum(self, cov):
        # Gray: every strong norm is at most sum_m |K[m]|.
        for n in (16, 128, 512):
            for build in (numlin.toeplitz_from_cov, oracles.banded_from_cov):
                assert oracles.strong_norm(build(cov, n)) <= cov.abs_sum

    def test_weak_norm_difference_decays(self):
        cov = geo(0.5)
        diff = {
            n: oracles.weak_norm(
                numlin.toeplitz_from_cov(cov, n) - oracles.circulant_from_cov(cov, n)
            )
            for n in (128, 512)
        }
        assert diff[512] < diff[128]

    def test_circulant_eigs_match_spectral_formula(self):
        cov = geo(0.5)
        n = 16
        from_matrix = oracles.eig_sym(oracles.circulant_from_cov(cov, n)).eigenvalues
        from_formula = np.sort(oracles.circulant_eigs(cov, n))
        assert np.max(np.abs(from_matrix - from_formula)) < 1e-8
