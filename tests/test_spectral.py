import numpy as np
import pytest
from scipy.integrate import quad

from steinlab import numlin, spectral
from steinlab.exceptions import IllConditionedSpectraError, NumericalFailureError

WHITE = spectral.CovarianceSequence.white()
GEO = spectral.CovarianceSequence.geometric(0.5)


def half_grid(points=4096):
    # The frequencies of `CovarianceSequence.spectrum(points)`.
    return np.arange(points // 2 + 1) / points


def geo_spectrum_exact(rho, f):
    # DTFT of rho^|m|: (1 - rho^2) / (1 - 2 rho cos(2 pi f) + rho^2)
    return (1.0 - rho**2) / (1.0 - 2.0 * rho * np.cos(2.0 * np.pi * f) + rho**2)


class TestCovarianceSequence:
    def test_white(self):
        assert WHITE.k(0) == 1.0
        assert WHITE.k(1) == 0.0
        assert WHITE.abs_sum == 1.0

    def test_geometric_values_and_abs_sum(self):
        assert GEO.k(0) == 1.0
        assert GEO.k(3) == 0.125
        assert GEO.k(-3) == 0.125
        assert GEO.abs_sum == pytest.approx(3.0, abs=1e-12)

    def test_geometric_tail_truncated(self):
        assert GEO.k(500) == 0.0
        assert abs(GEO.values[-1]) < 1e-13

    def test_table(self):
        cov = spectral.CovarianceSequence.from_table([2.0, 0.5])
        assert cov.k(1) == 0.5
        assert cov.k(2) == 0.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: spectral.CovarianceSequence.white("2"),
            lambda: spectral.CovarianceSequence.white(None),
            lambda: spectral.CovarianceSequence.from_table(["1", "0.25"]),
            lambda: spectral.CovarianceSequence.from_table([True, 0.5]),
            lambda: spectral.CovarianceSequence.from_table([1.0, None]),
            lambda: spectral.CovarianceSequence.geometric("0.5"),
            lambda: spectral.CovarianceSequence.geometric(0.5, True),
        ],
        ids=["white-str", "white-none", "table-str", "table-bool", "table-none",
             "geometric-str-rho", "geometric-bool-scale"],
    )
    def test_non_real_values_rejected(self, build):
        with pytest.raises(ValueError, match="real numbers"):
            build()

    def test_numpy_numbers_accepted(self):
        cov = spectral.CovarianceSequence.from_table([np.int64(2), np.float32(0.5)])
        assert cov.values.tolist() == [2.0, 0.5]
        assert spectral.CovarianceSequence.from_table(np.array([2, 1])).k(1) == 1.0

    @pytest.mark.parametrize(
        "lags", [2.7, 2.0, np.array([0.0, 1.5]), [1, 2.5], True, "2"],
        ids=["fraction", "integral-float", "float-array", "mixed-list", "bool", "string"],
    )
    def test_non_integer_lags_rejected(self, lags):
        with pytest.raises(ValueError, match="lags must be integers"):
            GEO.k(lags)

    def test_integer_lags_accepted(self):
        assert GEO.k(np.int32(-2)) == 0.25
        assert GEO.k(np.uint8(1)) == 0.5
        expected = [1.0, 0.5, 0.25, 0.5, 0.0]
        assert GEO.k([0, 1, 2, -1, 500]).tolist() == expected
        assert GEO.k(np.array([[0, 1], [2, -1]])).tolist() == [[1.0, 0.5], [0.25, 0.5]]

    def test_equality_is_identity(self):
        cov = spectral.CovarianceSequence.geometric(0.5)
        assert cov == cov
        assert cov != spectral.CovarianceSequence.geometric(0.5)

    def test_nonpositive_k0_rejected(self):
        with pytest.raises(ValueError):
            spectral.CovarianceSequence.from_table([0.0, 0.1])

    def test_nonpositive_spectrum_rejected(self):
        # K = (1, 0.6): S(1/2) = 1 - 1.2 < 0
        with pytest.raises(ValueError):
            spectral.CovarianceSequence.from_table([1.0, 0.6]).spectrum()


class TestSpectrum:
    @pytest.mark.parametrize("level", [0.0, -1.0, np.nan, np.inf])
    def test_constant_rejects_bad_level(self, level):
        with pytest.raises(ValueError):
            spectral.CovarianceSequence.white(level)

    def test_white_spectrum_flat(self):
        s = WHITE.spectrum()
        assert s.shape == (2049,)
        assert np.all(s == 1.0)

    def test_white_spectrum_keeps_a_fractional_scale(self):
        assert np.all(spectral.CovarianceSequence.white(2.5).spectrum() == 2.5)

    def test_geometric_matches_closed_form(self):
        s = GEO.spectrum()
        assert np.allclose(s, geo_spectrum_exact(0.5, half_grid()), atol=1e-12)

    def test_bounds_from_grid(self):
        s = GEO.spectrum()
        assert s.min() == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert s.max() == pytest.approx(3.0, abs=1e-10)

    def test_symmetry(self):
        # The half period is all of the spectrum: S(1 - f) = S(f).
        n = 2 * GEO.values.size + 1
        mirrored = spectral.spectrum_partial(GEO, n, 1.0 - half_grid())
        assert np.allclose(GEO.spectrum(), mirrored, rtol=1e-12, atol=0.0)

    def test_grid_is_every_other_point_of_the_next(self):
        coarse, fine = GEO.spectrum(4096), GEO.spectrum(8192)
        assert np.allclose(fine[::2], coarse, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "cov",
        [
            WHITE,
            spectral.CovarianceSequence.geometric(0.9),
            spectral.CovarianceSequence.from_table([2.0, -0.7, 0.3, 0.1]),
        ],
        ids=["white", "geometric-0.9", "table"],
    )
    def test_fft_matches_cosine_sum(self, cov):
        # a window of 2 * len + 1 lags holds every lag of the sequence
        n = 2 * cov.values.size + 1
        reference = spectral.spectrum_partial(cov, n, half_grid())
        assert np.allclose(cov.spectrum(), reference, rtol=1e-12, atol=0.0)

    def test_fft_folds_more_lags_than_grid_points(self):
        rho = 0.999
        cov = spectral.CovarianceSequence.geometric(rho)
        assert cov.values.size > 4096
        exact = geo_spectrum_exact(rho, half_grid())
        assert np.allclose(cov.spectrum(), exact, rtol=1e-9, atol=0.0)


class TestSpectrumPartial:
    def test_white(self):
        for n in (3, 4, 8):
            assert spectral.spectrum_partial(WHITE, n, 0.3) == pytest.approx(1.0)

    def test_geometric_converges_at_dc(self):
        # sum of 0.5^|m| over all lags = 3
        values = [spectral.spectrum_partial(GEO, n, 0.0) for n in (8, 32, 128)]
        assert values[-1] == pytest.approx(3.0, abs=1e-8)
        assert abs(values[0] - 3.0) > abs(values[-1] - 3.0)

    def test_frequency_symmetry(self):
        for n in (6, 7):
            for f in (0.1, 0.3, 0.45):
                assert spectral.spectrum_partial(GEO, n, f) == pytest.approx(
                    spectral.spectrum_partial(GEO, n, 1.0 - f), abs=1e-12
                )


class TestCirculantEigs:
    def test_white(self):
        assert np.allclose(spectral.circulant_eigs(WHITE, 4), np.ones(4))

    def test_truncated_sum_by_hand_n4(self):
        # 5-term window m in {-1, 0, 1, 2} evaluated at f in {0, 1/4, 1/2, 3/4}
        rho = 0.5

        def oracle(f):
            return (
                1.0
                + 2.0 * rho * np.cos(2 * np.pi * f)
                + rho**2 * np.cos(2 * np.pi * f * 2)
            )

        eigs = spectral.circulant_eigs(GEO, 4)
        assert np.allclose(eigs, [oracle(k / 4) for k in range(4)], atol=1e-12)

    def test_reflection_symmetry(self):
        eigs = spectral.circulant_eigs(GEO, 9)
        for k in range(1, 9):
            assert eigs[k] == pytest.approx(eigs[9 - k], abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 9, 16, 101, 256])
    def test_fft_matches_truncated_sum(self, n):
        cov = spectral.CovarianceSequence.geometric(0.8)
        reference = spectral.spectrum_partial(cov, n, np.arange(n) / n)
        assert np.allclose(spectral.circulant_eigs(cov, n), reference, rtol=1e-12, atol=0.0)


class TestSpectralIntegral:
    def test_identity_white(self):
        assert spectral.spectral_integral(lambda s: s, WHITE) == pytest.approx(1.0)

    def test_identity_geometric_gives_k0(self):
        # inverse-DTFT oracle: integral of S equals K[0] = 1
        value = spectral.spectral_integral(lambda s: s, GEO)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_log_matches_szego_closed_form(self):
        # Szego: integral of ln S for geometric rho is ln(1 - rho^2)
        value = spectral.spectral_integral(np.log, GEO)
        assert value == pytest.approx(np.log(0.75), abs=1e-10)
        # independent quadrature oracle
        oracle, _ = quad(lambda f: np.log(geo_spectrum_exact(0.5, f)), 0.0, 1.0)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(NumericalFailureError), np.errstate(invalid="ignore"):
            spectral.spectral_integral(lambda s: np.log(s - 1.0), GEO)


class TestSteinRate:
    def test_equal_spectra(self):
        assert spectral.stein_rate(GEO, GEO) == 0.0

    def test_geo_vs_white_closed_form(self):
        value = spectral.stein_rate(GEO, WHITE)
        assert value == pytest.approx(-0.5 * np.log(0.75), abs=1e-10)
        oracle, _ = quad(
            lambda f: 0.5
            * (geo_spectrum_exact(0.5, f) - np.log(geo_spectrum_exact(0.5, f)) - 1.0),
            0.0,
            1.0,
        )
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_constant_vs_white(self):
        c = 2.5
        value = spectral.stein_rate(spectral.CovarianceSequence.white(c), WHITE)
        assert value == pytest.approx(0.5 * (c - np.log(c) - 1.0), abs=1e-12)

    def test_scale_invariance(self):
        base = spectral.stein_rate(GEO, WHITE)
        for c in (0.1, 7.0):
            scaled_p = spectral.CovarianceSequence(c * GEO.values)
            scaled_q = spectral.CovarianceSequence.white(c)
            assert spectral.stein_rate(scaled_p, scaled_q) == pytest.approx(base, abs=1e-12)

    def test_ill_conditioned_ratio_rejected(self):
        with pytest.raises(IllConditionedSpectraError):
            spectral.stein_rate(spectral.CovarianceSequence.white(1e20), WHITE)


class TestBnLimit:
    def test_equal_spectra(self):
        assert spectral.bn_limit(GEO, GEO) == 0.0

    def test_geo_vs_white(self):
        # Parseval oracle: integral of S_p^2 = sum rho^(2|m|) = 5/3
        value = spectral.bn_limit(GEO, WHITE)
        assert value == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-10)

    def test_constant_vs_white(self):
        c = 1.75
        value = spectral.bn_limit(spectral.CovarianceSequence.white(c), WHITE)
        assert value == pytest.approx(abs(c - 1.0), abs=1e-12)


class TestPeriodicTrapezoid:
    @pytest.mark.parametrize("rho", [0.5, 0.99, 0.999, 0.9999])
    def test_geo_vs_white_to_rounding(self, rho):
        # Kolmogorov-Szego for AR(1): C_s = -ln(1 - rho^2) / 2.  Near the
        # unit root the spectral peak needs grids far finer than the first.
        exact = -0.5 * np.log1p(-rho * rho)
        assert spectral.stein_rate(spectral.CovarianceSequence.geometric(rho), WHITE) == (
            pytest.approx(exact, rel=1e-12)
        )

    def test_equal_covariances_stop_at_the_second_grid(self, monkeypatch):
        monkeypatch.setattr(spectral, "POINTS_MAX", 2 * spectral.POINTS_MIN)
        twin = spectral.CovarianceSequence(GEO.values.copy())
        assert spectral.stein_rate(GEO, twin) == 0.0
        assert spectral.bn_limit(GEO, twin) == 0.0

    def test_not_converged_below_the_cap_fails(self, monkeypatch):
        monkeypatch.setattr(spectral, "POINTS_MAX", 8192)
        # rho = 0.5 converges on 8192 points, rho = 0.999 needs 65536.
        spectral.stein_rate(GEO, WHITE)
        with pytest.raises(NumericalFailureError, match="not converged"):
            spectral.stein_rate(spectral.CovarianceSequence.geometric(0.999), WHITE)

    def test_both_spectra_on_one_grid(self, monkeypatch):
        grids = []
        spectrum = spectral.CovarianceSequence.spectrum

        def recorded(cov, points=4096):
            grids.append(points)
            return spectrum(cov, points)

        monkeypatch.setattr(spectral.CovarianceSequence, "spectrum", recorded)
        spectral.stein_rate(spectral.CovarianceSequence.geometric(0.999), GEO)
        assert grids[0::2] == grids[1::2] == [4096 * 2**k for k in range(len(grids) // 2)]

    def test_ratio_guard_on_every_grid(self):
        # Lags 1 and 4097 fold together on 4096 points, where S_q is flat; on
        # 8192 points S_q falls to 3e-7 next to f = 1/2, and the ratio of a
        # flat S_p = 1e6 leaves the supported range.
        q = spectral.CovarianceSequence.from_table([1.0, 0.25] + [0.0] * 4095 + [-0.25])
        assert np.all(q.spectrum(4096) == 1.0)
        with pytest.raises(IllConditionedSpectraError):
            spectral.stein_rate(spectral.CovarianceSequence.white(1e6), q)


class TestEigFunctionalAvg:
    def test_identity(self):
        assert spectral.eig_functional_avg(lambda x: x, [1.0, 1.0, 1.0]) == 1.0

    def test_log(self):
        assert spectral.eig_functional_avg(np.log, [1.0, np.e]) == pytest.approx(0.5)

    def test_inverse(self):
        assert spectral.eig_functional_avg(lambda x: 1.0 / x, [2.0, 4.0]) == pytest.approx(0.375)


class TestSzegoConvergence:
    @pytest.mark.parametrize(
        "func,name",
        [(lambda x: x, "x"), (np.log, "log"), (lambda x: 1.0 / x, "inv")],
    )
    def test_toeplitz_eig_avg_converges(self, func, name):
        target = spectral.spectral_integral(func, GEO)
        errs = {}
        for n in (64, 512):
            eigs = numlin.eig_sym(numlin.toeplitz_from_cov(GEO, n)).eigenvalues
            errs[n] = abs(spectral.eig_functional_avg(func, eigs) - target)
        assert errs[512] < errs[64]

    def test_circulant_eig_avg_converges(self):
        target = spectral.spectral_integral(np.log, GEO)
        # trapezoid-of-periodic accuracy: machine precision well before n=512
        errs = {
            n: abs(
                spectral.eig_functional_avg(np.log, spectral.circulant_eigs(GEO, n))
                - target
            )
            for n in (16, 512)
        }
        assert errs[512] < errs[16]
        assert errs[512] < 1e-12

    def test_toeplitz_eigs_within_spectrum_bounds(self):
        spectrum = GEO.spectrum()
        for n in (16, 64):
            eigs = numlin.eig_sym(numlin.toeplitz_from_cov(GEO, n)).eigenvalues
            assert np.all(eigs >= spectrum.min() - 1e-10)
            assert np.all(eigs <= spectrum.max() + 1e-10)


class TestAsymEquivReport:
    def test_white_all_zero(self):
        rows = spectral.asym_equiv_report(WHITE, [4, 8])
        for row in rows:
            assert row.weak_diff_toeplitz_banded == 0.0
            assert row.weak_diff_banded_circulant == 0.0
            assert row.weak_diff_toeplitz_circulant == 0.0

    def test_geometric_decay_and_bounds(self):
        rows = spectral.asym_equiv_report(GEO, [128, 512])
        assert rows[1].weak_diff_toeplitz_circulant < rows[0].weak_diff_toeplitz_circulant
        for row in rows:
            bound = row.abs_sum_bound
            assert bound == pytest.approx(3.0, abs=1e-10)
            assert row.strong_toeplitz <= bound
            assert row.strong_circulant <= bound

    @pytest.mark.parametrize(
        "cov, bound",
        [
            (spectral.CovarianceSequence.geometric(-0.9), 19.0),
            (spectral.CovarianceSequence.from_table([2.0, 0.5, -0.25]), 3.5),
        ],
        ids=["geometric--0.9", "table"],
    )
    def test_bound_is_the_abs_sum(self, cov, bound):
        # The circulant attains sum_m |K[m]| once n covers every lag (rho=-0.9:
        # at f = 1/2, even n); the run_check slack is for that equality.
        for row in spectral.asym_equiv_report(cov, [16, 17, 128, 1024]):
            assert row.abs_sum_bound == pytest.approx(bound, rel=1e-12)
            assert row.strong_toeplitz < row.abs_sum_bound
            assert row.strong_circulant <= row.abs_sum_bound * (1.0 + 1e-12)

    def test_strong_norms_match_dense_matrices(self):
        for row in spectral.asym_equiv_report(GEO, [16, 17, 64]):
            toep = numlin.toeplitz_from_cov(GEO, row.n)
            circ = numlin.circulant_from_cov(GEO, row.n)
            assert row.strong_toeplitz == pytest.approx(numlin.strong_norm(toep), rel=1e-12)
            assert row.strong_circulant == pytest.approx(numlin.strong_norm(circ), rel=1e-12)

    def test_no_dense_eigensolve(self, monkeypatch):
        calls = []
        for name in ("pencil_eigvals", "eig_sym", "strong_norm"):
            solve = getattr(numlin, name)

            def counted(*args, _solve=solve, _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(numlin, name, counted)
        spectral.asym_equiv_report(GEO, [16, 32, 64])
        assert calls == []

    @pytest.mark.parametrize("rho, calls", [(0.99, 2), (0.999, 6)])
    def test_one_spectrum_per_grid(self, rho, calls, monkeypatch):
        # The three targets share each grid's spectrum: three one-row
        # integrals would make 6 and 14 calls.
        grids = []
        spectrum = spectral.CovarianceSequence.spectrum

        def recorded(cov, points=4096):
            grids.append(points)
            return spectrum(cov, points)

        monkeypatch.setattr(spectral.CovarianceSequence, "spectrum", recorded)
        spectral.asym_equiv_report(spectral.CovarianceSequence.geometric(rho), [512, 1024, 2048])
        assert grids == [4096 * 2**k for k in range(calls)]

    @pytest.mark.parametrize(
        "rho, rel", [(0.5, 0.0), (0.99, 0.0), (-0.95, 0.0), (0.9999, 0.0), (0.999, 1e-13)]
    )
    def test_targets_match_one_row_integrals(self, rho, rel):
        # Bit for bit where the three rows converge on the same grid.  At
        # rho = 0.999 alone they stop at 65536, 65536 and 32768 points; on
        # 65536 the 1/S row's gap exceeds the tolerance by rounding, so
        # together they stop at 131072 and the log and 1/S rows move.
        cov = spectral.CovarianceSequence.geometric(rho)
        row = spectral.asym_equiv_report(cov, [512, 1024, 2048])[-1]
        targets = (row.spectral_x, row.spectral_log, row.spectral_inv)
        for target, func in zip(targets, (lambda s: s, np.log, lambda s: 1.0 / s)):
            alone = spectral.spectral_integral(func, cov)
            assert abs(target - alone) <= rel * abs(alone)

    def test_several_rows_return_a_list(self):
        rows = spectral.spectral_integral(lambda s: (s, 2.0 * s), GEO)
        assert rows == [spectral.spectral_integral(lambda s: s, GEO), 2.0 * rows[0]]
