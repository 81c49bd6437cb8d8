"""Covariance sequences, spectra and their asymptotics.

Houses the stationary-process side of the library: absolutely summable
auto-covariance sequences, their spectra (DTFTs), spectral integrals, the
Stein rate, the CLT scale limit, and the asymptotic-equivalence
diagnostics (norms and Szego averages) for the three covariance matrix
constructions.

A spectrum is sampled at f = k/P by one real FFT of the lags folded modulo
P (`CovarianceSequence.spectrum`).  Every spectral integrand is a smooth
periodic function of f, so every spectral integral is the trapezoid rule,
the plain mean of the samples, which converges geometrically in P: it
doubles P from `POINTS_MIN` until two successive means agree, and fails
past `POINTS_MAX`.  The rows of an integrand share one spectrum per
covariance per grid.

All logarithms are natural; bit-valued presentation is a reporting
conversion handled by `units`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.fft

from . import numlin
from .exceptions import IllConditionedSpectraError, NumericalFailureError

# Lags with |K[m]| below this fraction of K[0] are dropped.
TAIL_CUTOFF = 1e-14

# The trapezoid grids: P = POINTS_MIN, 2 POINTS_MIN, ... up to POINTS_MAX.
POINTS_MIN = 4096
POINTS_MAX = 2**22
# Two successive means that differ by at most this times the mean of
# |integrand| end the doubling.
PERIODIC_RTOL = 1e-13


def _is_real(value) -> bool:
    # A type check, not a conversion: numpy turns '2' into 2.0 and True into
    # 1.0, and bool is a subclass of int.
    real = isinstance(value, (int, float, np.integer, np.floating))
    return real and not isinstance(value, (bool, np.bool_))


@dataclass(frozen=True, eq=False)
class CovarianceSequence:
    """Symmetric, absolutely summable auto-covariance sequence.

    `values[m]` holds K[m] for m >= 0 up to the truncation lag; lags beyond
    it are treated as zero (geometric tails are truncated where they fall
    below double-precision relevance).  Equality is identity: two sequences
    with the same lags are still two objects.
    """

    values: np.ndarray

    def __post_init__(self):
        values = self.values
        numeric = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
        if not numeric and not all(map(_is_real, np.asarray(values, dtype=object).flat)):
            raise ValueError(f"covariance values must be real numbers, got {values!r}")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("covariance values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("covariance values must be finite")
        if values[0] <= 0.0:
            raise ValueError(f"K[0] must be positive, got {values[0]}")
        object.__setattr__(self, "values", values)

    @classmethod
    def white(cls, scale: float = 1.0) -> "CovarianceSequence":
        """White noise: K[0] = scale, all other lags zero."""
        return cls([scale])

    @classmethod
    def geometric(cls, rho: float, scale: float = 1.0) -> "CovarianceSequence":
        """K[m] = scale * rho^|m|, truncated below TAIL_CUTOFF * K[0]."""
        if not (_is_real(rho) and _is_real(scale)):
            raise ValueError(f"rho and scale must be real numbers, got {rho!r}, {scale!r}")
        if not 0.0 <= abs(rho) < 1.0:
            raise ValueError(f"geometric ratio must satisfy |rho| < 1, got {rho}")
        if rho == 0.0:
            return cls.white(scale)
        length = int(np.ceil(np.log(TAIL_CUTOFF) / np.log(abs(rho)))) + 1
        return cls(scale * rho ** np.arange(length))

    @classmethod
    def from_table(cls, values: Sequence[float]) -> "CovarianceSequence":
        """Finitely supported sequence given as K[0], K[1], ..."""
        return cls(values)

    def k(self, m) -> np.ndarray | float:
        """K[|m|]; zero beyond the truncation lag.  Lags must be integers."""
        lags = np.asarray(m)
        if lags.dtype.kind not in "iu":
            raise ValueError(f"lags must be integers, got {m!r}")
        lags = np.abs(lags)
        scalar = lags.ndim == 0
        lags = np.atleast_1d(lags)
        out = np.zeros(lags.shape, dtype=float)
        inside = lags < self.values.size
        out[inside] = self.values[lags[inside]]
        if scalar:
            return float(out[0])
        return out

    @property
    def abs_sum(self) -> float:
        """Two-sided absolute sum: sum over all integer lags of |K[m]|."""
        return float(np.abs(self.values[0]) + 2.0 * np.sum(np.abs(self.values[1:])))

    def spectrum(self, points: int = POINTS_MIN) -> np.ndarray:
        """Samples S(k/points), k = 0 .. points/2, of the spectrum (the DTFT
        of the lags), by one real FFT.

        At f = k/P the phase of lag m depends only on m mod P, so the real
        part of the DFT of the lag sequence folded modulo P is the samples,
        exactly and for any number of lags.  S(1 - f) = S(f), so the half
        period holds every distinct sample.  They must be finite and
        positive.
        """
        # K[0] among the weights keeps them non-empty, so the fold is float.
        weights = 2.0 * self.values
        weights[0] = self.values[0]
        lags = np.arange(self.values.size)
        folded = np.bincount(lags % points, weights=weights, minlength=points)
        half = np.fft.rfft(folded).real
        if not np.all(np.isfinite(half)):
            raise ValueError("spectrum samples must be finite")
        lower = half.min()
        if lower <= 0.0:
            raise ValueError(f"spectrum is not positive on the grid (min {lower:.3e})")
        return half


def _half_period_mean(half: np.ndarray) -> float:
    """Mean over one period of samples given at k = 0 .. P/2 of an even
    function: samples 1 .. P/2 - 1 each stand for two."""
    points = 2 * (half.size - 1)
    return float(half[0] + half[-1] + 2.0 * np.sum(half[1:-1])) / points


def _periodic_mean(integrand: Callable, covs: Sequence[CovarianceSequence]) -> float | list:
    """Integral over [0, 1] of integrand(S_1, S_2, ...), the spectra of
    `covs` sampled on one grid, by the periodic trapezoid rule; an
    integrand that returns several rows gets a list of their integrals,
    all read off one spectrum per covariance per grid.

    The grid at P is every other point of the grid at 2P, and on a smooth
    periodic integrand the error falls geometrically in P, so the gap
    between the means at P and 2P estimates the error at P; the means at
    the first 2P where every row's gap is small are returned.  Scaling the
    tolerance by the mean of |integrand| lets an integrand that is zero
    everywhere stop at the second grid.
    """
    previous = None
    points = POINTS_MIN
    while points <= POINTS_MAX:
        values = np.asarray(integrand(*(cov.spectrum(points) for cov in covs)), dtype=float)
        if not np.all(np.isfinite(values)):
            raise NumericalFailureError("integrand is non-finite on the grid")
        rows = np.atleast_2d(values)
        means = [_half_period_mean(row) for row in rows]
        if previous is not None and all(
            abs(mean - old) <= PERIODIC_RTOL * _half_period_mean(np.abs(row))
            for mean, old, row in zip(means, previous, rows)
        ):
            return means if values.ndim > 1 else means[0]
        previous = means
        points *= 2
    raise NumericalFailureError(
        f"spectral integral not converged on {POINTS_MAX} grid points"
    )


def spectral_integral(func: Callable, cov: CovarianceSequence) -> float | list:
    """Integral over [0, 1] of func(S(f)), S the spectrum of `cov`, or the
    list of integrals of func's rows if it returns several (`_periodic_mean`)."""
    return _periodic_mean(func, (cov,))


def check_spectra(covs: Sequence[CovarianceSequence]) -> None:
    """Raise ValueError unless each spectrum is finite and positive on each
    grid every spectral integral visits, the two where a zero one stops."""
    _periodic_mean(lambda *spectra: np.zeros_like(spectra[0]), covs)


# Dynamic-range guard for spectral ratios.
RATIO_MIN = 1e-12
RATIO_MAX = 1e12


def _spectral_ratio(spectrum_p: np.ndarray, spectrum_q: np.ndarray) -> np.ndarray:
    ratio = spectrum_p / spectrum_q
    if np.any(ratio < RATIO_MIN) or np.any(ratio > RATIO_MAX):
        raise IllConditionedSpectraError(
            "spectral ratio leaves the supported range "
            f"[{RATIO_MIN:g}, {RATIO_MAX:g}] on the grid"
        )
    return ratio


def _stein_integrand(spectrum_p: np.ndarray, spectrum_q: np.ndarray) -> np.ndarray:
    ratio = _spectral_ratio(spectrum_p, spectrum_q)
    return ratio - np.log(ratio) - 1.0


def _bn_integrand(spectrum_p: np.ndarray, spectrum_q: np.ndarray) -> np.ndarray:
    return (_spectral_ratio(spectrum_p, spectrum_q) - 1.0) ** 2


def stein_rate(cov_p: CovarianceSequence, cov_q: CovarianceSequence) -> float:
    """Linear growth rate of the relative entropy, in nats per sample.

    One half the integral of (r - log r - 1) with r the spectral ratio;
    an Itakura-Saito-type divergence, zero iff the spectra agree on the
    grid.
    """
    return 0.5 * _periodic_mean(_stein_integrand, (cov_p, cov_q))


def bn_limit(cov_p: CovarianceSequence, cov_q: CovarianceSequence) -> float:
    """Limit of B_n / sqrt(n): sqrt of the integral of (r - 1)^2."""
    return float(np.sqrt(_periodic_mean(_bn_integrand, (cov_p, cov_q))))


@dataclass(frozen=True)
class EquivalenceRow:
    """Diagnostics at one n of the Toeplitz (T), banded (B) and circulant (C)
    matrices; `abs_sum_bound` is the absolute covariance sum, sum_m |K[m]|,
    which bounds the strong norm of every one of them (Gray)."""

    n: int
    weak_diff_toeplitz_circulant: float
    eigavg_x: float
    eigavg_log: float
    eigavg_inv: float
    spectral_x: float
    spectral_log: float
    spectral_inv: float
    weak_diff_toeplitz_banded: float
    weak_diff_banded_circulant: float
    strong_toeplitz: float
    strong_circulant: float
    abs_sum_bound: float


def asym_equiv_report(
    cov: CovarianceSequence, n_list: Sequence[int]
) -> list[EquivalenceRow]:
    """One row per n of the ascending `n_list`, from the lags alone: no
    n x n matrix is formed.

    T, B and C are symmetric Toeplitz, so each weak-norm difference is
    `numlin.weak_norm_toeplitz` of a lag difference.  One `numlin.levinson`
    of T at the largest n gives every n its Szego averages: eigavg_x = K[0]
    (the trace over n), eigavg_log = log det T / n from the first n errors,
    and eigavg_inv = tr(T^-1) / n, the zeroth diagonal sum from
    `numlin.inverse_diagonal_sums` of the order-n predictor.  The three
    spectral targets are one three-row `spectral_integral`.  T's strong
    norm comes from `numlin.strong_norm_toeplitz`; C's from its
    eigenvalues, the FFT of the column built above.
    """
    names = ("spectral_x", "spectral_log", "spectral_inv")
    targets = dict(zip(names, spectral_integral(lambda s: (s, np.log(s), 1.0 / s), cov)))
    bound = cov.abs_sum
    # B's and C's columns reject an n below 3 before the recursion runs.
    columns = [(numlin.banded_column(cov, n), numlin.circulant_column(cov, n)) for n in n_list]
    lags = cov.k(np.arange(n_list[-1]))
    predictors, errors = numlin.levinson(lags, n_list)
    rows = []
    for n, (band, circ), predictor in zip(n_list, columns, predictors):
        toep = lags[:n]
        inverse_trace = numlin.inverse_diagonal_sums(predictor, errors[n - 1])[0]
        rows.append(
            EquivalenceRow(
                n=n,
                weak_diff_toeplitz_circulant=numlin.weak_norm_toeplitz(toep - circ),
                eigavg_x=float(toep[0]),
                eigavg_log=float(np.sum(np.log(errors[:n]))) / n,
                eigavg_inv=float(inverse_trace) / n,
                **targets,
                weak_diff_toeplitz_banded=numlin.weak_norm_toeplitz(toep - band),
                weak_diff_banded_circulant=numlin.weak_norm_toeplitz(band - circ),
                strong_toeplitz=numlin.strong_norm_toeplitz(toep),
                strong_circulant=float(np.max(np.abs(np.fft.fft(circ).real))),
                abs_sum_bound=bound,
            )
        )
    return rows
