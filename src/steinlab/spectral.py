"""Covariance sequences, spectra and their asymptotics.

Houses the stationary-process side of the library: absolutely summable
auto-covariance sequences, their spectra (DTFTs), truncated spectra and
circulant eigenvalues, spectral integrals, the Stein rate, the CLT scale
limit, and the asymptotic-equivalence diagnostics (norms and Szego averages)
for the three covariance matrix constructions.

A spectrum is its samples on one 4097-point Simpson grid (`GRID`), computed
by a single real FFT per covariance; every spectral integral runs on those
samples.  The composite Simpson weights of GRID are formed once, at
import, as `scipy.integrate.simpson(y, x=GRID)` forms them, so each
integral is three products and one sum with scipy's bits.
`spectrum_partial` is the truncated cosine sum S^[n] at arbitrary
frequencies, the one off-grid evaluation.

All logarithms are natural; bit-valued presentation is a reporting
conversion handled by `units`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.fft

from . import numlin
from .exceptions import (
    IllConditionedSpectraError,
    InvalidDimensionError,
    NumericalFailureError,
)

# Composite-Simpson grid f = k / 4096 on [0, 1]: the odd count makes Simpson
# exact on the whole interval, and the uniform spacing lets one real FFT of
# the lag sequence give the spectrum at every grid point.
GRID_SIZE = 4097
GRID = np.linspace(0.0, 1.0, GRID_SIZE)


def _simpson_weights(x: np.ndarray) -> tuple[np.ndarray, ...]:
    # Composite Simpson over the pairs of steps (h0, h1) of an odd-length
    # grid, weights as `scipy.integrate.simpson(y, x=x)` forms them: the
    # pair [x_2k, x_2k+2] contributes
    # (h0 + h1)/6 * (y_2k w0 + y_2k+1 w1 + y_2k+2 w2).
    steps = np.diff(x)
    h0, h1 = steps[0::2], steps[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    return hsum / 6.0, 2.0 - 1.0 / ratio, hsum * (hsum / (h0 * h1)), 2.0 - ratio


_SIMPSON_SCALE, _SIMPSON_W0, _SIMPSON_W1, _SIMPSON_W2 = _simpson_weights(GRID)


def _simpson(y: np.ndarray) -> float:
    """Composite Simpson integral over GRID of its samples y, bit for bit
    `scipy.integrate.simpson(y, x=GRID)`."""
    pairs = y[0:-2:2] * _SIMPSON_W0 + y[1::2] * _SIMPSON_W1 + y[2::2] * _SIMPSON_W2
    return float(np.sum(_SIMPSON_SCALE * pairs))


# Lags with |K[m]| below this fraction of K[0] are dropped.
TAIL_CUTOFF = 1e-14


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
    below double-precision relevance).  Equality is identity, as for `Spectrum`.
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

    def spectrum(self) -> "Spectrum":
        return Spectrum.from_covariance(self)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Power spectrum S(f) held as its samples on GRID.

    Every spectral quantity of the library is a Simpson integral over GRID,
    so the samples are all of the spectrum it uses.  They must be finite and
    positive; `lower` and `upper` are their extremes.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != GRID.shape:
            raise ValueError(
                f"spectrum needs {GRID_SIZE} grid samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum samples must be finite")
        lower = values.min()
        if lower <= 0.0:
            raise ValueError(f"spectrum is not positive on the grid (min {lower:.3e})")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_covariance(cls, cov: CovarianceSequence) -> "Spectrum":
        """The spectrum (DTFT of the lag sequence) on GRID, by one real FFT.

        At f = k/P with P = GRID_SIZE - 1 the phase of lag m depends only on
        m mod P, so the real part of the DFT of the lag sequence folded
        modulo P is the grid samples, exactly and for any number of lags.
        """
        period = GRID_SIZE - 1
        lags = np.arange(1, cov.values.size)
        folded = np.bincount(lags % period, weights=2.0 * cov.values[1:], minlength=period)
        folded[0] += cov.values[0]
        half = np.fft.rfft(folded).real  # f = 0 .. 1/2; S(1 - f) = S(f)
        return cls(np.concatenate([half, half[-2::-1]]))

    @classmethod
    def constant(cls, level: float) -> "Spectrum":
        """Flat spectrum S(f) = level."""
        return cls(np.full(GRID_SIZE, float(level)))

    @property
    def lower(self) -> float:
        return float(self.values.min())

    @property
    def upper(self) -> float:
        return float(self.values.max())


def spectrum_partial(cov: CovarianceSequence, n: int, f) -> np.ndarray | float:
    """Truncated spectrum with the +-floor(n/2) circulant window.

    For even n the window is m in [-n/2 + 1, n/2] (the extreme lag enters
    once), for odd n it is symmetric; in both cases the result is the real
    cosine sum, equal to the circulant eigenvalue at f = k/n.
    """
    if n < 3:
        raise InvalidDimensionError(f"n must be >= 3, got {n}")
    f = np.asarray(f, dtype=float)
    half = n // 2
    out = np.full(f.shape, cov.k(0), dtype=float)
    if n % 2 == 0:
        paired = np.arange(1, half)
        single = half
    else:
        paired = np.arange(1, half + 1)
        single = None
    if paired.size:
        out = out + 2.0 * np.cos(2.0 * np.pi * np.multiply.outer(f, paired)) @ np.asarray(
            cov.k(paired)
        )
    if single is not None:
        out = out + cov.k(single) * np.cos(2.0 * np.pi * f * single)
    if out.ndim == 0:
        return float(out)
    return out


def circulant_eigs(cov: CovarianceSequence, n: int) -> np.ndarray:
    """Eigenvalues of the circulant construction: S^[n] at f = k/n.

    A circulant matrix's eigenvalues are the DFT of its first column."""
    return np.fft.fft(numlin.circulant_column(cov, n)).real


def spectral_integral(
    func: Callable[[np.ndarray], np.ndarray], spectrum: Spectrum
) -> float:
    """Integral over [0, 1] of func(S(f)) by composite Simpson."""
    integrand = np.asarray(func(spectrum.values), dtype=float)
    if not np.all(np.isfinite(integrand)):
        raise NumericalFailureError("integrand is non-finite on the grid")
    return _simpson(integrand)


# Dynamic-range guard for spectral ratios.
RATIO_MIN = 1e-12
RATIO_MAX = 1e12


def _spectral_ratio(spectrum_p: Spectrum, spectrum_q: Spectrum) -> np.ndarray:
    ratio = spectrum_p.values / spectrum_q.values
    if np.any(ratio < RATIO_MIN) or np.any(ratio > RATIO_MAX):
        raise IllConditionedSpectraError(
            "spectral ratio leaves the supported range "
            f"[{RATIO_MIN:g}, {RATIO_MAX:g}] on the grid"
        )
    return ratio


def stein_rate(spectrum_p: Spectrum, spectrum_q: Spectrum) -> float:
    """Linear growth rate of the relative entropy, in nats per sample.

    One half the integral of (r - log r - 1) with r the spectral ratio;
    an Itakura-Saito-type divergence, zero iff the spectra agree on the
    grid.
    """
    ratio = _spectral_ratio(spectrum_p, spectrum_q)
    integrand = ratio - np.log(ratio) - 1.0
    return 0.5 * _simpson(integrand)


def bn_limit(spectrum_p: Spectrum, spectrum_q: Spectrum) -> float:
    """Limit of B_n / sqrt(n): sqrt of the integral of (r - 1)^2."""
    ratio = _spectral_ratio(spectrum_p, spectrum_q)
    return float(np.sqrt(_simpson((ratio - 1.0) ** 2)))


def eig_functional_avg(func: Callable, eigs) -> float:
    """(1/n) sum of func over an eigenvalue sequence."""
    eigs = np.asarray(eigs, dtype=float)
    return float(np.mean(np.asarray(func(eigs), dtype=float)))


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
    `numlin.inverse_diagonal_sums` of the order-n predictor.  T's strong
    norm comes from `numlin.strong_norm_toeplitz`; C's from its FFT
    eigenvalues.
    """
    spectrum = cov.spectrum()
    targets = {
        "spectral_x": spectral_integral(lambda s: s, spectrum),
        "spectral_log": spectral_integral(np.log, spectrum),
        "spectral_inv": spectral_integral(lambda s: 1.0 / s, spectrum),
    }
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
                strong_circulant=float(np.max(np.abs(circulant_eigs(cov, n)))),
                abs_sum_bound=bound,
            )
        )
    return rows
