"""Error exponents for Gaussian hypothesis tests on stationary processes.

Typical sets and their good thresholds, Toeplitz/circulant spectral
asymptotics, exact Gaussian relative entropy, detector error-rate
estimation, and a closed-form sublinear-growth example.
"""

from . import detect, gaussian, numlin, spectral, sublinear, typicality, units
from .exceptions import (
    DegeneratePairError,
    IllConditionedSpectraError,
    InvalidDimensionError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    SteinlabError,
    VacuousBoundError,
)

__version__ = "0.1.0"

__all__ = [
    "detect",
    "gaussian",
    "numlin",
    "spectral",
    "sublinear",
    "typicality",
    "units",
    "SteinlabError",
    "DegeneratePairError",
    "IllConditionedSpectraError",
    "InvalidDimensionError",
    "NotPositiveDefiniteError",
    "NumericalFailureError",
    "VacuousBoundError",
]
