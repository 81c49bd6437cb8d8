"""Exception types shared across the package."""


class SteinlabError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(SteinlabError):
    """A matrix or vector dimension is outside the supported range."""


class NotPositiveDefiniteError(SteinlabError):
    """A covariance matrix is not positive definite within tolerance."""


class NumericalFailureError(SteinlabError):
    """A numerical routine produced non-finite values or failed to converge."""


class IllConditionedSpectraError(SteinlabError):
    """A spectral ratio left the supported dynamic range."""


class DegeneratePairError(SteinlabError):
    """The two hypotheses coincide, so no error exponent exists."""
